"""Benchmark data generation: study scenarios, output-error simulation with
per-channel SNR calibration, and the impulse-response fit metric."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import linalg

from .core import Dataset, ImpulseResponse

__all__ = [
    "TrueSystem",
    "ScenarioConfig",
    "SCENARIO_DEFAULTS",
    "scenario_s1",
    "scenario_s2",
    "scenario_s3",
    "make_scenario_data",
    "simulate_oe",
    "fit_metric",
    "system_to_json",
    "system_from_json",
    "write_system_json",
    "read_system_json",
]

# Fixed fourth-order three-output system used by scenario s1.
S1_A = linalg.block_diag([[0.8, 0.5], [-0.5, 0.8]], [[0.2, 0.9], [-0.9, 0.2]])
S1_B = np.array([[1.0], [0.0], [2.0], [0.0]])
S1_C = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.1, 0.0, 0.1], [20.0, 0.0, 2.5, 0.0]])

# Digital low-pass design degenerates at the band edge; draws of the s1
# cutoff are capped just below it.
MAX_CUTOFF = 0.9999


@dataclass(frozen=True)
class TrueSystem:
    """State-space triple (A, B, C) with the delay-1 output convention."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0] or C.shape[1] != A.shape[0]:
            raise ValueError("inconsistent state-space dimensions")
        for name, arr in (("A", A), ("B", B), ("C", C)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def impulse_response(self, T: int) -> ImpulseResponse:
        """Coefficients g(k) = C A^(k-1) B for k = 1..T."""
        g = np.empty((T, self.p, self.m))
        x = self.B.copy()
        for k in range(T):
            g[k] = self.C @ x
            x = self.A @ x
        return ImpulseResponse.from_blocks(g)


SCENARIO_DEFAULTS = {
    "s1": dict(n=500, t=80, snr=(1.0, 4.0), kernel_order=1),
    "s2": dict(n=500, t=50, snr=(1.0, 4.0), kernel_order=2),
    "s3": dict(n=1000, t=60, snr=(1.0, 10.0), kernel_order=1),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo study: scenario id, sizes, SNR band, seed, run count."""

    scenario: str
    n: int
    t: int
    runs: int
    seed: int
    snr: tuple[float, float]
    kernel_order: int

    def __post_init__(self):
        if self.scenario not in SCENARIO_DEFAULTS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.n < 1 or self.t < 2 or self.runs < 1:
            raise ValueError("n, t and runs must be positive (t >= 2)")
        if self.snr[0] < 1.0:
            raise ValueError("lower SNR bound must be >= 1")

    @classmethod
    def default(cls, scenario: str, runs: int = 20, seed: int = 0, **overrides):
        if scenario not in SCENARIO_DEFAULTS:
            raise ValueError(f"unknown scenario {scenario!r}")
        base = dict(SCENARIO_DEFAULTS[scenario])
        base.update(overrides)
        return cls(scenario=scenario, runs=runs, seed=seed, **base)


def scenario_s1(n: int, seed) -> tuple[TrueSystem, np.ndarray]:
    """Fixed fourth-order system; input is low-pass filtered white noise with
    a cutoff drawn uniformly from [0.8, 1] of the Nyquist band."""
    from scipy import signal  # deferred: importing it costs about 0.6 s

    rng = np.random.default_rng(seed)
    zeta = rng.uniform(0.8, 1.0)
    white = rng.standard_normal(n)
    sos = signal.butter(8, min(zeta, MAX_CUTOFF), output="sos")
    u = signal.sosfilt(sos, white)[:, None]
    return TrueSystem(A=S1_A, B=S1_B, C=S1_C), u


def _random_stable_system(order: int, radius: float, p: int, m: int, rng) -> TrueSystem:
    """Poles drawn as conjugate pairs / reals uniformly in the given disc,
    random normal input/output maps."""
    n_pairs = int(rng.integers(0, order // 2 + 1))
    blocks = []
    for _ in range(n_pairs):
        rho = radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, math.pi)
        sig, om = rho * math.cos(phi), rho * math.sin(phi)
        blocks.append(np.array([[sig, om], [-om, sig]]))
    for _ in range(order - 2 * n_pairs):
        blocks.append(np.array([[rng.uniform(-radius, radius)]]))
    A = linalg.block_diag(*blocks)
    B = rng.standard_normal((order, m))
    C = rng.standard_normal((p, order))
    sr = float(np.abs(np.linalg.eigvals(A)).max())
    if sr > radius:
        A = A * (radius / sr)
    return TrueSystem(A=A, B=B, C=C)


def scenario_s2(n: int, seed) -> tuple[TrueSystem, np.ndarray]:
    """Random 3-output single-input system of order 1..10 with poles inside
    the radius-0.85 disc; white unit-variance input."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(1, 11))
    sys = _random_stable_system(order, 0.85, 3, 1, rng)
    u = rng.standard_normal((n, 1))
    return sys, u


def scenario_s3(n: int, seed) -> tuple[TrueSystem, np.ndarray]:
    """Random SISO system of order 1..30 with poles inside the radius-0.95
    disc; input is white noise colored by a random stable resonator."""
    from scipy import signal  # deferred: importing it costs about 0.6 s

    rng = np.random.default_rng(seed)
    order = int(rng.integers(1, 31))
    sys = _random_stable_system(order, 0.95, 1, 1, rng)
    rho = 0.9 * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, math.pi)
    den = [1.0, -2.0 * rho * math.cos(phi), rho * rho]
    u = signal.lfilter([1.0], den, rng.standard_normal(n))[:, None]
    return sys, u


_SCENARIOS = {"s1": scenario_s1, "s2": scenario_s2, "s3": scenario_s3}


def make_scenario_data(config: ScenarioConfig, system_seed, noise_seed) -> tuple[TrueSystem, Dataset]:
    """Draw one run: system + input from system_seed, noise from noise_seed."""
    sys, u = _SCENARIOS[config.scenario](config.n, system_seed)
    return sys, simulate_oe(sys, u, config.snr, noise_seed)


def simulate_oe(
    sys: TrueSystem,
    u: np.ndarray,
    snr_range: tuple[float, float] | None = None,
    seed=None,
) -> Dataset:
    """Output-error simulation from zero initial state.

    Per output channel the SNR (noise-free output std over noise std) is
    drawn uniformly from snr_range and the additive white Gaussian noise is
    calibrated to it.  ``snr_range=None`` (or an infinite band) means
    noise-free.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    n = u.shape[0]
    z = np.empty((n, sys.p))
    x = np.zeros(sys.order)
    A, B, C = sys.A, sys.B, sys.C
    for t in range(n):
        z[t] = C @ x
        x = A @ x + B @ u[t]
    if snr_range is None or not np.all(np.isfinite(snr_range)):
        return Dataset(u=u, y=z)
    rng = np.random.default_rng(seed)
    snr = rng.uniform(snr_range[0], snr_range[1], size=sys.p)
    noise_std = z.std(axis=0) / snr
    e = rng.standard_normal((n, sys.p)) * noise_std
    return Dataset(u=u, y=z + e)


def fit_metric(theta_hat: ImpulseResponse, theta_true: ImpulseResponse) -> float:
    """Average per-channel fit, 100 for perfect recovery.

    Each channel scores 100 * (1 - ||true - est|| / ||true - mean(true)||);
    channels whose true response is constant (zero denominator) are excluded
    from the average with a warning.
    """
    if (theta_hat.p, theta_hat.m, theta_hat.T) != (theta_true.p, theta_true.m, theta_true.T):
        raise ValueError("impulse responses have different dimensions")
    vals = []
    excluded = 0
    for i in range(theta_true.p):
        for j in range(theta_true.m):
            t0 = theta_true.channel(i, j)
            th = theta_hat.channel(i, j)
            centered = t0 - t0.mean()
            den = float(np.linalg.norm(centered))
            if den <= 1e-14 * max(1.0, float(np.linalg.norm(t0))):
                excluded += 1
                continue
            vals.append(100.0 * (1.0 - float(np.linalg.norm(t0 - th)) / den))
    if not vals:
        raise ValueError("every true channel is constant; fit undefined")
    if excluded:
        warnings.warn(f"{excluded} constant true channel(s) excluded from the fit average")
    return float(np.mean(vals))


def system_to_json(sys: TrueSystem, T: int) -> dict:
    """Serializable truth record: matrices plus the length-T coefficients."""
    return {
        "A": [[float(v) for v in row] for row in sys.A],
        "B": [[float(v) for v in row] for row in sys.B],
        "C": [[float(v) for v in row] for row in sys.C],
        "p": sys.p,
        "m": sys.m,
        "T": T,
        "theta0": [float(v) for v in sys.impulse_response(T).theta],
    }


def system_from_json(doc: dict) -> tuple[TrueSystem, int]:
    """Inverse of system_to_json; raises ValueError naming a missing field."""
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object with fields A, B, C and T")
    for key in ("A", "B", "C", "T"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    try:
        sys = TrueSystem(A=np.array(doc["A"]), B=np.array(doc["B"]), C=np.array(doc["C"]))
        return sys, int(doc["T"])
    except TypeError:  # a null or an object where a number belongs; bad strings raise ValueError
        raise ValueError("A, B and C must be numeric matrices and T an integer") from None


def write_system_json(sys: TrueSystem, T: int, path) -> None:
    Path(path).write_text(json.dumps(system_to_json(sys, T), indent=2, sort_keys=True))


def read_system_json(path) -> tuple[TrueSystem, int]:
    return system_from_json(json.loads(Path(path).read_text()))
