"""Domain types and deterministic linear-algebra constructions.

Truncated MIMO impulse responses are stored as flat coefficient vectors in
channel-major layout.  This module provides the shared machinery: lagged-input
regressors, block Hankel matrices, the row indices that place each
coefficient in the vectorized transposed Hankel matrix, (optional)
row/column weighting estimated from data, the one-BLAS-thread scope
every fit runs in, and the in-place LAPACK Cholesky factor and triangular
solve every evidence probe is made of.
"""
from __future__ import annotations

import csv
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import linalg, optimize

__all__ = [
    "ImpulseResponse",
    "Dataset",
    "HankelSpec",
    "regressor_block",
    "predict_outputs",
    "choose_hankel_shape",
    "build_hankel",
    "weighted_hankel",
    "make_hankel_spec",
    "surrogate_weights",
    "read_dataset_csv",
    "write_dataset_csv",
]


def _owned(a, dtype=float) -> np.ndarray:
    """Copy to a read-only array so frozen dataclasses stay immutable."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ImpulseResponse:
    """Length-T impulse response of a p-output, m-input system.

    ``theta`` concatenates the p*m scalar channels: block (i, j) holds the T
    coefficients of the response from input j to output i, blocks ordered
    (1,1), (1,2), ..., (1,m), (2,1), ..., (p,m).  Coefficient g(k)[i][j]
    lives at ``theta[((i-1)*m + (j-1))*T + (k-1)]`` (1-based i, j, k).
    """

    p: int
    m: int
    T: int
    theta: np.ndarray

    def __post_init__(self):
        if self.p < 1 or self.m < 1 or self.T < 1:
            raise ValueError("p, m and T must all be >= 1")
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if theta.size != self.T * self.m * self.p:
            raise ValueError(
                f"theta has {theta.size} entries, expected T*m*p = {self.T * self.m * self.p}"
            )
        object.__setattr__(self, "theta", _owned(theta))

    @classmethod
    def from_blocks(cls, g) -> "ImpulseResponse":
        """Build from a (T, p, m) array of matrix coefficients g(1..T)."""
        g = np.asarray(g, dtype=float)
        if g.ndim != 3:
            raise ValueError("expected a (T, p, m) coefficient array")
        T, p, m = g.shape
        theta = np.transpose(g, (1, 2, 0)).reshape(-1)
        return cls(p=p, m=m, T=T, theta=theta)

    def blocks(self) -> np.ndarray:
        """Coefficients as a (T, p, m) array; blocks()[k-1] is g(k)."""
        return np.transpose(self.theta.reshape(self.p, self.m, self.T), (2, 0, 1))

    def channel(self, i: int, j: int) -> np.ndarray:
        """The T coefficients of scalar channel (i, j), 0-based indices."""
        if not (0 <= i < self.p and 0 <= j < self.m):
            raise IndexError("channel index out of range")
        start = (i * self.m + j) * self.T
        return self.theta[start : start + self.T]

    def coefficient(self, k: int) -> np.ndarray:
        """g(k) as a (p, m) matrix, k being the 1-based lag."""
        if not 1 <= k <= self.T:
            raise IndexError("lag out of range")
        return self.theta.reshape(self.p, self.m, self.T)[:, :, k - 1]


@dataclass(frozen=True)
class Dataset:
    """Input-output records: u is (N, m), y is (N, p), rows are time steps."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"u has {u.shape[0]} rows but y has {y.shape[0]}")
        if u.shape[0] < 1:
            raise ValueError("need at least one sample")
        for name, a in (("u", u), ("y", y)):
            bad = np.argwhere(~np.isfinite(a))
            if bad.size:
                t, j = bad[0]
                raise ValueError(
                    f"{name}{j + 1} at sample {t + 1} is {float(a[t, j])!r}; "
                    "inputs and outputs must be finite"
                )
        object.__setattr__(self, "u", _owned(u))
        object.__setattr__(self, "y", _owned(y))

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]


def regressor_block(u: np.ndarray, T: int) -> np.ndarray:
    """Lagged-input block phi of shape (N, T*m).

    Column (i-1)*T + (k-1) holds u_i(t-k) for t = 1..N, with u(t) = 0 for
    t <= 0 (zero pre-sample convention).  All outputs share this block.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    N, m = u.shape
    if T < 1:
        raise ValueError("T must be >= 1")
    phi = np.zeros((N, T * m))
    for j in range(m):
        for k in range(1, min(T, N) + 1):
            phi[k:, j * T + k - 1] = u[: N - k, j]
    return phi


def predict_outputs(d: Dataset, ir: ImpulseResponse) -> np.ndarray:
    """One-step predictions as an (N, p) matrix, truncated convolution of u with g."""
    if ir.m != d.m:
        raise ValueError("input counts differ")
    phi = regressor_block(d.u, ir.T)
    yhat = np.empty((d.n, ir.p))
    for i in range(ir.p):
        block = ir.theta[i * ir.m * ir.T : (i + 1) * ir.m * ir.T]
        yhat[:, i] = phi @ block
    return yhat


def choose_hankel_shape(T: int, p: int, m: int) -> tuple[int, int]:
    """Block-row/column counts (r, c) with r+c-1 = T and p*r closest to m*c.

    Ties are broken toward larger r.  Deterministic.
    """
    if T < 2:
        raise ValueError("T must be >= 2 to build a Hankel matrix")
    best = None
    for r in range(1, T + 1):
        c = T + 1 - r
        score = abs(p * r - m * c)
        if best is None or score <= best[0]:
            best = (score, r, c)
    return best[1], best[2]


@dataclass(frozen=True)
class HankelSpec:
    """Shape and weighting for the block Hankel matrix."""

    r: int
    c: int
    p: int
    m: int
    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        if self.r < 1 or self.c < 1:
            raise ValueError("r and c must be >= 1")
        rp, cm = self.r * self.p, self.c * self.m
        W1 = np.asarray(self.W1, dtype=float)
        W2 = np.asarray(self.W2, dtype=float)
        if W1.shape != (cm, cm) or W2.shape != (rp, rp):
            raise ValueError("weight matrices have wrong shape")
        object.__setattr__(self, "W1", _owned(W1))
        object.__setattr__(self, "W2", _owned(W2))

    @property
    def T(self) -> int:
        return self.r + self.c - 1

    @property
    def theta_dim(self) -> int:
        return self.T * self.m * self.p


def surrogate_weights(d: Dataset, r: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Whitening weights from sample covariances of future outputs / past inputs.

    W2 is the inverse lower Cholesky factor of cov([y(t); ...; y(t+r-1)]),
    W1 the inverse lower Cholesky factor of cov([u(t-1); ...; u(t-c)]); both
    covariances get a 1e-8 * (trace/dim) ridge before factorization.  Raises
    ValueError("degenerate excitation ...") when a factor cannot be formed.
    """
    N, p, m = d.n, d.p, d.m
    if N < r * p + c * m:
        raise ValueError("degenerate excitation: need at least r*p + c*m samples")
    future = np.hstack([d.y[k : N - r + 1 + k] for k in range(r)])
    past = np.hstack([d.u[c - k : N - k] for k in range(1, c + 1)])

    def inv_chol(x, label):
        cov = np.cov(x, rowvar=False)
        cov = np.atleast_2d(cov)
        dim = cov.shape[0]
        cov = cov + 1e-8 * (np.trace(cov) / dim) * np.eye(dim)
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"degenerate excitation: {label} covariance not PD") from exc
        return linalg.solve_triangular(L, np.eye(dim), lower=True)

    W2 = inv_chol(future, "future-output")
    W1 = inv_chol(past, "past-input")
    return W1, W2


def make_hankel_spec(
    T: int,
    p: int,
    m: int,
    r: int | None = None,
    c: int | None = None,
    W1: np.ndarray | None = None,
    W2: np.ndarray | None = None,
) -> HankelSpec:
    """Assemble a HankelSpec; defaults to the near-square shape and identity weights."""
    if r is None or c is None:
        r, c = choose_hankel_shape(T, p, m)
    if r + c - 1 != T:
        raise ValueError("need r + c - 1 = T")
    return HankelSpec(
        r=r,
        c=c,
        p=p,
        m=m,
        W1=np.eye(c * m) if W1 is None else W1,
        W2=np.eye(r * p) if W2 is None else W2,
    )


def build_hankel(ir: ImpulseResponse, spec: HankelSpec) -> np.ndarray:
    """Block Hankel matrix H (p*r x m*c): block (a, b) is g(a+b-1)."""
    if spec.T != ir.T or spec.p != ir.p or spec.m != ir.m:
        raise ValueError("HankelSpec inconsistent with impulse response")
    g = ir.blocks()
    H = np.empty((spec.p * spec.r, spec.m * spec.c))
    for a in range(spec.r):
        H[a * spec.p : (a + 1) * spec.p] = (
            g[a : a + spec.c].transpose(1, 0, 2).reshape(spec.p, spec.c * spec.m)
        )
    return H


def weighted_hankel(ir: ImpulseResponse, spec: HankelSpec) -> np.ndarray:
    """W2^T H W1^T, the weighted Hankel matrix used by the rank penalty."""
    return spec.W2.T @ build_hankel(ir, spec) @ spec.W1.T


@functools.cache
def _openblas() -> dict:
    """{package: (get, set)} thread-count entry points of the OpenBLAS that
    numpy and scipy each bundle, for those loaded in this process.

    The two builds keep separate thread pools, so a limit has to reach both.
    Builds that are not the bundled wheels' (another BLAS, or none found)
    are left alone.
    """
    found = {}
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:  # RTLD_NOLOAD: only a library the package already loaded
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found[pkg.__name__] = (get, set_)
            break
    return found


def blas_threads(limit: int | dict | None = None) -> dict[str, int]:
    """Thread counts of the OpenBLAS builds of numpy and scipy, keyed by
    package, as they were before this call.  With ``limit``, set every build
    to that count, or each to its entry in a dict returned earlier."""
    counts = {}
    for pkg, (get, set_) in _openblas().items():
        counts[pkg] = get()
        if limit is not None:
            set_(limit[pkg] if isinstance(limit, dict) else limit)
    return counts


def one_blas_thread(fit):
    """Run ``fit`` with one thread in each bundled OpenBLAS and restore the
    caller's counts when it returns or raises.

    A fit's matrices are too small to gain from more threads, extra threads
    fight a study's worker processes for the cores, and OpenBLAS rounds
    differently with one thread than with several; so a fit gives the same
    digits whoever calls it.  The counts are per process, so fits that run
    concurrently belong in separate processes, not threads.
    """

    @functools.wraps(fit)
    def scoped(*args, **kwargs):
        saved = blas_threads(1)
        try:
            return fit(*args, **kwargs)
        finally:
            blas_threads(saved)

    return scoped


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor C of the symmetric positive definite ``a`` and
    log|a| = 2 sum(log diag C), from one LAPACK ``dpotrf`` run in place.

    ``a`` is a C-ordered float64 buffer the caller owns and gives up: it is
    factored as ``a.T``, the same matrix for a symmetric ``a`` and a
    Fortran-ordered view of its storage, so nothing is copied and ``a`` is
    overwritten by the factor, returned Fortran-ordered with its upper
    triangle zero.  Raises LinAlgError when ``a`` is not positive definite or
    the log-determinant is not finite: OpenBLAS's dpotrf passes NaN pivots
    through with info 0, so that one scalar check stands in for scanning ``a``.
    ``dpotrf`` is looked up on ``linalg.lapack`` at each call, so a test can
    count the factorizations.
    """
    c, info = linalg.lapack.dpotrf(a.T, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    logdet = 2.0 * float(np.sum(np.log(c.diagonal())))
    if not math.isfinite(logdet):
        raise np.linalg.LinAlgError("matrix is not finite")
    return c, logdet


def _solve_lower(c: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """C^-1 b (``trans`` 0) or C^-T b (``trans`` 1) for a lower-triangular C
    with a nonzero diagonal, such as a factor from ``_cholesky``, by one LAPACK
    ``dtrtrs``; ``b`` is left as it was.  No finiteness scan: callers check
    the scalar they compute from the result."""
    x, info = linalg.lapack.dtrtrs(c, b, lower=1, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError("triangular factor is singular")
    return x


LBFGSB_GTOL = 1e-5  # scipy's default L-BFGS-B gtol, its projected-gradient tolerance


def _lbfgsb(fun_grad, x0, bounds) -> tuple[np.ndarray, float, bool]:
    """L-BFGS-B on ``fun_grad(x) -> (f, gradient)`` in the box ``bounds`` from
    ``x0`` clipped into it: the best point evaluated, its value, and whether
    the search converged with no failed probe (LinAlgError or
    FloatingPointError, scored inf).  scipy's default ftol, 2.2e-9, can stop
    an evidence search about 1e-9 relative above its optimum.

    The search counts as converged when scipy reports success, or when the
    projected gradient at the best point is at most ``LBFGSB_GTOL`` times
    max(1, |f|): a line search that fails because the decrease left is below
    what f resolves ends there, at the optimum but not "successful"."""
    probes = []

    def tracked(x):
        try:
            f, g = fun_grad(x)
        except (np.linalg.LinAlgError, FloatingPointError):
            f, g = np.inf, np.zeros_like(x)
        probes.append((f, x.copy(), np.array(g, dtype=float)))
        return f, g

    x0 = np.clip(x0, *np.transpose(bounds))
    res = optimize.minimize(
        tracked, x0, jac=True, method="L-BFGS-B", bounds=bounds, options={"ftol": 1e-12}
    )
    f, x, g = min(probes, key=lambda probe: probe[0])
    stationary = res.success or _projected_gradient(x, g, bounds) <= LBFGSB_GTOL * max(1.0, abs(f))
    return x, f, bool(stationary) and all(np.isfinite(value) for value, _, _ in probes)


def _projected_gradient(x, g, bounds) -> float:
    """Largest entry of the gradient projected onto the box, as L-BFGS-B
    measures it: a component pushing out through an active bound counts as
    far as that bound allows."""
    lo, hi = np.transpose(bounds)
    return float(np.max(np.abs(np.where(g < 0, np.maximum(x - hi, g), np.minimum(x - lo, g)))))


def write_dataset_csv(d: Dataset, path) -> None:
    """CSV with header t,u1..um,y1..yp, one row per sample, time ascending."""
    path = Path(path)
    header = (
        ["t"]
        + [f"u{j + 1}" for j in range(d.m)]
        + [f"y{i + 1}" for i in range(d.p)]
    )
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t in range(d.n):
            row = [t + 1] + [repr(float(v)) for v in d.u[t]] + [
                repr(float(v)) for v in d.y[t]
            ]
            w.writerow(row)


def read_dataset_csv(path) -> Dataset:
    """Inverse of write_dataset_csv; channel counts come from the header.

    A row with the wrong number of fields or a cell that is not a number is
    a ValueError naming its line and column.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    header = rows[0]
    m = sum(1 for h in header if h.startswith("u"))
    p = sum(1 for h in header if h.startswith("y"))
    if header[0] != "t" or m < 1 or p < 1 or len(header) != 1 + m + p:
        raise ValueError(f"{path}: expected header t,u1..um,y1..yp")
    values = np.empty((len(rows) - 1, m + p))
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} fields, expected {len(header)}")
        for j, (name, cell) in enumerate(zip(header[1:], row[1:])):
            try:
                values[line - 2, j] = float(cell)
            except ValueError:
                raise ValueError(f"{path}: {name} on line {line} is {cell!r}") from None
    return Dataset(u=values[:, :m], y=values[:, m:])
