"""Atomic-dictionary baseline for SISO systems.

The dictionary holds unit-norm truncated impulse responses of second-order
resonators on a fixed pole grid; the estimate is a sparse nonnegative-free
combination selected by an l1 penalty, solved with cyclic coordinate
descent in covariance form, the penalty weight picked by hold-out.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from ..core import Dataset, ImpulseResponse, regressor_block

__all__ = ["AtomDictionary", "AtomResult", "atom_dictionary", "atom_estimate", "lasso_kkt_residual"]

log = logging.getLogger("hankelssr.atom")

# Pole grid: 32 radii (0.41 to 0.99 step 0.02, then 0.995 and 0.999) times
# 29 angles (pi/30 to pi - pi/30 step pi/30) = 928 atoms.
POLE_RADII = np.concatenate([np.round(0.41 + 0.02 * np.arange(30), 10), [0.995, 0.999]])
POLE_ANGLES = np.pi / 30.0 * np.arange(1, 30)

# Hold-out selection of mu and the final solve's stopping rule (see atom_estimate).
N_GRID = 20
HOLDOUT = 0.25
MAX_SWEEPS = 300
TOL = 1e-6


@dataclass(frozen=True)
class AtomDictionary:
    """Unit-norm length-T responses of the gridded second-order systems."""

    T: int
    poles: np.ndarray  # complex, one representative pole per atom
    atoms: np.ndarray  # (T, n_atoms), unit Euclidean columns

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]


def atom_dictionary(T: int) -> AtomDictionary:
    """Build the 928-atom dictionary of truncated resonator responses.

    Atom (h, k) is the length-T impulse response of
    C z / ((z - p)(z - conj(p))) with p = rho_h exp(i theta_k); the response
    starts at lag 1 (g(1) = C) and follows the real second-order recursion
    g(n+1) = 2 rho cos(theta) g(n) - rho^2 g(n-1).  C normalizes the
    truncated response to unit Euclidean norm.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    n_atoms = POLE_RADII.size * POLE_ANGLES.size
    atoms = np.empty((T, n_atoms))
    poles = np.empty(n_atoms, dtype=complex)
    impulse = np.zeros(T)
    impulse[0] = 1.0
    idx = 0
    for rho in POLE_RADII:
        for theta in POLE_ANGLES:
            den = [1.0, -2.0 * rho * math.cos(theta), rho * rho]
            h = signal.lfilter([1.0], den, impulse)
            nrm = float(np.linalg.norm(h))
            atoms[:, idx] = h / nrm
            poles[idx] = rho * complex(math.cos(theta), math.sin(theta))
            idx += 1
    return AtomDictionary(T=T, poles=poles, atoms=atoms)


def _soft(z: float, gamma: float) -> float:
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def _lasso_cd(
    G: np.ndarray, c: np.ndarray, mu: float, w0: np.ndarray | None, max_sweeps: int, tol: float
) -> np.ndarray:
    """min_w ||y - Xw||^2 + mu ||w||_1 given G = X'X and c = X'y.

    Cyclic coordinate descent with soft thresholding in covariance form:
    the fitted correlation q = G w is maintained incrementally so each
    update costs O(n_atoms).  Each full pass is followed by passes over the
    current active set until it stabilizes; stops when the mu-relative KKT
    residual drops below ``tol`` or after ``max_sweeps`` full passes,
    whichever comes first, so the returned weights may leave a residual
    above ``tol``.
    """
    n = c.size
    w = np.zeros(n) if w0 is None else w0.copy()
    q = G @ w if np.any(w) else np.zeros(n)
    diag = np.diag(G).copy()
    gamma = mu / 2.0

    def pass_over(indices) -> float:
        nonlocal q
        biggest = 0.0  # largest gradient-scale coefficient move of the pass
        for j in indices:
            dj = diag[j]
            if dj <= 0.0:
                continue
            zj = c[j] - q[j] + dj * w[j]
            wn = _soft(zj, gamma) / dj
            delta = wn - w[j]
            if delta != 0.0:
                q += delta * G[j]  # G symmetric: row j is column j
                w[j] = wn
                biggest = max(biggest, abs(delta) * dj)
        return biggest

    for _ in range(max_sweeps):
        # Full pass in descending-gradient order, screening coordinates that
        # cannot move; with heavily correlated atoms a plain cyclic order
        # lets early near-duplicates soak up weight the best atom should get.
        z_all = c - q + diag * w
        candidates = np.flatnonzero((np.abs(z_all) > gamma) | (w != 0.0))
        order = candidates[np.argsort(-np.abs(z_all[candidates]))]
        pass_over(order)
        if _kkt_from_grad(2.0 * (c - q), w, mu) <= tol:
            break
        for _ in range(30):
            active = np.flatnonzero(w)
            if active.size == 0 or pass_over(active) <= 1e-3 * gamma:
                break
    return w


def _kkt_from_grad(grad: np.ndarray, w: np.ndarray, mu: float) -> float:
    """Subgradient violation relative to mu; 0 at an exact solution."""
    active = w != 0.0
    viol_active = (
        np.abs(grad[active] - mu * np.sign(w[active])).max() if active.any() else 0.0
    )
    viol_zero = (
        max(np.abs(grad[~active]).max() - mu, 0.0) if (~active).any() else 0.0
    )
    return max(viol_active, viol_zero) / mu


def lasso_kkt_residual(X: np.ndarray, y: np.ndarray, w: np.ndarray, mu: float) -> float:
    """KKT residual of w for min ||y - Xw||^2 + mu ||w||_1, relative to mu."""
    grad = 2.0 * (X.T @ (y - X @ w))
    return _kkt_from_grad(grad, w, mu)


@dataclass
class AtomResult:
    """Sparse-combination estimate with the selection diagnostics."""

    ir: ImpulseResponse
    weights: np.ndarray
    mu: float
    kkt: float
    mu_grid: np.ndarray
    holdout_errors: np.ndarray


def atom_estimate(d: Dataset, T: int, mu: float | None = None) -> AtomResult:
    """Fit a SISO response as a sparse combination of dictionary atoms.

    When ``mu`` is not given it is chosen from an N_GRID-point log grid
    spanning four decades below the smallest fully-shrinking value, scored
    by prediction error on the last HOLDOUT fraction of samples; the final
    coefficients are refit on all data with the selected weight.  That
    final solve stops at the KKT tolerance TOL or after MAX_SWEEPS passes,
    whichever comes first; ``AtomResult.kkt`` reports the residual it
    reached.
    """
    if d.p != 1 or d.m != 1:
        raise ValueError("atomic estimator is SISO only (p = m = 1)")
    dictionary = atom_dictionary(T)
    phi = regressor_block(d.u, T)
    X = phi @ dictionary.atoms
    y = d.y[:, 0]
    N = d.n

    mu_grid = np.array([])
    errors = np.array([])
    if mu is None:
        split = max(N - int(round(HOLDOUT * N)), 1)
        X_tr, y_tr = X[:split], y[:split]
        X_val, y_val = X[split:], y[split:]
        G_tr = X_tr.T @ X_tr
        c_tr = X_tr.T @ y_tr
        mu_max = 2.0 * float(np.abs(c_tr).max())
        if mu_max <= 0.0:
            mu_max = 1.0
        mu_grid = mu_max * np.logspace(0, -4, N_GRID)
        errors = np.empty(N_GRID)
        w = np.zeros(dictionary.n_atoms)
        for g, mu_g in enumerate(mu_grid):
            # approximate path solves are enough to score the hold-out
            w = _lasso_cd(G_tr, c_tr, mu_g, w, max_sweeps=25, tol=max(TOL, 1e-4))
            resid = y_val - X_val @ w
            errors[g] = float(resid @ resid)
        # sparsest weight whose error ties the minimum (grid is descending)
        slack = errors.min() + 1e-9 * float(y_val @ y_val)
        mu = float(mu_grid[int(np.flatnonzero(errors <= slack)[0])])
        log.debug("hold-out selected mu=%.4g", mu)

    G = X.T @ X
    c = X.T @ y
    w = _lasso_cd(G, c, mu, None, MAX_SWEEPS, TOL)
    theta = dictionary.atoms @ w
    kkt = lasso_kkt_residual(X, y, w, mu)
    return AtomResult(
        ir=ImpulseResponse(p=1, m=1, T=T, theta=theta),
        weights=w,
        mu=float(mu),
        kkt=float(kkt),
        mu_grid=mu_grid,
        holdout_errors=errors,
    )
