"""Smoothness-only baseline: kernel ridge regression per output channel with
hyperparameters tuned by marginal-likelihood minimization (empirical Bayes).

Each output channel i gets its own (alpha, scale, sigma) triple; the
marginal likelihood is evaluated through the T*m-dimensional inner
factorization so the N x N output covariance is never formed.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize

from ..core import Dataset, ImpulseResponse, one_blas_thread, predict_outputs, regressor_block
from ..kernels import KernelModel, stable_spline_gram

__all__ = [
    "SsResult",
    "ss_negative_log_ml",
    "ss_estimate",
    "estimate_noise_variance",
]

log = logging.getLogger("hankelssr.ss")

NOISE_FLOOR = 1e-12

# Decay-rate search box per kernel order; scale and noise move in log space
# over 12 decades around their moment-based initializers.
ALPHA_BOX = {1: (0.5, 0.999), 2: (0.6, 0.99)}
LOG_SPAN = 6.0
NM_BUDGET = 200


class _ChannelData:
    """Cached per-channel regression quantities (phi'phi, phi'y, y'y)."""

    def __init__(self, phi: np.ndarray, y: np.ndarray):
        self.n = y.size
        self.tm = phi.shape[1]
        self.C = phi.T @ phi
        self.b = phi.T @ y
        self.yy = float(y @ y)


def _gram_chol(order: int, alpha: float, T: int, m: int) -> np.ndarray:
    """Lower Cholesky of the unscaled m-input kernel block (block diagonal)."""
    Lk = np.linalg.cholesky(stable_spline_gram(order, alpha, T))
    if m == 1:
        return Lk
    return linalg.block_diag(*([Lk] * m))


def _channel_fit(
    ch: _ChannelData, L: np.ndarray, scale: float, sigma: float
) -> tuple[float, Callable[[], np.ndarray]]:
    """Evidence Y' Lam^-1 Y + log|Lam| for Lam = sigma I + scale * phi K phi',
    and a function returning the posterior mean of the channel coefficients
    from the same factorization (the evidence search never calls it)."""
    M = scale * (L.T @ ch.C @ L)
    M[np.diag_indices_from(M)] += sigma
    R, lower = linalg.cho_factor(M, lower=True)
    bk = L.T @ ch.b
    w = linalg.solve_triangular(R, bk, lower=True)
    quad = (ch.yy - scale * float(w @ w)) / sigma
    logdet = (ch.n - ch.tm) * math.log(sigma) + 2.0 * float(
        np.sum(np.log(np.diag(R)))
    )

    def posterior_mean() -> np.ndarray:
        return scale * (L @ linalg.solve_triangular(R, w, lower=True, trans="T"))

    return quad + logdet, posterior_mean


def ss_negative_log_ml(
    d: Dataset, T: int, order: int, alpha: float, scale: float, sigma: float
) -> float:
    """Negative log marginal likelihood of a single output channel.

    Requires p = 1; the evaluation goes through the T*m-dimensional
    factorization (inversion and determinant lemmas), never the N x N
    covariance.
    """
    if d.p != 1:
        raise ValueError("marginal likelihood is per output channel; got p > 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    phi = regressor_block(d.u, T)
    ch = _ChannelData(phi, d.y[:, 0])
    L = _gram_chol(order, alpha, T, d.m)
    try:
        return _channel_fit(ch, L, scale, sigma)[0]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"marginal likelihood failed at alpha={alpha}, scale={scale}, sigma={sigma}"
        ) from exc


@dataclass(frozen=True)
class SsResult:
    """Baseline fit: coefficients, the tuned kernel, and noise variances."""

    ir: ImpulseResponse
    kernel: KernelModel
    sigma: np.ndarray  # (p,) residual variances, floored
    eb_sigma: np.ndarray  # (p,) noise variances found by the evidence search
    nll: np.ndarray  # (p,) final per-channel negative log marginal likelihoods
    converged: bool


def _moment_init(ch: _ChannelData, order: int, T: int, m: int) -> tuple[float, float]:
    """Scale/noise initializers matched to the output second moment."""
    var_y = max(ch.yy / ch.n, NOISE_FLOOR)
    K0 = stable_spline_gram(order, 0.8, T)
    if m > 1:
        K0 = linalg.block_diag(*([K0] * m))
    signal_gain = max(float(np.sum(K0 * ch.C)) / ch.n, NOISE_FLOOR)
    return var_y / signal_gain, 0.25 * var_y


def _fit_channel(ch: _ChannelData, order: int, T: int, m: int) -> tuple[float, float, float, bool]:
    """Empirical-Bayes search for one output channel.

    Returns (alpha, scale, sigma, converged).  Nelder-Mead over
    (alpha, log10 scale, log10 sigma) seeded from a coarse grid, restarted
    once from the best point.
    """
    a_lo, a_hi = ALPHA_BOX[order]
    scale0, sigma0 = _moment_init(ch, order, T, m)
    ls0, lg0 = math.log10(scale0), math.log10(sigma0)
    bounds = [(a_lo, a_hi), (ls0 - LOG_SPAN, ls0 + LOG_SPAN), (lg0 - LOG_SPAN, lg0 + LOG_SPAN)]

    evals = 0
    cache: dict[float, np.ndarray] = {}

    def objective(x) -> float:
        nonlocal evals
        evals += 1
        alpha = min(max(float(x[0]), a_lo), a_hi)
        scale, sigma = 10.0 ** float(x[1]), 10.0 ** float(x[2])
        key = round(alpha, 12)
        L = cache.get(key)
        if L is None:
            L = _gram_chol(order, alpha, T, m)
            if len(cache) > 64:
                cache.clear()
            cache[key] = L
        try:
            return _channel_fit(ch, L, scale, sigma)[0]
        except np.linalg.LinAlgError:
            return np.inf

    grid = [
        np.array([a, ls0 + ds, lg0 + dg])
        for a in (max(a_lo, 0.6), 0.8, min(a_hi, 0.95))
        for ds in (-2.0, 0.0, 2.0)
        for dg in (-2.0, 0.0, 1.0)
    ]
    best_x = min(grid, key=objective)

    def clipped(x):
        return np.clip(x, [b[0] for b in bounds], [b[1] for b in bounds])

    res = optimize.minimize(
        objective,
        clipped(best_x),
        method="Nelder-Mead",
        bounds=bounds,
        options={"maxfev": max(NM_BUDGET - evals - 60, 40), "xatol": 1e-4, "fatol": 1e-7},
    )
    res2 = optimize.minimize(
        objective,
        clipped(res.x),
        method="Nelder-Mead",
        bounds=bounds,
        options={"maxfev": max(NM_BUDGET - evals, 20), "xatol": 1e-5, "fatol": 1e-8},
    )
    x = res2.x if res2.fun <= res.fun else res.x
    fun = min(res.fun, res2.fun)
    converged = bool(res.success or res2.success) and np.isfinite(fun)
    if not converged:
        log.debug("channel evidence search hit its budget; keeping best point")
    alpha = min(max(float(x[0]), a_lo), a_hi)
    return alpha, 10.0 ** float(x[1]), 10.0 ** float(x[2]), converged


@one_blas_thread
def ss_estimate(d: Dataset, order: int, T: int) -> SsResult:
    """Baseline estimate: per-output empirical Bayes, then the posterior mean,
    computed with one BLAS thread (see ``core.one_blas_thread``)."""
    phi = regressor_block(d.u, T)
    alphas = np.empty(d.p)
    scales = np.empty(d.p)
    eb_sigma = np.empty(d.p)
    nlls = np.empty(d.p)
    theta = np.empty(T * d.m * d.p)
    converged = True
    for i in range(d.p):
        ch = _ChannelData(phi, d.y[:, i])
        alphas[i], scales[i], eb_sigma[i], ok = _fit_channel(ch, order, T, d.m)
        converged &= ok
        L = _gram_chol(order, alphas[i], T, d.m)
        nlls[i], posterior_mean = _channel_fit(ch, L, scales[i], eb_sigma[i])
        theta[i * T * d.m : (i + 1) * T * d.m] = posterior_mean()
    ir = ImpulseResponse(p=d.p, m=d.m, T=T, theta=theta)
    kernel = KernelModel(order=order, T=T, p=d.p, m=d.m, alphas=alphas, scales=scales)
    sigma = estimate_noise_variance(d, ir)
    return SsResult(
        ir=ir, kernel=kernel, sigma=sigma, eb_sigma=eb_sigma, nll=nlls, converged=converged
    )


def estimate_noise_variance(d: Dataset, ir: ImpulseResponse) -> np.ndarray:
    """Per-output residual variances of the given model, floored at 1e-12.

    Returns the diagonal of the noise covariance as a (p,) vector.
    """
    resid = d.y - predict_outputs(d, ir)
    return np.maximum(np.mean(resid**2, axis=0), NOISE_FLOOR)
