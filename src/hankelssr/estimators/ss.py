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
from scipy import linalg

from ..core import Dataset, ImpulseResponse, _cholesky, _lbfgsb, _solve_lower, one_blas_thread
from ..core import predict_outputs, regressor_block
from ..kernels import KernelModel, _stable_spline_gram_dalpha, stable_spline_gram

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


class _ChannelData:
    """Cached per-channel regression quantities: C = phi'phi, which every
    output of a dataset shares and the caller computes once, phi'y and y'y."""

    def __init__(self, phi: np.ndarray, C: np.ndarray, y: np.ndarray):
        self.n = y.size
        self.tm = phi.shape[1]
        self.C = C
        self.b = phi.T @ y
        self.yy = float(y @ y)


def _inputs_block(G: np.ndarray, m: int) -> np.ndarray:
    """One copy of a T x T kernel block per input, on the diagonal."""
    return G if m == 1 else linalg.block_diag(*([G] * m))


def _gram_chol(order: int, alpha: float, T: int, m: int) -> np.ndarray:
    """Lower Cholesky of the unscaled m-input kernel block (block diagonal):
    one in-place ``dpotrf`` of the T x T Gram matrix."""
    return _inputs_block(_cholesky(stable_spline_gram(order, alpha, T))[0], m)


def _channel_fit(
    ch: _ChannelData, L: np.ndarray, scale: float, sigma: float
) -> tuple[float, Callable[[], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Evidence Y' Lam^-1 Y + log|Lam| for Lam = sigma I + scale * phi K phi',
    K = L L', and two functions of the same factor M = scale L'CL + sigma I =
    R R': the posterior mean of the channel coefficients, and the evidence's
    gradient in (alpha, ln scale, ln sigma) given dK = dK/dalpha.  With
    w = R^-1 L'b and u = M^-1 L'b, tr(M^-1) = |R^-1|_F^2 (one triangular
    inverse), Z = (C - scale C L M^-1 L'C) / sigma, v = (b - scale C L u) / sigma:
      d/dalpha    = scale [tr(Z dK) - v' dK v]
      d/dln scale = tm - sigma tr(M^-1) - scale |u|^2
      d/dln sigma = (n - tm) + sigma tr(M^-1) - (yy - scale w'w - scale sigma |u|^2) / sigma
    M is built in a buffer of its own and factored there by one ``dpotrf``
    (``core._cholesky``); the solves are ``dtrtrs``.  ``ch`` and ``L`` are
    left as they were.  A probe whose factor or evidence is not finite raises
    LinAlgError or FloatingPointError, which the search scores as failed.
    """
    CL = ch.C @ L
    M = scale * (L.T @ CL)
    M.ravel()[:: M.shape[0] + 1] += sigma
    R, logdet_m = _cholesky(M)
    w = _solve_lower(R, L.T @ ch.b)
    quad = (ch.yy - scale * float(w @ w)) / sigma
    nll = quad + (ch.n - ch.tm) * math.log(sigma) + logdet_m
    if not math.isfinite(nll):
        raise FloatingPointError("channel evidence is not finite")

    def posterior_mean() -> np.ndarray:
        return scale * (L @ _solve_lower(R, w, trans=1))

    def gradient(dK: np.ndarray) -> np.ndarray:
        R_inv = linalg.lapack.dtrtri(R, lower=1)[0]  # R's diagonal is positive
        u = R_inv.T @ w
        uu, tr_m_inv = float(u @ u), float(np.sum(R_inv**2))
        E = R_inv @ CL.T  # C L M^-1 L'C = E'E
        Z = (ch.C - scale * (E.T @ E)) / sigma
        v = (ch.b - scale * (CL @ u)) / sigma
        d_alpha = scale * (float(np.sum(Z * dK)) - float(v @ dK @ v))
        d_scale = ch.tm - sigma * tr_m_inv - scale * uu
        d_sigma = ch.n - ch.tm + sigma * tr_m_inv - quad + scale * uu
        return np.array([d_alpha, d_scale, d_sigma])

    return nll, posterior_mean, gradient


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
    ch = _ChannelData(phi, phi.T @ phi, d.y[:, 0])
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
    converged: bool  # every channel's evidence search met its tolerance
    evidence_evals: int  # channel evidence evaluations, grid and final ones included


class _SeedGrid:
    """The kernel work of the channel searches that depends on the data only
    through C = phi'phi, done once per dataset and shared by every output.

    ``gain`` is the moment initializers' signal gain tr(K0 C) / n, K0 the
    unscaled kernel at alpha = 0.8.  For each of the three grid decays a,
    with L its kernel factor, one eigendecomposition L'CL = V diag(d) V'
    gives M = scale L'CL + sigma I = V diag(scale d + sigma) V', so a
    channel's evidence at any (scale, sigma) costs O(tm) once z = V'L'b is
    known:
      (yy - scale sum z^2 / (scale d + sigma)) / sigma
        + (n - tm) log sigma + sum log(scale d + sigma),
    the value ``_channel_fit`` computes through a Cholesky of M.
    """

    def __init__(self, C: np.ndarray, n: int, order: int, T: int, m: int):
        self.order, self.T, self.m = order, T, m
        K0 = _inputs_block(stable_spline_gram(order, 0.8, T), m)
        self.gain = max(float(np.sum(K0 * C)) / n, NOISE_FLOOR)
        a_lo, a_hi = ALPHA_BOX[order]
        self.spectra = []
        for a in (max(a_lo, 0.6), 0.8, min(a_hi, 0.95)):
            L = _gram_chol(order, a, T, m)
            d, V = np.linalg.eigh(L.T @ (C @ L))
            self.spectra.append((a, L, d, V))

    def points(self, ch: _ChannelData, ls0: float, lg0: float) -> list[tuple[float, list]]:
        """The 27 seed points [alpha, log10 scale, log10 sigma] around
        (ls0, lg0), each with the channel's evidence there.  A point whose
        evidence is not finite, which includes any with a non-positive
        scale d + sigma (its log is nan or -inf), scores inf as a failed
        Cholesky probe would."""
        steps = [(ds, dg) for ds in (-2.0, 0.0, 2.0) for dg in (-2.0, 0.0, 1.0)]
        out = []
        for a, L, d, V in self.spectra:
            z2 = (V.T @ (L.T @ ch.b)) ** 2
            xs = [[a, ls0 + ds, lg0 + dg] for ds, dg in steps]
            scale = np.array([10.0 ** x[1] for x in xs])
            sigma = np.array([10.0 ** x[2] for x in xs])
            ev = scale[:, None] * d + sigma[:, None]
            with np.errstate(all="ignore"):
                nll = ((ch.yy - scale * np.sum(z2 / ev, axis=1)) / sigma
                       + (ch.n - ch.tm) * np.log(sigma) + np.sum(np.log(ev), axis=1))
            nll[~np.isfinite(nll)] = np.inf
            out.extend(zip(nll.tolist(), xs))
        return out


def _moment_init(ch: _ChannelData, grid: _SeedGrid) -> tuple[float, float]:
    """Scale/noise initializers matched to the output second moment."""
    var_y = max(ch.yy / ch.n, NOISE_FLOOR)
    return var_y / grid.gain, 0.25 * var_y


def _fit_channel(ch: _ChannelData, grid: _SeedGrid) -> tuple[float, float, float, bool, int]:
    """Empirical-Bayes search for one output channel.

    Returns (alpha, scale, sigma, converged, evals).  L-BFGS-B with the
    analytic gradient over (alpha, log10 scale, log10 sigma), started from
    the best of the 27 points of the dataset's shared seed grid (no
    factorization per point); every search probe is one Cholesky of the
    kernel and one of M.  ``evals`` counts evidence evaluations, the grid's
    included.
    """
    order, T, m = grid.order, grid.T, grid.m
    a_lo, a_hi = ALPHA_BOX[order]
    scale0, sigma0 = _moment_init(ch, grid)
    ls0, lg0 = math.log10(scale0), math.log10(sigma0)
    bounds = [(a_lo, a_hi), (ls0 - LOG_SPAN, ls0 + LOG_SPAN), (lg0 - LOG_SPAN, lg0 + LOG_SPAN)]
    seeds = grid.points(ch, ls0, lg0)
    evals = len(seeds)

    def nll_grad(x):
        nonlocal evals
        evals += 1
        f, _, gradient = _channel_fit(ch, _gram_chol(order, x[0], T, m), 10.0 ** x[1], 10.0 ** x[2])
        dK = _inputs_block(_stable_spline_gram_dalpha(order, x[0], T), m)
        return f, gradient(dK) * [1.0, math.log(10.0), math.log(10.0)]

    x0 = min(seeds, key=lambda fx: fx[0])[1]
    x, _, converged = _lbfgsb(nll_grad, x0, bounds)
    if not converged:
        log.debug("channel evidence search stopped short of its tolerance; keeping best point")
    return float(x[0]), 10.0 ** float(x[1]), 10.0 ** float(x[2]), converged, evals


@one_blas_thread
def ss_estimate(d: Dataset, order: int, T: int) -> SsResult:
    """Baseline estimate: per-output empirical Bayes, then the posterior mean,
    computed with one BLAS thread (see ``core.one_blas_thread``).

    phi'phi and the seed grid's kernel work (three kernel factors and three
    eigendecompositions of L'CL) are done once and shared by all outputs.
    """
    phi = regressor_block(d.u, T)
    C = phi.T @ phi
    grid = _SeedGrid(C, d.n, order, T, d.m)
    alphas = np.empty(d.p)
    scales = np.empty(d.p)
    eb_sigma = np.empty(d.p)
    nlls = np.empty(d.p)
    theta = np.empty(T * d.m * d.p)
    converged = True
    evals = 0
    for i in range(d.p):
        ch = _ChannelData(phi, C, d.y[:, i])
        alphas[i], scales[i], eb_sigma[i], ok, n_evals = _fit_channel(ch, grid)
        converged &= ok
        evals += n_evals + 1
        L = _gram_chol(order, alphas[i], T, d.m)
        nlls[i], posterior_mean, _ = _channel_fit(ch, L, scales[i], eb_sigma[i])
        theta[i * T * d.m : (i + 1) * T * d.m] = posterior_mean()
    ir = ImpulseResponse(p=d.p, m=d.m, T=T, theta=theta)
    kernel = KernelModel(order=order, T=T, p=d.p, m=d.m, alphas=alphas, scales=scales)
    sigma = estimate_noise_variance(d, ir)
    return SsResult(ir=ir, kernel=kernel, sigma=sigma, eb_sigma=eb_sigma, nll=nlls,
                    converged=converged, evidence_evals=evals)


def estimate_noise_variance(d: Dataset, ir: ImpulseResponse) -> np.ndarray:
    """Per-output residual variances of the given model, floored at 1e-12.

    Returns the diagonal of the noise covariance as a (p,) vector.
    """
    resid = d.y - predict_outputs(d, ir)
    return np.maximum(np.mean(resid**2, axis=0), NOISE_FLOOR)
