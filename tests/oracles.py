"""Dense reference computations the tests compare the estimators against.

Each one builds the model from its definition at full size: the N*p
regressor and output stack, the N*p by N*p output covariance, the prior
precision with an explicit K^-1, and the stacked least-squares system.
They are too slow and too ill-conditioned for the library and only serve as
oracles on small instances.  Three helpers drive the estimators' own
closed-form solves, so a test can put them next to an oracle, and one
searches the smoothness-only lambda2 by bounded Brent; the last ones are
checks the tests apply to the library's outputs.  This module holds no
tests itself.
"""
import math

import numpy as np
from scipy import linalg, optimize

from hankelssr import Dataset, ImpulseResponse, TrueSystem
from hankelssr.core import HankelSpec, make_hankel_spec, regressor_block, weighted_hankel
from hankelssr.estimators.ss import _ChannelData, _channel_fit, _gram_chol
from hankelssr.estimators.ssr import _Workspace, rank_penalty_matrix
from hankelssr.kernels import stable_spline_gram


def stack_outputs(d: Dataset) -> np.ndarray:
    """Stack observations channel-major, time-inner: [y1(1..N) | ... | yp(1..N)]."""
    return d.y.flatten(order="F")


def build_regressor(d: Dataset, T: int) -> np.ndarray:
    """Full regressor matrix Phi (N*p x T*m*p): p diagonal copies of phi."""
    phi = regressor_block(d.u, T)
    return linalg.block_diag(*([phi] * d.p))


def precision(Q, lambda1: float, lambda2: float, K, spec) -> np.ndarray:
    """Prior precision lambda2 K^-1 + lambda1 P'(W2 Q W2' kron W1'W1)P."""
    A = lambda2 * np.linalg.inv(np.asarray(K, dtype=float))
    if lambda1 > 0:
        A = A + lambda1 * rank_penalty_matrix(Q, spec)
    return 0.5 * (A + A.T)


def dense_evidence(d: Dataset, A: np.ndarray, sigma, T: int) -> float:
    """Y' Lam^-1 Y + log|Lam| with Lam = diag(sigma_i I_N) + Phi A^-1 Phi'."""
    Phi = build_regressor(d, T)
    sig = np.asarray(sigma, dtype=float).reshape(-1)
    Lam = np.kron(np.diag(sig), np.eye(d.n)) + Phi @ np.linalg.solve(A, Phi.T)
    Y = stack_outputs(d)
    sign, logdet = np.linalg.slogdet(Lam)
    if sign <= 0:
        raise np.linalg.LinAlgError("output covariance not positive definite")
    return float(Y @ np.linalg.solve(Lam, Y)) + float(logdet)


def dense_ss_evidence(d: Dataset, T: int, order: int, alpha: float, scale: float, sigma: float) -> float:
    """Single-output evidence through the N x N covariance sigma I + scale phi K phi'."""
    phi = regressor_block(d.u, T)
    K = linalg.block_diag(*([stable_spline_gram(order, alpha, T)] * d.m))
    lam = sigma * np.eye(d.n) + scale * (phi @ K @ phi.T)
    y = d.y[:, 0]
    sign, logdet = np.linalg.slogdet(lam)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance not PD")
    return float(y @ np.linalg.solve(lam, y)) + logdet


def stacked_ls(d: Dataset, A: np.ndarray, sigma, T: int) -> np.ndarray:
    """argmin |S^-1/2 (Y - Phi theta)|^2 + theta' A theta as one least-squares solve."""
    phi = regressor_block(d.u, T)
    Phi_bar = linalg.block_diag(*[phi / math.sqrt(s) for s in sigma])
    Y_bar = np.concatenate([d.y[:, i] / math.sqrt(s) for i, s in enumerate(sigma)])
    X = np.vstack([Phi_bar, np.linalg.cholesky(A).T])
    z = np.concatenate([Y_bar, np.zeros(A.shape[0])])
    theta, *_ = np.linalg.lstsq(X, z, rcond=None)
    return theta


def engine_map(d: Dataset, Q, lambda1: float, lambda2: float, K, sigma, spec) -> np.ndarray:
    """The estimator's closed-form estimate at the given hyperparameters."""
    ws = _Workspace(d, K, sigma, spec)
    rp = ws.rank_prior(rank_penalty_matrix(Q, spec))
    return ws.map(rp, lambda1, lambda2)


def smoothness_only_lambda2(ws: _Workspace, rp) -> tuple[float, float]:
    """The evidence-optimal lambda2 with the rank penalty off (lambda1 = 0)
    and its evidence: a bounded Brent search in log10 lambda2 over
    [1e-6, 1e6]."""
    brent = optimize.minimize_scalar(
        lambda z: ws.nll(rp, 0.0, 10.0**z),
        bounds=(-6.0, 6.0),
        method="bounded",
        options={"xatol": 1e-4},
    )
    return 10.0 ** float(brent.x), float(brent.fun)


def map_from_precision(d: Dataset, A: np.ndarray, sigma) -> np.ndarray:
    """The estimator's closed-form estimate for a given prior precision A:
    K = A^-1 with lambda2 = 1 and the rank penalty off (lambda1 = 0, Q = I)."""
    spec = make_hankel_spec(A.shape[0] // (d.m * d.p), d.p, d.m)
    return engine_map(d, np.eye(spec.r * spec.p), 0.0, 1.0, np.linalg.inv(A), sigma, spec)


def ss_fixed_estimate(
    d: Dataset, order: int, T: int, alpha: float, scale: float, sigma: float
) -> ImpulseResponse:
    """The smoothness-only posterior mean of every output channel at fixed
    (alpha, scale, sigma), from the estimator's per-channel factorization."""
    phi = regressor_block(d.u, T)
    L = _gram_chol(order, alpha, T, d.m)
    C = phi.T @ phi
    theta = [_channel_fit(_ChannelData(phi, C, d.y[:, i]), L, scale, sigma)[1]() for i in range(d.p)]
    return ImpulseResponse(p=d.p, m=d.m, T=T, theta=np.concatenate(theta))


def hankel_row_sources(spec: HankelSpec) -> np.ndarray:
    """The theta index that lands in each entry of vec(H(theta)^T), vec
    column-major: ``theta[hankel_row_sources(spec)]`` vectorizes the
    transposed Hankel matrix, and in matrix form the map is the 0/1
    selection matrix P with one 1 per row."""
    T, p, m, r, c = spec.T, spec.p, spec.m, spec.r, spec.c
    a = np.repeat(np.arange(r), p)  # block row of each H row
    i = np.tile(np.arange(p), r)  # output index of each H row
    b = np.repeat(np.arange(c), m)  # block column of each H column
    j = np.tile(np.arange(m), c)  # input index of each H column
    # vec(H^T) entry (alpha + c*m*beta) = H[beta, alpha] = theta[(i*m + j)*T + a + b]
    src = ((i * m)[:, None] + j[None, :]) * T + a[:, None] + b[None, :]
    return src.reshape(-1).astype(np.intp)


def vec_hankel_t(spec: HankelSpec, theta: np.ndarray) -> np.ndarray:
    """vec(H(theta)^T), column-major."""
    return np.asarray(theta, dtype=float)[hankel_row_sources(spec)]


def multiplicities(spec: HankelSpec) -> np.ndarray:
    """How many Hankel entries each coefficient occupies."""
    return np.bincount(hankel_row_sources(spec), minlength=spec.theta_dim).astype(float)


def numerical_rank(mat_or_sv: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Count singular values above rel_tol times the largest one."""
    a = np.asarray(mat_or_sv, dtype=float)
    s = np.linalg.svd(a, compute_uv=False) if a.ndim == 2 else np.sort(a)[::-1]
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def spectral_radius(system: TrueSystem) -> float:
    """Largest pole modulus of the system's state matrix."""
    return float(np.abs(np.linalg.eigvals(system.A)).max())


def variational_bound_check(
    ir: ImpulseResponse, spec: HankelSpec, psi: np.ndarray | None = None
) -> tuple[float, float]:
    """Evaluate both sides of the log-det upper bound.

    Returns (lhs, rhs) with lhs = log|H~ H~'| and
    rhs = tr[H~ H~' Psi^-1] + log|Psi| - rp; psi defaults to the optimum
    H~ H~' where the two sides coincide.  A tiny jitter is added when the
    product is singular.
    """
    Ht = weighted_hankel(ir, spec)
    n_rows = Ht.shape[0]
    eigvals, V = np.linalg.eigh(Ht @ Ht.T)
    floor = 1e-12 * max(float(eigvals.max()), np.finfo(float).tiny)
    eigvals = np.maximum(eigvals, floor)
    B = (V * eigvals) @ V.T  # use the (possibly floored) product on both sides
    lhs = float(np.sum(np.log(eigvals)))
    if psi is None:
        psi = B
    cPsi = linalg.cho_factor(np.asarray(psi, dtype=float), lower=True)
    rhs = (
        float(np.trace(linalg.cho_solve(cPsi, B)))
        + 2.0 * float(np.sum(np.log(np.diag(cPsi[0]))))
        - n_rows
    )
    return lhs, rhs
