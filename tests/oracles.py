"""Dense reference computations the tests compare the estimators against.

Each one builds the model from its definition at full size: the N*p
regressor and output stack, the N*p by N*p output covariance, the prior
precision with an explicit K^-1, and the stacked least-squares system.
They are too slow and too ill-conditioned for the library and only serve as
oracles on small instances.  The last two helpers drive the estimator's own
closed-form solve, so a test can put it next to an oracle.  This module
holds no tests itself.
"""
import math

import numpy as np
from scipy import linalg

from hankelssr import Dataset, make_hankel_spec, rank_penalty_matrix
from hankelssr.core import regressor_block
from hankelssr.estimators.ssr import _Workspace
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
    rp = ws.rank_prior(rank_penalty_matrix(Q, spec)) if lambda1 > 0 else None
    return ws.map(rp, lambda1, lambda2)


def map_from_precision(d: Dataset, A: np.ndarray, sigma) -> np.ndarray:
    """The estimator's closed-form estimate for a given prior precision A:
    K = A^-1 with lambda2 = 1 and the rank penalty off."""
    spec = make_hankel_spec(A.shape[0] // (d.m * d.p), d.p, d.m)
    return engine_map(d, None, 0.0, 1.0, np.linalg.inv(A), sigma, spec)
