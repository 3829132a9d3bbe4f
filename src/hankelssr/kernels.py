"""Stable-spline covariance kernels for the smoothness/stability penalty.

The first-order kernel encodes exponentially decaying responses, the
second-order one additionally enforces smoothness.  Per-output kernels are
assembled into the block-diagonal prior covariance over the full coefficient
vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

__all__ = ["KernelModel", "stable_spline_gram", "assemble_prior"]

PRIOR_JITTER = 1e-10  # relative ridge so the assembled prior stays invertible


def stable_spline_gram(order: int, alpha: float, T: int) -> np.ndarray:
    """T x T Gram matrix of the stable-spline kernel of the given order.

    order 1: K(i, j) = alpha^max(i,j)
    order 2: K(i, j) = alpha^(i+j+max(i,j)) / 2 - alpha^(3 max(i,j)) / 6
    Both are symmetric positive semidefinite for alpha in (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if T < 1:
        raise ValueError("T must be >= 1")
    idx = np.arange(1, T + 1)
    mx = np.maximum.outer(idx, idx)
    pw = _powers(alpha, T)
    if order == 1:
        return pw[mx]
    if order == 2:
        return pw[np.add.outer(idx, idx) + mx] / 2.0 - pw[3 * mx] / 6.0
    raise ValueError(f"order must be 1 or 2, got {order}")


def _powers(alpha: float, T: int) -> np.ndarray:
    """alpha^k for k = 0 .. 3T, every exponent a Gram entry or its derivative
    uses: the kernels index this table with integer exponent matrices instead
    of calling pow once per entry (same values, entry for entry)."""
    return alpha ** np.arange(3.0 * T + 1)


def _stable_spline_gram_dalpha(order: int, alpha: float, T: int) -> np.ndarray:
    """stable_spline_gram(order, alpha, T) differentiated in alpha, term by term."""
    idx = np.arange(1, T + 1)
    mx = np.maximum.outer(idx, idx)
    pw = _powers(alpha, T)
    if order == 1:
        return mx * pw[mx - 1]
    e = np.add.outer(idx, idx) + mx
    return (e * pw[e - 1] - mx * pw[3 * mx - 1]) / 2.0


@dataclass(frozen=True)
class KernelModel:
    """Per-output stable-spline hyperparameters for a p x m system.

    Output channel i uses decay alphas[i] and magnitude scales[i]; all m
    input channels feeding that output share them.
    """

    order: int
    T: int
    p: int
    m: int
    alphas: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        alphas = np.asarray(self.alphas, dtype=float).reshape(-1)
        scales = np.asarray(self.scales, dtype=float).reshape(-1)
        if alphas.size != self.p or scales.size != self.p:
            raise ValueError("need one (alpha, scale) pair per output")
        if not np.all((alphas > 0) & (alphas < 1)):
            raise ValueError("all alphas must lie strictly in (0, 1)")
        if not np.all(scales > 0):
            raise ValueError("all scales must be positive")
        alphas.flags.writeable = False
        scales.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "scales", scales)

    def output_gram(self, i: int) -> np.ndarray:
        """Scaled T x T Gram of output i's channels."""
        return self.scales[i] * stable_spline_gram(self.order, self.alphas[i], self.T)


def assemble_prior(km: KernelModel) -> np.ndarray:
    """Block-diagonal prior covariance K over theta (T*m*p square).

    Block (i, j) regularizes coefficient block (i, j) of the channel-major
    layout.  A relative jitter is added so Cholesky factorization succeeds.
    """
    blocks = []
    for i in range(km.p):
        gram = km.output_gram(i)
        blocks.extend([gram] * km.m)
    K = linalg.block_diag(*blocks)
    n = K.shape[0]
    K[np.diag_indices(n)] += PRIOR_JITTER * np.trace(K) / n
    return K
