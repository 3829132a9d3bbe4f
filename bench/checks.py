"""Correctness checks that recompute the program's outputs with plain numpy.

Nothing here calls the estimators' own evidence, solve or scoring code: the
regressor, the prior covariance, the rank-penalty matrix, the output
covariance, the stacked least-squares solve, the true impulse response and
the fit score are all rebuilt from their definitions.  Each check raises
``CheckError`` with a message naming what disagreed.
"""
from __future__ import annotations

import numpy as np

# Relative tolerances.  The evidence is compared against the dense N*p
# output covariance and the estimate against a stacked least-squares solve
# whose condition number is about sqrt(cond K) ~ 1e6 on the s1 prior; both
# agree with the program to about 1e-14 on the benchmark's datasets.
EVIDENCE_RTOL = 1e-9
THETA_RTOL = 1e-8
SCORE_ATOL = 1e-9
# The recomputed mu-relative KKT residual must match the one the atom fit
# reports.  It is not held to the solver's 1e-6 stopping tolerance: the final
# lasso solve often ends at its sweep limit first (see CHANGES.md).
KKT_MATCH = 1e-9
# Relative jitter the program adds to the assembled prior (part of the
# model's definition, so the oracle applies it too).
PRIOR_JITTER = 1e-10


class CheckError(AssertionError):
    """An output of the program disagrees with its independent recomputation."""


def regressor(u: np.ndarray, T: int) -> np.ndarray:
    """(N, T*m) lagged inputs: column j*T + k-1 holds u_j(t-k), zero before t=1."""
    u = np.asarray(u, dtype=float).reshape(len(u), -1)
    N, m = u.shape
    phi = np.zeros((N, T * m))
    for j in range(m):
        for k in range(1, T + 1):
            if k < N:
                phi[k:, j * T + k - 1] = u[: N - k, j]
    return phi


def impulse_response(A, B, C, T: int) -> np.ndarray:
    """Channel-major coefficients of g(k) = C A^(k-1) B, k = 1..T."""
    A, B, C = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (A, B, C))
    p, m = C.shape[0], B.shape[1]
    g = np.empty((p, m, T))
    x = B.copy()
    for k in range(T):
        g[:, :, k] = C @ x
        x = A @ x
    return g.reshape(-1)


def fit_score(theta_hat: np.ndarray, theta_true: np.ndarray, p: int, m: int, T: int) -> float:
    """Mean over channels of 100 * (1 - |g - g_hat| / |g - mean g|)."""
    est = np.asarray(theta_hat).reshape(p * m, T)
    true = np.asarray(theta_true).reshape(p * m, T)
    scores = []
    for g, gh in zip(true, est):
        den = np.sqrt(np.sum((g - g.mean()) ** 2))
        if den <= 1e-14 * max(1.0, np.sqrt(np.sum(g**2))):
            continue
        scores.append(100.0 * (1.0 - np.sqrt(np.sum((g - gh) ** 2)) / den))
    return float(np.mean(scores))


def check_score(value: float, theta_hat, system, p: int, m: int, T: int) -> float:
    """The reported fit equals the score recomputed from the true system."""
    truth = impulse_response(system.A, system.B, system.C, T)
    expected = fit_score(theta_hat, truth, p, m, T)
    if not abs(value - expected) <= SCORE_ATOL * max(1.0, abs(expected)):
        raise CheckError(f"fit score {value!r} but recomputed {expected!r}")
    return expected


def prior_covariance(order: int, alphas, scales, T: int, p: int, m: int) -> np.ndarray:
    """Block-diagonal stable-spline covariance over channel-major theta."""
    i = np.arange(1, T + 1, dtype=float)
    mx = np.maximum.outer(i, i)
    K = np.zeros((p * m * T, p * m * T))
    for out in range(p):
        a = float(alphas[out])
        if order == 1:
            gram = a**mx
        else:
            gram = a ** (np.add.outer(i, i) + mx) / 2.0 - a ** (3.0 * mx) / 6.0
        for j in range(m):
            s = (out * m + j) * T
            K[s : s + T, s : s + T] = float(scales[out]) * gram
    K[np.diag_indices_from(K)] += PRIOR_JITTER * np.trace(K) / K.shape[0]
    return K


def hankel_indicators(T: int, p: int, m: int, r: int, c: int) -> np.ndarray:
    """E[s] is the (r*p, c*m) 0/1 matrix of where theta[s] sits in H.

    Block (a, b) of H is g(a+b+1) (0-based a, b); entry (i, j) of g(k) is
    theta[(i*m + j)*T + k-1].
    """
    E = np.zeros((T * m * p, r * p, c * m))
    for a in range(r):
        for b in range(c):
            for i in range(p):
                for j in range(m):
                    E[(i * m + j) * T + a + b, a * p + i, b * m + j] = 1.0
    return E


def rank_penalty(Q, W1, W2, T: int, p: int, m: int, r: int, c: int) -> np.ndarray:
    """R with theta' R theta = tr(Q Ht Ht'), Ht = W2' H W1'."""
    E = hankel_indicators(T, p, m, r, c)
    G2 = W2 @ Q @ W2.T
    G1 = W1.T @ W1
    Y = G2 @ E @ G1
    R = E.reshape(E.shape[0], -1) @ Y.reshape(Y.shape[0], -1).T
    return 0.5 * (R + R.T)


def precision(res, order: int) -> np.ndarray:
    """Prior precision lambda2 K^-1 + lambda1 R_Q of an ssr fit's last iterate."""
    hyper = res.trace[-1].hyper
    spec = res.spec
    ir = res.ir
    K = prior_covariance(order, res.ss.kernel.alphas, res.ss.kernel.scales, ir.T, ir.p, ir.m)
    A = hyper.lambda2 * np.linalg.inv(K)
    if hyper.lambda1 > 0:
        A = A + hyper.lambda1 * rank_penalty(
            hyper.Q, spec.W1, spec.W2, ir.T, ir.p, ir.m, spec.r, spec.c
        )
    return 0.5 * (A + A.T)


def dense_evidence(u, y, T: int, A: np.ndarray, sigma) -> float:
    """Y' Lam^-1 Y + log|Lam| with Lam = diag(sigma_i I_N) + Phi A^-1 Phi'."""
    y = np.asarray(y, dtype=float)
    N, p = y.shape
    phi = regressor(u, T)
    Phi = np.kron(np.eye(p), phi)
    Lam = np.kron(np.diag(np.asarray(sigma, dtype=float)), np.eye(N))
    Lam += Phi @ np.linalg.solve(A, Phi.T)
    Y = y.T.reshape(-1)
    sign, logdet = np.linalg.slogdet(Lam)
    if sign <= 0:
        raise CheckError("dense output covariance is not positive definite")
    return float(Y @ np.linalg.solve(Lam, Y) + logdet)


def stacked_ls(u, y, T: int, A: np.ndarray, sigma) -> np.ndarray:
    """argmin |S^-1/2 (Y - Phi theta)|^2 + theta' A theta as one least-squares solve."""
    y = np.asarray(y, dtype=float)
    p = y.shape[1]
    phi = regressor(u, T)
    w = 1.0 / np.sqrt(np.asarray(sigma, dtype=float))
    X = np.vstack([np.kron(np.diag(w), phi), np.linalg.cholesky(A).T])
    z = np.concatenate([(y * w).T.reshape(-1), np.zeros(A.shape[0])])
    theta, *_ = np.linalg.lstsq(X, z, rcond=None)
    return theta


def check_trace(res, max_iter: int) -> None:
    """Accepted iterates strictly decrease the evidence; at most max_iter of them."""
    nll = [s.nll for s in res.trace]
    if len(nll) - 1 > max_iter:
        raise CheckError(f"{len(nll) - 1} iterates exceed max_iter={max_iter}")
    for k in range(1, len(nll)):
        if not nll[k] < nll[k - 1]:
            raise CheckError(f"trace does not decrease at iterate {k}: {nll[k - 1]!r} -> {nll[k]!r}")


def check_ssr(d, res, order: int, max_iter: int) -> None:
    """Trace, evidence and estimate of an ssr fit against the numpy oracles."""
    check_trace(res, max_iter)
    A = precision(res, order)
    sigma = res.trace[-1].hyper.sigma
    T = res.ir.T
    nll = dense_evidence(d.u, d.y, T, A, sigma)
    reported = res.trace[-1].nll
    if not abs(reported - nll) <= EVIDENCE_RTOL * max(1.0, abs(nll)):
        raise CheckError(f"evidence {reported!r} but dense recomputation gives {nll!r}")
    theta = stacked_ls(d.u, d.y, T, A, sigma)
    err = np.linalg.norm(res.ir.theta - theta)
    if not err <= THETA_RTOL * np.linalg.norm(theta):
        raise CheckError(f"estimate differs from stacked least squares by {err:.3e}")


def check_atom(d, res, atoms: np.ndarray) -> None:
    """KKT residual of the lasso weights, recomputed from X, y and w."""
    T = atoms.shape[0]
    X = regressor(d.u, T) @ atoms
    y = np.asarray(d.y, dtype=float)[:, 0]
    w, mu = res.weights, res.mu
    grad = 2.0 * X.T @ (y - X @ w)
    on = w != 0
    viol = 0.0
    if on.any():
        viol = np.abs(grad[on] - mu * np.sign(w[on])).max()
    if (~on).any():
        viol = max(viol, np.abs(grad[~on]).max() - mu)
    kkt = viol / mu
    if not abs(kkt - res.kkt) <= KKT_MATCH * max(1.0, kkt):
        raise CheckError(f"reported KKT residual {res.kkt!r} but recomputed {kkt!r}")
    if not np.isfinite(kkt):
        raise CheckError("KKT residual is not finite")
    if not np.allclose(res.ir.theta, atoms @ w, rtol=1e-12, atol=1e-12):
        raise CheckError("atom estimate is not the dictionary combination of its weights")


def check_equal_fits(parallel: dict, serial: dict, label: str) -> None:
    """Fit values from the process pool equal those fitted one at a time."""
    if parallel != serial:
        raise CheckError(f"{label}: pooled fits {parallel!r} differ from serial {serial!r}")
