"""Combined estimator: smoothness prior plus a log-det Hankel rank penalty.

The rank surrogate log|H~ H~'| is majorized by linear upper bounds in
H~ H~', which turns the penalty into a quadratic form in theta through the
row indices that place each coefficient in the Hankel matrix.
Hyperparameters (the two penalty weights and the bound matrix Q) are tuned
by minimizing the negative log marginal likelihood of the induced Gaussian
model; the coefficient update is then a closed-form regularized
least-squares solve.  Both come from one engine that works in coordinates
whitened by the kernel, K = L L', so K^-1 is never formed.  Fitting
alternates the two in a block-coordinate loop that stops as soon as the
evidence stops improving.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg, optimize

from ..core import (
    Dataset,
    HankelSpec,
    ImpulseResponse,
    choose_hankel_shape,
    chol_psd,
    make_hankel_spec,
    regressor_block,
    surrogate_weights,
    weighted_hankel,
)
from ..kernels import assemble_prior
from .ss import SsResult, ss_estimate

__all__ = [
    "SsrHyperparameters",
    "SsrState",
    "SsrOptions",
    "SsrResult",
    "rank_penalty_matrix",
    "ssr_negative_log_ml",
    "optimize_lambdas",
    "update_q",
    "q_saturation",
    "variational_bound_check",
    "ssr_fit",
]

log = logging.getLogger("hankelssr.ssr")

MIN_SAMPLES = 16  # smallest N with log(log(N)) > 0 in the bound-matrix threshold

# Penalty-weight search: lambda1's box, lambda2's upper bound, lambda2's floor
# as a fraction of the smoothness-only optimum, and evaluations per search.
LAMBDA1_BOUNDS = (1e-8, 1e6)
LAMBDA2_MAX = 1e6
LAMBDA2_FLOOR_RATIO = 1e-3
NM_BUDGET = 200


@dataclass(frozen=True)
class SsrHyperparameters:
    """Penalty weights, bound matrix and noise variances of one iterate."""

    lambda1: float
    lambda2: float
    Q: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be nonnegative")
        if self.lambda2 <= 0:
            raise ValueError("lambda2 must be positive")
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(Q, Q.T, atol=1e-10 * max(1.0, float(np.abs(Q).max()))):
            raise ValueError("Q must be symmetric")
        sigma = np.asarray(self.sigma, dtype=float).reshape(-1)
        if np.any(sigma <= 0):
            raise ValueError("noise variances must be positive")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class SsrState:
    """One accepted iterate: hyperparameters, their evidence, and the
    closed-form coefficient estimate they induce."""

    k: int
    theta: ImpulseResponse
    hyper: SsrHyperparameters
    nll: float


@dataclass
class SsrOptions:
    """Knobs for ssr_fit; defaults reproduce the benchmark configuration."""

    weighted: bool = False
    max_iter: int = 30


@dataclass
class SsrResult:
    """Final coefficients plus the accepted-iterate trace and fit inputs."""

    ir: ImpulseResponse
    trace: list[SsrState]
    spec: HankelSpec
    sigma: np.ndarray
    ss: SsResult
    lambda2_floor: float
    messages: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


def rank_penalty_matrix(Q: np.ndarray, spec: HankelSpec) -> np.ndarray:
    """P' (W2 Q W2' kron W1'W1) P without materializing the Kronecker product.

    P is the 0/1 selection matrix with P theta = vec(H(theta)'); its row rho
    picks the single coefficient spec.row_src[rho], so the product is a
    structured scatter of the two small Gram factors.
    """
    rp, cm = spec.r * spec.p, spec.c * spec.m
    dim = spec.theta_dim
    G2 = spec.W2 @ np.asarray(Q, dtype=float) @ spec.W2.T
    G1 = spec.W1.T @ spec.W1
    idx = spec.row_src.reshape(rp, cm)
    V = np.zeros((rp, dim, cm))
    for beta in range(rp):
        V[beta, idx[beta], :] = G1
    Z = np.tensordot(G2, V, axes=(0, 0))
    R = np.zeros((dim, dim))
    for beta in range(rp):
        R[:, idx[beta]] += Z[beta]
    return 0.5 * (R + R.T)


@dataclass(frozen=True)
class _RankPrior:
    """Whitened rank penalty S = L' R_Q L of one bound matrix and its eigenvalues."""

    S: np.ndarray
    mu: np.ndarray


class _Workspace:
    """Evidence and MAP solve of one dataset and prior covariance K.

    Everything is computed for x = L^-1 theta with K = L L'.  There the
    prior precision lambda2 K^-1 + lambda1 R_Q becomes lambda2 I + lambda1 S,
    S = L' R_Q L, with log-determinant sum(log(lambda2 + lambda1 mu)) over the
    eigenvalues mu of S, and the data term becomes G = L' Phi~'Phi~ L with
    h = L' Phi~'Y~ (Phi~, Y~ the noise-whitened regressor and outputs).  K is
    factored once; each bound matrix costs the eigenvalues of S; each
    evidence probe then factors lambda2 I + lambda1 S + G once.  With the
    rank penalty off a probe factors nothing: one eigendecomposition of G
    per workspace makes it diagonal.
    """

    def __init__(self, d: Dataset, K: np.ndarray, sigma: np.ndarray, spec: HankelSpec):
        if spec.p != d.p or spec.m != d.m:
            raise ValueError("HankelSpec channel counts disagree with the dataset")
        sigma = np.asarray(sigma, dtype=float).reshape(-1)
        if sigma.size != d.p or np.any(sigma <= 0):
            raise ValueError("need one positive noise variance per output")
        T = spec.T
        self.dim = T * d.m * d.p
        self.L = chol_psd(np.asarray(K, dtype=float))

        phi = regressor_block(d.u, T)
        C = phi.T @ phi
        tm = T * d.m
        AtA = linalg.block_diag(*[C / s for s in sigma])
        Atb = np.empty(self.dim)
        ybar = 0.0
        for i in range(d.p):
            Atb[i * tm : (i + 1) * tm] = phi.T @ d.y[:, i] / sigma[i]
            ybar += float(d.y[:, i] @ d.y[:, i]) / sigma[i]
        self.ybar_sq = ybar
        self.log_sigma_term = d.n * float(np.sum(np.log(sigma)))
        G = self.L.T @ AtA @ self.L
        self.G = 0.5 * (G + G.T)
        self.h = self.L.T @ Atb

    def rank_prior(self, R_Q: np.ndarray) -> _RankPrior:
        """Whitened form of a rank-penalty matrix, with eigenvalues only."""
        S = self.L.T @ R_Q @ self.L
        S = 0.5 * (S + S.T)
        return _RankPrior(S=S, mu=np.linalg.eigvalsh(S))

    @cached_property
    def _g_eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues g and vectors U of G, and U'h.

        scipy's eigh, not numpy's: with default BLAS threads numpy's slows
        about 60-fold on small matrices when two processes share the cores.
        """
        g, U = linalg.eigh(self.G)
        return g, U, U.T @ self.h

    def _posterior(self, rp: _RankPrior | None, lambda1: float, lambda2: float):
        """log|lambda2 I + lambda1 S| and the posterior precision
        lambda2 I + lambda1 S + G: its eigenvalues in G's eigenbasis when
        lambda1 = 0, else its lower Cholesky factor."""
        if lambda1 == 0:
            post = lambda2 + self._g_eig[0]
            if not (lambda2 > 0 and np.all(post > 0)):
                raise np.linalg.LinAlgError("precision not positive definite")
            return self.dim * math.log(lambda2), post
        prior = lambda2 + lambda1 * rp.mu
        if not np.all(prior > 0):
            raise np.linalg.LinAlgError("prior precision not positive definite")
        M = lambda1 * rp.S
        M += self.G
        M.ravel()[:: self.dim + 1] += lambda2  # the diagonal, as a view
        # numpy's LAPACK, not scipy's: numpy and scipy each bundle an OpenBLAS
        # with its own thread pool, and a scipy pool left spinning after the
        # search slows the numpy products of the next ss fit.
        return float(np.sum(np.log(prior))), np.linalg.cholesky(M)

    def nll(self, rp: _RankPrior | None, lambda1: float, lambda2: float) -> float:
        """Y~'Lam^-1 Y~ + log|Lam| of (lambda1, lambda2, Q) through the
        theta-dimensional inversion and determinant lemmas."""
        logdet_prior, post = self._posterior(rp, lambda1, lambda2)
        if post.ndim == 1:
            quad = float(np.sum(self._g_eig[2] ** 2 / post))
            logdet_post = float(np.sum(np.log(post)))
        else:
            w = linalg.solve_triangular(post, self.h, lower=True)
            quad = float(w @ w)
            logdet_post = 2.0 * float(np.sum(np.log(np.diag(post))))
        return self.ybar_sq - quad + self.log_sigma_term + logdet_post - logdet_prior

    def map(self, rp: _RankPrior | None, lambda1: float, lambda2: float) -> np.ndarray:
        """Closed-form estimate [Phi~'Phi~ + A]^-1 Phi~'Y~ as theta = L x."""
        _, post = self._posterior(rp, lambda1, lambda2)
        if post.ndim == 1:
            _, U, hu = self._g_eig
            return self.L @ (U @ (hu / post))
        return self.L @ linalg.cho_solve((post, True), self.h)

    def trace_k_inv(self) -> float:
        """tr(K^-1) = |L^-1|_F^2."""
        L_inv = linalg.solve_triangular(self.L, np.eye(self.dim), lower=True)
        return float(np.sum(L_inv**2))


def ssr_negative_log_ml(
    d: Dataset,
    Q: np.ndarray,
    lambda1: float,
    lambda2: float,
    K: np.ndarray,
    sigma: np.ndarray,
    spec: HankelSpec,
) -> float:
    """Negative log marginal likelihood Y' Lam^-1 Y + log|Lam|.

    The prior precision is lambda2 K^-1 + lambda1 P'(W2 Q W2' kron W1'W1)P.
    The evaluation goes through the theta-dimensional factorization and
    never forms the N*p by N*p covariance or K^-1.
    """
    if lambda1 < 0:
        raise ValueError("lambda1 must be nonnegative")
    if lambda2 <= 0:
        raise ValueError("lambda2 must be positive")
    ws = _Workspace(d, K, sigma, spec)
    rp = ws.rank_prior(rank_penalty_matrix(Q, spec)) if lambda1 > 0 else None
    return ws.nll(rp, lambda1, lambda2)


def _tracked_minimize(objective, x0, bounds, budget):
    """Nelder-Mead within bounds, restarted once from the best point seen."""
    best = {"f": np.inf, "x": np.asarray(x0, dtype=float)}

    def wrapped(x):
        f = objective(x)
        if f < best["f"]:
            best["f"] = f
            best["x"] = np.array(x, dtype=float)
        return f

    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    first = max(int(budget * 0.6), 20)
    optimize.minimize(
        wrapped, x0, method="Nelder-Mead", bounds=bounds,
        options={"maxfev": first, "xatol": 1e-3, "fatol": 1e-6},
    )
    optimize.minimize(
        wrapped, np.clip(best["x"], lo, hi), method="Nelder-Mead", bounds=bounds,
        options={"maxfev": max(budget - first, 20), "xatol": 1e-4, "fatol": 1e-8},
    )
    return best["x"], best["f"]


def _optimize_lambdas(
    ws: _Workspace,
    rp: _RankPrior,
    init: tuple[float, float],
    lambda2_floor: float,
    extra_starts: tuple[tuple[float, float], ...] = (),
) -> tuple[float, float, float, bool]:
    """Search the penalty weights in log space; never returns a worse point
    than the initializer.  Returns (lambda1, lambda2, nll, kept_init)."""
    l1_lo, l1_hi = (math.log10(b) for b in LAMBDA1_BOUNDS)
    l2_lo = math.log10(max(lambda2_floor, 1e-300))
    l2_hi = math.log10(LAMBDA2_MAX)

    def safe_nll(lam1, lam2):
        try:
            return ws.nll(rp, lam1, lam2)
        except (np.linalg.LinAlgError, FloatingPointError):
            return np.inf

    def objective(z):
        return safe_nll(10.0 ** float(z[0]), 10.0 ** float(z[1]))

    # Coarse probe along lambda1 before the simplex: the evidence is flat in
    # lambda1 near its lower bound, so a purely local start can never leave it.
    probe_l1 = [l1_lo + t * (l1_hi - l1_lo) / 7.0 for t in range(8)]
    starts = [init, *extra_starts] + [(10.0**e, init[1]) for e in probe_l1]
    logged = [
        (
            min(max(math.log10(max(l1, 1e-300)), l1_lo), l1_hi),
            min(max(math.log10(max(l2, 1e-300)), l2_lo), l2_hi),
        )
        for l1, l2 in starts
    ]
    x0 = min(logged, key=lambda z: objective(z))
    x, f = _tracked_minimize(objective, x0, [(l1_lo, l1_hi), (l2_lo, l2_hi)], NM_BUDGET)
    if not np.isfinite(f):
        log.warning("all lambda probes failed; keeping initializer")
        return init[0], init[1], safe_nll(*init), True
    return 10.0 ** float(x[0]), 10.0 ** float(x[1]), f, False


def optimize_lambdas(
    d: Dataset,
    Q: np.ndarray,
    K: np.ndarray,
    sigma: np.ndarray,
    spec: HankelSpec,
    init: tuple[float, float],
    lambda2_floor: float | None = None,
) -> tuple[float, float]:
    """Tune (lambda1, lambda2) for a fixed bound matrix Q.

    The returned pair never scores worse than ``init``.  ``lambda2_floor``
    defaults to LAMBDA2_FLOOR_RATIO times the smoothness-only optimum.
    """
    ws = _Workspace(d, K, sigma, spec)
    rp = ws.rank_prior(rank_penalty_matrix(Q, spec))
    if lambda2_floor is None:
        lam2_l2, _ = _l2_only_lambda2(ws)
        lambda2_floor = LAMBDA2_FLOOR_RATIO * lam2_l2
    lam1, lam2, _, _ = _optimize_lambdas(ws, rp, init, lambda2_floor)
    return lam1, lam2


def _l2_only_lambda2(ws: _Workspace, lo: float = 1e-6, hi: float = 1e6) -> tuple[float, float]:
    """Evidence-optimal smoothness weight with the rank penalty switched off."""

    def objective(z):
        try:
            return ws.nll(None, 0.0, 10.0**z)
        except np.linalg.LinAlgError:
            return np.inf

    res = optimize.minimize_scalar(
        objective,
        bounds=(math.log10(lo), math.log10(hi)),
        method="bounded",
        options={"xatol": 1e-4},
    )
    return 10.0 ** float(res.x), float(res.fun)


def q_saturation(n_samples: int, n_rows: int) -> tuple[float, float]:
    """Threshold separating signal from noise singular values, and the
    saturation weight assigned below it.  Natural logarithms."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need n_samples >= {MIN_SAMPLES} so log(log(n)) is positive")
    loglog = math.log(math.log(n_samples))
    threshold = math.sqrt(n_rows * loglog / n_samples)
    nu = 10.0 * n_samples / (n_rows * loglog)
    return threshold, nu


def update_q(ir: ImpulseResponse, spec: HankelSpec, n_samples: int) -> np.ndarray:
    """Bound matrix from the current iterate's weighted Hankel SVD.

    Singular directions above the sample-covariance noise threshold get the
    inverse-square weight, the rest the saturation value; the result is a
    symmetric positive definite matrix.
    """
    Ht = weighted_hankel(ir, spec)
    n_rows = Ht.shape[0]
    threshold, nu = q_saturation(n_samples, n_rows)
    U, s, _ = np.linalg.svd(Ht, full_matrices=True)
    s_full = np.zeros(n_rows)
    s_full[: s.size] = s
    weights = np.full(n_rows, nu)
    above = s_full >= threshold
    weights[above] = s_full[above] ** -2.0
    Q = (U * weights) @ U.T
    return 0.5 * (Q + Q.T)


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


def ssr_fit(
    d: Dataset,
    T: int,
    order: int = 1,
    options: SsrOptions | None = None,
    baseline: SsResult | None = None,
) -> SsrResult:
    """Full fit: baseline warm start, then the block-coordinate loop.

    The smoothness-only baseline tunes the kernel, provides the noise
    variances (from its residuals) and seeds the first bound matrix.  It is
    ``ss_estimate(d, order, T)``, or ``baseline`` when the caller has already
    fitted that on the same data.  The loop then alternates: tune (lambda1,
    lambda2) by evidence minimization for the current bound matrix,
    recompute the closed-form coefficient estimate those hyperparameters
    induce, and refresh the bound matrix from its Hankel singular structure.  Iteration stops as soon as the
    evidence fails to strictly decrease (ties stop) or after max_iter; the
    returned coefficients are the closed-form estimate of the best-evidence
    hyperparameters found.  Any numerical failure inside the loop returns
    the best state so far.
    """
    if d.n < MIN_SAMPLES:
        raise ValueError(f"ssr needs at least {MIN_SAMPLES} samples, got {d.n}")
    if baseline is not None:
        km = baseline.kernel
        for name, fitted, given in (
            ("order", km.order, order), ("T", km.T, T), ("p", km.p, d.p), ("m", km.m, d.m)
        ):
            if fitted != given:
                raise ValueError(f"baseline was fitted for {name}={fitted}, got {name}={given}")
    opts = options or SsrOptions()
    ss_res = baseline if baseline is not None else ss_estimate(d, order, T)
    K = assemble_prior(ss_res.kernel)
    sigma = ss_res.sigma

    r, c = choose_hankel_shape(T, d.p, d.m)
    if opts.weighted:
        W1, W2 = surrogate_weights(d, r, c)
        spec = make_hankel_spec(T, d.p, d.m, r, c, W1, W2)
    else:
        spec = make_hankel_spec(T, d.p, d.m, r, c)

    ws = _Workspace(d, K, sigma, spec)
    messages: list[str] = []

    lam2_l2, _ = _l2_only_lambda2(ws)
    floor = LAMBDA2_FLOOR_RATIO * lam2_l2

    def make_state(k, lam1, lam2, Q, rp, nll) -> SsrState:
        theta = ImpulseResponse(p=d.p, m=d.m, T=T, theta=ws.map(rp, lam1, lam2))
        hyper = SsrHyperparameters(lambda1=lam1, lambda2=lam2, Q=Q, sigma=sigma)
        return SsrState(k=k, theta=theta, hyper=hyper, nll=nll)

    Q = update_q(ss_res.ir, spec, d.n)
    R_Q = rank_penalty_matrix(Q, spec)
    rp = ws.rank_prior(R_Q)

    # balance the two penalty traces as a starting magnitude for lambda1
    lam1_lo, lam1_hi = LAMBDA1_BOUNDS
    lam1_bal = lam2_l2 * ws.trace_k_inv() / max(float(np.trace(R_Q)), 1e-300)
    lam1_bal = min(max(lam1_bal, lam1_lo), lam1_hi)
    init = (lam1_bal, lam2_l2)
    extras = ((lam1_bal * 1e-2, lam2_l2), (lam1_lo, lam2_l2))

    lam1, lam2, nll, kept = _optimize_lambdas(ws, rp, init, floor, extras)
    if kept:
        messages.append("initial lambda search failed; keeping initializer")
    trace = [make_state(0, lam1, lam2, Q, rp, nll)]

    for k in range(opts.max_iter):
        try:
            Q_new = update_q(trace[-1].theta, spec, d.n)
            rp = ws.rank_prior(rank_penalty_matrix(Q_new, spec))
            lam1n, lam2n, nll_new, _ = _optimize_lambdas(ws, rp, (lam1, lam2), floor)
            if not nll_new < trace[-1].nll:
                break
            trace.append(make_state(k + 1, lam1n, lam2n, Q_new, rp, nll_new))
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            messages.append(f"iteration {k + 1} aborted: {exc}")
            log.warning("iteration %d aborted: %s", k + 1, exc)
            break
        lam1, lam2 = lam1n, lam2n

    return SsrResult(
        ir=trace[-1].theta,
        trace=trace,
        spec=spec,
        sigma=sigma,
        ss=ss_res,
        lambda2_floor=floor,
        messages=messages,
    )
