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
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from ..core import (
    Dataset,
    HankelSpec,
    ImpulseResponse,
    _cholesky,
    _lbfgsb,
    _solve_lower,
    choose_hankel_shape,
    make_hankel_spec,
    one_blas_thread,
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
    "ssr_fit",
]

log = logging.getLogger("hankelssr.ssr")

MIN_SAMPLES = 16  # smallest N with log(log(N)) > 0 in the bound-matrix threshold

# Penalty-weight search: lambda1's box, lambda2's upper bound, and lambda2's
# floor.  lambda2 multiplies the inverse of a kernel that already carries the
# baseline's evidence-optimal scale, so lambda2 = 1 is that scale and the
# floor is a fraction of it.
LAMBDA1_BOUNDS = (1e-8, 1e6)
LAMBDA2_MAX = 1e6
LAMBDA2_FLOOR_RATIO = 1e-3


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
    evidence_evals: int  # evidence evaluations of this fit, its baseline's left out

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


def rank_penalty_matrix(Q: np.ndarray, spec: HankelSpec) -> np.ndarray:
    """P' (W2 Q W2' kron W1'W1) P without materializing the Kronecker product.

    P is the 0/1 selection matrix with P theta = vec(H(theta)'), which puts
    coefficient lag a + b at Hankel block (a, b).  So the block of R between
    channels (i, j) and (i', j') is the full 2-D convolution of the r x r
    block (i, i') of W2 Q W2' with the c x c block (j, j') of W1'W1, of size
    T x T; all of them come from one FFT product.
    """
    r, c, p, m, T = spec.r, spec.c, spec.p, spec.m, spec.T
    G2 = spec.W2 @ np.asarray(Q, dtype=float) @ spec.W2.T
    G1 = spec.W1.T @ spec.W1
    # [i, i', a, a'] and [j, j', b, b'] blocks of the two Gram factors
    A = np.fft.rfft2(G2.reshape(r, p, r, p).transpose(1, 3, 0, 2), s=(T, T))
    B = np.fft.rfft2(G1.reshape(c, m, c, m).transpose(1, 3, 0, 2), s=(T, T))
    conv = np.fft.irfft2(A[:, :, None, None] * B, s=(T, T))  # [i, i', j, j', k, k']
    R = conv.transpose(0, 2, 4, 1, 3, 5).reshape(spec.theta_dim, spec.theta_dim)
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
    h = L' Phi~'Y~ (Phi~, Y~ the noise-whitened regressor and outputs).  A
    copy of K is factored once; each bound matrix costs the eigenvalues of S;
    each evidence or MAP probe, the rank penalty on or off, then factors
    lambda2 I + lambda1 S + G, built in a buffer of its own, with one
    in-place ``dpotrf`` (``core._cholesky``) and solves with that factor by
    ``dtrtrs``; a gradient probe adds one ``dpotri`` in the same buffer.
    Nothing the workspace or the caller holds is overwritten.  A probe whose
    factor or evidence is not finite raises LinAlgError or
    FloatingPointError, which the searches score as a failed probe.
    ``evals`` counts the evidence probes.
    """

    def __init__(self, d: Dataset, K: np.ndarray, sigma: np.ndarray, spec: HankelSpec):
        if spec.p != d.p or spec.m != d.m:
            raise ValueError("HankelSpec channel counts disagree with the dataset")
        sigma = np.asarray(sigma, dtype=float).reshape(-1)
        if sigma.size != d.p or np.any(sigma <= 0):
            raise ValueError("need one positive noise variance per output")
        T = spec.T
        self.dim = T * d.m * d.p
        try:
            self.L = _cholesky(np.array(K, dtype=float))[0]
        except np.linalg.LinAlgError:
            raise ValueError("prior covariance K is not positive definite") from None

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
        self.evals = 0

    def rank_prior(self, R_Q: np.ndarray) -> _RankPrior:
        """Whitened form of a rank-penalty matrix, with eigenvalues only."""
        S = self.L.T @ R_Q @ self.L
        S = 0.5 * (S + S.T)
        return _RankPrior(S=S, mu=np.linalg.eigvalsh(S))

    def _posterior(self, rp: _RankPrior, lambda1: float, lambda2: float):
        """log|lambda2 I + lambda1 S|, the lower Cholesky factor C of the
        posterior precision lambda2 I + lambda1 S + G, and log|C C'|."""
        prior = lambda2 + lambda1 * rp.mu
        if not np.all(prior > 0):
            raise np.linalg.LinAlgError("prior precision not positive definite")
        M = lambda1 * rp.S  # a new buffer, which the factor overwrites
        M += self.G
        M.ravel()[:: self.dim + 1] += lambda2  # the diagonal, as a view
        return float(np.sum(np.log(prior))), *_cholesky(M)

    def _evidence(self, rp: _RankPrior, lambda1: float, lambda2: float):
        """The evidence, the posterior factor C and w = C^-1 h; a non-finite
        evidence is a FloatingPointError."""
        self.evals += 1
        logdet_prior, C, logdet_post = self._posterior(rp, lambda1, lambda2)
        w = _solve_lower(C, self.h)
        nll = self.ybar_sq - float(w @ w) + self.log_sigma_term + logdet_post - logdet_prior
        if not math.isfinite(nll):
            raise FloatingPointError("evidence is not finite")
        return nll, C, w

    def nll(self, rp: _RankPrior, lambda1: float, lambda2: float) -> float:
        """Y~'Lam^-1 Y~ + log|Lam| of (lambda1, lambda2, Q) through the
        theta-dimensional inversion and determinant lemmas."""
        return self._evidence(rp, lambda1, lambda2)[0]

    def nll_grad(self, rp: _RankPrior, lambda1: float, lambda2: float) -> tuple[float, np.ndarray]:
        """The evidence and its gradient in (lambda1, lambda2).  With
        M = lambda2 I + lambda1 S + G = C C', M^-1 from C (dpotri, in C's own
        buffer) and x = M^-1 h:
          d/dlambda1 = x'Sx + tr(M^-1 S) - sum(mu / (lambda2 + lambda1 mu))
          d/dlambda2 = x'x + tr(M^-1) - sum(1 / (lambda2 + lambda1 mu))
        """
        nll, C, w = self._evidence(rp, lambda1, lambda2)
        x = _solve_lower(C, w, trans=1)
        # C's diagonal is positive, so dpotri cannot fail; it fills the lower
        # triangle and leaves the factor's zero upper triangle as it is
        M_inv = linalg.lapack.dpotri(C, lower=1, overwrite_c=1)[0]
        tr_s = 2.0 * float(np.sum(M_inv * rp.S)) - float(np.diag(M_inv) @ np.diag(rp.S))
        prior = lambda2 + lambda1 * rp.mu
        return nll, np.array([
            float(x @ rp.S @ x) + tr_s - float(np.sum(rp.mu / prior)),
            float(x @ x) + float(np.trace(M_inv)) - float(np.sum(1.0 / prior)),
        ])

    def map(self, rp: _RankPrior, lambda1: float, lambda2: float) -> np.ndarray:
        """Closed-form estimate [Phi~'Phi~ + A]^-1 Phi~'Y~ as theta = L x."""
        _, C, _ = self._posterior(rp, lambda1, lambda2)
        return self.L @ _solve_lower(C, _solve_lower(C, self.h), trans=1)

    def trace_k_inv(self) -> float:
        """tr(K^-1) = |L^-1|_F^2."""
        L_inv = _solve_lower(self.L, np.eye(self.dim))
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
    rp = ws.rank_prior(rank_penalty_matrix(Q, spec))
    return ws.nll(rp, lambda1, lambda2)


def _lambda1_probe(lambda2: float) -> tuple[tuple[float, float], ...]:
    """Eight lambda1 values log-spaced over LAMBDA1_BOUNDS, at lambda2: a local
    first search could never leave the flat evidence near lambda1's lower bound."""
    lo, hi = (math.log10(b) for b in LAMBDA1_BOUNDS)
    return tuple((10.0 ** (lo + t * (hi - lo) / 7.0), lambda2) for t in range(8))


def _optimize_lambdas(
    ws: _Workspace,
    rp: _RankPrior,
    init: tuple[float, float],
    lambda2_floor: float,
    starts: tuple[tuple[float, float], ...] = (),
) -> tuple[float, float, float]:
    """L-BFGS-B in log10 lambda from the best of ``init`` and ``starts``; never
    returns a worse point than the initializer.  Returns (lambda1, lambda2, nll)."""
    bounds = np.log10([LAMBDA1_BOUNDS, (max(lambda2_floor, 1e-300), LAMBDA2_MAX)])

    def safe_nll(lam1, lam2):
        try:
            return ws.nll(rp, lam1, lam2)
        except (np.linalg.LinAlgError, FloatingPointError):
            return np.inf

    def lambdas(z):
        # 10 ** log10(floor) can fall one ulp below the floor
        return 10.0 ** float(z[0]), max(10.0 ** float(z[1]), lambda2_floor)

    def nll_grad(z):
        lam = lambdas(z)
        f, g = ws.nll_grad(rp, *lam)
        return f, math.log(10.0) * np.array(lam) * g

    logged = [np.clip(np.log10(np.maximum(s, 1e-300)), *bounds.T) for s in (init, *starts)]
    z0 = min(logged, key=lambda z: safe_nll(*lambdas(z))) if starts else logged[0]
    z, f, _ = _lbfgsb(nll_grad, z0, bounds)
    if not np.isfinite(f):
        log.warning("all lambda probes failed; keeping initializer")
        return init[0], init[1], safe_nll(*init)
    return *lambdas(z), f


def optimize_lambdas(
    d: Dataset,
    Q: np.ndarray,
    K: np.ndarray,
    sigma: np.ndarray,
    spec: HankelSpec,
    init: tuple[float, float],
    lambda2_floor: float = LAMBDA2_FLOOR_RATIO,
) -> tuple[float, float]:
    """Tune (lambda1, lambda2) for a fixed bound matrix Q.

    The returned pair never scores worse than ``init``.  ``lambda2_floor``
    defaults to LAMBDA2_FLOOR_RATIO: lambda2 = 1 is the scale K carries.
    """
    ws = _Workspace(d, K, sigma, spec)
    rp = ws.rank_prior(rank_penalty_matrix(Q, spec))
    lam1, lam2, _ = _optimize_lambdas(ws, rp, init, lambda2_floor, _lambda1_probe(init[1]))
    return lam1, lam2


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


@one_blas_thread
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
    induce, and refresh the bound matrix from its Hankel singular structure.
    The prior covariance is the baseline's kernel, which already carries
    each output's evidence-optimal scale, so lambda2 = 1 is that scale: the
    first lambda search starts from the best of a few probes at lambda2 = 1,
    each later one from the previous lambdas, and lambda2 never falls below
    LAMBDA2_FLOOR_RATIO.  Iteration stops as soon as the evidence fails to
    strictly decrease (ties stop) or after max_iter; the returned
    coefficients are the closed-form estimate of the best-evidence
    hyperparameters found.  Any numerical failure inside the loop returns
    the best state so far.  Computes with one BLAS thread (see
    ``core.one_blas_thread``).
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

    def make_state(k, lam1, lam2, Q, rp, nll) -> SsrState:
        theta = ImpulseResponse(p=d.p, m=d.m, T=T, theta=ws.map(rp, lam1, lam2))
        hyper = SsrHyperparameters(lambda1=lam1, lambda2=lam2, Q=Q, sigma=sigma)
        return SsrState(k=k, theta=theta, hyper=hyper, nll=nll)

    Q = update_q(ss_res.ir, spec, d.n)
    R_Q = rank_penalty_matrix(Q, spec)
    rp = ws.rank_prior(R_Q)

    # balance the two penalty traces as a starting magnitude for lambda1,
    # at lambda2 = 1, the baseline kernel's own scale
    lam1_lo, lam1_hi = LAMBDA1_BOUNDS
    lam1_bal = ws.trace_k_inv() / max(float(np.trace(R_Q)), 1e-300)
    lam1_bal = min(max(lam1_bal, lam1_lo), lam1_hi)
    init = (lam1_bal, 1.0)
    starts = ((lam1_bal * 1e-2, 1.0), *_lambda1_probe(1.0))

    lam1, lam2, nll = _optimize_lambdas(ws, rp, init, LAMBDA2_FLOOR_RATIO, starts)
    trace = [make_state(0, lam1, lam2, Q, rp, nll)]

    for k in range(opts.max_iter):
        try:
            Q_new = update_q(trace[-1].theta, spec, d.n)
            rp = ws.rank_prior(rank_penalty_matrix(Q_new, spec))
            lam1n, lam2n, nll_new = _optimize_lambdas(ws, rp, (lam1, lam2), LAMBDA2_FLOOR_RATIO)
            if not nll_new < trace[-1].nll:
                break
            trace.append(make_state(k + 1, lam1n, lam2n, Q_new, rp, nll_new))
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            log.warning("iteration %d aborted: %s", k + 1, exc)
            break
        lam1, lam2 = lam1n, lam2n

    return SsrResult(
        ir=trace[-1].theta,
        trace=trace,
        spec=spec,
        sigma=sigma,
        ss=ss_res,
        lambda2_floor=LAMBDA2_FLOOR_RATIO,
        evidence_evals=ws.evals,
    )
