"""Domain types and deterministic linear-algebra constructions.

Truncated MIMO impulse responses are stored as flat coefficient vectors in
channel-major layout.  This module provides the shared machinery: lagged-input
regressors, block Hankel matrices, the row indices that place each
coefficient in the vectorized transposed Hankel matrix, and (optional)
row/column weighting estimated from data.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import linalg

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
    "numerical_rank",
    "chol_psd",
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


def _hankel_row_sources(T: int, p: int, m: int, r: int, c: int) -> np.ndarray:
    """Theta index selected by each row of the vec(H^T) map, vec column-major."""
    a = np.repeat(np.arange(r), p)  # block row of each H row
    i = np.tile(np.arange(p), r)  # output index of each H row
    b = np.repeat(np.arange(c), m)  # block column of each H column
    j = np.tile(np.arange(m), c)  # input index of each H column
    # vec(H^T) entry (alpha + c*m*beta) = H[beta, alpha] = theta[(i*m + j)*T + a + b]
    src = ((i * m)[:, None] + j[None, :]) * T + a[:, None] + b[None, :]
    return src.reshape(-1).astype(np.intp)


@dataclass(frozen=True)
class HankelSpec:
    """Shape, vectorization indices and weighting for the block Hankel matrix.

    ``row_src[rho]`` is the theta index that lands in entry rho of
    vec(H(theta)^T), so ``theta[row_src]`` vectorizes the transposed Hankel
    matrix; in matrix form it is the 0/1 selection matrix P with one 1 per
    row.
    """

    r: int
    c: int
    p: int
    m: int
    row_src: np.ndarray
    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        if self.r < 1 or self.c < 1:
            raise ValueError("r and c must be >= 1")
        rp, cm = self.r * self.p, self.c * self.m
        row_src = np.asarray(self.row_src, dtype=np.intp).reshape(-1)
        if row_src.size != rp * cm:
            raise ValueError("row_src has wrong length")
        W1 = np.asarray(self.W1, dtype=float)
        W2 = np.asarray(self.W2, dtype=float)
        if W1.shape != (cm, cm) or W2.shape != (rp, rp):
            raise ValueError("weight matrices have wrong shape")
        row_src = row_src.copy()
        row_src.flags.writeable = False
        object.__setattr__(self, "row_src", row_src)
        object.__setattr__(self, "W1", _owned(W1))
        object.__setattr__(self, "W2", _owned(W2))

    @property
    def T(self) -> int:
        return self.r + self.c - 1

    @property
    def theta_dim(self) -> int:
        return self.T * self.m * self.p

    def vec_hankel_t(self, theta: np.ndarray) -> np.ndarray:
        """vec(H(theta)^T), column-major."""
        return np.asarray(theta, dtype=float)[self.row_src]

    def multiplicities(self) -> np.ndarray:
        """How many Hankel entries each coefficient occupies."""
        return np.bincount(self.row_src, minlength=self.theta_dim).astype(float)


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
        row_src=_hankel_row_sources(T, p, m, r, c),
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


def numerical_rank(mat_or_sv: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Count singular values above rel_tol times the largest one."""
    a = np.asarray(mat_or_sv, dtype=float)
    s = np.linalg.svd(a, compute_uv=False) if a.ndim == 2 else np.sort(a)[::-1]
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


CHOL_JITTER = 1e-12  # first diagonal bump, relative to the mean diagonal; x100 per retry
CHOL_TRIES = 7


def chol_psd(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating a relative jitter for PSD inputs."""
    M = np.asarray(M, dtype=float)
    scale = max(float(np.trace(M)) / M.shape[0], np.finfo(float).tiny)
    bump = 0.0
    for _ in range(CHOL_TRIES):
        try:
            return np.linalg.cholesky(M + bump * np.eye(M.shape[0]) if bump else M)
        except np.linalg.LinAlgError:
            bump = CHOL_JITTER * scale if bump == 0.0 else bump * 100.0
    raise np.linalg.LinAlgError("matrix not positive definite even after jitter")


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
