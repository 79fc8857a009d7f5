"""Closed-form linear recommenders: iALS and EASE with debiased variants.

Both models minimize weighted squared error over the full user-item grid.
The debiased variants reweight known positives by c_u (= 1 + alpha); the
checks at the bottom verify numerically that each debiased solution equals
a rescaled original solution with mapped hyperparameters — one comparison
runs the two closed forms side by side, the other pits the closed form
against a general-purpose constrained optimizer.

iALS reads one binary scipy CSR (its transpose is the item side).  One row
solver serves both half-sweeps and both sides of Theorem 1, and the
objective sums its observed terms over the CSR entries in fixed-size chunks.
EASE holds one n x n buffer: the Gram, then its inverse P, then the weights
W, which are all it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dposv, dpotrf, dpotri
from scipy.optimize import minimize

from .data import InteractionDataset
from .sampling import substream

__all__ = [
    "EASEConfig", "EASEScorer", "IALSConfig", "IALSState", "check_theorem1", "check_theorem2",
    "ease_debiased_fit", "ease_fit", "ials_fit", "ials_objective",
]

# the models `recloss solve` fits, as linear.model names them
LINEAR_MODELS = ("ials", "ials-debiased", "ease", "ease-debiased")

# gathered factor entries per ials_objective chunk: two 8 MB float64 blocks
_CHUNK_FLOATS = 1 << 20

# item rows of the EASE Gram built, and of its inverse mirrored, per step
_GRAM_ROWS = 64


def _interactions(source) -> sp.csr_matrix:
    """Binary user x item CSR of a dataset's train pairs, or a copy of a 2-d
    matrix's nonzeros with duplicates summed and stored zeros dropped, where
    a negative or non-finite entry is an error."""
    if isinstance(source, InteractionDataset):
        return source.train_csr()
    if np.ndim(source) != 2:
        raise ValueError("interaction matrix must be 2-d")
    X = sp.csr_matrix(source, dtype=float, copy=True)
    X.sum_duplicates()
    bad = np.flatnonzero(~(np.isfinite(X.data) & (X.data >= 0)))
    if len(bad):
        row = np.searchsorted(X.indptr, bad[0], side="right") - 1
        raise ValueError(f"interaction matrix entry ({row}, {X.indices[bad[0]]}) is "
                         f"{X.data[bad[0]]}; entries must be finite and non-negative")
    X.eliminate_zeros()
    X.data[:] = 1.0
    return X


def _ridge_weights(X: sp.csr_matrix, lam: float, alpha0: float, nu: float):
    """lam (|S| + alpha0 * other side's size)^nu per user and per item."""
    num_users, num_items = X.shape
    per_user = np.diff(X.indptr) + alpha0 * num_items
    per_item = np.bincount(X.indices, minlength=num_items) + alpha0 * num_users
    return lam * per_user**nu, lam * per_item**nu


@dataclass
class IALSConfig:
    d: int
    alpha0: float
    lam: float
    nu: float = 1.0
    c_u: float | np.ndarray = 1.0
    num_sweeps: int = 10
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.d < 1 or self.num_sweeps < 1:
            raise ValueError("d and num_sweeps must be >= 1")
        if self.alpha0 < 0 or self.lam <= 0:
            raise ValueError("alpha0 must be non-negative and lam positive")
        if np.any(np.asarray(self.c_u) <= 0):
            raise ValueError("c_u must be positive")


@dataclass
class IALSState:
    W: np.ndarray
    H: np.ndarray
    objective_trace: list[float] = field(default_factory=list)

    def score_block(self, users: np.ndarray) -> np.ndarray:
        return self.W[users] @ self.H.T


def ials_objective(W, H, source, cfg: IALSConfig, debiased: bool = False) -> float:
    """The alternating-least-squares objective (debiased variant reweights
    observed terms by c_u and subtracts c_u * alpha0 * yhat^2 on them)."""
    X = _interactions(source)
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), X.shape[:1])
    # alpha0 * ||W H^T||_F^2 without materializing the full prediction grid
    total = cfg.alpha0 * float(np.sum((W @ (H.T @ H)) * W))
    users = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    step = max(1, _CHUNK_FLOATS // W.shape[1])
    for lo in range(0, X.nnz, step):
        u, i = users[lo:lo + step], X.indices[lo:lo + step]
        yhat = np.einsum("ij,ij->i", W[u], H[i])
        terms = (yhat - 1.0) ** 2
        if debiased:
            terms -= cfg.alpha0 * yhat**2
            terms *= c[u]
        total += float(np.sum(terms))
    lam_u, lam_i = _ridge_weights(X, cfg.lam, cfg.alpha0, cfg.nu)
    return total + float(lam_u @ np.sum(W**2, axis=1)) + float(lam_i @ np.sum(H**2, axis=1))


def _ridge_solve(A: np.ndarray, b: np.ndarray, kind: str, row: int) -> np.ndarray:
    """Solve A x = b by Cholesky (LAPACK posv), overwriting A and b.

    A is symmetric and C-ordered; LAPACK factors its Fortran-ordered
    transpose in place (a C-ordered array would be copied first).  NaN can
    pass the factorization, so _solve_rows checks the solved rows for it.
    """
    _, x, info = dposv(A.T, b, lower=True, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"ridge system of {kind} {row} is not positive definite (leading minor "
            f"{info}); its lambda must be positive and its inputs finite"
        )
    return x


def _solve_rows(R: sp.csr_matrix, fixed: np.ndarray, gram: np.ndarray, lams, kind: str,
                a_scale=1.0, b_scale=1.0, conf: np.ndarray | None = None) -> np.ndarray:
    """For each row r of R, with S its stored columns and M = fixed, solve
    (a_r M_S^T diag(conf_S) M_S + gram + lams[r] I) x = b_r M_S^T conf_S, where
    conf is 1 when None and a, b are scalars or per-row arrays; returns finite rows x."""
    n, d = R.shape[0], fixed.shape[1]
    a_scale, b_scale = np.broadcast_to(a_scale, (n,)), np.broadcast_to(b_scale, (n,))
    out = np.empty((n, d))
    bounds = R.indptr.tolist()
    for r in range(n):
        cols = R.indices[bounds[r]:bounds[r + 1]]
        M_s = fixed[cols]
        CM = M_s if conf is None else conf[cols, None] * M_s
        # one BLAS call forms a_r M_S^T (conf M_S) + gram in a fresh Fortran-ordered
        # array; a_r scales the product, since weighting M_S first can overflow it
        A = dgemm(a_scale[r], M_s.T, CM.T, 1.0, gram, trans_b=True).T
        b = CM.sum(axis=0)
        b *= b_scale[r]
        A.flat[:: d + 1] += lams[r]
        out[r] = _ridge_solve(A, b, kind, r)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"iALS {kind} solves produced non-finite factors")
    return out


def ials_fit(source, cfg: IALSConfig, debiased: bool = False) -> IALSState:
    """Alternating exact per-row ridge solves; objective recorded per sweep.

    Original mode solves (H_S H_S^T + alpha0 H H^T + lam_u I) w = H_S 1 per
    user (symmetrically per item).  Debiased mode solves the normal
    equations of the reweighted objective,
    (c_u (1-alpha0) H_S H_S^T + alpha0 H H^T + lam_u I) w = c_u H_S 1,
    so each half-sweep is an exact coordinate minimizer and the trace is
    guaranteed non-increasing.
    """
    if debiased and cfg.alpha0 >= 1:
        raise ValueError("debiased mode requires alpha0 < 1")
    X = _interactions(source)
    by_item = X.T.tocsr()
    num_users, num_items = X.shape
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), (num_users,))
    rng = substream(cfg.seed, "init")
    W = rng.normal(0.0, cfg.init_scale / np.sqrt(cfg.d), size=(num_users, cfg.d))
    H = rng.normal(0.0, cfg.init_scale / np.sqrt(cfg.d), size=(num_items, cfg.d))
    lam_u, lam_i = _ridge_weights(X, cfg.lam, cfg.alpha0, cfg.nu)
    user_a, user_b = (c * (1.0 - cfg.alpha0), c) if debiased else (1.0, 1.0)
    item_a, item_conf = (1.0 - cfg.alpha0, c) if debiased else (1.0, None)

    trace = [ials_objective(W, H, X, cfg, debiased)]
    for _ in range(cfg.num_sweeps):
        W = _solve_rows(X, H, cfg.alpha0 * (H.T @ H), lam_u, "user", user_a, user_b)
        H = _solve_rows(by_item, W, cfg.alpha0 * (W.T @ W), lam_i, "item", item_a, 1.0, item_conf)
        trace.append(ials_objective(W, H, X, cfg, debiased))
    return IALSState(W, H, trace)


@dataclass
class EASEConfig:
    lam: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1); convexity requires c_u < 2 here")


@dataclass
class EASESolution:
    W: np.ndarray


def _ease_solve(X, lam: float, alpha: float = 0.0) -> EASESolution:
    """W = (I - P dMat(1/diag(P))) / (1-alpha) with diag(W) = 0, where
    P = (X^T X + lam I)^{-1}, formed in one C-ordered n x n buffer.

    The dense Gram is built into the buffer _GRAM_ROWS item rows at a time
    from X's nonzeros (X dense or scipy.sparse).  Cholesky (potrf + potri)
    inverts it in place in about n^3 flops, against 2n^3 for LU, and W then
    overwrites P.  The I term only touches the zeroed diagonal, so it is left
    out.  Beside the buffer, the solve holds X's nonzeros and their transposed
    copy while it builds the Gram, and an n x n bool array while it checks W.
    """
    Xs = sp.csr_matrix(X, dtype=float)
    Xt = Xs.T.tocsr()
    n = Xs.shape[1]
    P = np.zeros((n, n))
    # toarray adds the block into out, so out must start at zero
    for lo in range(0, n, _GRAM_ROWS):
        (Xt[lo:lo + _GRAM_ROWS] @ Xs).toarray(out=P[lo:lo + _GRAM_ROWS])
    del Xs, Xt
    P.flat[:: n + 1] += lam
    # LAPACK works on the Fortran-ordered P.T in place; its lower triangle is
    # P's upper one, and P's strict lower triangle keeps stale Gram entries
    _, info = dpotrf(P.T, lower=True, clean=False, overwrite_a=True)
    if info == 0:
        _, info = dpotri(P.T, lower=True, overwrite_c=True)
    if info != 0:
        raise FloatingPointError(
            f"EASE Gram + lam I is not numerically positive definite (info {info}); raise lam"
        )
    # mirror the upper triangle down one block of rows at a time; copyto
    # copies the overlapping source first, a block of rows, not all of P
    for lo in range(0, n, _GRAM_ROWS):
        hi = min(lo + _GRAM_ROWS, n)
        np.copyto(P[lo:hi, :hi], P[:hi, lo:hi].T, where=np.tri(hi - lo, hi, lo - 1, dtype=bool))
    P /= np.diag(P).copy()
    P /= alpha - 1.0
    if not np.all(np.isfinite(P)):
        raise FloatingPointError("EASE solve produced non-finite weights (ill-conditioned Gram)")
    np.fill_diagonal(P, 0.0)
    return EASESolution(W=P)


def ease_fit(X, lam: float) -> EASESolution:
    """Item-item ridge with a zero-diagonal constraint, via the one-inverse form
    P = (X^T X + lam I)^{-1}, W = I - P dMat(1/diag(P))."""
    return _ease_solve(X, EASEConfig(lam=lam).lam)


def ease_debiased_fit(X, lam: float, alpha: float) -> EASESolution:
    """Zero-diagonal minimizer of ||X-XW||^2 - alpha ||XW||^2 + lam ||W||^2:
    P_hat = (X^T X + lam/(1-alpha) I)^{-1}, W = (I - P_hat dMat(1/diag(P_hat))) / (1-alpha)."""
    cfg = EASEConfig(lam=lam, alpha=alpha)
    return _ease_solve(X, cfg.lam / (1.0 - cfg.alpha), cfg.alpha)


class EASEScorer:
    """Scores users as X[users] @ W, with X the dataset's sparse train matrix."""

    def __init__(self, ds, W: np.ndarray):
        if W.shape[0] != ds.num_items:
            raise ValueError("weight matrix does not match the catalog size")
        self.X = ds.train_csr()
        self.W = W

    def score_block(self, users: np.ndarray) -> np.ndarray:
        return self.X[users] @ self.W


def _rel_deviation(a: np.ndarray, b: np.ndarray, axis: int | None = None) -> float:
    """max |a - b| / max(max |b|, 1e-30), whole or per slice along axis (the largest)."""
    scale = np.maximum(np.max(np.abs(b), axis=axis), 1e-30)
    return float(np.max(np.max(np.abs(a - b), axis=axis) / scale, initial=0.0))


def check_theorem1(
    X: np.ndarray,
    d: int,
    alpha0: float,
    c_u: float,
    lam: float = 0.01,
    nu: float = 1.0,
    lambda_users: np.ndarray | None = None,
    lambda_items: np.ndarray | None = None,
    seed: int = 0,
) -> float:
    """Debiased iALS closed form vs rescaled original closed form, per row.

    With constant c_u, the debiased user solve
      (c_u(1-a0) H_S H_S^T + a0 H H^T + lam_u I)^{-1} H_S sqrt(c_u) 1
    must equal 1/(sqrt(c_u)(1-a0)) times the original solve run with
    a0' = a0/((1-a0)c_u) and lam_u' = lam_u/((1-a0)c_u).  Returns the max
    relative deviation over all user and item rows, both sides computed by
    independent factorizations.
    """
    if not 0 < alpha0 < 1:
        raise ValueError("theorem premise needs 0 < alpha0 < 1")
    if c_u <= 0:
        raise ValueError("theorem premise needs constant c_u > 0")
    R = _interactions(X)
    rng = substream(seed, "init")
    H = rng.normal(0.0, 1.0 / np.sqrt(d), size=(R.shape[1], d))
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(R.shape[0], d))
    default_u, default_i = _ridge_weights(R, lam, alpha0, nu)
    lam_u = default_u if lambda_users is None else np.asarray(lambda_users, dtype=float)
    lam_i = default_i if lambda_items is None else np.asarray(lambda_items, dtype=float)
    for name, lams, rows in (("lambda_users", lam_u, R.shape[0]), ("lambda_items", lam_i, R.shape[1])):
        if lams.shape != (rows,):
            raise ValueError(f"{name} has length {lams.size}; expected {rows}")

    scale = 1.0 / ((1.0 - alpha0) * c_u)
    factor = 1.0 / (np.sqrt(c_u) * (1.0 - alpha0))
    worst = 0.0
    for kind, rows, fixed, lams in (("user", R, H, lam_u), ("item", R.T.tocsr(), W, lam_i)):
        gram = fixed.T @ fixed
        debiased = _solve_rows(rows, fixed, alpha0 * gram, lams, kind, c_u * (1.0 - alpha0), np.sqrt(c_u))
        original = _solve_rows(rows, fixed, (alpha0 * scale) * gram, lams * scale, kind)
        worst = max(worst, _rel_deviation(debiased, factor * original, axis=1))
    return worst


def _debiased_ease_oracle(X: np.ndarray, lam: float, alpha: float) -> np.ndarray:
    """Minimize the debiased objective over the off-diagonal entries with a
    quasi-Newton solver (analytic gradient); independent of the closed form."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    G = X.T @ X
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))

    def unpack(z):
        W = np.zeros((n, n))
        W[rows, cols] = z
        return W

    def fun(z):
        W = unpack(z)
        R = X - X @ W
        XW = X @ W
        value = np.sum(R**2) - alpha * np.sum(XW**2) + lam * np.sum(W**2)
        grad = 2.0 * ((1.0 - alpha) * G @ W - G + lam * W)
        return value, grad[rows, cols]

    res = minimize(
        fun, np.zeros(len(rows)), jac=True, method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12},
    )
    return unpack(res.x)


def check_theorem2(X: np.ndarray, lam: float, alpha: float,
                   run_oracle: bool = True) -> tuple[float, float]:
    """Debiased EASE vs (a) rescaled original EASE and (b) an optimizer oracle.

    (a) compares ease_debiased_fit(X, lam, alpha).W with
    ease_fit(X, lam/(1-alpha)).W / (1-alpha) entrywise; (b) compares against
    the L-BFGS minimizer of the debiased objective (skippable for speed).
    Returns (scale_deviation, oracle_deviation).
    """
    debiased = ease_debiased_fit(X, lam, alpha).W
    rescaled = ease_fit(X, lam / (1.0 - alpha)).W / (1.0 - alpha)
    scale_dev = _rel_deviation(debiased, rescaled)
    oracle_dev = 0.0
    if run_oracle:
        if X.shape[1] > 8:
            raise ValueError("optimizer oracle is limited to at most 8 items")
        oracle_dev = _rel_deviation(debiased, _debiased_ease_oracle(X, lam, alpha))
    return scale_dev, oracle_dev
