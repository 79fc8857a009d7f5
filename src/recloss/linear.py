"""Closed-form linear recommenders: iALS and EASE with debiased variants.

Both models minimize weighted squared error over the full user-item grid.
The debiased variants reweight known positives by c_u (= 1 + alpha); the
checks at the bottom verify numerically that each debiased solution equals
a rescaled original solution with mapped hyperparameters — one comparison
runs the two closed forms side by side, the other pits the closed form
against a general-purpose constrained optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dposv, dpotrf, dpotri
from scipy.optimize import minimize

from .data import CSRRows, InteractionDataset
from .sampling import substream


def _positives_from(source):
    """(user rows, item rows, num_users, num_items): the CSR of a dataset's
    train pairs or of a 2-d matrix's nonzeros, and its CSC transpose, both as
    CSRRows; a tuple this function built before is returned as is."""
    if isinstance(source, tuple):
        return source
    if isinstance(source, InteractionDataset):
        X = source.train_csr()
    elif np.ndim(source) != 2:
        raise ValueError("interaction matrix must be 2-d")
    else:
        X = sp.csr_matrix(source)
    by_item = X.tocsc()
    return CSRRows(X.indptr, X.indices), CSRRows(by_item.indptr, by_item.indices), *X.shape


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

    def score_all(self, u: int) -> np.ndarray:
        return self.H @ self.W[u]

    def score_block(self, users: np.ndarray) -> np.ndarray:
        return self.W[users] @ self.H.T


def ials_objective(W, H, source, cfg: IALSConfig, debiased: bool = False) -> float:
    """The alternating-least-squares objective (debiased variant reweights
    observed terms by c_u and subtracts c_u * alpha0 * yhat^2 on them).
    ``source`` may also be the positives tuple ials_fit builds once."""
    user_items, item_users, num_users, num_items = _positives_from(source)
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), (num_users,))
    # alpha0 * ||W H^T||_F^2 without materializing the full prediction grid
    gram_h = H.T @ H
    total = cfg.alpha0 * float(np.sum((W @ gram_h) * W))
    for u, items in enumerate(user_items):
        if len(items) == 0:
            continue
        yhat = H[items] @ W[u]
        if debiased:
            total += c[u] * float(np.sum((yhat - 1.0) ** 2))
            total -= c[u] * cfg.alpha0 * float(np.sum(yhat**2))
        else:
            total += float(np.sum((yhat - 1.0) ** 2))
    total += cfg.lam * float(
        np.sum((user_items.lengths + cfg.alpha0 * num_items) ** cfg.nu * np.sum(W**2, axis=1))
    )
    total += cfg.lam * float(
        np.sum((item_users.lengths + cfg.alpha0 * num_users) ** cfg.nu * np.sum(H**2, axis=1))
    )
    return total


def _ridge_solve(A: np.ndarray, b: np.ndarray, kind: str, row: int) -> np.ndarray:
    """Solve A x = b by Cholesky (LAPACK posv), overwriting A and b.

    A is symmetric and C-ordered; LAPACK factors its Fortran-ordered
    transpose in place (a C-ordered array would be copied first).  NaN can
    pass the factorization, so callers check the solved factor for it.
    """
    _, x, info = dposv(A.T, b, lower=True, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"ridge system of {kind} {row} is not positive definite (leading minor "
            f"{info}); its lambda must be positive and its inputs finite"
        )
    return x


def _require_finite(M: np.ndarray, kind: str) -> None:
    if not np.all(np.isfinite(M)):
        raise FloatingPointError(f"iALS {kind} solves produced non-finite factors")


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
    positives = _positives_from(source)
    user_items, item_users, num_users, num_items = positives
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), (num_users,))
    rng = substream(cfg.seed, "init")
    d = cfg.d
    W = rng.normal(0.0, cfg.init_scale / np.sqrt(d), size=(num_users, d))
    H = rng.normal(0.0, cfg.init_scale / np.sqrt(d), size=(num_items, d))
    lam_u = cfg.lam * (user_items.lengths + cfg.alpha0 * num_items) ** cfg.nu
    lam_i = cfg.lam * (item_users.lengths + cfg.alpha0 * num_users) ** cfg.nu

    state = IALSState(W, H)
    state.objective_trace.append(ials_objective(W, H, positives, cfg, debiased))
    for _ in range(cfg.num_sweeps):
        a0_gram = cfg.alpha0 * (H.T @ H)
        for u, items in enumerate(user_items):
            H_s = H[items]
            A = H_s.T @ H_s
            b = H_s.sum(axis=0)
            if debiased:
                A *= c[u] * (1.0 - cfg.alpha0)
                b *= c[u]
            A += a0_gram
            A.flat[:: d + 1] += lam_u[u]
            W[u] = _ridge_solve(A, b, "user", u)
        _require_finite(W, "user")
        a0_gram = cfg.alpha0 * (W.T @ W)
        for i, users in enumerate(item_users):
            W_s = W[users]
            if debiased:
                cu = c[users]
                # (c W_S)^T W_S is the transpose of W_S^T (c W_S); the solve
                # reads its upper triangle, which is the latter's lower one
                A = (cu[:, None] * W_s).T @ W_s
                A *= 1.0 - cfg.alpha0
                b = W_s.T @ cu
            else:
                A = W_s.T @ W_s
                b = W_s.sum(axis=0)
            A += a0_gram
            A.flat[:: d + 1] += lam_i[i]
            H[i] = _ridge_solve(A, b, "item", i)
        _require_finite(H, "item")
        state.objective_trace.append(ials_objective(W, H, positives, cfg, debiased))
    return state


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
    P: np.ndarray


def _ease_solve(X, lam: float, alpha: float = 0.0) -> EASESolution:
    """P = (X^T X + lam I)^{-1}, W = (I - P dMat(1/diag(P))) / (1-alpha), diag(W) = 0.

    The Gram comes from X's nonzeros (X dense or scipy.sparse).  Cholesky
    (potrf + potri) inverts it in place in about n^3 flops, against 2n^3 for
    LU.  The I term only touches the zeroed diagonal, so it is left out.
    """
    Xs = sp.csr_matrix(X, dtype=float)
    P = (Xs.T @ Xs).toarray(order="F").T
    n = P.shape[0]
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
    np.copyto(P, P.T, where=np.tri(n, k=-1, dtype=bool))
    W = P / np.diag(P)
    W /= alpha - 1.0
    if not np.all(np.isfinite(W)):
        raise FloatingPointError("EASE solve produced non-finite weights (ill-conditioned Gram)")
    np.fill_diagonal(W, 0.0)
    return EASESolution(W=W, P=P)


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

    def score_all(self, u: int) -> np.ndarray:
        return self.score_block(np.array([u]))[0]

    def score_block(self, users: np.ndarray) -> np.ndarray:
        return self.X[users] @ self.W


def _rel_deviation(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


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
    user_items, item_users, num_users, num_items = _positives_from(np.asarray(X, dtype=float))
    rng = substream(seed, "init")
    H = rng.normal(0.0, 1.0 / np.sqrt(d), size=(num_items, d))
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(num_users, d))
    if lambda_users is None:
        lambda_users = lam * (user_items.lengths + alpha0 * num_items) ** nu
    if lambda_items is None:
        lambda_items = lam * (item_users.lengths + alpha0 * num_users) ** nu

    scale = 1.0 / ((1.0 - alpha0) * c_u)
    factor = 1.0 / (np.sqrt(c_u) * (1.0 - alpha0))
    worst = 0.0
    for kind, rows, mat, gram, lams in (
        ("user", user_items, H, H.T @ H, lambda_users),
        ("item", item_users, W, W.T @ W, lambda_items),
    ):
        for r, obs in enumerate(rows):
            M_s = mat[obs]
            gram_s = M_s.T @ M_s
            b = M_s.sum(axis=0)
            A = c_u * (1.0 - alpha0) * gram_s + alpha0 * gram
            A.flat[:: d + 1] += lams[r]
            debiased = _ridge_solve(A, np.sqrt(c_u) * b, kind, r)
            A = gram_s + (alpha0 * scale) * gram
            A.flat[:: d + 1] += lams[r] * scale
            original = _ridge_solve(A, b, kind, r)
            worst = max(worst, _rel_deviation(debiased, factor * original))
    return worst


def _offdiag_indices(n: int):
    mask = ~np.eye(n, dtype=bool)
    return np.where(mask)


def _debiased_ease_oracle(X: np.ndarray, lam: float, alpha: float) -> np.ndarray:
    """Minimize the debiased objective over the off-diagonal entries with a
    quasi-Newton solver (analytic gradient); independent of the closed form."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    G = X.T @ X
    rows, cols = _offdiag_indices(n)

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
