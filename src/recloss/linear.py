"""Closed-form linear recommenders: iALS and EASE with debiased variants.

Both models minimize weighted squared error over the full user-item grid;
LINEAR_MODELS lists the four fits and the linear.* config keys each reads.
The debiased variants reweight known positives by c_u (= 1 + alpha); the
checks at the bottom verify numerically that each debiased solution equals
a rescaled original solution with mapped hyperparameters — one comparison
runs the two closed forms side by side, the other pits the closed form
against scipy.optimize's L-BFGS-B, imported only inside that oracle.

iALS reads a dataset's own train rows (data.CSRRows), or a matrix turned into
such rows once per call; their transpose is the item side.  One row solver
serves both half-sweeps and both sides of Theorem 1: it rotates the fixed
factors into the eigenbasis of the shared Gram once, then solves each length's
rows together, a row of L <= d entries through an L x L system.  The objective
sums its observed terms over the entries in fixed-size chunks.
EASE inverts the m x m user Gram when 2m^2 <= n^2 (m users, n items) and
the item Gram otherwise (_ease_plan), by LAPACK potrf + potri imported in
_inverse_gram; it returns only the weights W.  scipy.sparse, too, is imported
only where a scipy matrix is read or built: in _interactions for a matrix
input, and in _ease_solve, once check_ease_settings has passed lam and alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import CSRRows, InteractionDataset
from .mf import GATHER_BUDGET
from .sampling import substream

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "EASEScorer", "IALSConfig", "IALSState", "check_theorem1", "check_theorem2",
    "ease_debiased_fit", "ease_fit", "ials_fit", "ials_objective",
]

# each linear.model of `recloss solve`: its family, whether debiased, and the linear.* keys it reads
LINEAR_MODELS = {
    "ials": ("ials", False, ("d", "alpha0", "lambda", "nu", "sweeps")),
    "ials-debiased": ("ials", True, ("d", "alpha0", "lambda", "nu", "sweeps", "c_u")),
    "ease": ("ease", False, ("lambda", "item_budget")),
    "ease-debiased": ("ease", True, ("lambda", "item_budget", "alpha")),
}

# gathered factor entries per chunk of ials_objective (two float64 blocks)
# and of the iALS row solver (blocks of equal-length rows): the package's one
# cache budget, GATHER_BUDGET bytes per block
_CHUNK_FLOATS = GATHER_BUDGET // 8

# rows of an EASE Gram built, of its inverse mirrored, or of M filled, per step
_GRAM_ROWS = 64


def _interactions(source) -> InteractionDataset:
    """The dataset whose train rows iALS reads: a dataset itself, or one with no
    test pairs whose train rows are a 2-d matrix's nonzeros, duplicates summed
    (nonzero() skips stored zeros), where a negative or non-finite entry is an error."""
    if isinstance(source, InteractionDataset):
        return source
    if np.ndim(source) != 2:
        raise ValueError("interaction matrix must be 2-d")
    import scipy.sparse as sp
    X = sp.csr_matrix(source, dtype=float, copy=True)
    X.sum_duplicates()
    _refuse_entries(X, np.isfinite(X.data) & (X.data >= 0), "finite and non-negative")
    return InteractionDataset.from_pairs(*X.shape, X.nonzero(), ((), ()))


def _transpose(ds: InteractionDataset) -> CSRRows:
    """The item side of a dataset's train rows: item i's row lists its users."""
    return CSRRows.from_pairs(ds.train_positives.indices, ds.train_positives.row_ids(),
                              ds.num_items, ds.num_users)


def _refuse_entries(X: sp.csr_matrix, ok: np.ndarray, rule: str) -> None:
    """Raise ValueError naming the first stored entry of X whose ok flag is False."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        row = np.searchsorted(X.indptr, bad[0], side="right") - 1
        raise ValueError(f"interaction matrix entry ({row}, {X.indices[bad[0]]}) is "
                         f"{X.data[bad[0]]}; entries must be {rule}")


def _ridge_weights(ds: InteractionDataset, lam: float, alpha0: float, nu: float):
    """lam (|S| + alpha0 * other side's size)^nu per user and per item."""
    per_user = ds.train_positives.lengths + alpha0 * ds.num_items
    per_item = ds.item_popularity + alpha0 * ds.num_users
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
        # each refusal names one field, which config.solve_config renames to its key
        c_u = np.asarray(self.c_u)
        for name, rule, ok in (("d", ">= 1", self.d >= 1),
                               ("num_sweeps", ">= 1", self.num_sweeps >= 1),
                               ("alpha0", "finite and non-negative", 0 <= self.alpha0 < np.inf),
                               ("lam", "positive and finite", 0 < self.lam < np.inf),
                               ("c_u", "positive and finite", np.all((c_u > 0) & (c_u < np.inf))),
                               ("nu", "finite and non-negative", 0 <= self.nu < np.inf)):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


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
    ds = _interactions(source)
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), (ds.num_users,))
    # alpha0 * ||W H^T||_F^2 without materializing the full prediction grid
    total = cfg.alpha0 * float(np.sum((W @ (H.T @ H)) * W))
    users = ds.train_positives.row_ids()
    step = max(1, _CHUNK_FLOATS // W.shape[1])
    for lo in range(0, len(users), step):
        u, i = users[lo:lo + step], ds.train_positives.indices[lo:lo + step]
        yhat = np.einsum("ij,ij->i", W[u], H[i])
        terms = (yhat - 1.0) ** 2
        if debiased:
            terms -= cfg.alpha0 * yhat**2
            terms *= c[u]
        total += float(np.sum(terms))
    lam_u, lam_i = _ridge_weights(ds, cfg.lam, cfg.alpha0, cfg.nu)
    return total + float(lam_u @ np.sum(W**2, axis=1)) + float(lam_i @ np.sum(H**2, axis=1))


def _require_definite(A: np.ndarray, rows: np.ndarray, lams, count: int, kind: str) -> None:
    """Raise LinAlgError naming the first of rows whose Cholesky fails, its ridge
    weight in lams and its count of interactions; A stacks one d x d system per row."""
    for row, system, lam in zip(rows.tolist(), A, lams.tolist()):
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                f"ridge system of {kind} {row} is not positive definite: its ridge weight is "
                f"{lam:g} over {count} interactions; with none, it is positive only for alpha0 > 0"
            ) from None


def _solve_rows(R: CSRRows, fixed: np.ndarray, gram: np.ndarray, lams, kind: str,
                a_scale=1.0, b_scale=1.0, conf: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """For each row r of R, with S its stored columns and M = fixed, solve
    (a_r M_S^T diag(conf_S) M_S + gram + lams[r] I) x = b_r M_S^T conf_S, where
    conf is 1 when None, a and b are scalars or per-row arrays (a > 0), and
    gram is symmetric; returns the solved rows x and their Gram x^T x, both
    finite.

    With gram = Q diag(evals) Q^T, row r reads (V^T V + diag(k)) y = V^T w
    in the eigenbasis, where V = sqrt(a_r conf_S) M_S Q, k = evals + lams[r],
    w = b_r sqrt(conf_S / a_r) and x = Q y.  Rows with the same number L of
    entries are solved together, _CHUNK_FLOATS gathered floats at a time.
    With L <= d and k > 0, y = diag(1/k) V^T C^{-1} w, where the L x L
    capacitance C = I + V diag(1/k) V^T (Woodbury) has eigenvalues >= 1;
    otherwise the d x d normal equations are solved.  Only a row with some
    k <= 0 can be indefinite; its system is checked by Cholesky first.
    """
    n, d = len(R), fixed.shape[1]
    if not np.all(np.isfinite(gram)):
        raise FloatingPointError(f"iALS {kind} solves got non-finite fixed factors")
    evals, Q = np.linalg.eigh(gram)
    rotated = fixed @ Q
    lams, a_scale, b_scale = (np.broadcast_to(v, (n,)) for v in (lams, a_scale, b_scale))
    counts = R.lengths
    order = np.argsort(counts, kind="stable")
    bounds = [*np.flatnonzero(np.diff(counts[order], prepend=-1)).tolist(), n]
    solved = np.zeros((n, d))
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite factor
        for lo, hi in zip(bounds, bounds[1:]):
            L = int(counts[order[lo]])
            step = max(1, _CHUNK_FLOATS // max(L * d, 1))
            for start in range(lo, hi, step):
                rows = order[start:min(start + step, hi)]
                k = evals + lams[rows, None]
                definite = k.min() > 0  # False for NaN
                if L == 0 and definite:
                    continue  # the right side is zero
                cols = R.indices[R.indptr[rows, None] + np.arange(L)]
                a = a_scale[rows, None]
                root = np.broadcast_to(np.sqrt(a if conf is None else a * conf[cols]), cols.shape)
                w = root * (b_scale[rows, None] / a)
                V = rotated[cols]
                V *= root[..., None]
                Vt = V.transpose(0, 2, 1)
                if L <= d and definite:
                    Vk = V / k[:, None, :]
                    C = Vk @ Vt
                    C.reshape(len(rows), -1)[:, :: L + 1] += 1.0
                    y = np.linalg.solve(C, w[..., None])
                    solved[rows] = (Vk.transpose(0, 2, 1) @ y)[..., 0]
                else:
                    A = Vt @ V
                    A.reshape(len(rows), -1)[:, :: d + 1] += k
                    if not definite:
                        _require_definite(A, rows, lams[rows], L, kind)
                    solved[rows] = np.linalg.solve(A, Vt @ w[..., None])[..., 0]
        x = solved @ Q.T
        x_gram = x.T @ x
    if not np.all(np.isfinite(x_gram)):
        raise FloatingPointError(f"iALS {kind} solves produced non-finite factors or Gram")
    return x, x_gram


def ials_fit(source, cfg: IALSConfig, debiased: bool = False) -> IALSState:
    """Alternating exact ridge solves, every row of a half-sweep in batches
    of equal-length rows (_solve_rows); objective recorded per sweep.

    Original mode solves (H_S H_S^T + alpha0 H H^T + lam_u I) w = H_S 1 per
    user (symmetrically per item).  Debiased mode solves the normal
    equations of the reweighted objective,
    (c_u (1-alpha0) H_S H_S^T + alpha0 H H^T + lam_u I) w = c_u H_S 1,
    so each half-sweep is an exact coordinate minimizer and the trace is
    guaranteed non-increasing.
    """
    if debiased and cfg.alpha0 >= 1:
        raise ValueError("debiased mode requires alpha0 < 1")
    # a matrix is converted and checked once, and each objective reads the result
    ds = _interactions(source)
    by_user, by_item = ds.train_positives, _transpose(ds)
    c = np.broadcast_to(np.asarray(cfg.c_u, dtype=float), (ds.num_users,))
    rng = substream(cfg.seed, "init")
    W = rng.normal(0.0, cfg.init_scale / np.sqrt(cfg.d), size=(ds.num_users, cfg.d))
    H = rng.normal(0.0, cfg.init_scale / np.sqrt(cfg.d), size=(ds.num_items, cfg.d))
    lam_u, lam_i = _ridge_weights(ds, cfg.lam, cfg.alpha0, cfg.nu)
    user_a, user_b = (c * (1.0 - cfg.alpha0), c) if debiased else (1.0, 1.0)
    item_a, item_conf = (1.0 - cfg.alpha0, c) if debiased else (1.0, None)

    trace = [ials_objective(W, H, ds, cfg, debiased)]
    gram = H.T @ H
    for _ in range(cfg.num_sweeps):
        W, gram = _solve_rows(by_user, H, cfg.alpha0 * gram, lam_u, "user", user_a, user_b)
        H, gram = _solve_rows(by_item, W, cfg.alpha0 * gram, lam_i, "item", item_a, 1.0, item_conf)
        trace.append(ials_objective(W, H, ds, cfg, debiased))
    return IALSState(W, H, trace)


@dataclass
class EASESolution:
    W: np.ndarray


def _inverse_gram(A: sp.csr_matrix, At: sp.csr_matrix, lam: float) -> np.ndarray:
    """(A A^T + lam I)^{-1} for a CSR A with k rows and its CSR transpose At,
    in one C-ordered k x k buffer: the Gram built from A's nonzeros
    _GRAM_ROWS rows at a time, then inverted in place by Cholesky (potrf +
    potri, about k^3 flops against 2k^3 for LU) and mirrored."""
    from scipy.linalg.lapack import dpotrf, dpotri
    k = A.shape[0]
    P = np.zeros((k, k))
    # toarray adds the block into out, so out must start at zero
    for lo in range(0, k, _GRAM_ROWS):
        (A[lo:lo + _GRAM_ROWS] @ At).toarray(out=P[lo:lo + _GRAM_ROWS])
    P.flat[:: k + 1] += lam
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
    for lo in range(0, k, _GRAM_ROWS):
        hi = min(lo + _GRAM_ROWS, k)
        np.copyto(P[lo:hi, :hi], P[:hi, lo:hi].T, where=np.tri(hi - lo, hi, lo - 1, dtype=bool))
    return P


def check_ease_settings(lam: float, alpha: float) -> None:
    """EASE's rule, which loads no SciPy: lam positive and finite, alpha in [0, 1)."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}; convexity requires c_u < 2 here")


def _ease_plan(m: int, n: int, nnz: int) -> tuple[bool, int]:
    """Whether EASE on an m x n X with nnz nonzeros takes the user side, and a
    bound on its peak bytes: the n x n buffer and its bool mask on the item
    side (12 n^2 in all), or the n x n, the m x m or later the mask, and two
    _GRAM_ROWS-row blocks of M on the user side; plus 24 bytes per nonzero (X and X^T)."""
    user_side = 0 < 2 * m * m <= n * n
    dense = 8 * n * n + max(8 * m * m, n * n) + 16 * _GRAM_ROWS * (n + m) if user_side else 12 * n * n
    return user_side, dense + 24 * nnz


def _ease_solve(X, lam: float, alpha: float) -> EASESolution:
    """W = (I - P dMat(1/diag(P))) / (1-alpha) with diag(W) = 0, where
    P = (X^T X + lam' I)^{-1}, lam' = lam/(1-alpha), for X m x n, dense or
    scipy.sparse, with finite (weighted or negative) entries; W fills one
    C-ordered n x n buffer.

    On the item side (_ease_plan) the buffer holds the inverse of the n x n
    Gram, which W overwrites; the I term only touches the zeroed diagonal.
    On the user side a second buffer holds the inverse of K = X X^T + lam' I;
    by Woodbury P = (I - M) / lam' with M = X^T K^{-1} X, which fills the
    n x n buffer _GRAM_ROWS rows at a time, and W_ij = M_ij /
    ((1 - M_jj)(1-alpha)) overwrites M.
    """
    check_ease_settings(lam, alpha)
    import scipy.sparse as sp
    lam = lam / (1.0 - alpha)
    Xs = sp.csr_matrix(X, dtype=float)
    _refuse_entries(Xs, np.isfinite(Xs.data), "finite")
    Xt = Xs.T.tocsr()
    m, n = Xs.shape
    if not _ease_plan(m, n, Xs.nnz)[0]:
        P = _inverse_gram(Xt, Xs, lam)
        del Xs, Xt
        P /= np.diag(P).copy()
        P /= alpha - 1.0
    else:
        K = _inverse_gram(Xs, Xt, lam)
        del Xs
        P = np.empty((n, n))
        for lo in range(0, n, _GRAM_ROWS):
            P[lo:lo + _GRAM_ROWS] = (Xt @ (Xt[lo:lo + _GRAM_ROWS] @ K).T).T
        del Xt, K
        pivots = 1.0 - np.diag(P)  # lam P_jj, positive for a definite Gram + lam I
        if not np.all(np.isfinite(pivots) & (pivots > 0)):
            raise FloatingPointError("EASE Gram + lam I is not numerically positive definite "
                                     f"(least 1 - M_jj {pivots.min()}); raise lam")
        P /= pivots * (1.0 - alpha)
    if not np.all(np.isfinite(P)):
        raise FloatingPointError("EASE solve produced non-finite weights (ill-conditioned Gram)")
    np.fill_diagonal(P, 0.0)
    return EASESolution(W=P)


def ease_fit(X, lam: float) -> EASESolution:
    """Item-item ridge with a zero-diagonal constraint, via the one-inverse form
    P = (X^T X + lam I)^{-1}, W = I - P dMat(1/diag(P))."""
    return _ease_solve(X, lam, 0.0)


def ease_debiased_fit(X, lam: float, alpha: float = 0.0) -> EASESolution:
    """Zero-diagonal minimizer of ||X-XW||^2 - alpha ||XW||^2 + lam ||W||^2:
    P_hat = (X^T X + lam/(1-alpha) I)^{-1}, W = (I - P_hat dMat(1/diag(P_hat))) / (1-alpha)."""
    return _ease_solve(X, lam, alpha)


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
    seed: int = 0,
) -> float:
    """Debiased iALS closed form vs rescaled original closed form, per row.

    With constant c_u, the debiased user solve
      (c_u(1-a0) H_S H_S^T + a0 H H^T + lam_u I)^{-1} H_S sqrt(c_u) 1
    must equal 1/(sqrt(c_u)(1-a0)) times the original solve run with
    a0' = a0/((1-a0)c_u) and lam_u' = lam_u/((1-a0)c_u), at ials_fit's ridge weights
    with nu = 1, as `recloss verify` checks.  Returns the max relative deviation
    over all user and item rows, both sides computed by independent factorizations.
    """
    if not (0 < alpha0 < 1 and c_u > 0):
        raise ValueError(f"theorem premise needs 0 < alpha0 < 1 and constant c_u > 0, "
                         f"got alpha0 = {alpha0} and c_u = {c_u}")
    ds = _interactions(X)
    rng = substream(seed, "init")
    H = rng.normal(0.0, 1.0 / np.sqrt(d), size=(ds.num_items, d))
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(ds.num_users, d))
    lam_u, lam_i = _ridge_weights(ds, lam, alpha0, 1.0)

    scale = 1.0 / ((1.0 - alpha0) * c_u)
    factor = 1.0 / (np.sqrt(c_u) * (1.0 - alpha0))
    worst = 0.0
    for kind, rows, fixed, lams in (("user", ds.train_positives, H, lam_u),
                                    ("item", _transpose(ds), W, lam_i)):
        gram = fixed.T @ fixed
        debiased, _ = _solve_rows(rows, fixed, alpha0 * gram, lams, kind, c_u * (1.0 - alpha0), np.sqrt(c_u))
        original, _ = _solve_rows(rows, fixed, (alpha0 * scale) * gram, lams * scale, kind)
        worst = max(worst, _rel_deviation(debiased, factor * original, axis=1))
    return worst


def _debiased_ease_oracle(X: np.ndarray, lam: float, alpha: float) -> np.ndarray:
    """Minimize the debiased objective over the off-diagonal entries with a
    quasi-Newton solver (analytic gradient); independent of the closed form."""
    from scipy.optimize import minimize
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


def check_theorem2(X: np.ndarray, lam: float, alpha: float) -> tuple[float, float]:
    """Debiased EASE vs (a) rescaled original EASE and (b) an optimizer oracle.

    (a) compares ease_debiased_fit(X, lam, alpha).W with
    ease_fit(X, lam/(1-alpha)).W / (1-alpha) entrywise; (b) compares against
    the L-BFGS minimizer of the debiased objective, which always runs, as in
    `recloss verify`, so X may have at most 8 items.  Returns
    (scale_deviation, oracle_deviation).
    """
    if X.shape[1] > 8:
        raise ValueError("optimizer oracle is limited to at most 8 items")
    debiased = ease_debiased_fit(X, lam, alpha).W
    rescaled = ease_fit(X, lam / (1.0 - alpha)).W / (1.0 - alpha)
    return (_rel_deviation(debiased, rescaled),
            _rel_deviation(debiased, _debiased_ease_oracle(X, lam, alpha)))
