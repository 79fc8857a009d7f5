"""Reference computations the benchmark checks recloss against.

Each function here recomputes a result from its definition with plain
NumPy and imports nothing from recloss, so a fault in the program cannot
also hide in its own check.  None of this code is timed.
"""

from __future__ import annotations

import numpy as np


def cosine_scores(U: np.ndarray, V: np.ndarray, users, items, temperature: float) -> np.ndarray:
    """(B, K) cosine scores / t for users (B,) against item rows (B, K)."""
    u = U[users]
    v = V[items]
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = v / np.linalg.norm(v, axis=2, keepdims=True)
    return np.einsum("bd,bkd->bk", u, v) / temperature


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1)
    return m + np.log(np.exp(x - m[..., None]).sum(axis=-1))


def l2_touched(U, V, users, items, weight: float) -> float:
    """weight * mean squared norm over the distinct user and item rows touched."""
    ur, ir = np.unique(users), np.unique(items)
    return weight * (np.sum(U[ur] ** 2) + np.sum(V[ir] ** 2)) / (len(ur) + len(ir))


def mine_plus_objective(U, V, users, pos, neg, lam: float, temperature: float, l2: float) -> float:
    """Batch mean of -y_pos + lam * log sum_j exp(y_neg_j), plus the L2 term."""
    y_pos = cosine_scores(U, V, users, pos[:, None], temperature)[:, 0]
    y_neg = cosine_scores(U, V, users, neg, temperature)
    data = np.mean(-y_pos + lam * _logsumexp(y_neg))
    return float(data + l2_touched(U, V, users, np.concatenate([pos, neg.ravel()]), l2))


def topk_prior(train_lengths: np.ndarray, k: int, num_items: int) -> np.ndarray:
    """tau+ = (|train_u| + k) / num_items, the top-K positive prior."""
    return (train_lengths + k) / num_items


def debiased_ccl_objective(U, V, users, pos, neg, extra, tau, lambda_n: float,
                           margin: float, temperature: float, l2: float) -> float:
    """Batch mean of tau (1 - y_pos) + lambda_n (mean relu(y_neg - m)
    - tau mean relu(y_extra - m)), plus the L2 term."""
    y_pos = cosine_scores(U, V, users, pos[:, None], temperature)[:, 0]
    y_neg = cosine_scores(U, V, users, neg, temperature)
    y_ext = cosine_scores(U, V, users, extra, temperature)
    hinge_neg = np.maximum(y_neg - margin, 0.0).mean(axis=1)
    hinge_ext = np.maximum(y_ext - margin, 0.0).mean(axis=1)
    data = np.mean(tau * (1.0 - y_pos) + lambda_n * (hinge_neg - tau * hinge_ext))
    items = np.concatenate([pos, neg.ravel(), extra.ravel()])
    return float(data + l2_touched(U, V, users, items, l2))


def ranking_metrics(scores: np.ndarray, train_items: list, test_items: list, k: int):
    """Mean Recall@k and NDCG@k with train items masked out.

    Ranks by (score descending, item index ascending) with its own sort, one
    row at a time.
    """
    n_items = scores.shape[1]
    recalls, ndcgs = [], []
    for row, train, test in zip(scores, train_items, test_items):
        masked = row.astype(float).copy()
        masked[train] = -np.inf
        order = np.lexsort((np.arange(n_items), -masked))[:k]
        hits = np.isin(order, test)
        discounts = 1.0 / np.log2(np.arange(2, len(order) + 2))
        recalls.append(hits.sum() / len(test))
        ndcgs.append((hits * discounts).sum() / discounts[: min(k, len(test))].sum())
    return float(np.mean(recalls)), float(np.mean(ndcgs))


def ials_objective_dense(X: np.ndarray, W: np.ndarray, H: np.ndarray, alpha0: float,
                         lam: float, nu: float, c_u, debiased: bool) -> float:
    """The iALS objective on the full prediction grid, from a dense 0/1 X.

    Plain:    sum_S (yhat - 1)^2 + alpha0 sum_all yhat^2 + regularizers.
    Debiased: c_u weights the observed terms and removes c_u alpha0 yhat^2
              from them.  lam_u = lam (|S_u| + alpha0 |I|)^nu, and likewise
              for items with |U|.
    """
    Y = W @ H.T
    S = X > 0
    c = np.broadcast_to(np.asarray(c_u, dtype=float), (X.shape[0],))[:, None]
    observed = np.where(S, (Y - 1.0) ** 2, 0.0)
    if debiased:
        total = np.sum(c * observed) - alpha0 * np.sum(np.where(S, c * Y**2, 0.0))
    else:
        total = np.sum(observed)
    total += alpha0 * np.sum(Y**2)
    n_u, n_i = S.sum(axis=1), S.sum(axis=0)
    total += lam * np.sum((n_u + alpha0 * X.shape[1]) ** nu * np.sum(W**2, axis=1))
    total += lam * np.sum((n_i + alpha0 * X.shape[0]) ** nu * np.sum(H**2, axis=1))
    return float(total)


def ease_offdiag_residual(X: np.ndarray, W: np.ndarray, lam: float, alpha: float = 0.0) -> float:
    """Largest off-diagonal entry of the objective's gradient, over max |G|.

    At the zero-diagonal minimiser of ||X - XW||^2 - alpha ||XW||^2 + lam ||W||^2
    the gradient (1 - alpha) G W - G + lam W, with G = X^T X, vanishes off
    the diagonal (the diagonal holds the constraint's multipliers).
    """
    G = X.T @ X
    R = (1.0 - alpha) * (G @ W) - G + lam * W
    np.fill_diagonal(R, 0.0)
    return float(np.max(np.abs(R)) / max(np.max(np.abs(G)), 1e-30))


def rel_deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30))
