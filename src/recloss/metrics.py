"""Full-catalog top-K ranking and Recall@K / NDCG@K.

A scorer is anything with one method, ``score_block(users) -> (B,
num_items)``, the scores of a block of users against the whole catalog
(embedding models, iALS factors, EASE weights, the popularity baseline).
The block is a fresh, writable float64 array that the caller may overwrite:
``evaluate`` negates and masks it in place.  ``evaluate`` ranks users in
blocks of it; ``rank_top_k`` scores one user as a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CSRRows, sorted_member

__all__ = ["MetricsReport", "PopularityScorer", "evaluate", "rank_top_k"]

# users scored per block by evaluate: a (1024, num_items) float64 score block
_BLOCK_USERS = 1024
# rows of a score block ranked per _top_k call by evaluate, so the partition's
# (rows, num_items) index and mask arrays stay a small fraction of the block
_TOP_K_ROWS = 32


@dataclass
class MetricsReport:
    k: int
    recall: float
    ndcg: float
    users_evaluated: int

    def __post_init__(self):
        if not (0.0 <= self.recall <= 1.0 and 0.0 <= self.ndcg <= 1.0):
            raise ValueError("recall and ndcg must lie in [0, 1]")


class PopularityScorer:
    """Ranks every item by its train interaction count, identically for all users."""

    def __init__(self, ds):
        self.scores = ds.item_popularity.astype(float)

    def score_block(self, users: np.ndarray) -> np.ndarray:
        return np.tile(self.scores, (len(users), 1))


def _top_k(neg: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``neg`` (negated scores, masked items at +inf), the indices
    of its k smallest entries, exactly as ``np.argsort(neg, axis=1,
    kind="stable")[:, :k]`` orders them: descending score, ties by lowest
    index, then -inf and masked items, then NaN scores, each in index order.
    """
    n = neg.shape[1]
    if k < n:
        cand = np.argpartition(neg, k - 1, axis=1)[:, :k].copy()
        vals = np.take_along_axis(neg, cand, axis=1)
        bound = vals[:, k - 1:]
        nan_bound = np.isnan(bound[:, 0])
        # argpartition takes any of the items tied at the boundary value (NaN
        # ones included): fix the rows with tied items left out of the candidates
        tied = neg == bound
        fix = np.flatnonzero(nan_bound | (np.count_nonzero(tied, axis=1)
                                          > np.count_nonzero(vals == bound, axis=1)))
        tied, nan_fix = tied[fix], nan_bound[fix]
        tied[nan_fix] = np.isnan(neg[fix[nan_fix]])
        t, v = bound[fix], vals[fix]
        above = (v < t) | (np.isnan(t) & ~np.isnan(v))
        # keep the candidates above the boundary; the lowest-index tied items,
        # found by partitioning their indices, fill the remaining slots
        key = np.where(tied, np.arange(n, dtype=np.int32), n)
        key.partition(k - 1, axis=1)
        lowest = np.sort(key[:, :k], axis=1)
        fixed = cand[fix]
        fixed[~above] = lowest[np.arange(k) < k - np.count_nonzero(above, axis=1)[:, None]]
        cand[fix] = fixed
        cand.sort(axis=1)
    else:
        cand = np.broadcast_to(np.arange(n), neg.shape)
    # candidates in index order, so a stable sort of their values breaks ties by index
    order = np.argsort(np.take_along_axis(neg, cand, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cand, order, axis=1)


def rank_top_k(scorer, ds, u: int, k: int, mask_train: bool = True) -> np.ndarray:
    """Top-k item indices for user u over the full catalog.

    Train positives are masked to -inf so they can never be recommended;
    k is clamped to the catalog size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    neg = -scorer.score_block(np.array([u]))[0]
    if mask_train:
        neg[ds.train_positives[u]] = np.inf
    return _top_k(neg[None], min(k, ds.num_items))[0]


def evaluate(scorer, ds, test_positives=None, *, k: int) -> MetricsReport:
    """Mean Recall@k / NDCG@k over users with non-empty test lists.

    ``test_positives`` overrides ``ds.test_positives`` (used for validation
    splits); it may be CSRRows or one item sequence per user, each read as a
    set.  Train positives are always masked out of the ranking.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tests = ds.test_positives if test_positives is None else test_positives
    if len(tests) > ds.num_users:
        raise ValueError(f"{len(tests)} test rows for {ds.num_users} users")
    if not isinstance(tests, CSRRows):
        lengths = [len(t) for t in tests]
        tests = CSRRows.from_pairs(
            np.repeat(np.arange(len(tests)), lengths),
            np.concatenate([np.empty(0, dtype=np.int64), *tests]), len(tests), ds.num_items,
        )
    test_counts = tests.lengths
    users = np.flatnonzero(test_counts)
    if len(users) == 0:
        raise ValueError("no user has a non-empty test list")
    test_keys = tests.keys(ds.num_items)
    train = ds.train_csr()
    k_eff = min(k, ds.num_items)
    discounts = 1.0 / np.log2(np.arange(k_eff) + 2.0)
    ideal_cum = np.cumsum(discounts)

    recall_sum = ndcg_sum = 0.0
    for start in range(0, len(users), _BLOCK_USERS):
        us = users[start:start + _BLOCK_USERS]
        neg = scorer.score_block(us)
        if neg.shape != (len(us), ds.num_items):
            raise ValueError(f"scorer gave a {neg.shape} score block for {len(us)} users "
                             f"and a catalog of {ds.num_items} items")
        np.negative(neg, out=neg)
        neg[train[us].nonzero()] = np.inf
        topk = np.concatenate([_top_k(neg[s:s + _TOP_K_ROWS], k_eff)
                               for s in range(0, len(us), _TOP_K_ROWS)])
        hits = sorted_member(test_keys, us[:, None] * ds.num_items + topk)
        counts = test_counts[us]
        recall_sum += float((hits.sum(axis=1) / counts).sum())
        idcg = ideal_cum[np.minimum(k_eff, counts) - 1]
        ndcg_sum += float(((hits * discounts).sum(axis=1) / idcg).sum())
    n = len(users)
    return MetricsReport(k=k, recall=recall_sum / n, ndcg=ndcg_sum / n, users_evaluated=n)
