"""Full-catalog top-K ranking and Recall@K / NDCG@K.

Scorers are duck-typed: anything with ``score_all(u) -> (num_items,)`` works
(embedding models, item-item weight matrices, the popularity baseline).
``score_block(users) -> (B, num_items)``, when present, is used to evaluate
users in vectorized blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CSRRows, sorted_member

# users scored per block by evaluate: a (1024, num_items) float64 score block
_BLOCK_USERS = 1024


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

    def score_all(self, u: int) -> np.ndarray:
        return self.scores

    def score_block(self, users: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.scores, (len(users), len(self.scores)))


def _masked_topk(scores: np.ndarray, train_items: np.ndarray, k: int) -> np.ndarray:
    scores = np.array(scores, dtype=float)
    if len(train_items):
        scores[train_items] = -np.inf
    # stable sort of the negated scores = descending score, ascending index on ties
    return np.argsort(-scores, kind="stable")[:k]


def rank_top_k(scorer, ds, u: int, k: int, mask_train: bool = True) -> np.ndarray:
    """Top-k item indices for user u over the full catalog.

    Train positives are masked to -inf so they can never be recommended;
    k is clamped to the catalog size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.asarray(scorer.score_all(u), dtype=float)
    train = ds.train_positives[u] if mask_train else np.empty(0, dtype=int)
    return _masked_topk(scores, train, min(k, ds.num_items))


def recall_at_k(topk, test_items) -> float:
    """|topk ∩ test| / |test|."""
    test = set(int(i) for i in test_items)
    if not test:
        raise ValueError("test set is empty; skip this user")
    return sum(1 for i in topk if int(i) in test) / len(test)


def ndcg_at_k(topk, test_items) -> float:
    """Binary-relevance DCG over the top-k, normalized by the truncated ideal."""
    test = set(int(i) for i in test_items)
    if not test:
        raise ValueError("test set is empty; skip this user")
    dcg = sum(
        1.0 / np.log2(rank + 2) for rank, i in enumerate(topk) if int(i) in test
    )
    ideal_len = min(len(topk), len(test))
    idcg = sum(1.0 / np.log2(rank + 2) for rank in range(ideal_len))
    return dcg / idcg


def evaluate(scorer, ds, test_positives=None, k: int = 20) -> MetricsReport:
    """Mean Recall@k / NDCG@k over users with non-empty test lists.

    ``test_positives`` overrides ``ds.test_positives`` (used for validation
    splits); it may be CSRRows or one item sequence per user, each read as a
    set.  Train positives are always masked out of the ranking.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tests = ds.test_positives if test_positives is None else test_positives
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

    score_block = getattr(scorer, "score_block", None)
    recall_sum = ndcg_sum = 0.0
    for start in range(0, len(users), _BLOCK_USERS):
        us = users[start:start + _BLOCK_USERS]
        if score_block is not None:
            scores = np.array(score_block(us), dtype=float)
        else:
            scores = np.stack([np.asarray(scorer.score_all(u), dtype=float) for u in us])
        scores[train[us].nonzero()] = -np.inf
        topk = np.argsort(-scores, axis=1, kind="stable")[:, :k_eff]
        hits = sorted_member(test_keys, us[:, None] * ds.num_items + topk)
        counts = test_counts[us]
        recall_sum += float((hits.sum(axis=1) / counts).sum())
        idcg = ideal_cum[np.minimum(k_eff, counts) - 1]
        ndcg_sum += float(((hits * discounts).sum(axis=1) / idcg).sum())
    n = len(users)
    return MetricsReport(k=k, recall=recall_sum / n, ndcg=ndcg_sum / n, users_evaluated=n)
