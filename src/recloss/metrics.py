"""Full-catalog top-K ranking and Recall@K / NDCG@K.

A scorer is anything with one method, ``score_block(users) -> (B,
num_items)``, the scores of a block of users against the whole catalog
(embedding models, iALS factors, EASE weights).  The block is a fresh,
writable float64 array that the caller may overwrite: ``evaluate`` negates
and masks it in place.  A scorer may also have ``for_ranking()``, which
``evaluate`` calls once per pass for the scorer it then ranks with: a cosine
embedding model returns a dot model over its normalised rows, so no block
normalises again.  ``evaluate`` scores blocks of at most ``_BLOCK_BYTES``
and drops each one before it scores the next, so one block is alive at a
time.

Ranking sorts only the scores at or above a per-row threshold (``_top_k``),
a little more than k per row of Gaussian scores.  Worst case, all scores tied
at the threshold join the sort: binary or popularity scores with fewer than k
items above their most common value cost one lexsort of that whole tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CSRRows, sorted_member

__all__ = ["MetricsReport", "evaluate"]

# bytes of the float64 score block evaluate holds (at least one row), with the
# one-byte mask of one _top_k slice of min(_TOP_K_ROWS, block rows) rows.
# 16 MiB is below glibc's 32 MiB cap on the dynamic mmap threshold, so a freed
# block is reused from the heap by the next one instead of faulting in again.
_BLOCK_BYTES = 16 << 20
# rows of a score block ranked per _top_k call by evaluate, so the threshold's
# (rows, num_items) bool mask stays a small fraction of the block
_TOP_K_ROWS = 32
# column groups per row whose minima set _top_k's threshold (at least k are used)
_TOP_K_GROUPS = 64


@dataclass
class MetricsReport:
    k: int
    recall: float
    ndcg: float
    users_evaluated: int

    def __post_init__(self):
        if not (0.0 <= self.recall <= 1.0 and 0.0 <= self.ndcg <= 1.0):
            raise ValueError("recall and ndcg must lie in [0, 1]")


def _top_k(neg: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``neg`` (negated scores, masked items at +inf), the indices
    of its k smallest entries, 1 <= k <= row width, exactly as ``np.argsort(neg,
    axis=1, kind="stable")[:, :k]`` orders them: descending score, ties by
    lowest index, then -inf and masked items, then NaN scores, each in index
    order.

    The NaN-skipping minima of max(_TOP_K_GROUPS, k) contiguous column groups
    give a threshold t per row, the k-th smallest minimum.  k distinct groups
    each hold an entry <= t, so the row's k smallest entries are all <= t, and
    only the entries <= t are sorted.  A row narrower than the group count, or
    whose t is NaN (fewer than k groups hold a number), is sorted whole.
    """
    rows, n = neg.shape
    groups = max(_TOP_K_GROUPS, k)
    t = np.full(rows, np.nan)
    if n >= groups:
        mins = np.fmin.reduceat(neg, np.arange(groups) * n // groups, axis=1)
        t = np.partition(mins, k - 1, axis=1)[:, k - 1]
    keep = neg <= t[:, None]
    keep[np.isnan(t)] = True
    cand = np.flatnonzero(keep)
    # lexsort is stable and cand rises, so tied values stay in index order
    order = cand[np.lexsort((neg.take(cand), cand // n))]
    first = np.searchsorted(cand, np.arange(rows) * n)
    return order[first[:, None] + np.arange(k)] % n


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
    train = ds.train_positives
    k_eff = min(k, ds.num_items)
    discounts = 1.0 / np.log2(np.arange(k_eff) + 2.0)
    ideal_cum = np.cumsum(discounts)

    prepare = getattr(scorer, "for_ranking", None)
    if prepare is not None:
        scorer = prepare()
    # the larger row count that fits: _TOP_K_ROWS-row slices, or one slice of the block
    width = ds.num_items
    rows = max(1, (_BLOCK_BYTES - _TOP_K_ROWS * width) // (8 * width), _BLOCK_BYTES // (9 * width))

    recall_sum = ndcg_sum = 0.0
    for start in range(0, len(users), rows):
        us = users[start:start + rows]
        neg = scorer.score_block(us)
        if neg.shape != (len(us), ds.num_items):
            raise ValueError(f"scorer gave a {neg.shape} score block for {len(us)} users "
                             f"and a catalog of {ds.num_items} items")
        np.negative(neg, out=neg)
        # the block users' train positives, gathered from their CSR rows
        lo, n_train = train.indptr[us], train.indptr[us + 1] - train.indptr[us]
        at = np.arange(n_train.sum()) + np.repeat(lo - np.cumsum(n_train) + n_train, n_train)
        neg[np.repeat(np.arange(len(us)), n_train), train.indices[at]] = np.inf
        topk = np.concatenate([_top_k(neg[s:s + _TOP_K_ROWS], k_eff)
                               for s in range(0, len(us), _TOP_K_ROWS)])
        del neg  # before the next block is scored
        hits = sorted_member(test_keys, us[:, None] * ds.num_items + topk)
        counts = test_counts[us]
        recall_sum += float((hits.sum(axis=1) / counts).sum())
        idcg = ideal_cum[np.minimum(k_eff, counts) - 1]
        ndcg_sum += float(((hits * discounts).sum(axis=1) / idcg).sum())
    n = len(users)
    return MetricsReport(k=k, recall=recall_sum / n, ndcg=ndcg_sum / n, users_evaluated=n)
