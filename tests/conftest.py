"""Shared fixtures and bundle generators for the test suite."""

import numpy as np
import pytest

from recloss import InteractionDataset, ScoreBundle, metrics


def list_pairs(lists):
    """(users, items) index arrays of plain per-user item lists."""
    users = np.repeat(np.arange(len(lists)), [len(x) for x in lists])
    items = np.concatenate([np.empty(0, dtype=np.int64), *map(np.asarray, lists)])
    return users, items


def build_dataset(train_lists, test_lists, num_items):
    """Construct a validated dataset from plain per-user item lists."""
    return InteractionDataset.from_pairs(
        len(train_lists), num_items, list_pairs(train_lists), list_pairs(test_lists)
    )


class PopularityScorer:
    """Ranks every item by its train interaction count, identically for all users."""

    def __init__(self, ds):
        self.scores = ds.item_popularity.astype(float)

    def score_block(self, users: np.ndarray) -> np.ndarray:
        return np.tile(self.scores, (len(users), 1))


def rank_top_k(scorer, ds, u: int, k: int, mask_train: bool = True) -> np.ndarray:
    """Top-k item indices for user u over the full catalog, through the
    kernel ``metrics.evaluate`` ranks with.

    Train positives are masked to -inf so they can never be recommended;
    k is clamped to the catalog size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    neg = -scorer.score_block(np.array([u]))[0]
    if mask_train:
        neg[ds.train_positives[u]] = np.inf
    return metrics._top_k(neg[None], min(k, ds.num_items))[0]


def random_bundle(rng, n=None, m=0, low=-4.0, high=4.0):
    """One random score bundle with N unlabeled and M extra-positive scores."""
    if n is None:
        n = int(rng.integers(1, 17))
    return ScoreBundle(
        pos_score=rng.uniform(low, high),
        unlabeled_scores=rng.uniform(low, high, size=n),
        extra_pos_scores=rng.uniform(low, high, size=m) if m else np.empty(0),
    )


KINK_TOL = 1e-4

# parameter tables used by the gradient checks, one per loss kind
FD_PARAMS = {
    "bpr": {},
    "softmax": {},
    "infonce": {},
    "infonce_plus": {"lambda": 1.1, "epsilon": 0.7},
    "dcl": {},
    "mine": {},
    "mine_plus": {"lambda": 1.2},
    "ccl": {"negative_weight": 0.8, "margin": 0.3},
    "mse": {"lambda_neg": 0.5},
    "debiased_infonce": {"lambda_n": 1.5},
    "debiased_ccl": {"lambda_n": 0.9, "margin": 0.2},
    "debiased_mse": {"lambda": 0.8},
}
FD_TAU = 0.3
# the temperature the gradient checks pass to evaluate_loss: debiased_infonce's clamp floor
FD_TEMPERATURE = 0.5


def _near_kink(kind, b, params, tau):
    if kind in ("ccl", "debiased_ccl"):
        margin = params.get("margin", 0.0)
        scores = [b.unlabeled_scores]
        if kind == "debiased_ccl":
            scores.append(b.extra_pos_scores)
        return any(np.any(np.abs(s - margin) < KINK_TOL) for s in scores)
    if kind == "debiased_infonce":
        g = (np.exp(b.unlabeled_scores).mean()
             - tau * np.exp(b.extra_pos_scores).mean()) / (1.0 - tau)
        floor = np.exp(-1.0 / FD_TEMPERATURE)
        return abs(g - floor) < KINK_TOL
    return False


def smooth_bundle(rng, kind, params, tau=FD_TAU, max_tries=500):
    """Random bundle resampled away from hinge/clamp kinks for FD checks."""
    lo, hi = (-1.0, 1.0) if "ccl" in kind else (-4.0, 4.0)
    m = 3 if kind.startswith("debiased") else 0
    for _ in range(max_tries):
        b = random_bundle(rng, m=m, low=lo, high=hi)
        if not _near_kink(kind, b, params, tau):
            return b
    raise RuntimeError(f"could not draw a kink-free bundle for {kind}")


def fd_gradients(kind, b, params=None, tau=None, h=1e-6):
    """Analytic and central-difference gradients, flattened pos|unl|extra."""
    from recloss import evaluate_loss

    ev = evaluate_loss(kind, b, params, tau, temperature=FD_TEMPERATURE)
    analytic = np.concatenate([
        np.atleast_1d(ev.d_pos).ravel(),
        np.asarray(ev.d_unlabeled).ravel(),
        np.asarray(ev.d_extra_pos).ravel(),
    ])

    def value(pos, unl, ext):
        nb = ScoreBundle(pos, unl, ext)
        return float(evaluate_loss(kind, nb, params, tau, temperature=FD_TEMPERATURE).value)

    p = float(b.pos_score)
    unl, ext = b.unlabeled_scores.copy(), b.extra_pos_scores.copy()
    numeric = [(value(p + h, unl, ext) - value(p - h, unl, ext)) / (2 * h)]
    for arr in (unl, ext):
        for j in range(arr.size):
            up, dn = arr.copy(), arr.copy()
            up[j] += h
            dn[j] -= h
            if arr is unl:
                numeric.append((value(p, up, ext) - value(p, dn, ext)) / (2 * h))
            else:
                numeric.append((value(p, unl, up) - value(p, unl, dn)) / (2 * h))
    return analytic, np.asarray(numeric)


def fd_max_rel_err(kind, b, params=None, tau=None, h=1e-6):
    analytic, numeric = fd_gradients(kind, b, params, tau, h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2)
    return float(np.max(np.abs(analytic - numeric) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_ds():
    # 3 users, 5 items; user 2 has a test-only item
    return build_dataset(
        train_lists=[[0, 1, 2], [1, 3], [4]],
        test_lists=[[3], [0], [2]],
        num_items=5,
    )


@pytest.fixture(scope="session")
def planted():
    from recloss import make_planted_blocks

    return make_planted_blocks(
        num_users=60, num_items=80, num_blocks=4, in_block_p=0.6,
        noise_p=0.05, test_fraction=0.25, seed=7,
    )
