"""Negative / unlabeled / positive item samplers.

Three distributions are needed by the losses: uniform over the whole catalog
(which may return a user's own positives; that contamination is what the
debiased estimators correct for), popularity-proportional over the catalog,
and uniform over a user's known positives.  All draws are i.i.d. with
replacement and deterministic under a fixed seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

SAMPLER_KINDS = ("uniform_all_items", "uniform_excluding_user_positives", "popularity")


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, reproducible child stream of a root seed.

    The name is hashed with a stable digest so the same (seed, name) pair
    yields the same stream in every process.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


@dataclass
class SamplerConfig:
    kind: str = "uniform_all_items"
    n_negatives: int = 1
    m_positives: int = 0
    share_batch: bool = False  # one negative set per batch instead of per pair

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}")
        if self.n_negatives < 1:
            raise ValueError("n_negatives must be >= 1")
        if self.m_positives < 0:
            raise ValueError("m_positives must be >= 0")
        if self.share_batch and self.kind == "uniform_excluding_user_positives":
            raise ValueError(
                "share_batch cannot exclude each user's positives from one shared row; "
                "use share_batch=false or another sampler kind"
            )


def sample_unlabeled(ds, u: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws over the full catalog (may include u's positives)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.integers(0, ds.num_items, size=n)


def sample_unlabeled_excluding(ds, u: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws over items outside u's train positives (rejection)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    positives = set(ds.train_positives[u].tolist())
    if len(positives) >= ds.num_items:
        raise ValueError(f"user {u} has interacted with every item; nothing to sample")
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        draws = rng.integers(0, ds.num_items, size=2 * (n - filled))
        keep = [d for d in draws.tolist() if d not in positives]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def sample_user_positives(ds, u: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform draws with replacement from u's train positives."""
    positives = ds.train_positives[u]
    if len(positives) == 0:
        raise ValueError(f"user {u} has no train positives; skip this user")
    return positives[rng.integers(0, len(positives), size=m)]


class PopularitySampler:
    """Draws proportional to item_popularity + 1.

    Add-one smoothing keeps zero-interaction items reachable.  The cumulative
    table is built once; each call does an inverse-CDF lookup.
    """

    def __init__(self, ds):
        if ds.train_interactions < 1:
            raise ValueError("popularity sampling needs at least one train interaction")
        weights = ds.item_popularity + 1
        self.probabilities = weights / weights.sum()
        self._cdf = np.cumsum(self.probabilities)
        self._cdf[-1] = 1.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.searchsorted(self._cdf, rng.random(n), side="right").astype(np.int64)


def sample_popularity(ds, n: int, rng: np.random.Generator) -> np.ndarray:
    """n popularity-proportional draws (convenience one-shot form)."""
    return PopularitySampler(ds).sample(n, rng)


class BatchSampler:
    """Vectorized negative / extra-positive sampling for a training batch.

    Holds its own generator; construct one per worker from the root seed via
    :func:`substream` rather than sharing an instance across threads.
    """

    def __init__(self, ds, config: SamplerConfig, rng: np.random.Generator):
        self.ds = ds
        self.config = config
        self.rng = rng
        self._popularity = PopularitySampler(ds) if config.kind == "popularity" else None

    def negatives(self, users: np.ndarray) -> np.ndarray:
        """(batch, n_negatives) unlabeled item draws for a batch of users.

        With ``share_batch`` one row is drawn and copied to every user.
        """
        b, n = len(users), self.config.n_negatives
        rows = 1 if self.config.share_batch else b
        if self.config.kind == "uniform_all_items":
            out = self.rng.integers(0, self.ds.num_items, size=(rows, n))
        elif self.config.kind == "popularity":
            out = self._popularity.sample(rows * n, self.rng).reshape(rows, n)
        else:
            out = np.stack(
                [sample_unlabeled_excluding(self.ds, int(u), n, self.rng) for u in users]
            )
        return np.broadcast_to(out, (b, n)).copy() if self.config.share_batch else out

    def extra_positives(self, users: np.ndarray) -> np.ndarray:
        """(batch, m_positives) draws from each user's own positives."""
        m = self.config.m_positives
        return np.stack([sample_user_positives(self.ds, int(u), m, self.rng) for u in users])
