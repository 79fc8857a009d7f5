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

from .data import sorted_member

__all__ = ["SAMPLER_KINDS", "BatchSampler", "PopularitySampler", "SamplerConfig", "substream"]

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
        # sorted user * num_items + item keys of the train pairs, for rejection
        self._keys = (ds.train_positives.keys(ds.num_items)
                      if config.kind == "uniform_excluding_user_positives" else None)

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
            out = self._excluding(np.asarray(users), n)
        return np.broadcast_to(out, (b, n)).copy() if self.config.share_batch else out

    def _excluding(self, users: np.ndarray, n: int) -> np.ndarray:
        """Uniform draws outside each user's train positives: every draw that
        hits one is redrawn until none does."""
        width = self.ds.num_items
        full = users[self.ds.train_positives.lengths[users] >= width]
        if full.size:
            raise ValueError(f"user {full[0]} has interacted with every item; nothing to sample")
        owners = np.repeat(users * width, n)
        out = self.rng.integers(0, width, size=len(owners))
        todo = np.flatnonzero(sorted_member(self._keys, owners + out))
        while todo.size:
            out[todo] = self.rng.integers(0, width, size=todo.size)
            todo = todo[sorted_member(self._keys, owners[todo] + out[todo])]
        return out.reshape(len(users), n)

    def extra_positives(self, users: np.ndarray) -> np.ndarray:
        """(batch, m_positives) uniform draws with replacement from each
        user's own train positives."""
        rows = self.ds.train_positives
        starts, counts = rows.indptr[users], rows.lengths[users]
        if np.any(counts == 0):
            u = users[np.argmax(counts == 0)]
            raise ValueError(f"user {u} has no train positives; skip this user")
        picks = self.rng.integers(0, counts[:, None], size=(len(users), self.config.m_positives))
        return rows.indices[starts[:, None] + picks]
