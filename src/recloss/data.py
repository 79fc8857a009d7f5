"""Implicit-feedback dataset loading, validation, and splitting.

The on-disk format is the usual benchmark text layout: one line per user,
whitespace-separated 0-indexed integers, first token the user id and the
rest the items that user interacted with.  A data directory holds
``train.txt`` and ``test.txt``.  A token is 1 to 18 ASCII digits; one byte
scan checks that and names the line of the first byte that breaks it, and
then one C pass (``np.fromstring``) reads every token.  There is no fallback.

In memory each partition is one pair of CSR arrays (:class:`CSRRows`):
user u's items are ``indices[indptr[u]:indptr[u + 1]]``, sorted and
duplicate-free.  Every consumer reads those two arrays; EASE takes them as
a scipy CSR matrix (``train_csr``), the one call that imports scipy.sparse
here.
"""

from __future__ import annotations

import logging
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "CSRRows", "DatasetFormatError", "DatasetStats", "InteractionDataset", "dataset_stats",
    "load_dataset", "make_validation_split",
]

log = logging.getLogger(__name__)


class DatasetFormatError(ValueError):
    """Raised when an interaction file cannot be parsed or fails validation."""


def sorted_member(sorted_keys: np.ndarray, queries) -> np.ndarray:
    """Whether each query occurs in the ascending array ``sorted_keys``."""
    queries = np.asarray(queries)
    if len(sorted_keys) == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, queries), len(sorted_keys) - 1)
    return sorted_keys[pos] == queries


def _check_pair_keys(num_users: int, num_items: int) -> None:
    """Refuse a shape whose ``user * num_items + item`` keys overflow int64."""
    if int(num_users) * int(num_items) > np.iinfo(np.int64).max:
        raise DatasetFormatError(f"{num_users} users x {num_items} items overflow the int64 pair keys")


class CSRRows:
    """Rows of column indices in CSR form: row r is ``indices[indptr[r]:indptr[r + 1]]``.

    Both arrays are int64 and read-only, so ``rows[r]`` is a read-only view.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr, indices):
        # read-only copies: the caller's arrays stay writeable
        self.indptr = np.array(indptr, dtype=np.int64)
        self.indices = np.array(indices, dtype=np.int64)
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    @classmethod
    def from_pairs(cls, rows, cols, num_rows: int, width: int) -> "CSRRows":
        """Rows holding the given (row, col) pairs, sorted and de-duplicated."""
        _check_pair_keys(num_rows, width)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= num_rows
                          or cols.min() < 0 or cols.max() >= width):
            raise DatasetFormatError(
                f"pair index out of range for {num_rows} users x {width} items"
            )
        keys = np.sort(rows * width + cols)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return cls(_offsets(np.bincount(keys // width, minlength=num_rows)), keys % width)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, r) -> np.ndarray:
        r = range(len(self))[r]  # negative rows count from the end; IndexError past it
        return self.indices[self.indptr[r]:self.indptr[r + 1]]

    def __iter__(self):
        for start, stop in zip(self.indptr[:-1].tolist(), self.indptr[1:].tolist()):
            yield self.indices[start:stop]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self)), self.lengths)

    def keys(self, width: int) -> np.ndarray:
        """``row * width + col`` per entry; ascending when rows are sorted."""
        return self.row_ids() * width + self.indices


@dataclass(frozen=True)
class InteractionDataset:
    """Sparse user-item implicit-feedback store with train/test partitions.

    ``train_positives`` and ``test_positives`` are :class:`CSRRows` over the
    users; ``train_positives[u]`` is a read-only view of user u's sorted,
    duplicate-free item indices.  Instances are immutable and safe to share
    across threads.  Build one from (user, item) pairs with :meth:`from_pairs`.
    """

    num_users: int
    num_items: int
    train_positives: CSRRows
    test_positives: CSRRows

    @classmethod
    def from_pairs(cls, num_users: int, num_items: int, train, test) -> "InteractionDataset":
        """The validated dataset of ``train`` and ``test``, each a
        ``(users, items)`` pair of index arrays; repeated pairs are dropped."""
        rows = [CSRRows.from_pairs(*pairs, num_users, num_items) for pairs in (train, test)]
        ds = cls(num_users, num_items, *rows)
        ds.validate()
        return ds

    @property
    def train_interactions(self) -> int:
        return len(self.train_positives.indices)

    @property
    def test_interactions(self) -> int:
        return len(self.test_positives.indices)

    @property
    def item_popularity(self) -> np.ndarray:
        """Train interaction count per item."""
        return np.bincount(self.train_positives.indices, minlength=self.num_items)

    def train_pairs(self) -> np.ndarray:
        """All (user, item) training interactions as an (n, 2) int64 array."""
        return np.column_stack([self.train_positives.row_ids(), self.train_positives.indices])

    def train_csr(self) -> sp.csr_matrix:
        """Binary interaction matrix (num_users x num_items) in scipy CSR form."""
        import scipy.sparse as sp
        rows = self.train_positives
        return sp.csr_matrix(
            (np.ones(len(rows.indices)), rows.indices, rows.indptr),
            shape=(self.num_users, self.num_items),
        )

    def train_matrix(self) -> np.ndarray:
        """Dense binary interaction matrix (num_users x num_items), for small
        catalogs; large-scale consumers read ``train_csr``."""
        return self.train_csr().toarray()

    def validate(self) -> None:
        """Check the CSR invariants of both partitions and that they are
        disjoint; raise DatasetFormatError on violation."""
        _check_pair_keys(self.num_users, self.num_items)
        keys = {}
        for name, rows in (("train", self.train_positives), ("test", self.test_positives)):
            indptr, indices = rows.indptr, rows.indices
            if (len(indptr) != self.num_users + 1 or indptr[0] != 0
                    or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0)):
                raise DatasetFormatError(
                    f"{name} indptr is not an offset table of {self.num_users} rows "
                    f"over {len(indices)} items"
                )
            owner = rows.row_ids()
            bad = (indices < 0) | (indices >= self.num_items)
            if bad.any():
                raise DatasetFormatError(f"user {owner[bad.argmax()]}: {name} item index out of range")
            # the keys rise strictly exactly when every row does
            keys[name] = owner * self.num_items + indices
            bad = np.diff(keys[name]) <= 0
            if bad.any():
                raise DatasetFormatError(f"user {owner[bad.argmax() + 1]}: {name} list not strictly sorted")
        shared = keys["test"][sorted_member(keys["train"], keys["test"])]
        if shared.size:
            raise DatasetFormatError(f"user {shared[0] // self.num_items}: train and test lists overlap")


@dataclass(frozen=True)
class DatasetStats:
    """Summary counts for an interaction dataset.

    ``interaction_count`` covers train plus test (the convention benchmark
    tables use); the two partitions are also reported separately.
    """

    user_count: int
    item_count: int
    train_interactions: int
    test_interactions: int
    interaction_count: int
    density: float
    max_items_per_user: int
    min_items_per_user: int


def _parse_interaction_file(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse one file into (the user id of every line, the user of every item
    token, every item token); repeated pairs are kept."""
    raw = path.read_bytes()
    buf = np.frombuffer(raw, dtype=np.uint8)
    # the whitespace of bytes.split(): space and \t \n \v \f \r
    space = (buf == 32) | ((buf >= 9) & (buf <= 13))
    # the edges of the whitespace pair up into each token's [start, stop)
    starts, stops = np.flatnonzero(np.diff(np.concatenate(([True], space, [True])))).reshape(-1, 2).T
    # the rule: every byte but whitespace is an ASCII digit, and a token has at
    # most 18, so fromstring reads one value per token and cannot overflow
    broken = np.flatnonzero(~space & ((buf < 48) | (buf > 57)))[:1]
    broken = np.concatenate((broken, starts[stops - starts > 18][:1] + 18))  # a token's 19th byte
    if broken.size:
        token = starts.searchsorted(broken.min(), side="right") - 1
        text = raw[starts[token]:stops[token]]
        # the token's 1-based line, counted as text mode counts lines
        lineno = len((raw[:starts[token]] + b"x").splitlines())
        if text[:1] == b"-" and text[1:].isdigit():
            raise DatasetFormatError(f"{path}:{lineno}: negative index")
        raise DatasetFormatError(f"{path}:{lineno}: malformed token {text[:40]!r}, not 1 to 18 ASCII digits")
    # fromstring reads a text with no token as [0]
    values = np.fromstring(raw, dtype=np.int64, sep=" ") if len(starts) else np.empty(0, np.int64)
    # \n and \r both end a line; \r\n only skips a line id
    line = np.searchsorted(np.flatnonzero((buf == 10) | (buf == 13)), starts)
    first = np.diff(line, prepend=-1) != 0
    owner = np.flatnonzero(first)[np.cumsum(first) - 1]
    return values[first], values[owner[~first]], values[~first]


def load_dataset(train_path: str | Path, test_path: str | Path) -> InteractionDataset:
    """Load a train/test pair of interaction files.

    Users and items appearing only in the test file are still allocated
    indices; the item universe is max index + 1 over both files.  Duplicate
    (user, item) pairs are dropped with a logged count.  Items found in both
    partitions for the same user are rejected.
    """
    train_lines, train_users, train_items = _parse_interaction_file(Path(train_path))
    test_lines, test_users, test_items = _parse_interaction_file(Path(test_path))
    if train_items.size == 0:
        raise DatasetFormatError(f"{train_path}: no training interactions")
    num_users = int(max(train_lines.max(), test_lines.max(initial=-1))) + 1
    num_items = int(max(train_items.max(), test_items.max(initial=-1))) + 1
    ds = InteractionDataset.from_pairs(
        num_users, num_items, (train_users, train_items), (test_users, test_items)
    )
    train_dups = train_items.size - ds.train_interactions
    test_dups = test_items.size - ds.test_interactions
    if train_dups or test_dups:
        log.warning("removed %d duplicate train and %d duplicate test pairs", train_dups, test_dups)
    return ds


@contextmanager
def _atomic_write(path, mode: str = "w"):
    """Yield a file opened on a new name beside ``path``; when the block exits
    cleanly the file is synced and moved over ``path`` by one ``os.replace``.
    If the block raises, the new file is removed and ``path`` keeps whatever
    it held before.  Every artifact writer goes through here."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{secrets.token_hex(6)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def dataset_stats(ds: InteractionDataset) -> DatasetStats:
    train_n, test_n = ds.train_interactions, ds.test_interactions
    lengths = ds.train_positives.lengths
    return DatasetStats(
        user_count=ds.num_users,
        item_count=ds.num_items,
        train_interactions=train_n,
        test_interactions=test_n,
        interaction_count=train_n + test_n,
        density=(train_n + test_n) / (ds.num_users * ds.num_items),
        max_items_per_user=int(lengths.max()) if len(lengths) else 0,
        min_items_per_user=int(lengths.min()) if len(lengths) else 0,
    )


def hold_out(row_ids: np.ndarray, n_hold: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Mask of the entries each row holds out.

    ``row_ids`` gives the row of every entry, ascending.  Each entry draws one
    uniform key, and row r holds out its ``n_hold[r]`` entries with the
    lowest keys: a uniform subset of that size.
    """
    # one sort orders the entries by row, then by a uniform random key
    span = np.iinfo(np.int64).max // max(len(n_hold), 1)
    order = np.argsort(row_ids * span + rng.integers(0, span, size=len(row_ids)))
    # the order keeps each row's entries inside the row's own span of positions
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order)) - np.searchsorted(row_ids, row_ids)
    return rank < n_hold[row_ids]


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)))


def make_validation_split(
    ds: InteractionDataset, fraction: float, seed: int
) -> tuple[InteractionDataset, CSRRows]:
    """Hold out ceil(fraction * |train_u|) items per user as a validation list.

    A user with at least two train items always retains at least one; users
    with a single item keep it.  The held-out items are a uniform subset
    drawn by :func:`hold_out`; deterministic for a fixed seed.  Returns the
    reduced dataset and the held-out rows.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rows = ds.train_positives
    n = rows.lengths
    n_hold = np.minimum(np.ceil(fraction * n).astype(np.int64), np.maximum(n - 1, 0))
    held = hold_out(rows.row_ids(), n_hold, np.random.default_rng(seed))
    reduced = InteractionDataset(
        ds.num_users, ds.num_items, CSRRows(_offsets(n - n_hold), rows.indices[~held]),
        ds.test_positives,
    )
    return reduced, CSRRows(_offsets(n_hold), rows.indices[held])
