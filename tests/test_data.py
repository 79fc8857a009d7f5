"""Dataset parsing, validation, stats, and the validation split."""

import math
import os

import numpy as np
import pytest

from recloss import (
    CSRRows,
    DatasetFormatError,
    InteractionDataset,
    dataset_stats,
    load_dataset,
    make_validation_split,
)
from recloss.data import _atomic_write, _parse_interaction_file
from conftest import build_dataset


def reference_parse(path):
    """The per-line parser load_dataset replaced, kept as an oracle:
    {user: sorted unique items} over every user line of one file."""
    per_user = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                values = [int(t) for t in tokens]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: malformed token ({exc})") from None
            u, items = values[0], values[1:]
            if u < 0 or any(i < 0 for i in items):
                raise DatasetFormatError(f"{path}:{lineno}: negative index")
            per_user.setdefault(u, []).extend(items)
    return {u: sorted(set(items)) for u, items in per_user.items()}


def reference_load(train_path, test_path):
    """(num_users, num_items, train lists, test lists) as the old loader built them."""
    train, test = reference_parse(train_path), reference_parse(test_path)
    num_users = max(max(train, default=-1), max(test, default=-1)) + 1
    num_items = max([-1] + [i for raw in (train, test) for items in raw.values() for i in items]) + 1
    return (num_users, num_items,
            [train.get(u, []) for u in range(num_users)],
            [test.get(u, []) for u in range(num_users)])


def write_pair(tmp_path, train_text, test_text=""):
    train = tmp_path / "train.txt"
    test = tmp_path / "test.txt"
    train.write_text(train_text)
    test.write_text(test_text)
    return train, test


class TestParsing:
    def test_two_line_example(self, tmp_path):
        train, test = write_pair(tmp_path, "0 1 2\n1 0\n")
        ds = load_dataset(train, test)
        assert ds.num_users == 2
        assert ds.num_items == 3
        assert ds.train_positives[0].tolist() == [1, 2]
        assert ds.train_positives[1].tolist() == [0]
        assert ds.train_interactions == 3

    def test_density_half(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, "0 1 2\n1 0\n"))
        stats = dataset_stats(ds)
        assert stats.density == pytest.approx(0.5)
        assert stats.interaction_count == 3
        assert stats.user_count == 2 and stats.item_count == 3

    def test_malformed_token_reports_line(self, tmp_path):
        train, test = write_pair(tmp_path, "0 1\n1 x 2\n")
        with pytest.raises(DatasetFormatError, match="2"):
            load_dataset(train, test)

    def test_negative_index_rejected(self, tmp_path):
        train, test = write_pair(tmp_path, "0 -3\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(train, test)

    def test_duplicates_dropped(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, "0 1 1 2\n0 2\n"))
        assert ds.train_positives[0].tolist() == [1, 2]
        assert ds.train_interactions == 2

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, "0 1\n\n1 0\n"))
        assert ds.num_users == 2

    def test_empty_train_rejected(self, tmp_path):
        train, test = write_pair(tmp_path, "", "0 1\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(train, test)

    def test_user_with_no_items_allowed(self, tmp_path):
        # a bare user id line contributes an empty list, not an error
        ds = load_dataset(*write_pair(tmp_path, "0 1\n1\n"))
        assert ds.train_positives[1].size == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.txt", tmp_path / "absent2.txt")

    def test_test_only_items_extend_universe(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, "0 1\n", "0 9\n"))
        assert ds.num_items == 10
        assert ds.test_positives[0].tolist() == [9]

    def test_train_test_overlap_rejected(self, tmp_path):
        train, test = write_pair(tmp_path, "0 1 2\n", "0 2\n")
        with pytest.raises(DatasetFormatError, match="overlap"):
            load_dataset(train, test)


PARSER_CASES = {
    "duplicates": ("0 1 1 2 2\n1 3 3\n", "0 4 4\n"),
    "repeated user lines": ("0 1\n1 2\n0 3 1\n0 5\n", "1 0\n1 4\n"),
    "blank lines": ("\n0 1 2\n\n\n1 0\n   \n", "\n\n1 3\n"),
    "test-only users": ("0 1 2\n", "3 0\n5 2 1\n"),
    "bare user id": ("0 1\n1\n2 0 3\n4\n", "3\n1 2\n"),
    "tabs, CRLF and no final newline": ("0\t1  2\r\n1 0\r\n2 3", "0 3\r\n1 2"),
    "lone CR line ends": ("0 1 2\r1 0\r\r2 3\r", "1 4\r0 3"),
    "whitespace-only lines and test file": ("0 1\n \t \n1 0 2\n\v\f\n", " \n\t\r\n  "),
    "vertical tab and form feed separators": ("0\v1\f2\n1\f\v0\n", "0\v3\f4\n"),
}


def random_lines(rng, lo, hi):
    """Token lists for a file: blank lines, bare user ids, and users with
    items drawn from [lo, hi), some of them repeated."""
    lines = []
    for _ in range(rng.integers(1, 12)):
        kind = rng.random()
        length = 0 if kind < 0.15 else 1 if kind < 0.3 else int(rng.integers(2, 8))
        lines.append([int(rng.integers(20))] + rng.integers(lo, hi, size=length - 1).tolist()
                     if length else [])
    return lines


def render(rng, lines):
    """The text of the token lists, with separators mixed from space, tab,
    vertical tab and form feed, line ends from \\n, \\r\\n and \\r, and
    sometimes no final line end; a token may carry leading zeros."""
    def ws(least):
        return "".join(rng.choice([" ", "\t", "\v", "\f"], size=rng.integers(least, 3)))

    text, end = [], ""
    for tokens in lines:
        tokens = [t if not isinstance(t, int) or rng.random() > 0.1 else f"0{t}" for t in tokens]
        line = ws(0) + "".join(f"{t}{ws(1)}" for t in tokens)
        if not line and end == "\r":
            line = " "  # "\r" then "\n" would be one line end, not two
        end = str(rng.choice(["\n", "\r\n", "\r"]))
        text.append(line + end)
    if rng.random() < 0.3:
        text[-1] = text[-1].rstrip("\r\n") or " "
    return "".join(text)


def plant(rng, tokens, refused):
    """The token list with one refused token put at a random place."""
    tokens = list(tokens) or [int(rng.integers(20))]
    at = int(rng.integers(len(tokens)))
    digits = str(tokens[at])
    cut = int(rng.integers(len(digits) + 1))
    bad = {
        "letter": digits[:cut] + str(rng.choice(list("abexzXE"))) + digits[cut:],
        "dot": digits[:cut] + "." + digits[cut:],
        "underscore": digits[:cut] + "_" + digits[cut:],
        "plus": "+" + digits,
        "lone minus": "-",
        "19 digits": "".join(rng.choice(list("0123456789"), size=19)),
        "byte order mark": "\xef\xbb\xbf" + digits,
        "minus and digits": "-" + digits,
    }[refused]
    if refused in ("lone minus", "19 digits"):
        return tokens[:at] + [bad] + tokens[at:]
    return tokens[:at] + [bad] + tokens[at + 1:]


class TestParserOracle:
    @pytest.mark.parametrize("case", sorted(PARSER_CASES))
    def test_load_matches_line_parser(self, tmp_path, case):
        train, test = write_pair(tmp_path, *PARSER_CASES[case])
        num_users, num_items, train_lists, test_lists = reference_load(train, test)
        ds = load_dataset(train, test)
        assert (ds.num_users, ds.num_items) == (num_users, num_items)
        assert [row.tolist() for row in ds.train_positives] == train_lists
        assert [row.tolist() for row in ds.test_positives] == test_lists

    def test_load_matches_line_parser_on_random_files(self, tmp_path):
        rng = np.random.default_rng(25)
        for _ in range(300):
            lines = random_lines(rng, 0, 30)
            # at least one train pair
            lines[rng.integers(len(lines))] = [int(rng.integers(20)), int(rng.integers(30))]
            texts = (render(rng, lines), render(rng, random_lines(rng, 30, 45)))
            train, test = write_pair(tmp_path, *texts)
            num_users, num_items, train_lists, test_lists = reference_load(train, test)
            ds = load_dataset(train, test)
            assert (ds.num_users, ds.num_items) == (num_users, num_items), texts
            assert [row.tolist() for row in ds.train_positives] == train_lists, texts
            assert [row.tolist() for row in ds.test_positives] == test_lists, texts

    def test_parse_keeps_an_18_digit_id(self, tmp_path):
        big = 10**18 - 1  # the largest id of at most 18 digits
        train, test = write_pair(tmp_path, f"0 {big} 1\n1 2\n", f"{big}\n")
        assert [a.tolist() for a in _parse_interaction_file(train)] == [[0, 1], [0, 0, 1], [big, 1, 2]]
        assert [a.tolist() for a in _parse_interaction_file(test)] == [[big], [], []]

    def test_parse_refuses_the_largest_int64_id(self, tmp_path):
        big = np.iinfo(np.int64).max
        train, test = write_pair(tmp_path, f"0 1\n\n1 {big} 1\n1 2\n", f"{big}\n")
        with pytest.raises(DatasetFormatError, match=f"{train}:3: malformed token"):
            _parse_interaction_file(train)
        with pytest.raises(DatasetFormatError, match=f"{test}:1: malformed token"):
            _parse_interaction_file(test)

    @pytest.mark.parametrize("refused, message", [
        ("letter", "malformed token"),
        ("dot", "malformed token"),
        ("underscore", "malformed token"),
        ("plus", "malformed token"),
        ("lone minus", "malformed token"),
        ("19 digits", "malformed token"),
        ("byte order mark", "malformed token"),
        ("minus and digits", "negative index"),
    ])
    def test_refused_token_names_its_line(self, tmp_path, refused, message):
        rng = np.random.default_rng(list(map(ord, refused)))
        for _ in range(40):
            lines = random_lines(rng, 0, 30)
            lineno = int(rng.integers(len(lines))) + 1
            lines[lineno - 1] = plant(rng, lines[lineno - 1], refused)
            train, test = write_pair(tmp_path, "0 1\n", "")
            train.write_bytes(render(rng, lines).encode("latin-1"))
            with pytest.raises(DatasetFormatError, match=f"{train}:{lineno}: {message}"):
                load_dataset(train, test)

    def test_pair_key_space_must_fit_int64(self, tmp_path):
        # 10 users x 10^18 items need keys up to 10^19 - 1, past the int64 maximum
        train, test = write_pair(tmp_path, "0 1\n9 999999999999999999\n")
        match = "10 users x 1000000000000000000 items overflow"
        with pytest.raises(DatasetFormatError, match=match):
            load_dataset(train, test)
        with pytest.raises(DatasetFormatError, match=match):
            InteractionDataset.from_pairs(10, 10**18, ([0, 9], [1, 10**18 - 1]), ([], []))
        # one user fewer fits
        train, test = write_pair(tmp_path, "0 1\n8 999999999999999999\n")
        assert load_dataset(train, test).num_users == 9

    @pytest.mark.parametrize("which", ["train", "test"])
    @pytest.mark.parametrize("text,lineno", [
        ("0 1\n\n1 x 2\n", 3),
        ("0 1\n1 2.5\n", 2),
        ("0 1\n1 2\n2 99999999999999999999\n", 3),
        ("0 1\n1 9223372036854775808\n", 2),
        ("0 1\n1 2 -\n", 2),
        ("0 +5 2\n+1 2\n", 1),
        ("1 7\n+0 7\n", 2),
        ("0 1\n1 1_000 2\n1 3\n", 2),
    ])
    def test_malformed_token_reports_path_and_line(self, tmp_path, which, text, lineno):
        texts = (text, "0 9\n") if which == "train" else ("0 1\n", text)
        paths = write_pair(tmp_path, *texts)
        path = paths[0] if which == "train" else paths[1]
        with pytest.raises(DatasetFormatError, match=f"{path}:{lineno}: malformed token"):
            load_dataset(*paths)

    def test_negative_index_reports_path_and_line(self, tmp_path):
        train, test = write_pair(tmp_path, "0 1\n1 2\n", "0 3\n\n-1 2\n")
        with pytest.raises(DatasetFormatError, match=f"{test}:3: negative index"):
            load_dataset(train, test)


def save_dataset(ds, train_path, test_path):
    """Write a dataset back to the text format (inverse of load_dataset)."""
    for path, rows in ((train_path, ds.train_positives), (test_path, ds.test_positives)):
        with open(path, "w") as f:
            for u, items in enumerate(rows):
                f.write(" ".join([str(u), *map(str, items.tolist())]) + "\n")


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = build_dataset([[0, 2], [1], [0, 1, 3]], [[1], [], [2]], 4)
        save_dataset(ds, tmp_path / "tr.txt", tmp_path / "te.txt")
        back = load_dataset(tmp_path / "tr.txt", tmp_path / "te.txt")
        assert back.num_users == ds.num_users
        assert back.num_items == ds.num_items
        for u in range(ds.num_users):
            assert np.array_equal(back.train_positives[u], ds.train_positives[u])
            assert np.array_equal(back.test_positives[u], ds.test_positives[u])


class TestStructure:
    def test_train_pairs(self, tiny_ds):
        pairs = tiny_ds.train_pairs()
        assert pairs.shape == (6, 2)
        assert pairs[0].tolist() == [0, 0]
        assert pairs[-1].tolist() == [2, 4]

    def test_train_matrix(self, tiny_ds):
        X = tiny_ds.train_matrix()
        assert X.shape == (3, 5)
        assert X.sum() == 6
        assert X[0, :3].tolist() == [1, 1, 1]

    def test_popularity_sums_to_train_count(self, tiny_ds):
        assert tiny_ds.item_popularity.sum() == tiny_ds.train_interactions

    def test_popularity_is_derived_from_train_rows(self, tiny_ds):
        assert tiny_ds.item_popularity.tolist() == [1, 2, 1, 1, 1]

    def test_train_csr_matches_dense_matrix(self, tiny_ds):
        X = tiny_ds.train_csr()
        assert X.shape == (3, 5)
        np.testing.assert_array_equal(X.toarray(), tiny_ds.train_matrix())

    def test_row_views_and_indices_are_read_only(self, tiny_ds):
        rows = tiny_ds.train_positives
        for target in (rows[0], rows.indices, rows.indptr, tiny_ds.test_positives[1]):
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 4

    def test_rows_index_like_a_list(self, tiny_ds):
        rows = tiny_ds.train_positives
        assert [r.tolist() for r in rows] == [[0, 1, 2], [1, 3], [4]]
        assert rows[-1].tolist() == [4] and rows[np.int64(1)].tolist() == [1, 3]
        with pytest.raises(IndexError):
            rows[3]

    def test_caller_arrays_are_copied_not_frozen(self):
        indptr, indices = np.array([0, 1]), np.array([2])
        CSRRows(indptr, indices)
        indices[0] = 3
        assert indices.flags.writeable


def csr_dataset(train_indptr, train_indices, num_items=5, test_indptr=None, test_indices=()):
    """A dataset built directly from CSR arrays, unchecked."""
    num_users = len(train_indptr) - 1
    if test_indptr is None:
        test_indptr = [0] * (num_users + 1)
    return InteractionDataset(num_users, num_items, CSRRows(train_indptr, train_indices),
                              CSRRows(test_indptr, test_indices))


class TestValidateCSR:
    def test_valid_arrays_pass(self):
        csr_dataset([0, 2, 2, 3], [1, 4, 0]).validate()

    @pytest.mark.parametrize("indptr,indices,message", [
        ([0, 2, 3], [3, 1, 0], "user 0: train list not strictly sorted"),
        ([0, 1, 3], [3, 2, 2], "user 1: train list not strictly sorted"),
        ([0, 1, 3], [3, 0, 5], "user 1: train item index out of range"),
        ([0, 1, 3], [3, -1, 2], "user 1: train item index out of range"),
        ([0, 2, 1, 3], [0, 1, 2], "train indptr"),
        ([1, 2, 3], [0, 1, 2], "train indptr"),
        ([0, 1, 2], [0, 1, 2], "train indptr"),
    ])
    def test_broken_train_rows_rejected(self, indptr, indices, message):
        with pytest.raises(DatasetFormatError, match=message):
            csr_dataset(indptr, indices).validate()

    def test_row_count_must_match_users(self):
        ds = InteractionDataset(3, 5, CSRRows([0, 1], [0]), CSRRows([0, 0, 0, 0], []))
        with pytest.raises(DatasetFormatError, match="train indptr"):
            ds.validate()

    def test_pair_key_space_must_fit_int64(self):
        # users 0 and 9 with one item each; user 9's keys would pass 9 * 10^18
        ds = csr_dataset([0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2], [1, 10**18 - 1], num_items=10**18)
        with pytest.raises(DatasetFormatError,
                           match="10 users x 1000000000000000000 items overflow the int64 pair keys"):
            ds.validate()

    def test_unsorted_test_row_rejected(self):
        with pytest.raises(DatasetFormatError, match="user 1: test list not strictly sorted"):
            csr_dataset([0, 1, 1], [0], test_indptr=[0, 0, 2], test_indices=[4, 3]).validate()

    def test_overlap_names_the_user(self):
        with pytest.raises(DatasetFormatError, match="user 1: train and test lists overlap"):
            csr_dataset([0, 1, 2], [0, 3], test_indptr=[0, 1, 2], test_indices=[1, 3]).validate()

    def test_stats_per_user_extremes(self, tiny_ds):
        stats = dataset_stats(tiny_ds)
        assert stats.max_items_per_user == 3
        assert stats.min_items_per_user == 1
        assert stats.train_interactions == 6
        assert stats.test_interactions == 3


class TestValidationSplit:
    def test_ten_items_hold_one(self):
        ds = build_dataset([list(range(10))], [[]], 10)
        reduced, held = make_validation_split(ds, fraction=0.1, seed=0)
        assert len(held[0]) == 1
        assert len(reduced.train_positives[0]) == 9

    def test_single_item_kept(self):
        ds = build_dataset([[3]], [[]], 5)
        reduced, held = make_validation_split(ds, fraction=0.5, seed=0)
        assert len(held[0]) == 0
        assert reduced.train_positives[0].tolist() == [3]

    def test_split_is_deterministic(self):
        ds = build_dataset([list(range(20)), list(range(5))], [[], []], 20)
        _, h1 = make_validation_split(ds, 0.25, seed=3)
        _, h2 = make_validation_split(ds, 0.25, seed=3)
        for a, b in zip(h1, h2):
            assert np.array_equal(a, b)

    def test_split_union_restores_train(self):
        rng = np.random.default_rng(5)
        lists = [sorted(rng.choice(50, size=rng.integers(1, 20), replace=False).tolist())
                 for _ in range(8)]
        ds = build_dataset(lists, [[] for _ in lists], 50)
        reduced, held = make_validation_split(ds, 0.3, seed=1)
        for u in range(ds.num_users):
            merged = np.union1d(reduced.train_positives[u], held[u])
            assert np.array_equal(merged, ds.train_positives[u])
            # held items really left the reduced split
            assert not np.intersect1d(reduced.train_positives[u], held[u]).size

    def test_fraction_out_of_range(self, tiny_ds):
        with pytest.raises(ValueError):
            make_validation_split(tiny_ds, fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            make_validation_split(tiny_ds, fraction=1.0, seed=0)

    def test_hold_counts_follow_the_ceiling_rule(self):
        lengths = [0, 1, 2, 3, 7, 10, 11, 29]
        ds = build_dataset([list(range(n)) for n in lengths], [[] for _ in lengths], 30)
        reduced, held = make_validation_split(ds, 0.15, seed=2)
        for u, n in enumerate(lengths):
            n_hold = min(math.ceil(0.15 * n), n - 1) if n else 0
            assert len(held[u]) == n_hold
            assert len(reduced.train_positives[u]) == n - n_hold

    def test_held_out_items_are_uniform(self):
        ds = build_dataset([list(range(8))] * 4000, [[]] * 4000, 8)
        _, held = make_validation_split(ds, 0.1, seed=4)
        assert held.lengths.tolist() == [1] * 4000
        freq = np.bincount(held.indices, minlength=8) / 4000
        assert freq == pytest.approx([1 / 8] * 8, abs=0.02)

    def test_reduced_popularity_consistent(self, tiny_ds):
        reduced, _ = make_validation_split(tiny_ds, 0.4, seed=0)
        reduced.validate()


class TestAtomicWrite:
    """Artifacts replace their target whole or not at all."""

    def test_failure_midway_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="midway"):
            with _atomic_write(target) as fh:
                fh.write("partial")
                raise RuntimeError("midway")
        assert target.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_success_replaces_with_the_usual_permissions(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"previous\n")
        with _atomic_write(target) as fh:
            fh.write("new\n")
        assert target.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        with open(tmp_path / "plain", "w"):
            pass
        assert os.stat(target).st_mode == os.stat(tmp_path / "plain").st_mode

    @pytest.mark.parametrize("writer", ["checkpoint", "history", "artifact", "report", "config"])
    def test_every_writer_is_atomic(self, tmp_path, monkeypatch, writer):
        from recloss import TrainingHistory, init_model, save_checkpoint, write_report
        from recloss.cli import _write_artifact
        from recloss.config import resolve_config, write_resolved

        target, write = {
            "checkpoint": ("model.bin", lambda p: save_checkpoint(p, init_model(3, 4, 2))),
            "history": ("history.csv", lambda p: TrainingHistory(k=20).to_csv(p)),
            "artifact": ("eval.csv", lambda p: _write_artifact(resolve_config(), tmp_path,
                                                               "eval.csv", ["a,b"])),
            "report": ("report.json", lambda p: write_report({"passed": True}, p)),
            "config": ("config.resolved", lambda p: write_resolved(resolve_config(), tmp_path)),
        }[writer]
        path = tmp_path / target
        write(path)
        assert path.exists() and not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        path.write_bytes(b"previous")
        before = sorted(os.listdir(tmp_path))

        def fail(fd):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="disk went away"):
            write(path)
        assert path.read_bytes() == b"previous"
        assert sorted(os.listdir(tmp_path)) == before
