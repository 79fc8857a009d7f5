"""Tests of the benchmark's own code: span arithmetic, tracing, oracles, set
distance, inputs.

    python3 perfbench/selftest.py

Tiny inputs only; the whole file runs in a few seconds.  It is not part of
the repository's test suite, which tests recloss itself.
"""

from __future__ import annotations

import math
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from spans import Span, Tracer, _covered, phase_median, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_union_of_children_clipped_to_parent(self):
        self.assertEqual(_covered([], 0.0, 10.0), 0.0)
        self.assertEqual(_covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0), 4.0)   # overlap counted once
        self.assertEqual(_covered([(6.0, 12.0), (-2.0, 1.0)], 0.0, 10.0), 5.0)  # clipped both ends
        self.assertEqual(_covered([(1.0, 2.0), (4.0, 5.0)], 0.0, 10.0), 2.0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span("root", "p", None, 0.0, 10.0),
            Span("child", "p", 0, 1.0, 4.0),
            Span("grandchild", "p", 1, 2.0, 3.0),
            Span("child", "p", 0, 5.0, 6.5),
        ]
        self.assertEqual(self_times(spans), [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.mod = types.SimpleNamespace()

        class Box:
            def size(self, n):
                return np.zeros(n)

        def outer(box, n):
            return self.mod.inner(box, n) + 1

        def inner(box, n):
            return len(box.size(n))

        self.mod.outer, self.mod.inner, self.Box = outer, inner, Box

    def test_records_parents_counts_and_restores(self):
        tracer = Tracer()
        original = self.mod.inner
        tracer.wrap(self.mod, "outer", "m.outer")
        tracer.wrap(self.mod, "inner", "m.inner")
        tracer.wrap(self.Box, "size", "m.size", counts=lambda out: {"items": out.size})
        tracer.on, tracer.phase = True, "round-1"
        self.assertEqual(self.mod.outer(self.Box(), 3), 4)
        tracer.on = False
        self.assertEqual(self.mod.outer(self.Box(), 2), 3)   # not recorded
        self.assertEqual([s.name for s in tracer.spans], ["m.outer", "m.inner", "m.size"])
        self.assertEqual([s.parent for s in tracer.spans], [None, 0, 1])
        self.assertEqual(tracer.spans[2].counts, {"items": 3})
        acc = tracer.per_phase("round")["round-1"]
        self.assertEqual(acc["m.size.items"], 3)
        self.assertEqual(acc["m.outer.calls"], 1)
        self.assertAlmostEqual(acc["m.outer.self"] + acc["m.inner.self"] + acc["m.size.self"],
                               acc["m.outer.total"])
        tracer.unpatch()
        self.assertIs(self.mod.inner, original)
        self.assertEqual(tracer.calls(), {"m.outer": 1, "m.inner": 1, "m.size": 1})

    def test_phase_median_counts_missing_keys_as_zero(self):
        per_phase = {"round-1": {"a": 3.0}, "round-2": {"a": 1.0}, "round-3": {}}
        self.assertEqual(phase_median(per_phase, "a"), 1.0)
        self.assertEqual(phase_median({}, "a"), 0.0)


class OracleTest(unittest.TestCase):
    def test_ranking_breaks_ties_by_index_and_masks_train(self):
        scores = np.array([[0.5, 0.9, 0.5, 0.9, 0.1]])
        # train item 1 masked; order is 3, 0, 2, 4 -> top-2 = {3, 0}
        recall, ndcg = oracles.ranking_metrics(scores, [np.array([1])], [np.array([0, 4])], k=2)
        self.assertEqual(recall, 0.5)
        self.assertAlmostEqual(ndcg, (1 / math.log2(3)) / (1 + 1 / math.log2(3)))

    def test_mine_plus_by_hand(self):
        U = np.array([[1.0, 0.0]])
        V = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
        got = oracles.mine_plus_objective(U, V, np.array([0]), np.array([0]),
                                          np.array([[1, 2]]), lam=1.2, temperature=0.5, l2=0.0)
        # cosines 1, 0, -1 -> scores 2, 0, -2
        self.assertAlmostEqual(got, -2.0 + 1.2 * math.log(1 + math.exp(-2)))
        with_l2 = oracles.mine_plus_objective(U, V, np.array([0]), np.array([0]),
                                              np.array([[1, 2]]), 1.2, 0.5, l2=0.5)
        self.assertAlmostEqual(with_l2 - got, 0.5 * (1 + 1 + 4 + 9) / 4)

    def test_debiased_ccl_by_hand(self):
        U = np.array([[1.0, 0.0]])
        V = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        got = oracles.debiased_ccl_objective(
            U, V, np.array([0]), np.array([0]), np.array([[1, 2]]), np.array([[0]]),
            tau=np.array([0.1]), lambda_n=0.7, margin=0.5, temperature=1.0, l2=0.0)
        hinge_neg = (math.sqrt(0.5) - 0.5) / 2
        self.assertAlmostEqual(got, 0.0 + 0.7 * (hinge_neg - 0.1 * 0.5))

    def test_topk_prior(self):
        np.testing.assert_allclose(oracles.topk_prior(np.array([5, 10]), 20, 100), [0.25, 0.30])

    def test_dense_ials_objective_matches_program(self):
        from recloss import linear
        rng = np.random.default_rng(0)
        X = (rng.random((7, 6)) < 0.4).astype(float)
        X[:, 0] = 1.0
        W, H = rng.normal(size=(7, 3)), rng.normal(size=(6, 3))
        for debiased in (False, True):
            cfg = linear.IALSConfig(d=3, alpha0=0.3, lam=0.2, nu=0.5, c_u=1.4)
            want = linear.ials_objective(W, H, X, cfg, debiased=debiased)
            got = oracles.ials_objective_dense(X, W, H, 0.3, 0.2, 0.5, 1.4, debiased)
            self.assertAlmostEqual(got / want, 1.0, places=12)

    def test_ease_residual_vanishes_only_at_the_minimiser(self):
        from recloss import linear
        X = (np.random.default_rng(1).random((12, 5)) < 0.5).astype(float)
        W = linear.ease_fit(X, 2.0).W
        self.assertLess(oracles.ease_offdiag_residual(X, W, 2.0), 1e-12)
        Wd = linear.ease_debiased_fit(X, 2.0, 0.3).W
        self.assertLess(oracles.ease_offdiag_residual(X, Wd, 2.0, alpha=0.3), 1e-12)
        W[0, 1] += 1e-3
        self.assertGreater(oracles.ease_offdiag_residual(X, W, 2.0), 1e-5)


class SteadyTest(unittest.TestCase):
    def test_distance_between_sets_ignores_their_order(self):
        from steady import distance
        self.assertEqual(distance(1.0, 1.25), 0.25)
        self.assertEqual(distance(1.25, 1.0), 0.25)
        self.assertEqual(distance(2.0, 2.0), 0.0)


class InputsTest(unittest.TestCase):
    def test_seed_fixes_content_and_never_size(self):
        from workloads import Shape, write_inputs
        shape = Shape(num_users=30, num_items=50, min_items=3, max_items=20)
        with tempfile.TemporaryDirectory() as tmp:
            files = {}
            for name, seed in (("a", 1), ("b", 1), ("c", 2)):
                paths = write_inputs(shape, seed, "w", Path(tmp) / name)
                files[name] = [p.read_text() for p in paths]
            self.assertEqual(files["a"], files["b"])
            self.assertNotEqual(files["a"], files["c"])
            for train, test in files.values():
                rows = [line.split()[1:] for line in train.splitlines() + test.splitlines()]
                self.assertEqual(sum(map(len, rows)), shape.activity().sum())


if __name__ == "__main__":
    unittest.main()
