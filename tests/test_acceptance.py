"""Release gate: every property this package promises, checked at its stated
tolerance and runtime budget.

Each test prints a single ``C<n> PASS/FAIL`` summary line (shown with ``-s``,
or in the captured output when a criterion fails). Criterion 10 needs the
full-size public datasets and several CPU-hours, so it only runs when
``RECLOSS_FULL_DATA`` points at a directory holding them.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from recloss import (
    LOSS_KINDS,
    DebiasParams,
    EASEScorer,
    IALSConfig,
    ScoreBundle,
    ease_debiased_fit,
    ease_fit,
    evaluate,
    fit,
    ials_fit,
    infonce,
    infonce_plus,
    load_dataset,
    make_planted_blocks,
    mine,
    mine_plus,
    sampled_softmax,
    verify_bound_chain,
    verify_theorem1,
    verify_theorem2,
)
from recloss.config import PRESETS, resolve_config, train_config
from recloss.losses import debiased_infonce
from recloss.mf import TrainConfig
from recloss.sampling import SamplerConfig
from conftest import (FD_PARAMS, FD_TAU, PopularityScorer, fd_max_rel_err, rank_top_k,
                      smooth_bundle)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{cid}: {detail}"


def c10_arms(root: Path, extra: tuple[str, ...] = ()) -> dict:
    """C10's three fits on the text-layout sets under ``root``, each arm as its
    resolved config and its recall/NDCG@20: MINE+ at the mine+/gowalla preset,
    and Debiased CCL at the debiased-ccl/amazon-books preset against a CCL
    with that preset's settings and no extra positives.  ``extra`` overrides
    are applied to every arm last."""
    books = PRESETS["debiased-ccl/amazon-books"]
    params = books["loss"]["params"]
    # the biased arm is built from the preset's table rather than on top of the
    # preset, since an override cannot drop lambda_n from loss.params
    biased = [f"dataset_name={books['dataset_name']}",
              *(f"{table}.{key}={json.dumps(value)}"
                for table in ("train", "sampler") for key, value in books[table].items()),
              "loss.kind=ccl", f"loss.params.margin={params['margin']}",
              f"loss.params.negative_weight={params['lambda_n']}", "sampler.m_positives=0"]
    arms = {"gowalla": ("mine+/gowalla", "gowalla", []),
            "debiased": ("debiased-ccl/amazon-books", "amazon-books", []),
            "biased": (None, "amazon-books", biased)}
    results = {}
    for name, (preset, subdir, overrides) in arms.items():
        data = [f"data.train={root / subdir / 'train.txt'}",
                f"data.test={root / subdir / 'test.txt'}"]
        cfg = resolve_config(preset=preset, overrides=[*data, *overrides, *extra])
        ds = load_dataset(cfg["data"]["train"], cfg["data"]["test"])
        model, _ = fit(ds, train_config(cfg))
        results[name] = cfg, evaluate(model, ds, k=20)
    return results


def random_binary(rng, users, items, p=0.4):
    X = (rng.random((users, items)) < p).astype(float)
    for u in range(users):
        if X[u].sum() == 0:
            X[u, rng.integers(0, items)] = 1.0
    return X


class TestAcceptance:
    def test_c01_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        worst = 0.0
        for kind in LOSS_KINDS:
            params = FD_PARAMS[kind]
            for _ in range(100):
                b = smooth_bundle(rng, kind, params)
                worst = max(worst, fd_max_rel_err(kind, b, params, FD_TAU))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-5 and elapsed < 10.0
        report("C1", ok,
               f"gradient FD check, 12 kinds x 100 bundles: "
               f"worst rel err {worst:.3e} (tol 1e-5), {elapsed:.1f}s (budget 10s)")

    def test_c02_reduction_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = 0.0

        def gap(a, b, with_extra=False):
            d = max(
                abs(a.value - b.value),
                float(np.max(np.abs(np.atleast_1d(a.d_pos - b.d_pos)))),
                float(np.max(np.abs(a.d_unlabeled - b.d_unlabeled))),
            )
            if with_extra:
                d = max(d, float(np.max(np.abs(a.d_extra_pos))))
            return d

        for _ in range(50):
            n = int(rng.integers(1, 13))
            b = ScoreBundle(
                float(rng.uniform(-3, 3)),
                rng.uniform(-3, 3, size=n),
                rng.uniform(-3, 3, size=3),
            )
            # unit-parameter collapse onto the softmax family
            ip11 = infonce_plus(b, lambda_=1.0, epsilon=1.0)
            worst = max(worst, gap(ip11, infonce(b)), gap(ip11, sampled_softmax(b)))
            # epsilon=0 collapse onto the unlabeled-only family
            ip10 = infonce_plus(b, lambda_=1.0, epsilon=0.0)
            worst = max(worst, gap(ip10, mine(b)), gap(ip10, mine_plus(b, 1.0)))
            # zero positive prior with lambda_n=N turns the debiased estimator
            # back into plain InfoNCE; non-negative scores keep the floor inert
            bp = ScoreBundle(
                float(rng.uniform(0, 3)),
                rng.uniform(0, 3, size=n),
                rng.uniform(0, 3, size=3),
            )
            deb = debiased_infonce(bp, DebiasParams(lambda_n=float(n)), tau_plus=0.0)
            worst = max(worst, gap(deb, infonce(bp), with_extra=True))

        for _ in range(5):
            X = random_binary(rng, 8, 6)
            lam = float(rng.uniform(0.3, 2.0))
            diff = np.max(np.abs(ease_debiased_fit(X, lam, 0.0).W - ease_fit(X, lam).W))
            worst = max(worst, float(diff))

        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12 and elapsed < 1.0
        report("C2", ok,
               f"reduction identities (infonce_plus/mine/mine_plus/debiased/ease): "
               f"worst gap {worst:.2e} (tol 1e-12), {elapsed:.2f}s (budget 1s)")

    def test_c03_bound_chain_slacks(self):
        start = time.perf_counter()
        reports = verify_bound_chain(10_000, seed=20)
        elapsed = time.perf_counter() - start
        worst = min(r.worst for r in reports)
        ok = all(r.passed for r in reports) and worst >= -1e-9 and elapsed < 10.0
        report("C3", ok,
               f"six bound slacks over 1e4 bundles (N 1..64, scores [-10,10]): "
               f"worst {worst:.3e} (tol -1e-9), {elapsed:.1f}s (budget 10s)")

    def test_c04_ials_rescaling_identity(self):
        start = time.perf_counter()
        rep = verify_theorem1(50, seed=20)
        elapsed = time.perf_counter() - start
        ok = rep.passed and rep.worst <= 1e-8 and elapsed < 5.0
        report("C4", ok,
               f"debiased-iALS closed form vs rescaled original, 50 instances: "
               f"worst rel dev {rep.worst:.3e} (tol 1e-8), {elapsed:.1f}s (budget 5s)")

    def test_c05_ease_debias_equivalence(self):
        start = time.perf_counter()
        scale, oracle = verify_theorem2(50, seed=20)
        elapsed = time.perf_counter() - start
        ok = (scale.passed and oracle.passed
              and scale.worst <= 1e-10 and oracle.worst <= 1e-4
              and elapsed < 30.0)
        report("C5", ok,
               f"debiased EASE scale {scale.worst:.2e} (tol 1e-10) / optimizer "
               f"oracle {oracle.worst:.2e} (tol 1e-4), 50 instances, "
               f"{elapsed:.1f}s (budget 30s)")

    def test_c06_ease_equals_lagrangian_columns(self):
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(20):
            X = random_binary(rng, 6, 5)
            lam = float(rng.uniform(0.3, 2.0))
            W = ease_fit(X, lam).W
            # independent route: eliminate one column at a time and solve the
            # zero-self-reconstruction ridge problem directly
            n = X.shape[1]
            ref = np.zeros((n, n))
            for j in range(n):
                keep = [i for i in range(n) if i != j]
                Xm = X[:, keep]
                ref[keep, j] = np.linalg.solve(
                    Xm.T @ Xm + lam * np.eye(n - 1), Xm.T @ X[:, j]
                )
            worst = max(worst, float(np.max(np.abs(W - ref))))
        identity_exact = bool(np.all(ease_fit(np.eye(5), 0.7).W == 0.0))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-8 and identity_exact and elapsed < 2.0
        report("C6", ok,
               f"EASE vs per-column Lagrangian on 20 random 6x5: worst "
               f"{worst:.3e} (tol 1e-8), X=I exact zero: {identity_exact}, "
               f"{elapsed:.2f}s (budget 2s)")

    def test_c07_ials_objective_monotone(self):
        start = time.perf_counter()
        rng = np.random.default_rng(53)
        worst_rise = -np.inf
        for i in range(20):
            X = random_binary(rng, int(rng.integers(5, 11)), int(rng.integers(6, 13)))
            cfg = IALSConfig(d=3, alpha0=0.3, lam=0.5, nu=1.0, c_u=1.5,
                             num_sweeps=10, seed=i)
            for debiased in (False, True):
                trace = ials_fit(X, cfg, debiased=debiased).objective_trace
                assert len(trace) == 11
                worst_rise = max(worst_rise, float(np.max(np.diff(trace))))
        elapsed = time.perf_counter() - start
        ok = worst_rise <= 1e-9 and elapsed < 5.0
        report("C7", ok,
               f"iALS objective non-increasing, 10 sweeps x 20 instances x both "
               f"modes: worst rise {worst_rise:.3e} (tol 1e-9), {elapsed:.1f}s "
               f"(budget 5s)")

    def test_c08_metrics_match_brute_force(self, tiny_ds):
        start = time.perf_counter()
        rng = np.random.default_rng(61)
        from conftest import build_dataset

        class Table:
            def __init__(self, t):
                self.t = np.asarray(t, dtype=float)

            def score_block(self, users):
                return self.t[users]

        worst_ndcg = 0.0
        for _ in range(200):
            n_items = int(rng.integers(4, 15))
            k = int(rng.integers(1, n_items))
            train = rng.choice(n_items, size=int(rng.integers(0, 3)), replace=False)
            pool = np.setdiff1d(np.arange(n_items), train)
            test = rng.choice(pool, size=int(rng.integers(1, min(5, len(pool)) + 1)),
                              replace=False)
            ds = build_dataset([train.tolist()], [test.tolist()], n_items)
            scores = np.round(rng.normal(size=n_items), 1)  # coarse grid: ties

            order = sorted(range(n_items), key=lambda i: (-scores[i], i))
            order = [i for i in order if i not in set(train.tolist())][:k]
            hits = [i in set(test.tolist()) for i in order]
            recall = sum(hits) / len(test)
            dcg = sum(1 / math.log2(r + 2) for r, h in enumerate(hits) if h)
            idcg = sum(1 / math.log2(r + 2) for r in range(min(k, len(test))))

            scorer = Table(scores[None, :])
            rep = evaluate(scorer, ds, k=k)
            # masked train items pad the tail when k exceeds the unmasked
            # catalog; drop them before comparing the ranking itself
            got = [i for i in rank_top_k(scorer, ds, 0, k).tolist()
                   if i not in set(train.tolist())]
            assert got == order
            assert rep.recall == recall
            worst_ndcg = max(worst_ndcg, abs(rep.ndcg - dcg / idcg))

        # monotone transforms must leave both metrics bit-identical
        invariant = True
        for _ in range(10):
            ds = build_dataset([[0, 1], [2], [3]], [[4], [0, 5], [1, 2]], 7)
            raw = rng.normal(size=(3, 7))
            base = evaluate(Table(raw), ds, k=3)
            for f in (lambda s: 3 * s + 7, np.tanh, lambda s: np.exp(s / 2)):
                rep = evaluate(Table(f(raw)), ds, k=3)
                invariant &= rep.recall == base.recall and rep.ndcg == base.ndcg

        elapsed = time.perf_counter() - start
        # ndcg agrees with the Python-float reference up to summation order
        ok = worst_ndcg <= 1e-15 and invariant and elapsed < 2.0
        report("C8", ok,
               f"recall/ranking exact on 200 instances, ndcg within "
               f"{worst_ndcg:.1e} of reference, transform-invariant: {invariant}, "
               f"{elapsed:.2f}s (budget 2s)")

    def test_c09_planted_block_learnability(self):
        planted = make_planted_blocks(num_users=200, num_items=300, num_blocks=5,
                                      noise_p=0.05, seed=123)
        ds = planted.dataset
        pop_recall = evaluate(PopularityScorer(ds), ds, k=20).recall

        cases = {
            "bpr": dict(loss="bpr", n_negatives=10),
            "infonce": dict(loss="infonce", n_negatives=40),
            "mine_plus": dict(loss="mine_plus", loss_params={"lambda": 1.1},
                              temperature=0.2, n_negatives=40),
            "ccl": dict(loss="ccl",
                        loss_params={"margin": 0.8, "negative_weight": 2.0},
                        n_negatives=20),
            "debiased_ccl": dict(loss="debiased_ccl",
                                 loss_params={"margin": 0.8, "lambda_n": 1.0},
                                 n_negatives=20, m_positives=3),
        }
        results, ok = {}, True
        for name, kw in cases.items():
            sampler = SamplerConfig(kind="uniform_excluding_user_positives",
                                    n_negatives=kw.pop("n_negatives"),
                                    m_positives=kw.pop("m_positives", 0))
            cfg = TrainConfig(sampler=sampler, embedding_dim=16, batch_size=256,
                              initial_lr=0.05, max_epochs=30, seed=0, **kw)
            start = time.perf_counter()
            model, _ = fit(ds, cfg)
            elapsed = time.perf_counter() - start
            recall = evaluate(model, ds, k=20).recall
            results[name] = recall
            ok &= recall >= 0.60 and recall >= 1.5 * pop_recall and elapsed < 180.0
        summary = " ".join(f"{n}={r:.3f}" for n, r in results.items())
        report("C9", ok,
               f"planted blocks (200x300, 5 blocks, 5% noise): recall@20 {summary} "
               f"(min 0.60; popularity {pop_recall:.3f}, need >=1.5x)")

    @pytest.mark.skipif(
        "RECLOSS_FULL_DATA" not in os.environ,
        reason="multi-hour full-dataset run; set RECLOSS_FULL_DATA to the "
               "directory holding gowalla/ and amazon-books/ to enable",
    )
    def test_c10_full_dataset_targets(self):
        arms = c10_arms(Path(os.environ["RECLOSS_FULL_DATA"]))
        gowalla, debiased, biased = (arms[name][1] for name in ("gowalla", "debiased", "biased"))
        ok_gowalla = (abs(gowalla.recall * 100 - 18.53) <= 0.5
                      and abs(gowalla.ndcg * 100 - 15.70) <= 0.5)

        ok_books = debiased.recall > biased.recall and debiased.ndcg > biased.ndcg
        report("C10", ok_gowalla and ok_books,
               f"gowalla recall {gowalla.recall * 100:.2f} (target 18.53±0.5) "
               f"ndcg {gowalla.ndcg * 100:.2f} (target 15.70±0.5); amazon-books "
               f"debiased>biased: {ok_books}")

    def test_c10_arms_run_as_the_tables_say(self, tmp_path):
        # C10's code path in seconds: one epoch per arm on two small planted
        # sets in the text layout; the targets need the full datasets
        for subdir, seed in (("gowalla", 1), ("amazon-books", 2)):
            ds = make_planted_blocks(num_users=100, num_items=150, num_blocks=5, seed=seed).dataset
            (tmp_path / subdir).mkdir()
            for name, rows in (("train", ds.train_positives), ("test", ds.test_positives)):
                lines = [" ".join(map(str, [u, *rows[u]])) for u in range(ds.num_users)]
                (tmp_path / subdir / f"{name}.txt").write_text("\n".join(lines) + "\n")
        arms = c10_arms(tmp_path, ("train.max_epochs=1",))

        for cfg, rep in arms.values():
            assert rep.users_evaluated > 0 and 0 < rep.recall <= 1 and 0 < rep.ndcg <= 1
        for name, preset in (("gowalla", "mine+/gowalla"),
                             ("debiased", "debiased-ccl/amazon-books")):
            cfg = arms[name][0]
            for table, values in PRESETS[preset].items():
                if table == "loss":
                    assert cfg["loss"] == values
                elif isinstance(values, dict):
                    assert {key: cfg[table][key] for key in values} == values
                else:
                    assert cfg[table] == values
        # the biased arm is a CCL with the debiased arm's margin and negative
        # weight, no extra positives, and every other setting the same
        debiased, biased = arms["debiased"][0], arms["biased"][0]
        params = debiased["loss"]["params"]
        assert biased["loss"] == {"kind": "ccl", "params": {
            "margin": params["margin"], "negative_weight": params["lambda_n"]}}
        assert biased["sampler"]["m_positives"] == 0 < debiased["sampler"]["m_positives"]

        def rest(cfg):
            return {**cfg, "loss": None, "sampler": {**cfg["sampler"], "m_positives": None}}

        assert rest(biased) == rest(debiased)
