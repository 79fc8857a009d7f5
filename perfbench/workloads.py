"""The benchmark's three workloads: inputs, set-up, timed rounds and checks.

Each workload writes its own inputs from ``--seed`` as ``train.txt`` and
``test.txt`` and hands the program nothing else: recloss reads them through
``data.load_dataset``.  The sizes of the inputs do not depend on the seed
(every user's interaction count comes from one fixed power-law profile,
shuffled over users), so every seed asks for the same amount of work; the
seed chooses which users and items those interactions fall on.

A round is a fixed list of operations.  ``fit`` operations build models
(epochs, closed-form solves); ``rank`` operations score users with
``metrics.evaluate``.  Checks run after the timed rounds and are not timed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from recloss import config, data, linear, losses, metrics, mf, sampling

import oracles

EMBEDDING_DIM = config.DEFAULTS["train"]["embedding_dim"]
BATCH_SIZE = config.DEFAULTS["train"]["batch_size"]
EVAL_K = config.DEFAULTS["eval"]["k"]
VAL_FRACTION = config.DEFAULTS["train"]["val_fraction"]
TEST_FRACTION = 0.2
# one BPR epoch at the default 1e-4 leaves the ranking near random, which
# would let the ranking check pass on all-zero metrics
LEARNING_RATE = 0.05


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's generated inputs.

    User activity follows Pareto quantiles min_items * q^(-1/user_exponent),
    capped at max_items; item popularity is Zipf with item_exponent.
    """

    num_users: int
    num_items: int
    min_items: int
    max_items: int
    user_exponent: float = 1.5
    item_exponent: float = 0.9

    def activity(self) -> np.ndarray:
        q = (np.arange(self.num_users) + 0.5) / self.num_users
        n = np.floor(self.min_items * q ** (-1.0 / self.user_exponent))
        return np.minimum(n, self.max_items).astype(np.int64)


def write_inputs(shape: Shape, seed: int, stream: str, out_dir: Path) -> tuple[Path, Path]:
    """Draw a skewed interaction set and write it in the text format.

    Each user draws its items without replacement, proportionally to
    popularity (Gumbel top-k); a fixed share of each user's items becomes
    its test list.
    """
    rng = np.random.default_rng([seed, zlib.crc32(stream.encode())])
    lengths = rng.permutation(shape.activity())
    logits = -shape.item_exponent * np.log(np.arange(1, shape.num_items + 1))
    logits = logits[rng.permutation(shape.num_items)]
    # the most popular item takes the last index, so that load_dataset,
    # which sizes the catalog by the largest index it reads, sees every item
    top = int(np.argmax(logits))
    logits[[top, -1]] = logits[[-1, top]]
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path, test_path = out_dir / "train.txt", out_dir / "test.txt"
    with open(train_path, "w") as train_f, open(test_path, "w") as test_f:
        for u, n in enumerate(lengths):
            keys = logits + rng.gumbel(size=shape.num_items)
            items = np.argpartition(-keys, n)[:n]
            n_test = max(1, round(TEST_FRACTION * n))
            is_test = np.zeros(n, dtype=bool)
            is_test[rng.choice(n, n_test, replace=False)] = True
            train_f.write(" ".join(map(str, [u, *np.sort(items[~is_test]).tolist()])) + "\n")
            test_f.write(" ".join(map(str, [u, *np.sort(items[is_test]).tolist()])) + "\n")
    return train_path, test_path


class Ops:
    """Times each operation of one round on its own, in order, as
    ``(kind, seconds)``; an operation that raises is counted as failed and
    the round goes on."""

    def __init__(self, clock, log):
        self.clock = clock
        self.log = log
        self.times: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0

    def run(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            self.log(f"operation {getattr(fn, '__name__', fn)} failed: {exc!r}")
            return None
        finally:
            self.times.append((kind, self.clock() - start))


def _train_config(preset: str, n_negatives: int) -> mf.TrainConfig:
    cfg = config.resolve_config(preset=preset, overrides=[f"sampler.n_negatives={n_negatives}"])
    t, s = cfg["train"], cfg["sampler"]
    return mf.TrainConfig(
        embedding_dim=t["embedding_dim"],
        loss=cfg["loss"]["kind"],
        loss_params=dict(cfg["loss"]["params"]),
        sampler=sampling.SamplerConfig(
            kind=s["kind"], n_negatives=s["n_negatives"],
            m_positives=s["m_positives"], share_batch=s["share_batch"],
        ),
        batch_size=t["batch_size"],
        initial_lr=t["initial_lr"],
        l2_weight=t["l2_weight"],
        mode=t["mode"],
        temperature=t["temperature"],
        init_std=t["init_std"],
    )


def _fresh_model(ds, cfg: mf.TrainConfig, seed: int):
    model = mf.init_model(ds.num_users, ds.num_items, cfg.embedding_dim, seed=seed,
                          init_std=cfg.init_std, mode=cfg.mode, temperature=cfg.temperature)
    return model, mf.OptimizerState.for_model(model)


def _objective_probe(ds, cfg: mf.TrainConfig, seed: int):
    """One batch_objective call on a fresh training batch, ready to run."""
    model, _ = _fresh_model(ds, cfg, seed)
    pairs = ds.train_pairs()[:cfg.batch_size]
    negs = sampling.BatchSampler(ds, cfg.sampler, np.random.default_rng(seed)).negatives(pairs[:, 0])
    return lambda: mf.batch_objective(model, pairs[:, 0], pairs[:, 1], negs, None,
                                      cfg.loss, cfg.loss_params, None, cfg.l2_weight)


def _check(results: list, name: str, ok: bool, detail: str) -> None:
    results.append({"check": name, "ok": bool(ok), "detail": detail})


def _fd_gradient_check(model, call, rng, h=1e-6, per_side=4):
    """Worst |analytic - central difference| / (1e-7 + 1e-4 |analytic|)
    over sampled coordinates of the touched user and item rows."""
    g = call(model)
    worst = 0.0
    for matrix, touched, grads in (
        (model.user_embeddings, g.user_rows, g.user_grads),
        (model.item_embeddings, g.item_rows, g.item_grads),
    ):
        picks = rng.choice(len(touched), size=min(per_side, len(touched)), replace=False)
        for p in picks:
            j = int(rng.integers(matrix.shape[1]))
            r = touched[p]
            keep = matrix[r, j]
            matrix[r, j] = keep + h
            up = call(model).value
            matrix[r, j] = keep - h
            down = call(model).value
            matrix[r, j] = keep
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grads[p, j]) / (1e-7 + 1e-4 * abs(grads[p, j])))
    return worst


class TrainContrastive:
    """One MINE+ epoch and one Debiased CCL epoch, cosine scores, N=200."""

    name = "train-contrastive"
    shape = Shape(num_users=300, num_items=1000, min_items=3, max_items=200)
    n_negatives = 200
    required = ("data.load_dataset", "data.validate", "data.make_validation_split",
                "mf.train_epoch", "data.train_pairs", "mf.batch_objective",
                "losses.evaluate_loss", "mf.adam_step", "sampling.negatives",
                "sampling.extra_positives")

    def __init__(self):
        self.mine = _train_config("mine+/gowalla", self.n_negatives)
        self.dccl = _train_config("debiased-ccl/gowalla", self.n_negatives)
        p = self.dccl.loss_params
        self.prior = losses.DebiasParams(
            tau_mode=p.get("tau_mode", "topk"), k=p.get("k", 20), alpha=p.get("alpha", 0.0),
            lambda_n=p.get("lambda_n", 1.0), temperature=self.dccl.temperature,
        )

    def setup(self, paths, seed):
        ds = data.load_dataset(*paths)
        train_ds, _ = data.make_validation_split(ds, VAL_FRACTION, seed)
        return {"ds": train_ds, "tau": losses.positive_prior_all(train_ds, self.prior)}

    def round(self, state, ops: Ops, seed: int, r: int):
        ds = state["ds"]
        for cfg, tau in ((self.mine, None), (self.dccl, state["tau"])):
            model, opt = _fresh_model(ds, cfg, seed + r)
            ops.run("fit", mf.train_epoch, model, opt, ds, cfg,
                    np.random.default_rng([seed, r, 1]), tau_all=tau)
            state[cfg.loss] = model

    def alloc_probe(self, state, seed):
        return _objective_probe(state["ds"], self.mine, seed)

    def check(self, state, seed):
        ds = state["ds"]
        rng = np.random.default_rng([seed, 7])
        pairs = ds.train_pairs()
        batch = pairs[rng.choice(len(pairs), 64, replace=False)]
        users, pos = batch[:, 0], batch[:, 1]
        negs = rng.integers(0, ds.num_items, size=(len(users), self.n_negatives))
        m = self.dccl.sampler.m_positives
        extras = np.stack([rng.choice(ds.train_positives[u], m) for u in users])
        lengths = np.array([len(ds.train_positives[u]) for u in users])
        tau = oracles.topk_prior(lengths, self.prior.k, ds.num_items)
        out = []
        for cfg in (self.mine, self.dccl):
            model = state.get(cfg.loss)
            if model is None:
                _check(out, f"{cfg.loss}: trained model", False, "the epoch failed")
                continue
            U, V = model.user_embeddings, model.item_embeddings
            p = cfg.loss_params
            if cfg.loss == "mine_plus":
                ext, tau_arg = None, None
                expected = oracles.mine_plus_objective(
                    U, V, users, pos, negs, p["lambda"], cfg.temperature, cfg.l2_weight)
            else:
                ext, tau_arg = extras, state["tau"][users]
                expected = oracles.debiased_ccl_objective(
                    U, V, users, pos, negs, extras, tau, p["lambda_n"], p["margin"],
                    cfg.temperature, cfg.l2_weight)

            def call(mdl, cfg=cfg, ext=ext, tau_arg=tau_arg):
                return mf.batch_objective(mdl, users, pos, negs, ext, cfg.loss,
                                          cfg.loss_params, tau_arg, cfg.l2_weight)

            got = call(model).value
            dev = abs(got - expected) / max(abs(expected), 1e-12)
            _check(out, f"{cfg.loss}: batch objective vs NumPy recomputation", dev < 1e-10,
                   f"relative deviation {dev:.2e}")
            worst = _fd_gradient_check(model.copy(), call, rng)
            _check(out, f"{cfg.loss}: gradients vs central differences", worst < 1.0,
                   f"worst error / tolerance {worst:.2e}")
        return out


class BprWide:
    """Dot-scored BPR epochs with the excluding sampler on a 40,981-item
    catalog, then full-catalog evaluation of the trained model."""

    name = "bpr-wide"
    shape = Shape(num_users=96, num_items=40_981, min_items=12, max_items=1000)
    n_negatives = 10
    # epochs per round: four short epochs on few users, rather than one long
    # epoch on many, give a run more rounds for its means to cover
    epochs = 4
    required = ("data.load_dataset", "data.validate", "data.make_validation_split",
                "mf.train_epoch", "data.train_pairs", "mf.batch_objective",
                "losses.evaluate_loss", "mf.adam_step", "sampling.negatives",
                "metrics.evaluate", "mf.score_block")

    def __init__(self):
        self.cfg = mf.TrainConfig(
            embedding_dim=EMBEDDING_DIM, loss="bpr", batch_size=BATCH_SIZE, initial_lr=LEARNING_RATE,
            sampler=sampling.SamplerConfig(kind="uniform_excluding_user_positives",
                                           n_negatives=self.n_negatives),
        )

    def setup(self, paths, seed):
        ds = data.load_dataset(*paths)
        train_ds, _ = data.make_validation_split(ds, VAL_FRACTION, seed)
        return {"ds": train_ds}

    def round(self, state, ops: Ops, seed: int, r: int):
        ds = state["ds"]
        model, opt = _fresh_model(ds, self.cfg, seed + r)
        rng = np.random.default_rng([seed, r, 1])
        for _ in range(self.epochs):
            ops.run("fit", mf.train_epoch, model, opt, ds, self.cfg, rng)
        state["model"] = model
        state["report"] = ops.run("rank", metrics.evaluate, model, ds, k=EVAL_K)

    def alloc_probe(self, state, seed):
        return _objective_probe(state["ds"], self.cfg, seed)

    def check(self, state, seed):
        ds = state["ds"]
        rng = np.random.default_rng([seed, 7])
        out = []
        users = rng.choice(ds.num_users, 2048)
        draws = sampling.BatchSampler(ds, self.cfg.sampler, rng).negatives(users)
        own = sum(int(np.isin(row, ds.train_positives[u]).sum()) for u, row in zip(users, draws))
        _check(out, "excluding sampler: draws outside the row user's train positives",
               own == 0 and draws.shape == (len(users), self.n_negatives),
               f"{own} of {draws.size} draws are the row user's own positives")
        model = state.get("model")
        if model is None or state.get("report") is None:
            _check(out, "trained and ranked model", False, "an operation failed")
            return out
        sample = np.sort(rng.choice(ds.num_users, 64, replace=False))
        _check_ranking(out, "metrics.evaluate vs brute-force ranking", ds, sample,
                       model.user_embeddings[sample] @ model.item_embeddings.T, model)
        _check(out, "evaluate ranked every user with a test list",
               state["report"].users_evaluated == ds.num_users,
               f"{state['report'].users_evaluated} of {ds.num_users} users")
        return out


def _check_ranking(out, name, ds, sample, scores, scorer):
    """Compare metrics.evaluate on ``sample`` with the brute-force oracle."""
    chosen = set(sample.tolist())
    tests = [ds.test_positives[u] if u in chosen else np.empty(0, dtype=np.int64)
             for u in range(ds.num_users)]
    got = metrics.evaluate(scorer, ds, tests, k=EVAL_K)
    want = oracles.ranking_metrics(scores, [ds.train_positives[u] for u in sample],
                                   [ds.test_positives[u] for u in sample], EVAL_K)
    dev = max(abs(got.recall - want[0]), abs(got.ndcg - want[1]))
    _check(out, name, dev < 1e-12 and got.users_evaluated == len(sample),
           f"recall {got.recall:.6f} vs {want[0]:.6f}, ndcg {got.ndcg:.6f} vs {want[1]:.6f}")


class SolveEval:
    """iALS (plain and debiased) and EASE (plain and debiased) on a narrow
    catalog, each model ranked with metrics.evaluate."""

    name = "solve-eval"
    shape = Shape(num_users=1000, num_items=2000, min_items=8, max_items=400)
    required = ("data.load_dataset", "data.validate", "data.train_matrix",
                "linear.ials_fit", "linear.ials_objective", "linear.ease_fit",
                "metrics.evaluate", "linear.score_block")
    sweeps = 2
    c_u = 1.2
    ease_alpha = 0.2

    def __init__(self):
        lin = config.DEFAULTS["linear"]
        self.ials = linear.IALSConfig(d=lin["d"], alpha0=lin["alpha0"], lam=1e-3,
                                      nu=lin["nu"], c_u=self.c_u, num_sweeps=self.sweeps)
        self.ease_lam = lin["lambda"]

    def setup(self, paths, seed):
        ds = data.load_dataset(*paths)
        return {"ds": ds, "X": ds.train_matrix()}

    def round(self, state, ops: Ops, seed: int, r: int):
        ds, X = state["ds"], state["X"]
        state["ials"] = ops.run("fit", linear.ials_fit, ds, self.ials)
        state["ials_debiased"] = ops.run("fit", linear.ials_fit, ds, self.ials, debiased=True)
        state["ease"] = ops.run("fit", linear.ease_fit, X, self.ease_lam)
        state["ease_debiased"] = ops.run("fit", linear.ease_debiased_fit, X, self.ease_lam, self.ease_alpha)
        for key in ("ials", "ials_debiased"):
            ops.run("rank", metrics.evaluate, state[key], ds, k=EVAL_K)
        for key in ("ease", "ease_debiased"):
            sol = state[key]
            ops.run("rank", lambda: metrics.evaluate(linear.EASEScorer(ds, sol.W), ds, k=EVAL_K))

    def check(self, state, seed):
        ds, X = state["ds"], state["X"]
        out = []
        if any(state.get(k) is None for k in ("ials", "ials_debiased", "ease", "ease_debiased")):
            _check(out, "every model fitted", False, "a solve failed")
            return out
        cfg = self.ials
        for key, debiased in (("ials", False), ("ials_debiased", True)):
            s = state[key]
            trace = np.asarray(s.objective_trace)
            rise = float(np.max(np.diff(trace)) / abs(trace[0]))
            _check(out, f"{key}: objective trace does not increase", rise <= 1e-12,
                   f"largest relative rise {rise:.2e} over {len(trace) - 1} sweeps")
            dense = oracles.ials_objective_dense(X, s.W, s.H, cfg.alpha0, cfg.lam, cfg.nu,
                                                 cfg.c_u, debiased)
            dev = abs(dense - trace[-1]) / abs(dense)
            _check(out, f"{key}: dense objective equals trace[-1]", dev < 1e-9,
                   f"relative deviation {dev:.2e}")
        W = state["ease"].W
        _check(out, "ease: zero diagonal", not np.any(np.diag(W)), "diag(W) == 0")
        res = oracles.ease_offdiag_residual(X, W, self.ease_lam)
        _check(out, "ease: off-diagonal stationarity of (X'X + lam I) W - X'X", res < 1e-9,
               f"largest residual / max|X'X| {res:.2e}")
        a = self.ease_alpha
        rescaled = linear.ease_fit(X, self.ease_lam / (1 - a)).W / (1 - a)
        dev = oracles.rel_deviation(state["ease_debiased"].W, rescaled)
        _check(out, "ease_debiased equals ease_fit(lam/(1-alpha))/(1-alpha) (Theorem 2)",
               dev < 1e-9, f"relative deviation {dev:.2e}")
        sample = np.sort(np.random.default_rng([seed, 7]).choice(ds.num_users, 64, replace=False))
        _check_ranking(out, "metrics.evaluate of EASE vs brute-force ranking", ds, sample,
                       X[sample] @ W, linear.EASEScorer(ds, W))
        return out


WORKLOADS = {w.name: w for w in (TrainContrastive, BprWide, SolveEval)}
