"""The package's export surface: each module names its public objects once,
in its own ``__all__``, and the package exports their union."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import recloss

EXPORTED = {
    "BOUND_NAMES", "BatchSampler", "CSRRows", "CheckpointFormatError",
    "DEBIASED_KINDS", "DatasetFormatError", "DatasetStats", "DebiasParams", "EASEScorer",
    "IALSConfig", "IALSState", "InteractionDataset",
    "LOSS_KINDS", "LossEvaluation", "MetricsReport", "OptimizerState", "PlateauSchedule",
    "PopularitySampler", "PropertyReport", "SAMPLER_KINDS", "SamplerConfig",
    "ScoreBundle", "ScoringModel", "TrainConfig", "TrainingDivergedError", "TrainingHistory",
    "__version__", "adam_step", "batch_objective", "bound_chain_slacks", "bpr", "ccl",
    "check_theorem1", "check_theorem2", "dataset_stats", "dcl", "debiased_ccl",
    "debiased_infonce", "debiased_mse", "ease_debiased_fit", "ease_fit", "evaluate",
    "evaluate_loss", "fit", "ials_fit", "ials_objective", "infonce", "infonce_plus", "init_model",
    "load_checkpoint", "load_dataset", "make_planted_blocks", "make_random_dataset",
    "make_validation_split", "mine", "mine_plus", "mse_pointwise", "positive_prior_all",
    "run_verification", "sampled_softmax", "save_checkpoint",
    "substream", "train_epoch", "verify_bound_chain", "verify_theorem1", "verify_theorem2",
    "write_report",
}
MODULES = ("checkpoint", "data", "linear", "losses", "metrics", "mf", "sampling", "synthetic",
           "verify")


def top_level_names(path: Path) -> set[str]:
    """The names a module's source binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_exports_each_name_once():
    assert len(recloss.__all__) == len(set(recloss.__all__))
    assert set(recloss.__all__) == EXPORTED


def test_every_export_resolves():
    assert [name for name in recloss.__all__ if not hasattr(recloss, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_what_it_defines(name):
    module = importlib.import_module(f"recloss.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) <= top_level_names(Path(module.__file__))
    for export in module.__all__:
        assert getattr(recloss, export) is getattr(module, export)


# SciPy modules that load at their one call site, not when the package is imported
DEFERRED = ("scipy.optimize", "scipy.linalg", "scipy.sparse")

PRELUDE = textwrap.dedent("""
    import sys

    import numpy as np

    import recloss
    import recloss.cli


    def scipy_loaded():
        # scipy and each of its loaded subpackages, named to two levels
        return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                       if m.split(".")[0] == "scipy"})


    rng = np.random.default_rng(5)
""")

# the dense NumPy path, from import to a trained and ranked model, and the
# stats command; argv[1] is a data directory holding train.txt and test.txt
NUMPY_PATHS = PRELUDE + textwrap.dedent("""
    from recloss import config

    data_dir = sys.argv[1]
    assert scipy_loaded() == [], ("import recloss, recloss.cli", scipy_loaded())
    # only a sweep over more than one worker starts a process pool
    assert "multiprocessing" not in sys.modules
    assert config.resolve_config()["loss"]["kind"] == "bpr"
    assert scipy_loaded() == [], ("config.resolve_config()", scipy_loaded())
    ds = recloss.load_dataset(f"{data_dir}/train.txt", f"{data_dir}/test.txt")
    assert scipy_loaded() == [], ("load_dataset", scipy_loaded())
    # K = 9 columns on 30 items: every batch takes the dense block
    model = recloss.init_model(ds.num_users, ds.num_items, 4, mode="cosine", temperature=0.4)
    cfg = recloss.TrainConfig(embedding_dim=4, loss="mine_plus", loss_params={"lambda": 1.1},
                              sampler=recloss.SamplerConfig(n_negatives=8), batch_size=16,
                              mode="cosine", temperature=0.4, initial_lr=0.01)
    objective = recloss.train_epoch(model, recloss.OptimizerState.for_model(model), ds, cfg, rng)
    assert np.isfinite(objective)
    assert scipy_loaded() == [], ("train_epoch", scipy_loaded())
    report = recloss.evaluate(model, ds, k=5)
    assert report.users_evaluated > 0
    assert scipy_loaded() == [], ("evaluate", scipy_loaded())
    assert recloss.cli.main(["stats", "--data-dir", data_dir]) == 0
    assert scipy_loaded() == [], ("recloss stats", scipy_loaded())
""")

# each call site, run in a fresh process: the code that calls it, and the
# modules it must load; a site that names none must load no scipy module
CALL_SITES = {
    "sparse batch_objective": ("""
        # 8 users x 24 items touched, twice the 4 B K = 96 the dense block allows
        model = recloss.ScoringModel(rng.normal(size=(8, 4)), rng.normal(size=(5000, 4)))
        users = np.arange(8)
        grads = recloss.batch_objective(model, users, users, np.arange(8, 24).reshape(8, 2),
                                        None, "infonce")
        assert np.isfinite(grads.value) and grads.item_grads.shape == (24, 4)
    """, ("scipy.sparse",)),
    "train_csr": ("""
        ds = recloss.make_random_dataset(6, 8, density=0.4)
        X = ds.train_csr()
        assert X.shape == (6, 8) and X.nnz == len(ds.train_positives.indices)
    """, ("scipy.sparse",)),
    "ials_fit": ("""
        ds = recloss.make_random_dataset(6, 8, density=0.4)
        state = recloss.ials_fit(ds, recloss.IALSConfig(d=2, alpha0=0.1, lam=0.1, num_sweeps=2))
        assert np.isfinite(state.W).all() and np.isfinite(state.H).all()
    """, ()),
    "ials_objective": ("""
        ds = recloss.make_random_dataset(6, 8, density=0.4)
        cfg = recloss.IALSConfig(d=2, alpha0=0.1, lam=0.1)
        for debiased in (False, True):
            value = recloss.ials_objective(rng.normal(size=(6, 2)), rng.normal(size=(8, 2)), ds,
                                           cfg, debiased)
            assert np.isfinite(value)
    """, ()),
    "stats on synthetic data": ("""
        assert recloss.cli.main(["stats", "--set", "data.synthetic.kind=random",
                                 "--set", "data.synthetic.num_users=40",
                                 "--set", "data.synthetic.num_items=60",
                                 "--set", "data.synthetic.density=0.1"]) == 0
    """, ()),
    "iALS solve": ("""
        import tempfile
        with tempfile.TemporaryDirectory() as out:
            for model in ("ials", "ials-debiased"):
                rc = recloss.cli.main(["solve", "--model", model, "--lambda", "0.1", "--d", "4",
                                       "--sweeps", "2", "--set", "data.synthetic.kind=random",
                                       "--set", "data.synthetic.num_users=40",
                                       "--set", "data.synthetic.num_items=60",
                                       "--set", "data.synthetic.density=0.1",
                                       "--output", f"{out}/{model}"])
                assert rc == 0
    """, ()),
    "refused EASE solve": ("""
        # EASE's lambda and alpha are refused, by name, before any data is read
        import contextlib
        import io
        for flag, value in (("--alpha", "1.5"), ("--lambda", "0")):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = recloss.cli.main(["solve", "--model", "ease-debiased", flag, value,
                                       "--data-dir", "absent", "--output", "out"])
            assert rc == 1 and err.getvalue().startswith("error: linear." + flag[2:]), err.getvalue()
    """, ()),
    "ease_fit": ("""
        X = (rng.random((6, 8)) < 0.4).astype(float)
        W = recloss.ease_fit(X, 0.5).W
        assert W.shape == (8, 8) and not np.diag(W).any()
    """, ("scipy.sparse", "scipy.linalg")),
    "bpr": ("""
        b = recloss.ScoreBundle(np.array([0.5, -1.0]), np.array([[0.2, 1.5], [-2.0, 0.0]]))
        ev = recloss.evaluate_loss("bpr", b)
        gaps = b.unlabeled_scores - b.pos_score[:, None]
        assert np.allclose(ev.value, np.log1p(np.exp(gaps)).sum(axis=1), rtol=1e-14, atol=0)
        assert np.allclose(ev.d_unlabeled, 1 / (1 + np.exp(-gaps)), rtol=1e-14, atol=0)
    """, ()),
    "check_theorem2": ("""
        X = (rng.random((6, 8)) < 0.4).astype(float)
        scale_dev, oracle_dev = recloss.check_theorem2(X, lam=0.5, alpha=0.4)
        assert scale_dev < 1e-10 and oracle_dev < 1e-4, (scale_dev, oracle_dev)
    """, ("scipy.optimize", "scipy.sparse", "scipy.linalg")),
}


def run_python(code: str, *args: str) -> None:
    """Run code in a fresh interpreter that imports recloss from where this one
    did: the checkout, or an installed copy when the tests run against one."""
    src = str(Path(recloss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_dense_path_and_stats_load_no_scipy(tmp_path):
    # 40 users, each with 8 train and 2 test items out of 30
    items = np.argsort(np.random.default_rng(3).random((40, 30)), axis=1)[:, :10]
    for name, cols in (("train", slice(0, 8)), ("test", slice(8, 10))):
        lines = [" ".join(map(str, [u, *np.sort(row[cols])])) for u, row in enumerate(items)]
        (tmp_path / f"{name}.txt").write_text("\n".join(lines) + "\n")
    run_python(NUMPY_PATHS, str(tmp_path))


@pytest.mark.parametrize("site", CALL_SITES)
def test_each_call_site_loads_what_it_calls(site):
    code, loads = CALL_SITES[site]
    assert set(loads) <= set(DEFERRED)
    loaded = (f"set({loads!r}) <= set(scipy_loaded())" if loads else "scipy_loaded() == []")
    run_python(PRELUDE + "assert scipy_loaded() == [], scipy_loaded()\n" + textwrap.dedent(code)
               + f"assert {loaded}, scipy_loaded()\n")


def test_readme_example_runs():
    # the README's one python block imports from the package's export list
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    run_python(blocks[0])
