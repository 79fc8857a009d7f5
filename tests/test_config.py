"""Config resolution: precedence, strict keys, presets, the thread count."""

import json
import re

import pytest

from recloss.cli import _flag_overrides, build_parser
from recloss.config import (
    DEFAULTS,
    PRESETS,
    ConfigError,
    apply_override,
    deep_merge,
    resolve_config,
    solve_config,
    train_config,
    validate_config,
    write_resolved,
)
from recloss.linear import IALSConfig
from recloss.mf import TrainConfig
from recloss.sampling import SamplerConfig

# The default document as written out before the tables were derived from
# the dataclasses that read them; derivation must not change a byte of it.
DEFAULT_DOCUMENT = {
    "seed": 0,
    "threads": 1,
    "dataset_name": "dataset",
    "data": {"train": None, "test": None, "synthetic": None},
    "loss": {"kind": "bpr", "params": {}},
    "sampler": {"kind": "uniform_all_items", "n_negatives": 1, "m_positives": 0,
                "share_batch": False},
    "train": {
        "embedding_dim": 64, "batch_size": 512, "initial_lr": 1e-4, "plateau_factor": 0.5,
        "plateau_patience": 3, "plateau_threshold": 1e-4, "min_lr": 1e-6, "l2_weight": 0.0,
        "max_epochs": 100, "mode": None, "temperature": 1.0, "init_std": 0.01,
        "val_fraction": 0.1,
    },
    "linear": {"model": "ease", "d": 64, "alpha0": 0.1, "lambda": 100.0, "nu": 1.0,
               "c_u": 1.0, "alpha": 0.0, "sweeps": 10, "item_budget": 15_000},
    "eval": {"k": 20},
    "verify": {"bound_instances": 10_000, "theorem_instances": 50},
    "sweep": {"axis": None, "values": None, "log_range": None},
}


def as_written(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


class TestDefaults:
    def test_defaults_validate(self):
        validate_config(DEFAULTS)

    def test_resolve_no_inputs(self):
        cfg = resolve_config()
        assert cfg["loss"]["kind"] == "bpr"
        assert cfg["train"]["embedding_dim"] == 64
        assert cfg["eval"]["k"] == 20

    def test_resolve_copies(self):
        cfg = resolve_config()
        cfg["train"]["embedding_dim"] = 1
        assert DEFAULTS["train"]["embedding_dim"] == 64


class TestDerivedDefaults:
    def test_default_document_unchanged(self):
        assert as_written(resolve_config()) == as_written(DEFAULT_DOCUMENT)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_documents_unchanged(self, name):
        expected = deep_merge(DEFAULT_DOCUMENT, PRESETS[name])
        assert as_written(resolve_config(preset=name)) == as_written(expected)

    def test_benchmark_keys_keep_their_values(self):
        assert DEFAULTS["train"]["embedding_dim"] == 64
        assert DEFAULTS["train"]["batch_size"] == 512
        assert DEFAULTS["train"]["val_fraction"] == 0.1
        assert DEFAULTS["eval"]["k"] == 20
        lin = DEFAULTS["linear"]
        assert (lin["d"], lin["alpha0"], lin["nu"], lin["lambda"]) == (64, 0.1, 1.0, 100.0)

    def test_cli_configs_equal_library_defaults(self):
        cfg = train_config(resolve_config())
        assert cfg == TrainConfig()
        assert cfg.sampler == SamplerConfig()


class TestRunBuilders:
    """train_config and solve_config turn a resolved document into run objects."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_train_config_builds_for_every_preset(self, name):
        doc = resolve_config(preset=name)
        cfg = train_config(doc)
        assert (cfg.loss, cfg.loss_params) == (doc["loss"]["kind"], doc["loss"]["params"])
        assert cfg.sampler == SamplerConfig(**doc["sampler"])
        assert (cfg.seed, cfg.eval_k) == (doc["seed"], doc["eval"]["k"])
        assert all(getattr(cfg, key) == value for key, value in doc["train"].items())

    @pytest.mark.parametrize("kind", ["bpr", "softmax", "infonce", "infonce_plus", "dcl",
                                      "mine", "mine_plus", "ccl", "mse"])
    def test_library_default_sampler_is_the_clis(self, kind):
        # a kind that reads no extra positives trains on the same sampler however it is built
        cli = train_config(resolve_config(overrides=[f"loss.kind={kind}"]))
        assert TrainConfig(loss=kind).sampler == cli.sampler == SamplerConfig()

    def test_ials_config_builds_for_the_defaults(self):
        assert solve_config(resolve_config()) is None  # the default model is EASE
        debiased = "linear.model=ials-debiased"
        assert solve_config(resolve_config(overrides=[debiased])) == IALSConfig(
            d=64, alpha0=0.1, lam=100.0, nu=1.0, c_u=1.0, num_sweeps=10, seed=0)
        cfg = solve_config(resolve_config(overrides=[debiased, "linear.lambda=0.1",
                                                      "linear.sweeps=3", "seed=7"]))
        assert (cfg.lam, cfg.num_sweeps, cfg.seed) == (0.1, 3, 7)

    @pytest.mark.parametrize("override, keys", [
        ("linear.lambda=-1", ["linear.lambda"]),
        ("linear.lambda=0", ["linear.lambda"]),
        ("linear.alpha0=-0.5", ["linear.alpha0"]),
        ("linear.sweeps=0", ["linear.sweeps"]),
        ("linear.d=0", ["linear.d"]),
        ("linear.c_u=0", ["linear.c_u"]),
        ("linear.nu=-1", ["linear.nu"]),
    ])
    def test_ials_config_refusals_name_the_keys(self, override, keys):
        # linear.* ranges are left to the run
        cfg = resolve_config(overrides=["linear.model=ials-debiased", override])
        with pytest.raises(ConfigError) as info:
            solve_config(cfg)
        message = str(info.value)
        # the key at fault, and no other
        assert re.findall(r"linear\.\w+", message) == keys
        # no IALSConfig field name is left bare
        assert not re.search(r"(?<![.\w])(lam|num_sweeps|d|alpha0|c_u|nu)\b", message)

    def test_ials_debiased_needs_alpha0_below_one(self):
        # plain iALS takes any alpha0 >= 0; the debiased solves weight observed terms by 1 - alpha0
        plain = resolve_config(overrides=["linear.model=ials", "linear.alpha0=1.5"])
        assert solve_config(plain).alpha0 == 1.5
        debiased = resolve_config(overrides=["linear.model=ials-debiased", "linear.alpha0=1.0"])
        message = r"^ials-debiased requires linear\.alpha0 < 1, got 1\.0$"
        with pytest.raises(ConfigError, match=message):
            solve_config(debiased)


class TestValueTypes:
    @pytest.mark.parametrize("override, key", [
        ("train.batch_size=abc", "train.batch_size"),
        ("train.batch_size=2.5", "train.batch_size"),
        ("train.batch_size=true", "train.batch_size"),
        ("sampler.n_negatives=2.5", "sampler.n_negatives"),
        ("sampler.share_batch=1", "sampler.share_batch"),
        ("train.initial_lr=fast", "train.initial_lr"),
        ("linear.sweeps=abc", "linear.sweeps"),
        ("linear.model=3", "linear.model"),
        ("threads=2.0", "threads"),
        ("data.synthetic.num_blocks=2.5", "data.synthetic.num_blocks"),
    ])
    def test_mistyped_value_names_its_key(self, override, key):
        with pytest.raises(ConfigError, match=f"'{key}' must be"):
            resolve_config(overrides=["data.synthetic.kind=planted", override])

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    @pytest.mark.parametrize("key", [
        *(f"{table}.{key}" for table, keys in DEFAULT_DOCUMENT.items() if isinstance(keys, dict)
          for key, default in keys.items() if isinstance(default, float)),
        "data.synthetic.density",
    ])
    def test_non_finite_float_refused(self, key, value):
        # JSON reads NaN, Infinity and 1e400 as non-finite floats, and an int literal
        # beyond the float range as an int; test_loss_settings covers loss.params
        sets = ["data.synthetic.kind=random", "data.synthetic.num_users=4",
                "data.synthetic.num_items=5", f"{key}={value}"]
        with pytest.raises(ConfigError, match=rf"^config key '{re.escape(key)}' must be finite, got"):
            resolve_config(overrides=sets)

    def test_int_accepted_for_float(self):
        cfg = resolve_config(overrides=["train.initial_lr=1", "linear.c_u=2"])
        assert cfg["train"]["initial_lr"] == 1 and cfg["linear"]["c_u"] == 2

    def test_none_default_is_free(self):
        cfg = resolve_config(overrides=["train.mode=cosine", "sweep.values=[1, 2]"])
        assert cfg["train"]["mode"] == "cosine" and cfg["sweep"]["values"] == [1, 2]

    def test_table_replaced_by_value_rejected(self):
        with pytest.raises(ConfigError, match="'loss.params' must be a table"):
            resolve_config(overrides=["loss.params=3"])


class TestSyntheticKinds:
    @pytest.mark.parametrize("kind, other_key", [("planted", "density"), ("random", "num_blocks")])
    def test_kind_rejects_the_other_kinds_keys(self, kind, other_key):
        with pytest.raises(ConfigError, match=f"data.synthetic.{other_key}"):
            resolve_config(overrides=[f"data.synthetic.kind={kind}", "data.synthetic.num_users=4",
                                      "data.synthetic.num_items=4", f"data.synthetic.{other_key}=1"])

    def test_kind_defaults_to_planted(self):
        with pytest.raises(ConfigError, match="data.synthetic.density"):
            resolve_config(overrides=["data.synthetic.density=0.1"])

    def test_missing_required_key_reported(self):
        with pytest.raises(ConfigError, match="requires data.synthetic.num_users"):
            resolve_config(overrides=["data.synthetic.kind=random", "data.synthetic.num_items=4"])

    def test_unknown_kind_reported(self):
        with pytest.raises(ConfigError, match="unknown synthetic data kind 'blobs'"):
            resolve_config(overrides=["data.synthetic.kind=blobs"])

    def test_random_kind_accepts_its_keys(self):
        resolve_config(overrides=["data.synthetic.kind=random", "data.synthetic.num_users=4",
                                  "data.synthetic.num_items=4", "data.synthetic.density=0.5"])


class TestStrictKeys:
    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown config key 'optimizer'"):
            validate_config(deep_merge(DEFAULTS, {"optimizer": "adam"}))

    def test_unknown_nested(self):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            validate_config(deep_merge(DEFAULTS, {"train": {"learning_rate": 0.1}}))

    def test_loss_param_checked_against_kind(self):
        bad = deep_merge(DEFAULTS, {"loss": {"kind": "bpr", "params": {"margin": 0.5}}})
        with pytest.raises(ConfigError, match="not valid for kind"):
            validate_config(bad)
        ok = deep_merge(DEFAULTS, {"loss": {"kind": "ccl", "params": {"margin": 0.5}}})
        validate_config(ok)

    def test_debiased_infonce_temperature_is_not_a_loss_param(self):
        with pytest.raises(ConfigError, match="train.temperature"):
            resolve_config(overrides=["loss.kind=debiased_infonce", "loss.params.temperature=0.4"])

    @pytest.mark.parametrize("kind, key, value, expected", [
        ("mine_plus", "lambda", "abc", "float"),
        ("infonce_plus", "epsilon", True, "float"),
        ("mse", "lambda_neg", [1], "float"),
        ("debiased_ccl", "k", 2.5, "int"),
        ("debiased_ccl", "floor_at_zero", 1, "bool"),
        ("debiased_infonce", "clamp_floor", "no", "bool"),
        ("debiased_mse", "tau_mode", 3, "str"),
    ])
    def test_loss_param_type_checked(self, kind, key, value, expected):
        bad = deep_merge(DEFAULTS, {"loss": {"kind": kind, "params": {key: value}}})
        with pytest.raises(ConfigError, match=f"'loss.params.{key}' must be {expected}"):
            validate_config(bad)

    def test_loss_param_int_accepted_for_float(self):
        cfg = resolve_config(overrides=["loss.kind=debiased_ccl", "loss.params.lambda_n=1",
                                        "loss.params.margin=0", "loss.params.k=5"])
        assert cfg["loss"]["params"] == {"lambda_n": 1, "margin": 0, "k": 5}

    @pytest.mark.parametrize("key", ["train", "test"])
    @pytest.mark.parametrize("value", [123, 1.5, True, ["a"], {"path": "a"}])
    def test_data_path_must_be_a_string(self, key, value):
        with pytest.raises(ConfigError, match=f"'data.{key}' must be a path string or null"):
            validate_config(deep_merge(DEFAULTS, {"data": {key: value}}))

    @pytest.mark.parametrize("sources, named", [
        (["synthetic", "train", "test"], "data.synthetic and data.train/data.test"),
        (["synthetic", "train"], "data.synthetic and data.train/data.test"),
        (["synthetic", "test"], "data.synthetic and data.train/data.test"),
        (["train"], "data.test is missing"),
        (["test"], "data.train is missing"),
    ])
    def test_data_sources_must_agree(self, sources, named):
        overrides = {
            "synthetic": ["data.synthetic.kind=random", "data.synthetic.num_users=5",
                          "data.synthetic.num_items=7"],
            "train": ["data.train=train.txt"],
            "test": ["data.test=test.txt"],
        }
        with pytest.raises(ConfigError, match=named):
            resolve_config(overrides=[o for source in sources for o in overrides[source]])

    def test_unknown_loss_kind(self):
        with pytest.raises(ConfigError, match="unknown loss kind"):
            validate_config(deep_merge(DEFAULTS, {"loss": {"kind": "triplet"}}))

    def test_synthetic_keys_checked(self):
        bad = deep_merge(DEFAULTS, {"data": {"synthetic": {"blocks": 3}}})
        with pytest.raises(ConfigError, match="data.synthetic.blocks"):
            validate_config(bad)
        ok = deep_merge(DEFAULTS, {"data": {"synthetic": {"kind": "planted", "num_blocks": 3}}})
        validate_config(ok)


class TestPrecedence:
    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"temperature": 0.9}}))
        cfg = resolve_config(config_path=str(path), preset="mine+/gowalla")
        assert cfg["train"]["temperature"] == 0.9          # file wins
        assert cfg["loss"]["params"]["lambda"] == 1.2      # preset survives

    def test_set_overrides_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 5}))
        cfg = resolve_config(config_path=str(path), overrides=["seed=9"])
        assert cfg["seed"] == 9

    def test_override_parses_json_values(self):
        cfg = resolve_config(overrides=[
            "train.initial_lr=0.01",
            "sampler.share_batch=true",
            "dataset_name=abc",
        ])
        assert cfg["train"]["initial_lr"] == 0.01
        assert cfg["sampler"]["share_batch"] is True
        assert cfg["dataset_name"] == "abc"

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'train.alpha'"):
            resolve_config(overrides=["train.alpha=3"])

    def test_apply_override_copies_and_leaves_checks_to_validation(self):
        cfg = resolve_config()
        out = apply_override(cfg, "train.alpha", 3)
        assert out["train"]["alpha"] == 3 and "alpha" not in cfg["train"]
        with pytest.raises(ConfigError, match="unknown config key 'train.alpha'"):
            validate_config(out)

    def test_override_free_form_loss_params(self):
        cfg = resolve_config(overrides=[
            "loss.kind=mine_plus", "loss.params.lambda=1.3",
        ])
        assert cfg["loss"]["params"]["lambda"] == 1.3

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="key.path=value"):
            resolve_config(overrides=["seed"])

    def test_bad_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config(config_path=str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            resolve_config(config_path=str(bad))


def sweep_overrides(*argv) -> list[str]:
    """The overrides of a sweep command line, in the order the CLI applies them."""
    args = build_parser().parse_args(["sweep", *argv])
    return _flag_overrides(args) + args.sets


class TestSweepGrid:
    SET_TWICE = "the sweep grid is set twice, by sweep.values and by sweep.log_range; keep one"

    def test_both_grids_refused(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(self.SET_TWICE)):
            resolve_config(overrides=["sweep.values=[0.5]", "sweep.log_range=[0.001,0.1,3]"])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"sweep": {"values": [0.5], "log_range": [0.001, 0.1, 3]}}))
        with pytest.raises(ConfigError, match=re.escape(self.SET_TWICE)):
            resolve_config(config_path=str(path))

    @pytest.mark.parametrize("file_grid, flags, grid", [
        ({"values": [0.5]}, ["--log-range", "1e-3", "1e-1", "3"],
         {"values": None, "log_range": [0.001, 0.1, 3]}),
        ({"log_range": [1, 2, 2]}, ["--values", "0.1,abc,[2]"],
         {"values": [0.1, "abc", [2]], "log_range": None}),
    ])
    def test_flag_grid_outranks_file_grid(self, file_grid, flags, grid, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"sweep": file_grid}))
        cfg = resolve_config(config_path=str(path), overrides=sweep_overrides(*flags))
        assert {k: cfg["sweep"][k] for k in grid} == grid

    @pytest.mark.parametrize("argv", [
        ["--log-range", "1e-3", "1e-1", "3", "--set", "sweep.values=[0.5]"],
        ["--values", "0.5", "--set", "sweep.log_range=[0.001,0.1,3]"],
    ])
    def test_later_set_grid_with_flag_grid_is_set_twice(self, argv):
        with pytest.raises(ConfigError, match=re.escape(self.SET_TWICE)):
            resolve_config(overrides=sweep_overrides(*argv))

    def test_both_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            sweep_overrides("--values", "0.5", "--log-range", "1e-3", "1e-1", "3")
        assert exc.value.code == 2
        assert "argument --log-range: not allowed with argument --values" in capsys.readouterr().err


class TestSamplerTable:
    @pytest.mark.parametrize("override, message", [
        ("sampler.n_negatives=0", "n_negatives must be >= 1"),
        ("sampler.m_positives=-1", "m_positives must be >= 0"),
        ("sampler.kind=nope", "unknown sampler kind 'nope'"),
    ])
    def test_checked_at_resolve(self, override, message):
        with pytest.raises(ConfigError, match=message):
            resolve_config(overrides=[override])

    def test_share_batch_checked_against_kind(self):
        with pytest.raises(ConfigError, match="share_batch cannot exclude"):
            resolve_config(overrides=["sampler.kind=uniform_excluding_user_positives",
                                      "sampler.share_batch=true"])


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config(preset="mine+/netflix")

    def test_mine_plus_tables(self):
        cfg = resolve_config(preset="mine+/amazon-books")
        assert cfg["loss"]["kind"] == "mine_plus"
        assert cfg["loss"]["params"]["lambda"] == 1.1
        assert cfg["train"]["temperature"] == 0.4
        assert cfg["train"]["l2_weight"] == 0.01
        assert cfg["train"]["mode"] == "cosine"
        assert cfg["sampler"]["n_negatives"] == 800

        gowalla = resolve_config(preset="mine+/gowalla")
        assert gowalla["loss"]["params"]["lambda"] == 1.2
        assert gowalla["train"]["temperature"] == 0.4
        assert gowalla["train"]["l2_weight"] == 1.0

    def test_debiased_ccl_tables(self):
        cfg = resolve_config(preset="debiased-ccl/yelp2018")
        assert cfg["loss"]["kind"] == "debiased_ccl"
        assert cfg["loss"]["params"]["lambda_n"] == 0.4
        assert cfg["loss"]["params"]["margin"] == 0.9
        assert cfg["sampler"]["m_positives"] == 10
        # the table's "-9" regularization entry means 1e-9
        assert cfg["train"]["l2_weight"] == 1e-9

        books = resolve_config(preset="debiased-ccl/amazon-books")
        assert books["loss"]["params"]["lambda_n"] == 0.6
        assert books["loss"]["params"]["margin"] == 0.4
        assert books["sampler"]["m_positives"] == 50

    def test_every_preset_validates(self):
        for name in PRESETS:
            resolve_config(preset=name)


class TestThreads:
    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_refused(self, threads):
        with pytest.raises(ConfigError, match=f"'threads' must be >= 1, got {threads}"):
            resolve_config(overrides=[f"threads={threads}"])

    @pytest.mark.parametrize("env", ["2", "0", "lots"])
    def test_environment_does_not_change_threads(self, monkeypatch, env):
        # the same overrides resolve to the same config whatever the environment holds
        monkeypatch.setenv("RECLOSS_THREADS", env)
        assert resolve_config(overrides=["threads=8"])["threads"] == 8
        assert resolve_config()["threads"] == DEFAULTS["threads"]

    def test_sweep_workers_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'sweep.workers'"):
            resolve_config(overrides=["sweep.workers=2"])


class TestWriteResolved:
    def test_round_trips_through_file(self, tmp_path):
        cfg = resolve_config(preset="mine+/yelp2018", overrides=["seed=3"])
        write_resolved(cfg, tmp_path)
        path = tmp_path / "config.resolved"
        assert path.exists()
        again = resolve_config(config_path=str(path))
        assert again == cfg
