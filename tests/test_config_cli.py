"""Config resolution and CLI orchestration.

Covers the layered config (defaults < file < --set) with its dotted-path
validation, the typed section builders, dataset resolution, and the CLI
exit-code contract: 0 success, 1 config error, 2 runtime failure, 3
self-check failure.  End-to-end runs use the synthetic dataset at tiny
sizes so the whole file stays fast.
"""
from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sabotagebench import cli, reporting
from sabotagebench.config import (
    DEFAULTS,
    EXPERIMENTS,
    ExperimentConfig,
    parse_config,
    parse_override,
)
from sabotagebench.errors import ConfigError
from sabotagebench.heap import keep_heap


# --------------------------------------------------------------- overrides


class TestParseOverride:
    def test_json_int(self):
        assert parse_override("train.epochs=4") == ("train.epochs", 4)

    def test_json_float(self):
        assert parse_override("sabotage.rate=0.25") == ("sabotage.rate", 0.25)

    def test_json_bool_and_null(self):
        assert parse_override("mirror_text.offline=true") == ("mirror_text.offline", True)
        assert parse_override("lifestar.alpha=null") == ("lifestar.alpha", None)

    def test_json_list(self):
        assert parse_override("sweep.thresholds=[0.1,0.9]") == (
            "sweep.thresholds",
            [0.1, 0.9],
        )

    def test_non_json_value_stays_string(self):
        # "auto" is not valid JSON, so it must survive as a bare string.
        assert parse_override("hard.cutoff=auto") == ("hard.cutoff", "auto")

    def test_value_may_contain_equals(self):
        assert parse_override("dataset.mnist_dir=a=b") == ("dataset.mnist_dir", "a=b")

    def test_key_is_stripped(self):
        assert parse_override(" seed =3") == ("seed", 3)

    def test_missing_equals_is_config_error(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_override("seed3")


# ------------------------------------------------------------ parse_config


class TestParseConfig:
    def test_no_layers_yields_defaults(self):
        cfg = parse_config()
        assert cfg.data == DEFAULTS

    def test_resolved_tree_is_a_copy(self):
        cfg = parse_config()
        cfg.data["train"]["epochs"] = 99
        assert DEFAULTS["train"]["epochs"] == 3

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert parse_config(path).data == DEFAULTS
        path.write_text("{}")
        assert parse_config(path).data == DEFAULTS

    def test_file_layers_over_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "train": {"epochs": 7}}))
        cfg = parse_config(path)
        assert cfg.seed == 5
        assert cfg.section("train")["epochs"] == 7
        assert cfg.section("train")["batch_size"] == 64

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5}))
        assert parse_config(path, {"seed": 9}).seed == 9

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json_file_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    def test_unknown_file_key_names_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epohcs": 2}}))
        with pytest.raises(ConfigError, match="unknown config key: train.epohcs"):
            parse_config(path)

    def test_unknown_override_key_names_path(self):
        with pytest.raises(ConfigError, match="unknown config key: train.epohcs"):
            parse_config(None, {"train.epohcs": 2})

    def test_unknown_override_section(self):
        with pytest.raises(ConfigError, match="unknown config key: trian"):
            parse_config(None, {"trian.epochs": 2})

    def test_section_given_a_scalar_in_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": 3}))
        with pytest.raises(ConfigError, match="expected a section"):
            parse_config(path)

    def test_override_cannot_target_a_section(self):
        with pytest.raises(ConfigError, match="train is a section"):
            parse_config(None, {"train": 3})

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("train.epochs", 2.5, "expected an integer"),
            ("train.epochs", True, "expected an integer"),
            ("sabotage.rate", "high", "expected a number"),
            ("sabotage.rate", True, "expected a number"),
            ("adaptive.literal_step_rule", 1, "expected a boolean"),
            ("dataset.source", 7, "expected a string"),
            ("sweep.thresholds", [0.1, "x"], "expected a list of numbers"),
            ("sweep.thresholds", 0.1, "expected a list of numbers"),
        ],
    )
    def test_leaf_type_errors(self, key, value, expected):
        with pytest.raises(ConfigError, match=expected):
            parse_config(None, {key: value})

    def test_int_widens_to_float_leaf(self):
        cfg = parse_config(None, {"sabotage.rate": 0})
        assert cfg.section("sabotage")["rate"] == 0.0
        assert isinstance(cfg.section("sabotage")["rate"], float)

    def test_hard_cutoff_accepts_number_or_auto(self):
        assert parse_config(None, {"hard.cutoff": 0.5}).section("hard")["cutoff"] == 0.5
        assert parse_config(None, {"hard.cutoff": "auto"}).section("hard")["cutoff"] == "auto"
        with pytest.raises(ConfigError, match="hard.cutoff"):
            parse_config(None, {"hard.cutoff": "max"})

    def test_fixtures_leaf_accepts_path_or_null(self):
        cfg = parse_config(None, {"mirror_text.fixtures": "x.jsonl"})
        assert cfg.section("mirror_text")["fixtures"] == "x.jsonl"
        assert parse_config(None, {"mirror_text.fixtures": None}).section(
            "mirror_text"
        )["fixtures"] is None
        with pytest.raises(ConfigError, match="mirror_text.fixtures"):
            parse_config(None, {"mirror_text.fixtures": 3})

    def test_lifestar_leaves_accept_number_or_null(self):
        cfg = parse_config(None, {"lifestar.beta": 0.3})
        assert cfg.section("lifestar")["beta"] == 0.3
        with pytest.raises(ConfigError, match="lifestar.alpha"):
            parse_config(None, {"lifestar.alpha": "half"})


# -------------------------------------------------------- typed builders


class TestExperimentConfig:
    def test_experiment_name_is_validated(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig({**copy.deepcopy(DEFAULTS), "experiment": "basline"})

    def test_experiments_tuple(self):
        assert EXPERIMENTS == (
            "baseline",
            "soft",
            "hard",
            "irm",
            "sweep",
            "adaptive",
            "mirror-cnn",
            "mirror-text",
            "all",
        )
        assert cli.ALL_METHODS == EXPERIMENTS[:-1]

    def test_irm_pipeline_forces_reject_labels(self):
        cfg = parse_config()
        assert cfg.section("sabotage")["label_mode"] == "random"
        assert cfg.pipeline_config("irm").sabotage.label_mode == "reject"
        assert cfg.pipeline_config("baseline").sabotage.label_mode == "random"

    def test_builder_rejection_becomes_config_error(self):
        # 1.5 passes the leaf type check (a number) but fails the
        # dataclass range validation; the builder must surface that as a
        # ConfigError naming the section.
        cfg = parse_config(None, {"sabotage.rate": 1.5})
        with pytest.raises(ConfigError, match="^sabotage:"):
            cfg.sabotage_config()

    def test_lifestar_weights_default_none(self):
        assert parse_config().lifestar_weights() is None

    def test_lifestar_weights_all_or_nothing(self):
        cfg = parse_config(None, {"lifestar.alpha": 0.5})
        with pytest.raises(ConfigError, match="together"):
            cfg.lifestar_weights()

    def test_lifestar_weights_full_triplet(self):
        cfg = parse_config(
            None,
            {"lifestar.alpha": 0.5, "lifestar.beta": 0.3, "lifestar.gamma": 0.2},
        )
        assert cfg.lifestar_weights() == (0.5, 0.3, 0.2)


# ----------------------------------------------------------- data loading


class TestLoadData:
    def test_synthetic_respects_sizes_and_image_size(self):
        cfg = parse_config(
            None,
            {
                "dataset.source": "synthetic",
                "dataset.synthetic_train": 50,
                "dataset.synthetic_test": 20,
                "model.image_size": 8,
            },
        )
        train, test = cli.load_data(cfg)
        assert train.images.shape == (50, 1, 8, 8)
        assert test.images.shape == (20, 1, 8, 8)

    def test_auto_falls_back_to_synthetic(self, tmp_path):
        cfg = parse_config(
            None,
            {
                "dataset.mnist_dir": str(tmp_path),
                "dataset.synthetic_train": 30,
                "dataset.synthetic_test": 10,
            },
        )
        train, test = cli.load_data(cfg)
        assert (train.count, test.count) == (30, 10)

    def test_mnist_failure_names_the_config_key(self, tmp_path):
        cfg = parse_config(
            None,
            {"dataset.source": "mnist", "dataset.mnist_dir": str(tmp_path / "missing")},
        )
        with pytest.raises(ConfigError, match="dataset.mnist_dir"):
            cli.load_data(cfg)

    def test_unknown_source_rejected(self):
        cfg = parse_config(None, {"dataset.source": "imagenet"})
        with pytest.raises(ConfigError, match="dataset.source"):
            cli.load_data(cfg)


# ------------------------------------------------------------- self-check


class TestCheckCommand:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_one_failure_exits_3_and_keeps_going(self, capsys, monkeypatch):
        # cmd_check resolves the check functions from module globals at
        # call time, so patching one is enough to simulate a failure.
        def boom() -> None:
            raise AssertionError("forced")

        monkeypatch.setattr(cli, "_check_involution", boom)
        for name in ("_check_mirror_text", "_check_controller_clamp", "_check_gradients"):
            monkeypatch.setattr(cli, name, lambda: None)
        assert cli.main(["check"]) == 3
        out = capsys.readouterr().out
        assert "FAIL pixel inversion is an involution: forced" in out
        assert out.count("PASS") == 3


# -------------------------------------------------------------- exit codes


class TestRunExitCodes:
    def test_unknown_override_key(self, capsys):
        assert cli.main(["run", "baseline", "--set", "train.epohcs=2"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_retired_bypass_trigger_is_unknown(self, capsys):
        assert cli.main(["run", "baseline", "--set", "model.small_path_trigger=0.1"]) == 1
        assert "unknown config key: model.small_path_trigger" in capsys.readouterr().err

    def test_bad_override_value(self, capsys):
        assert cli.main(["run", "baseline", "--set", "train.epochs=2.5"]) == 1
        assert "expected an integer" in capsys.readouterr().err

    def test_override_without_equals(self, capsys):
        assert cli.main(["run", "baseline", "--set", "seed3"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_unknown_experiment_is_config_error(self, capsys):
        # argparse usage problems are routed through the same exit code.
        assert cli.main(["run", "basline"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "fixtures.jsonl"
        bad.write_text("this is not json\n")
        code = cli.main(
            [
                "run",
                "mirror-text",
                "--offline",
                "--out",
                str(tmp_path / "out"),
                "--set",
                f"mirror_text.fixtures={bad}",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("experiment", ["mirror-cnn", "all"])
    def test_missized_mirror_subsets_fail_before_training(self, tmp_path, capsys, experiment):
        # the stock subset_size of 5000 asks for 10000 of 6000 synthetic images
        out = tmp_path / "out"
        argv = ["run", experiment, "--offline", "--out", str(out),
                "--set", "dataset.source=synthetic"]
        started = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - started < 2.0
        err = capsys.readouterr().err
        assert "config error: mirror_cnn.subset_size" in err
        assert "10000" in err and "6000" in err
        assert not list(tmp_path.rglob("report_*"))

    # Each of these three values used to pass the parse and fail (or, for
    # null, be refused) only once a run was under way.
    def test_bad_boundary_fraction_fails_before_training(self, tmp_path, capsys):
        argv = ["run", "mirror-cnn", "--offline", "--out", str(tmp_path / "out"),
                "--set", "dataset.source=synthetic", "--set", "dataset.synthetic_train=200",
                "--set", "dataset.synthetic_test=60", "--set", "mirror_cnn.subset_size=50",
                "--set", "mirror_cnn.gate_boundary_fraction=1.5"]
        started = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - started < 2.0
        assert "config error: mirror_cnn: gate_boundary_fraction" in capsys.readouterr().err
        assert not list(tmp_path.rglob("report_*"))

    def test_null_boundary_fraction_is_accepted(self):
        cfg = parse_config(None, {"mirror_cnn.gate_boundary_fraction": None})
        assert cfg.section("mirror_cnn")["gate_boundary_fraction"] is None
        assert cfg.build("mirror_cnn").gate_boundary_fraction is None

    def test_unsorted_sweep_thresholds_fail_at_parse_time(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="sweep: .*strictly increasing"):
            parse_config(None, {"sweep.thresholds": [0.5, 0.2]})
        argv = ["run", "sweep", "--out", str(tmp_path / "out"),
                "--set", "dataset.source=synthetic", "--set", "dataset.synthetic_train=200",
                "--set", "dataset.synthetic_test=60", "--set", "sweep.thresholds=[0.5,0.2]"]
        assert cli.main(argv) == 1
        assert "config error: sweep:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("report_*"))

    def test_image_too_small_for_the_glyph(self, tmp_path, capsys):
        argv = ["run", "baseline", "--out", str(tmp_path / "out"),
                "--set", "dataset.source=synthetic", "--set", "model.image_size=6"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: model.image_size" in err
        assert "7x5 digit glyph" in err

    def test_degenerate_mirror_pool_split_fails_before_training(self, tmp_path, capsys):
        argv = ["run", "all", "--offline", "--out", str(tmp_path / "out"),
                "--set", "dataset.source=synthetic", "--set", "dataset.synthetic_test=10",
                "--set", "mirror_cnn.subset_size=100",
                "--set", "mirror_cnn.train_pool_fraction=0.01"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: mirror_cnn.train_pool_fraction" in err
        assert "0 train indices of 10" in err
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------- orchestration


TINY_TREE = {
    "dataset": {
        "source": "synthetic",
        "synthetic_train": 256,
        "synthetic_test": 96,
    },
    "model": {
        "conv1_channels": 2,
        "conv2_channels": 3,
        "fc_hidden": 8,
        "image_size": 8,
    },
    "train": {"epochs": 1, "batch_size": 32},
    "gate": {"hidden": 8, "epochs": 1, "body_epochs": 1},
    "sweep": {"thresholds": [0.2, 0.5], "epochs": 1},
    "mirror_cnn": {
        "subset_size": 100,
        "train_pairs_per_mode": 80,
        "eval_pairs_per_mode": 40,
        "gate_hidden": 16,
        "gate_epochs": 2,
    },
    "lifestar": {"alpha": 0.5, "beta": 0.0, "gamma": 0.5},
}


# Stock settings whose mirror subsets fit the synthetic set (two disjoint
# subsets of the stock 5000 need 10000 of its 6000 images, which `run all`
# rejects before it starts any job), for run_all tests with stubbed runs.
FITS_SYNTHETIC = {"mirror_cnn.subset_size": 3000}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_TREE))
    return path


def run_cli(args: list[str]) -> int:
    return cli.main(args)


@pytest.fixture(scope="module")
def baseline_dirs(tiny_config, tmp_path_factory):
    root = tmp_path_factory.mktemp("baseline")
    dirs = (root / "first", root / "second")
    for out in dirs:
        assert (
            run_cli(["run", "baseline", "--config", str(tiny_config), "--out", str(out)])
            == 0
        )
    return dirs


@pytest.fixture(scope="module")
def all_dir(tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("all")
    args = ["run", "all", "--config", str(tiny_config), "--out", str(out)]
    assert run_cli(args + ["--offline", "--parallel"]) == 0
    return out


# Runs in a fresh interpreter: the test process has already imported mirror_text.
_IMPORTS_OF_A_RUN = """
import json, sys
from sabotagebench import cli
code = cli.main(["run", "baseline", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, [m for m in ("requests", "ssl", "sabotagebench.mirror_text")
                         if m in sys.modules]]))
"""


def test_a_training_run_leaves_the_http_stack_unloaded(tiny_config, tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS_OF_A_RUN, str(tiny_config), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []


class TestRunArtifacts:
    def test_baseline_artifacts(self, baseline_dirs):
        out = baseline_dirs[0]
        config = json.loads((out / "config.json").read_text())
        assert config["experiment"] == "baseline"
        assert config["dataset"]["synthetic_train"] == 256
        metadata = json.loads((out / "metadata.json").read_text())
        assert "wall_clock_s" in metadata
        report = json.loads((out / "report_baseline_seed0.json").read_text())
        assert report["method"] == "baseline"
        assert report["seed"] == 0
        epochs = (out / "epochs_baseline_seed0.csv").read_text().splitlines()
        assert epochs[0] == "epoch,train_error,test_error"
        assert len(epochs) == 2
        # baseline quarantines nothing, so no log CSV is written
        assert not (out / "quarantine_log_baseline_seed0.csv").exists()

    def test_same_seed_rerun_is_byte_identical(self, baseline_dirs):
        first, second = baseline_dirs
        for name in ("report_baseline_seed0.json", "epochs_baseline_seed0.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_mirror_text_offline_artifacts(self, tmp_path, capsys):
        out = tmp_path / "mt"
        assert run_cli(["run", "mirror-text", "--offline", "--out", str(out)]) == 0
        assert "done:" in capsys.readouterr().out

        report = json.loads((out / "report_mirror-text.json").read_text())
        scores = {row["system"]: row["score_percent"] for row in report["recognition"]}
        assert scores == {"A": 25.0, "B": 100.0, "C": 50.0, "D": 100.0, "E": 100.0}

        bar = (out / "mirror_text_recognition_bar.csv").read_text().splitlines()
        assert bar[0] == "system,k,score_percent"
        assert len(bar) == 6
        heatmap = (out / "mirror_text_self_rating_heatmap.csv").read_text().splitlines()
        assert heatmap[0] == "question,A,B,C,D,E"
        assert len(heatmap) == 11
        sums = (out / "mirror_text_rank_sums.csv").read_text().splitlines()
        assert len(sums) == 7
        assert sums[-1].startswith("total,")
        dist = (out / "mirror_text_rank_distribution.csv").read_text().splitlines()
        assert dist[0] == "evaluator,question,system,value"
        assert len(dist) == 251

    def test_every_method_gets_a_subdir(self, all_dir):
        for method in cli.ALL_METHODS:
            assert (all_dir / method / "config.json").exists(), method
            assert (all_dir / method / "metadata.json").exists(), method

    def test_seed_offsets_follow_method_order(self, all_dir):
        assert (all_dir / "baseline" / "report_baseline_seed0.json").exists()
        assert (all_dir / "soft" / "report_soft_seed1.json").exists()
        assert (all_dir / "hard" / "report_hard_seed2.json").exists()
        assert (all_dir / "irm" / "report_irm_seed3.json").exists()
        assert (all_dir / "adaptive" / "report_adaptive_seed5.json").exists()
        assert (all_dir / "mirror-cnn" / "report_mirror-cnn_seed6.json").exists()
        assert (all_dir / "mirror-cnn" / "mirror_cnn_accuracies_seed6.csv").exists()
        assert (all_dir / "mirror-text" / "report_mirror-text.json").exists()

    def test_gated_methods_write_quarantine_logs(self, all_dir):
        log = all_dir / "soft" / "quarantine_log_soft_seed1.csv"
        header = log.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["epoch", "batch", "tau"]

    def test_sweep_artifacts_embed_tau(self, all_dir):
        sweep = all_dir / "sweep"
        assert (sweep / "sweep_summary_seed4.csv").exists()
        assert (sweep / "report_sweep_seed4.json").exists()
        for tau in (0.2, 0.5):
            assert (sweep / f"quarantine_log_sweep_tau{tau}_seed4.csv").exists()

    def test_lifestar_written_when_weights_given(self, all_dir):
        payload = json.loads((all_dir / "lifestar.json").read_text())
        assert "error" not in payload
        assert payload["alpha"] == 0.5
        assert 0.0 <= payload["score"] <= 1.0
        assert payload["score"] == pytest.approx(
            0.5 * payload["self_maint"] + 0.5 * payload["self_recog"]
        )


def _artifacts(out: Path) -> dict[str, str]:
    """Every report file of a run but metadata.json (wall-clock time by
    design), with the latency_s timing column taken out of quarantine logs."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "metadata.json":
            continue
        text = path.read_text()
        if path.name.startswith("quarantine_log_"):
            rows = [line.split(",") for line in text.splitlines()]
            drop = rows[0].index("latency_s")
            text = "\n".join(",".join(r[:drop] + r[drop + 1 :]) for r in rows)
        files[path.name] = text
    return files


class TestRerunIsByteIdentical:
    """Same seed and config in, the same bytes out, for the loops that train
    on the accepted rows of a scoring forward."""

    @pytest.mark.parametrize("experiment", ["hard", "sweep", "adaptive"])
    def test_every_artifact(self, experiment, tiny_config, tmp_path):
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            args = ["run", experiment, "--config", str(tiny_config), "--out", str(out)]
            assert run_cli(args) == 0
            runs.append(_artifacts(out))
            shutil.rmtree(out)
        assert runs[0] == runs[1]
        assert any(name.startswith("quarantine_log_") for name in runs[0])


class TestRunMetadata:
    """metadata.json records the run's resource use, the numpy/BLAS build and
    thread settings and the config digest for every experiment, and the
    reports stay byte-identical."""

    RESOURCES = {"peak_rss_mb", "minor_faults", "user_s", "sys_s"}
    ENVIRONMENT = {"numpy", "blas", "blas_version", "blas_config", "blas_threads"}
    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

    def test_keys_and_report_bytes(self, baseline_dirs):
        digests = []
        for out in baseline_dirs:
            metadata = json.loads((out / "metadata.json").read_text())
            assert set(metadata["resources"]) == self.RESOURCES
            assert metadata["resources"]["peak_rss_mb"] > 0
            assert set(metadata["environment"]) == self.ENVIRONMENT
            assert metadata["environment"]["numpy"] == np.__version__
            assert metadata["environment"]["blas_threads"] == {
                name: os.environ.get(name) for name in self.THREAD_VARS
            }
            digests.append(metadata["config_sha256"])
        # config.json echoes each run's own --out; the digest leaves it out
        first, second = (_artifacts(out) for out in baseline_dirs)
        assert first.pop("config.json") != second.pop("config.json")
        assert first == second and len(first) == 2
        assert digests[0] == digests[1] and len(digests[0]) == 64

    def test_config_digest_follows_the_config(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        found = []
        for lr in ("0.1", "0.2"):
            out = tmp_path / lr
            args = ["run", "baseline", "--config", str(tiny_config), "--out", str(out)]
            assert run_cli(args + ["--set", f"train.learning_rate={lr}"]) == 0
            metadata = json.loads((out / "metadata.json").read_text())
            config = json.loads((out / "config.json").read_text())
            del config["out_dir"]
            expected = hashlib.sha256(reporting.canonical_json(config).encode("utf-8"))
            assert metadata["config_sha256"] == expected.hexdigest()
            assert metadata["environment"]["blas_threads"] == {
                "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": None,
            }
            found.append(metadata["config_sha256"])
        assert found[0] != found[1]

    def test_every_experiment(self, all_dir):
        for method in cli.ALL_METHODS:
            metadata = json.loads((all_dir / method / "metadata.json").read_text())
            assert set(metadata["resources"]) == self.RESOURCES, method
            assert set(metadata["environment"]) == self.ENVIRONMENT, method
            assert len(metadata["config_sha256"]) == 64, method

    def test_parallel_workers_keep_the_heap(self, tmp_path, monkeypatch):
        made = {}

        class Pool:
            def __init__(self, **kwargs):
                made.update(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [{"experiment": job[1]} for job in jobs]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        cli.run_all(parse_config(None, FITS_SYNTHETIC), tmp_path, offline=True, parallel=True)
        assert made["initializer"] is keep_heap


class TestRunAllLifestar:
    """lifestar.json branches, with the per-method runs stubbed out."""

    @staticmethod
    def fake_run_single(cfg, experiment, out_dir, offline):
        return {
            "experiment": experiment,
            "detection_f1": 0.8,
            "self_vs_cross_accuracy": 0.9,
        }

    def run(self, tmp_path, monkeypatch, weights):
        monkeypatch.setattr(cli, "run_single", self.fake_run_single)
        cfg = parse_config(
            None,
            {
                **FITS_SYNTHETIC,
                **{f"lifestar.{k}": v for k, v in zip(("alpha", "beta", "gamma"), weights)},
            },
        )
        cli.run_all(cfg, tmp_path, offline=True, parallel=False)
        return json.loads((tmp_path / "lifestar.json").read_text())

    def test_score_computed_when_beta_zero(self, tmp_path, monkeypatch):
        payload = self.run(tmp_path, monkeypatch, (0.5, 0.0, 0.5))
        # self_maint = f1 = 0.8; self_recog = (0.9 - 0.5) / 0.5 = 0.8
        assert payload["score"] == pytest.approx(0.8)
        assert payload["self_maint"] == pytest.approx(0.8)
        assert payload["self_recog"] == pytest.approx(0.8)

    def test_unavailable_component_reported_honestly(self, tmp_path, monkeypatch):
        payload = self.run(tmp_path, monkeypatch, (0.5, 0.3, 0.2))
        assert "score" not in payload
        assert "EmergComp" in payload["error"]

    def test_no_weights_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_single", self.fake_run_single)
        cli.run_all(parse_config(None, FITS_SYNTHETIC), tmp_path, offline=True, parallel=False)
        assert not (tmp_path / "lifestar.json").exists()
