"""Config resolution and CLI orchestration.

Covers the layered config (defaults < file < --set) with its dotted-path
validation, the typed section builders, dataset resolution, and the CLI
exit-code contract: 0 success, 1 config error, 2 runtime failure, 3
self-check failure.  End-to-end runs use the synthetic dataset at tiny
sizes so the whole file stays fast.
"""
from __future__ import annotations

import concurrent.futures
import copy
import dataclasses
import gzip
import hashlib
import importlib.util
import json
import os
import pickle
import re
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sabotagebench import blas, cli, config, reporting, training
from sabotagebench.config import (
    DEFAULTS,
    EXPERIMENTS,
    SECTIONS,
    ExperimentConfig,
    PipelineConfig,
    parse_config,
    parse_override,
)
from sabotagebench.dataset import SabotageConfig
from sabotagebench.errors import ConfigError, WorkbenchError
from sabotagebench.metrics import LifestarWeights
from sabotagebench.mirror_text import run_mirror_text_experiment
from sabotagebench.quarantine import AdaptiveControllerState
from sabotagebench.training import HardConfig, SweepConfig


def _record_builds(monkeypatch) -> list:
    """Patch `config.SECTIONS` with builders that record each owner they
    build, with the names of the leaves passed, in build order."""
    builds = []

    def recording(owner):
        def build(**kwargs):
            builds.append((owner, set(kwargs)))
            return owner(**kwargs)
        return build

    monkeypatch.setattr(config, "SECTIONS",
                        {name: recording(owner) for name, owner in SECTIONS.items()})
    return builds


# --------------------------------------------------------------- overrides


class TestParseOverride:
    def test_json_int(self):
        assert parse_override("train.epochs=4") == ("train.epochs", 4)

    def test_json_float(self):
        assert parse_override("sabotage.rate=0.25") == ("sabotage.rate", 0.25)

    def test_json_bool_and_null(self):
        assert parse_override("some.flag=true") == ("some.flag", True)
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
        assert cfg.data["train"]["epochs"] == 7
        assert cfg.data["train"]["batch_size"] == 64

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
        with pytest.raises(ConfigError, match=r"^train: expected a section \(object\), got 3$"):
            parse_config(None, {"train": 3})

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("train.epochs", 2.5, "expected an integer"),
            ("train.epochs", True, "expected an integer"),
            ("sabotage.rate", "high", "expected a number"),
            ("sabotage.rate", True, "expected a number"),
            ("dataset.source", 7, "expected a string"),
            ("sweep.thresholds", [0.1, "x"], "expected a list of numbers"),
            ("sweep.thresholds", 0.1, "expected a list of numbers"),
            ("seed", -1, "seed: expected an integer >= 0, got -1"),
            ("dataset.synthetic_seed", -1, "dataset: synthetic_seed must be >= 0, got -1"),
            ("dataset.synthetic_test", 0, "dataset: synthetic_test must be >= 1, got 0"),
            ("dataset.synthetic_train", -3, "dataset: synthetic_train must be >= 1, got -3"),
            ("dataset.synthetic_train", 0, "dataset: synthetic_train must be >= 1, got 0"),
        ],
    )
    def test_leaf_type_errors(self, key, value, expected):
        with pytest.raises(ConfigError, match=expected):
            parse_config(None, {key: value})

    def test_int_widens_to_float_leaf(self):
        cfg = parse_config(None, {"sabotage.rate": 0})
        assert cfg.data["sabotage"]["rate"] == 0.0
        assert isinstance(cfg.data["sabotage"]["rate"], float)
        # so does a number leaf that also takes a string or null
        cfg = parse_config(None, {"hard.cutoff": 1, "mirror_cnn.gate_boundary_fraction": 0})
        assert repr(cfg.data["hard"]["cutoff"]) == "1.0"
        assert repr(cfg.data["mirror_cnn"]["gate_boundary_fraction"]) == "0.0"

    def test_hard_cutoff_accepts_number_or_auto(self):
        assert parse_config(None, {"hard.cutoff": 0.5}).data["hard"]["cutoff"] == 0.5
        assert parse_config(None, {"hard.cutoff": "auto"}).data["hard"]["cutoff"] == "auto"
        with pytest.raises(ConfigError, match="^hard: cutoff must be a number or 'auto'"):
            parse_config(None, {"hard.cutoff": "max"})
        with pytest.raises(ConfigError, match="^hard.cutoff: expected a number or a string"):
            parse_config(None, {"hard.cutoff": None})

    def test_fixtures_leaf_accepts_path_or_null(self):
        cfg = parse_config(None, {"mirror_text.fixtures": "x.jsonl"})
        assert cfg.data["mirror_text"]["fixtures"] == "x.jsonl"
        assert parse_config(None, {"mirror_text.fixtures": None}).data[
            "mirror_text"
        ]["fixtures"] is None
        with pytest.raises(ConfigError, match="^mirror_text.fixtures: expected a string or null"):
            parse_config(None, {"mirror_text.fixtures": 3})

    def test_lifestar_leaves_accept_number_or_null(self):
        cfg = parse_config(None, {"lifestar.alpha": 0.5, "lifestar.gamma": 0.2})
        assert cfg.data["lifestar"]["gamma"] == 0.2
        assert parse_config(None, {"lifestar.gamma": None}).data["lifestar"]["gamma"] is None
        with pytest.raises(ConfigError, match="^lifestar.alpha: expected a number or null"):
            parse_config(None, {"lifestar.alpha": "half"})

    def test_negative_zero_number_resolves_and_echoes_as_zero(self, tmp_path):
        # a -0.0 weight was stored and echoed as -0.0
        key, value = parse_override("lifestar.alpha=-0.0")
        assert np.signbit(value)
        alpha = parse_config(None, {key: value, "lifestar.gamma": 0.5}).data["lifestar"]["alpha"]
        assert alpha == 0.0 and not np.signbit(alpha)
        out = tmp_path / "mt"
        argv = ["run", "mirror-text", "--out", str(out),
                "--set", "lifestar.alpha=-0.0", "--set", "lifestar.gamma=0.5"]
        assert cli.main(argv) == 0
        assert '"alpha": 0.0,' in (out / "config.json").read_text()


README = Path(__file__).resolve().parents[1] / "README.md"
# a `section.leaf` token in README, backticked or after `--set`
README_LEAF = re.compile(r"(?:`|--set )([a-z_]+)\.([a-z_][a-z0-9_]*)(?![a-z0-9_])")
FILE_SUFFIXES = {"csv", "gz", "json", "jsonl", "md", "py"}


def test_readme_names_only_existing_leaves():
    # a leaf that is removed or renamed must leave the docs too; a file
    # name such as `lifestar.json` is no leaf
    stale = sorted(
        f"{section}.{leaf}" for section, leaf in README_LEAF.findall(README.read_text())
        if isinstance(DEFAULTS.get(section), dict) and leaf not in FILE_SUFFIXES
        and leaf not in DEFAULTS[section]
    )
    assert stale == []
    assert README_LEAF.findall("`sabotage.label_mode`, `lifestar.json`, --set hard.cutoff=1") == [
        ("sabotage", "label_mode"), ("lifestar", "json"), ("hard", "cutoff")]


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

    def test_label_mode_is_not_a_leaf(self):
        # irm sets its own reject labels; every other pipeline trains on
        # random ones, so no config value of the mode changes a run
        assert "label_mode" not in DEFAULTS["sabotage"]
        with pytest.raises(ConfigError, match="^unknown config key: sabotage.label_mode$"):
            parse_config(None, {"sabotage.label_mode": "reject"})
        assert parse_config().pipeline.sabotage.label_mode == "random"

    def test_pipeline_config_holds_each_section_owner(self):
        cfg = parse_config(None, {"seed": 4, "hard.cutoff": 0.25, "adaptive.tau": 0.2,
                                  "sweep.thresholds": [0.3]})
        pipeline = cfg.pipeline
        assert pipeline.seed == 4
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == ["seed", *SECTIONS]
        for name, owner in SECTIONS.items():
            leaves = {key: tuple(value) if isinstance(value, list) else value
                      for key, value in cfg.data[name].items()}
            assert getattr(pipeline, name) == owner(**leaves), name
        assert pipeline.hard == HardConfig(cutoff=0.25)
        assert pipeline.adaptive == AdaptiveControllerState(tau=0.2)
        assert pipeline.sweep == SweepConfig(thresholds=(0.3,))

    def test_builder_rejection_becomes_config_error(self):
        # 1.5 passes the leaf type check (a number) but fails the
        # dataclass range validation; the builder must surface that as a
        # ConfigError naming the section, at parse time.
        with pytest.raises(ConfigError, match="^sabotage:"):
            parse_config(None, {"sabotage.rate": 1.5})

    def test_every_owner_field_is_set_from_the_config(self, monkeypatch):
        # a field no config sets is a value no run can change; the two
        # exceptions are the controller's running history, which starts
        # empty, and the label mode, which irm alone sets
        builds = _record_builds(monkeypatch)
        parse_config()
        passed = dict(builds)
        unset = {}
        for owner in SECTIONS.values():
            names = {f.name for f in dataclasses.fields(owner)} - passed[owner]
            if names:
                unset[owner.__name__] = names
        assert unset == {AdaptiveControllerState.__name__: {"history"},
                         SabotageConfig.__name__: {"label_mode"}}

    def test_every_leaf_has_an_owner_field_with_its_default(self):
        # a leaf stated beside its owner would be checked by no one
        assert set(DEFAULTS) == {"experiment", "seed", "out_dir", *SECTIONS}
        for section, leaves in DEFAULTS.items():
            if section in ("experiment", "seed", "out_dir"):
                continue
            owned = {f.name: f.default for f in dataclasses.fields(SECTIONS[section])}
            for leaf, default in leaves.items():
                assert leaf in owned, f"{section}.{leaf} has no owner field"
                field_default = owned[leaf]
                if isinstance(field_default, tuple):
                    field_default = list(field_default)
                assert field_default == default, f"{section}.{leaf}"

    def test_lifestar_weights_default_none(self):
        assert parse_config().pipeline.lifestar == LifestarWeights(None, None)

    def test_lifestar_weights_all_or_nothing(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config(None, {"lifestar.alpha": 0.5})

    def test_lifestar_weights_both_given(self):
        cfg = parse_config(None, {"lifestar.alpha": 0.5, "lifestar.gamma": 0.2})
        assert cfg.pipeline.lifestar == LifestarWeights(0.5, 0.2)

    def test_leaf_count(self):
        # experiment, seed and out_dir, and each section's leaves
        assert sum(len(v) if isinstance(v, dict) else 1 for v in DEFAULTS.values()) == 50


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
        with pytest.raises(ConfigError, match="^dataset: source must be auto, mnist or synthetic"):
            parse_config(None, {"dataset.source": "imagenet"})


def write_idx(root: Path, train_size: int, test_size: int) -> None:
    """Four plain IDX files under `root`: three blank images of each side
    length, labelled 0, 1 and 2."""
    for prefix, size in (("train", train_size), ("t10k", test_size)):
        (root / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 2051, 3, size, size) + bytes(3 * size * size))
        (root / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 2049, 3) + bytes([0, 1, 2]))


@pytest.mark.parametrize("train_size,test_size", [(12, 12), (28, 12)])
def test_image_size_must_match_the_idx_images(tmp_path, capsys, train_size, test_size):
    # used to load and then exit 2 from the first linear layer:
    # "linear inner dims disagree", naming no leaf
    write_idx(tmp_path, train_size, test_size)
    argv = ["run", "baseline", "--out", str(tmp_path / "out"),
            "--set", "dataset.source=mnist", "--set", f"dataset.mnist_dir={tmp_path}"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: model.image_size: 28 does not match the 12x12 images under {tmp_path}\n")
    assert not (tmp_path / "out").exists()  # made before the data loads, then removed
    cfg = parse_config(None, {"dataset.source": "mnist", "dataset.mnist_dir": str(tmp_path),
                              "model.image_size": 12})
    if train_size == test_size:
        train, test = cli.load_data(cfg)
        assert train.images.shape == test.images.shape == (3, 1, 12, 12)
    else:
        with pytest.raises(ConfigError, match="model.image_size: 12 does not match the 28x28"):
            cli.load_data(cfg)


@pytest.mark.parametrize("experiment", ["baseline", "all"])
@pytest.mark.parametrize("out", ["new/runs/out", "new/../out"])
def test_data_that_fails_to_load_leaves_no_new_directory(tmp_path, capsys, out, experiment):
    argv = ["run", experiment, "--out", f"{tmp_path}/{out}",
            "--set", "dataset.source=synthetic", "--set", "model.image_size=6"]
    assert cli.main(argv) == 1
    assert "config error: model.image_size" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_data_that_fails_to_load_keeps_an_existing_out_dir(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    argv = ["run", "baseline", "--out", str(tmp_path / "out" / "run"),
            "--set", "dataset.source=synthetic", "--set", "model.image_size=6"]
    assert cli.main(argv) == 1
    assert "config error: model.image_size" in capsys.readouterr().err
    assert [path.name for path in tmp_path.rglob("*")] == ["out"]

    argv[2] = str(tmp_path / "out")
    assert cli.main(argv) == 1
    assert [path.name for path in tmp_path.rglob("*")] == ["out"]


# Each corruption raises a different exception inside gzip: BadGzipFile (an
# OSError), EOFError and zlib.error.
CORRUPT_GZ = {
    "not_gzip": lambda gz: b"plain bytes, not gzip",
    "truncated": lambda gz: gz[: len(gz) // 2],
    "bad_deflate_body": lambda gz: gz[:10] + b"\xff" * 8 + gz[18:],
}


def test_unreadable_idx_path_is_config_error(tmp_path, capsys):
    # a directory in place of the file used to end in an IsADirectoryError
    # traceback
    write_idx(tmp_path, 28, 28)
    broken = tmp_path / "train-images-idx3-ubyte"
    broken.unlink()
    broken.mkdir()
    argv = ["run", "baseline", "--out", str(tmp_path / "out"),
            "--set", "dataset.source=mnist", "--set", f"dataset.mnist_dir={tmp_path}"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: dataset.mnist_dir: {broken}: cannot read (")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corruption", sorted(CORRUPT_GZ))
def test_corrupt_mnist_gz_is_config_error(tmp_path, capsys, corruption):
    labels = struct.pack(">II", 2049, 3) + bytes([0, 1, 2])
    images = struct.pack(">IIII", 2051, 3, 8, 8) + bytes(3 * 64)
    for stem, body in (("train-images-idx3-ubyte", images), ("train-labels-idx1-ubyte", labels),
                       ("t10k-images-idx3-ubyte", images), ("t10k-labels-idx1-ubyte", labels)):
        (tmp_path / f"{stem}.gz").write_bytes(gzip.compress(body))
    broken = tmp_path / "train-images-idx3-ubyte.gz"
    broken.write_bytes(CORRUPT_GZ[corruption](broken.read_bytes()))
    argv = ["run", "baseline", "--out", str(tmp_path / "out"),
            "--set", f"dataset.mnist_dir={tmp_path}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: dataset.mnist_dir: {broken}: corrupt gzip file")
    assert not (tmp_path / "out").exists()


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

    # label_mode was overwritten for irm and broke every other pipeline
    # mid-training; beta had one working value, 0; literal_step_rule moved
    # tau with positive feedback, which left the adaptive net untrained
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("leaf,value", [("sabotage.label_mode", "reject"),
                                            ("lifestar.beta", "0"),
                                            ("adaptive.literal_step_rule", "true")])
    def test_removed_leaves_are_unknown(self, tmp_path, capsys, monkeypatch,
                                        experiment, leaf, value):
        def load_data(cfg):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "load_data", load_data)
        out = tmp_path / "out"
        argv = ["run", experiment, "--out", str(out), "--set", f"{leaf}={value}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"config error: unknown config key: {leaf}\n"
        assert not out.exists()

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
                "--out",
                str(tmp_path / "out"),
                "--set",
                f"mirror_text.fixtures={bad}",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_fixture_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        argv = ["run", "mirror-text", "--out", str(tmp_path / "out"),
                "--set", f"mirror_text.fixtures={missing}"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: mirror_text.fixtures: cannot read" in err
        assert str(missing) in err

    # an empty path replayed the bundled session while config.json echoed ""
    def test_empty_fixture_path_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "mirror-text", "--out", str(out), "--set", 'mirror_text.fixtures=""']
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: mirror_text: ")
        assert not out.exists()
        with pytest.raises(ConfigError, match="^mirror_text.fixtures: cannot read"):
            run_mirror_text_experiment("")


    # these used to end in a FileExistsError or NotADirectoryError traceback,
    # on data runs only after the dataset had loaded
    @pytest.mark.parametrize("experiment", ["mirror-text", "baseline"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_dir_that_cannot_be_made_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         experiment, below):
        def load_data(cfg):
            raise AssertionError("data loaded for an out_dir that cannot be made")

        monkeypatch.setattr(cli, "load_data", load_data)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "run" if below else taken
        assert cli.main(["run", experiment, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: out_dir: cannot create {out} (")
        assert taken.read_text() == "not a directory\n"

    # `run all` made each method's subdirectory only as the method started,
    # so a file in the way ended in a FileExistsError traceback, after the
    # methods before it had written their reports; then only after the data
    # had loaded, leaving the subdirectories made before it
    @pytest.mark.parametrize("method", [cli.ALL_METHODS[0], cli.ALL_METHODS[-1]])
    def test_run_all_subdir_that_cannot_be_made_is_config_error(self, tiny_config, tmp_path,
                                                                capsys, monkeypatch, method):
        def load_data(cfg):
            raise AssertionError("data loaded for a subdirectory that cannot be made")

        monkeypatch.setattr(cli, "load_data", load_data)
        out = tmp_path / "out"
        out.mkdir()
        (out / method).write_text("not a directory\n")
        assert cli.main(["run", "all", "--config", str(tiny_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out_dir: cannot create {out / method} (")
        assert "Traceback" not in err
        assert list(out.iterdir()) == [out / method]
        assert (out / method).read_text() == "not a directory\n"

    # `run all` read the fixtures only in its last job, after every other
    # method had trained and written its reports
    @pytest.mark.parametrize("content,code,message", [
        (None, 1, "config error: mirror_text.fixtures: cannot read"),
        ('{"kind": "meta"\n', 2, "error: line 1: not valid JSON"),
    ], ids=["missing", "malformed"])
    def test_run_all_checks_the_fixtures_before_the_data_loads(
            self, tiny_config, tmp_path, capsys, monkeypatch, content, code, message):
        def load_data(cfg):
            raise AssertionError("data loaded for fixtures that cannot be replayed")

        monkeypatch.setattr(cli, "load_data", load_data)
        fixtures = tmp_path / "session.jsonl"
        if content is not None:
            fixtures.write_text(content)
        argv = ["run", "all", "--config", str(tiny_config), "--out", str(tmp_path / "out"),
                "--set", f"mirror_text.fixtures={fixtures}"]
        assert cli.main(argv) == code
        assert capsys.readouterr().err.startswith(message)
        assert list(tmp_path.iterdir()) == ([] if content is None else [fixtures])

    @pytest.mark.parametrize("experiment", ["mirror-cnn", "all"])
    def test_missized_mirror_subsets_fail_before_training(self, tmp_path, capsys, experiment):
        # the stock subset_size of 5000 asks for 10000 of 6000 synthetic images
        out = tmp_path / "out"
        argv = ["run", experiment, "--out", str(out),
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
        argv = ["run", "mirror-cnn", "--out", str(tmp_path / "out"),
                "--set", "dataset.source=synthetic", "--set", "dataset.synthetic_train=200",
                "--set", "dataset.synthetic_test=60", "--set", "mirror_cnn.subset_size=50",
                "--set", "mirror_cnn.gate_boundary_fraction=1.5"]
        started = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - started < 2.0
        assert "config error: mirror_cnn: gate_boundary_fraction" in capsys.readouterr().err
        assert not list(tmp_path.rglob("report_*"))

    @pytest.mark.parametrize("leaf,value", [
        ("batch_size", 0), ("epochs", 0), ("gate_epochs", 0), ("gate_hidden", 0),
        ("learning_rate", -0.1), ("learning_rate", 0.0), ("gate_learning_rate", 0.0),
    ])
    def test_bad_mirror_leaf_fails_before_data_loads(self, tmp_path, capsys, monkeypatch,
                                                     leaf, value):
        def load_data(cfg):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "load_data", load_data)
        argv = ["run", "mirror-cnn", "--out", str(tmp_path / "out"),
                "--set", f"mirror_cnn.{leaf}={value}"]
        assert cli.main(argv) == 1
        assert f"config error: mirror_cnn: {leaf} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # channel counts or fc_hidden of 0 used to fail with "fan_in must be
    # positive" once the data had loaded; a gate hidden of 0 or dropout of 1
    # only after the hard pipeline's body had trained, and not at all on
    # baseline
    @pytest.mark.parametrize("experiment,leaf,value,message", [
        ("baseline", "model.conv1_channels", 0, "model: conv1_channels must be >= 1, got 0"),
        ("baseline", "model.conv2_channels", 0, "model: conv2_channels must be >= 1, got 0"),
        ("baseline", "model.fc_hidden", 0, "model: fc_hidden must be >= 1, got 0"),
        ("hard", "gate.hidden", 0, "gate: gate hidden must be >= 1, got 0"),
        ("baseline", "gate.hidden", 0, "gate: gate hidden must be >= 1, got 0"),
        ("hard", "gate.dropout", 1.0, "gate: gate dropout must lie in [0, 1), got 1.0"),
        ("baseline", "gate.dropout", 1.0, "gate: gate dropout must lie in [0, 1), got 1.0"),
        ("hard", "gate.dropout", -0.1, "gate: gate dropout must lie in [0, 1), got -0.1"),
    ])
    def test_bad_model_or_gate_leaf_fails_before_data_loads(self, tmp_path, capsys, monkeypatch,
                                                            experiment, leaf, value, message):
        def load_data(cfg):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "load_data", load_data)
        argv = ["run", experiment, "--out", str(tmp_path / "out"), "--set", f"{leaf}={value}"]
        assert cli.main(argv) == 1
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Each of these exited 1 or 2 only after the data had loaded (NaN and
    # Infinity with a traceback from the config echo), and a sabotage rate
    # of 5 not at all on mirror-cnn, which does not sabotage.
    @pytest.mark.parametrize("via", ["set", "file"])
    @pytest.mark.parametrize("experiment,leaf,text,message", [
        ("baseline", "train.learning_rate", "NaN", "train.learning_rate: expected finite"),
        ("baseline", "sabotage.rate", "Infinity", "sabotage.rate: expected finite"),
        ("mirror-cnn", "mirror_cnn.gate_boundary_fraction", "NaN",
         "mirror_cnn.gate_boundary_fraction: expected finite"),
        ("hard", "hard.cutoff", "-Infinity", "hard.cutoff: expected finite"),
        ("sweep", "sweep.thresholds", "[0.1, NaN]", "sweep.thresholds: expected finite"),
        ("all", "lifestar.gamma", "Infinity", "lifestar.gamma: expected finite"),
        ("baseline", "sabotage.rate", "5", "sabotage: sabotage rate must lie in [0, 1], got 5.0"),
        ("mirror-cnn", "sabotage.rate", "5", "sabotage: sabotage rate must lie in [0, 1]"),
        ("baseline", "hard.auto_quantile", "1.5",
         "hard: auto_quantile must lie in (0, 1), got 1.5"),
        ("mirror-cnn", "hard.cutoff", '"max"', "hard: cutoff must be a number or 'auto'"),
    ])
    def test_bad_number_fails_at_parse_time(self, tmp_path, capsys, monkeypatch, via,
                                             experiment, leaf, text, message):
        def load_data(cfg):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "load_data", load_data)
        argv = ["run", experiment, "--out", str(tmp_path / "out")]
        if via == "set":
            argv += ["--set", f"{leaf}={text}"]
        else:
            section, key = leaf.split(".")
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({section: {key: json.loads(text)}}))
            argv += ["--config", str(path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    # A file and `--set` go through one walker, so each bad leaf fails with
    # one text both ways. The section and object cases used to differ:
    # `--set train=5` read "train is a section, not a value" and `--set
    # model.conv1_channels={"x": 1}` "unknown config key:
    # model.conv1_channels".
    @pytest.mark.parametrize("via", ["set", "file"])
    @pytest.mark.parametrize("key,value,message", [
        ("train.epohcs", 2, "unknown config key: train.epohcs"),
        ("trian.epochs", 2, "unknown config key: trian"),
        ("train", 5, "train: expected a section (object), got 5"),
        ("model.conv1_channels", {"x": 1},
         "model.conv1_channels: expected an integer, got {'x': 1}"),
        ("seed", {"x": 1}, "seed: expected an integer, got {'x': 1}"),
        ("sabotage.rate", "high", "sabotage.rate: expected a number, got 'high'"),
        ("sweep.thresholds", [0.1, "x"],
         "sweep.thresholds: expected a list of numbers, got [0.1, 'x']"),
        ("hard.cutoff", True, "hard.cutoff: expected a number or a string, got True"),
        ("train.epochs", None, "train.epochs: expected an integer, got None"),
        ("dataset.source", None, "dataset.source: expected a string, got None"),
        ("train.learning_rate", float("nan"),
         "train.learning_rate: expected finite numbers, got nan"),
        ("lifestar.alpha", float("inf"), "lifestar.alpha: expected finite numbers, got inf"),
        ("seed", -1, "seed: expected an integer >= 0, got -1"),
        ("dataset.synthetic_train", 0, "dataset: synthetic_train must be >= 1, got 0"),
        ("dataset.source", "bogus",
         "dataset: source must be auto, mnist or synthetic, got 'bogus'"),
        ("mirror_cnn.gate_boundary_fraction", 1,
         "mirror_cnn: gate_boundary_fraction must lie in [0, 1) or be None, got 1.0"),
    ])
    def test_a_bad_leaf_reads_alike_from_a_file_and_from_set(
            self, tmp_path, capsys, monkeypatch, via, key, value, message):
        def load_data(cfg):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "load_data", load_data)
        argv = ["run", "baseline", "--out", str(tmp_path / "out")]
        if via == "set":
            argv += ["--set", f"{key}={json.dumps(value)}"]
        else:
            tree = value
            for part in reversed(key.split(".")):
                tree = {part: tree}
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(tree))
            argv += ["--config", str(path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    # mirror-text loads no data, so an unknown source used to pass it
    # (exit 0, "bogus" echoed into config.json); the others refused it
    # only in load_data
    @pytest.mark.parametrize("experiment", ["mirror-text", "baseline"])
    def test_an_unknown_source_fails_at_parse_time(self, tmp_path, capsys, experiment):
        out = tmp_path / "out"
        argv = ["run", experiment, "--out", str(out), "--set", "dataset.source=bogus"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: dataset: source must be auto, mnist or synthetic, got 'bogus'\n")
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["baseline", "all"])
    @pytest.mark.parametrize("weights,message", [
        ({"alpha": 0.5}, "lifestar: alpha and gamma must be given together"),
        ({"gamma": 0.5}, "lifestar: alpha and gamma must be given together"),
        ({"alpha": -0.5, "gamma": 0.5}, "lifestar: weights must be >= 0"),
    ])
    def test_bad_lifestar_weights_fail_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                         experiment, weights, message):
        # both used to surface only after every experiment of `run all` had
        # written its output, the negative weight with exit 2
        def load_data(cfg):
            raise AssertionError("data loaded for a bad config")

        monkeypatch.setattr(cli, "load_data", load_data)
        argv = ["run", experiment, "--out", str(tmp_path / "out")]
        for key, value in weights.items():
            argv += ["--set", f"lifestar.{key}={value}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    def test_null_boundary_fraction_is_accepted(self):
        cfg = parse_config(None, {"mirror_cnn.gate_boundary_fraction": None})
        assert cfg.data["mirror_cnn"]["gate_boundary_fraction"] is None
        assert cfg.pipeline.mirror_cnn.gate_boundary_fraction is None

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
        argv = ["run", "all", "--out", str(tmp_path / "out"),
                "--set", "dataset.source=synthetic", "--set", "dataset.synthetic_test=10",
                "--set", "mirror_cnn.subset_size=100",
                "--set", "mirror_cnn.train_pool_fraction=0.01"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: mirror_cnn.train_pool_fraction" in err
        assert "0 train indices of 10" in err
        assert not (tmp_path / "out").exists()  # made before the data loads, then removed


# ---------------------------------------------------------- orchestration


# the tests' tiny config, which tools/golden_digests.py runs too
TINY_TREE = Path(__file__).with_name("tiny_tree.json")


@pytest.fixture(scope="module")
def tiny_config() -> Path:
    return TINY_TREE


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
    assert run_cli(args + ["--parallel"]) == 0
    return out


def test_sequential_run_all_builds_the_dataset_once(tiny_config, tmp_path, monkeypatch):
    """One train and one test set for all eight jobs."""
    real, calls = cli.synthetic_mnist_set, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "synthetic_mnist_set", counted)
    out = tmp_path / "out"
    assert run_cli(["run", "all", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert len(calls) == 2


def _touch_256_mib() -> None:
    """Raise this process's high-water mark by 256 MiB, then free it."""
    block = np.ones(256 * 2**20, dtype=np.uint8)
    del block


def _peak_rss_mb(out: Path) -> float:
    return json.loads((out / "metadata.json").read_text())["resources"]["peak_rss_mb"]


@pytest.fixture(scope="module")
def sequential_all_dir(tiny_config, tmp_path_factory):
    """A sequential `run all` in this process, after the process touched
    256 MiB."""
    _touch_256_mib()
    out = tmp_path_factory.mktemp("all_sequential")
    assert run_cli(["run", "all", "--config", str(tiny_config), "--out", str(out)]) == 0
    return out


class TestOwnPeak:
    """Each experiment's peak_rss_mb is its own process's high-water mark,
    though exec keeps the parent's in ru_maxrss. Each run here peaks far
    below the 256 MiB its parent touched."""

    def test_a_run_started_by_a_bigger_process(self, tiny_config, tmp_path):
        _touch_256_mib()
        out = tmp_path / "out"
        src = Path(cli.__file__).resolve().parent.parent
        subprocess.run(
            [sys.executable, "-c", _RUN, "run", "baseline", "--config", str(tiny_config),
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=300,
            check=True,
        )
        assert 0 < _peak_rss_mb(out) < 256

    def test_every_experiment_of_a_sequential_run_all(self, sequential_all_dir):
        for method in cli.ALL_METHODS:
            assert 0 < _peak_rss_mb(sequential_all_dir / method) < 256, method


def test_sequential_and_parallel_run_all_write_the_same_tree(sequential_all_dir, all_dir):
    # the benchmark's digest rule: metadata.json skipped, config.json without
    # out_dir, quarantine logs without latency_s
    tools = Path(__file__).resolve().parents[1] / "tools"
    spec = importlib.util.spec_from_file_location(
        "tools_compare_artifacts", tools / "compare_artifacts.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    sequential = compare.tree_digests(sequential_all_dir)
    assert sequential == compare.tree_digests(all_dir)
    assert {name.split("/")[0] for name in sequential} == {*cli.ALL_METHODS, "lifestar.json"}


def test_run_all_keeps_the_golden_digests(all_dir):
    """The tiny `run all`'s artifacts keep the digests in
    tests/golden_digests.json, which tools/golden_digests.py writes."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    spec = importlib.util.spec_from_file_location("tools_golden_digests",
                                                  tools / "golden_digests.py")
    golden_tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden_tool)
    golden = json.loads(golden_tool.GOLDEN.read_text(encoding="utf-8"))
    here = golden_tool.environment()
    moved = {key: (value, here.get(key)) for key, value in golden["environment"].items()
             if here.get(key) != value}
    if moved:
        pytest.skip(f"golden digests were taken in another environment (golden, here): {moved}")
    found = golden_tool.tree_digests(all_dir)
    assert sorted(found) == sorted(golden["digests"])
    differ = [name for name in sorted(found) if found[name] != golden["digests"][name]]
    assert not differ, f"artifacts whose digest differs from tests/golden_digests.json: {differ}"


def test_a_failing_experiment_stops_a_sequential_run_all(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "all", "--config", str(tiny_config), "--out", str(out),
            "--set", "train.learning_rate=1e30"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.rglob("report_*"))
    # no later experiment started: each would have echoed its config.json first
    for method in cli.ALL_METHODS[1:]:
        assert not any((out / method).iterdir()), method


@pytest.mark.parametrize("auc", [0.25, 0.75])
def test_an_inverted_gate_is_named_on_stderr(tiny_config, tmp_path, capsys, monkeypatch, auc):
    real = training.pretrain_gate
    monkeypatch.setattr(training, "pretrain_gate",
                        lambda *args: dataclasses.replace(real(*args), val_auc=auc))
    out = tmp_path / "out"
    assert run_cli(["run", "hard", "--config", str(tiny_config), "--out", str(out)]) == 0
    extras = json.loads((out / "report_hard_seed0.json").read_text())["extras"]
    assert (extras["gate_val_auc"], extras["gate_inverted"]) == (auc, auc < 0.5)
    lines = [line for line in capsys.readouterr().err.splitlines() if "gate" in line]
    assert lines == (["warning: the hard gate is inverted: it scores sabotaged images"
                      " above clean ones (calibration AUC 0.250)"] if auc < 0.5 else [])


class _Stopped(WorkbenchError):
    """Raised by a stubbed pipeline once it has recorded its call."""


@pytest.mark.parametrize("experiment, name", [
    ("baseline", "train_baseline"), ("soft", "train_soft"), ("hard", "train_hard"),
    ("irm", "train_irm"), ("adaptive", "train_adaptive"), ("sweep", "run_sweep"),
    ("mirror-cnn", "run_mirror_experiment"),
])
def test_run_calls_the_pipeline_found_in_cli_at_run_time(experiment, name, tiny_config,
                                                         tmp_path, monkeypatch):
    """Every CNN pipeline and mirror-cnn is called as (pipeline config, train
    set, test set), and the one that runs is the one in the cli module when
    the run starts, so a wrapper patched in after import (bench/tracer.py's)
    is not bypassed."""
    calls = []

    def stub(cfg, train_set, test_set):
        calls.append(cfg)
        raise _Stopped("stub")

    monkeypatch.setattr(cli, name, stub)
    out = tmp_path / "out"
    sets = {"adaptive.tau": 0.2, "sweep.thresholds": [0.3]}
    args = ["run", experiment, "--config", str(tiny_config), "--out", str(out)]
    for key, value in sets.items():
        args += ["--set", f"{key}={json.dumps(value)}"]
    assert run_cli(args) == 2
    resolved = parse_config(tiny_config, {**sets, "experiment": experiment, "out_dir": str(out)})
    assert calls == [resolved.pipeline]


def test_a_run_builds_each_section_owner_once(tiny_config, tmp_path, monkeypatch):
    """The owners are built when the config is parsed; loading the data and
    calling the pipeline read them from `cfg.pipeline`."""
    builds = _record_builds(monkeypatch)

    def stub(cfg, train_set, test_set):
        raise _Stopped("stub")

    monkeypatch.setattr(cli, "train_baseline", stub)
    argv = ["run", "baseline", "--config", str(tiny_config), "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    assert [owner for owner, _ in builds] == list(SECTIONS.values())


def test_the_removed_offline_knobs_are_refused(tmp_path, capsys):
    """mirror-text only replays recorded sessions; --offline and the
    mirror_text.offline leaf are gone and must not pass silently."""
    out = tmp_path / "out"
    assert run_cli(["run", "mirror-text", "--offline", "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    config = tmp_path / "live.json"
    config.write_text(json.dumps({"mirror_text": {"offline": True}}))
    for extra in (["--config", str(config)], ["--set", "mirror_text.offline=true"]):
        assert run_cli(["run", "mirror-text", "--out", str(out), *extra]) == 1
        assert ("config error: unknown config key: mirror_text.offline"
                in capsys.readouterr().err)
    assert not out.exists()


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
        assert run_cli(["run", "mirror-text", "--out", str(out)]) == 0
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
            config = json.loads((all_dir / method / "config.json").read_text())
            assert config["out_dir"] == str(all_dir / method), method
            assert config["experiment"] == method
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
    ENVIRONMENT = {"numpy", "blas", "blas_version", "blas_config", "blas_threads",
                   "blas_threads_in_effect", "blas_core"}
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

    def test_latencies_count_the_quarantine_log_rows(self, all_dir):
        # one per logged batch; the sweep's keyed by threshold as its log names print it
        def latencies(method):
            return json.loads((all_dir / method / "metadata.json").read_text())["latencies_s"]

        def rows(method, tag):
            log = all_dir / method / f"quarantine_log_{tag}.csv"
            return len(log.read_text().splitlines()) - 1  # the header

        for method, seed in (("soft", 1), ("hard", 2), ("adaptive", 5)):
            assert len(latencies(method)) == rows(method, f"{method}_seed{seed}") > 0, method
        sweep = latencies("sweep")
        assert list(sweep) == ["0.2", "0.5"]
        for tau, values in sweep.items():
            assert len(values) == rows("sweep", f"sweep_tau{tau}_seed4") > 0, tau

    def test_parallel_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        pool = stub_pool(monkeypatch)
        run_all_stubbed(tmp_path, _tiny_sets(), parallel=True)
        assert pool.made["initializer"] is blas.one_thread
        assert pool.made["max_tasks_per_child"] == 1
        assert pool.made["max_workers"] == 4


def test_importing_the_cli_loads_no_process_pool():
    # only `run all --parallel` needs one; every run would pay for its import
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sabotagebench.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


# Runs in a fresh interpreter, since OpenBLAS reads OPENBLAS_NUM_THREADS
# when it loads.
_RUN = "import sys; from sabotagebench.cli import main; sys.exit(main(sys.argv[1:]))"

# Where the thread count showed: at two threads this run wrote another
# model_checksum than at one
_HARD_SEED_31 = [
    "run", "hard", "--seed", "31",
    "--set", "dataset.source=synthetic",
    "--set", "dataset.synthetic_seed=31",
    "--set", "dataset.synthetic_train=1024",
    "--set", "dataset.synthetic_test=256",
    "--set", "train.epochs=1",
    "--set", "train.learning_rate=0.1",
    "--set", "gate.epochs=1",
]


class TestBlasThreads:
    """The CLI runs OpenBLAS on one thread, whatever OPENBLAS_NUM_THREADS
    says, so the variable does not change a run's artifacts."""

    def test_thread_variable_leaves_the_artifacts(self, tmp_path):
        src = Path(cli.__file__).resolve().parent.parent
        found = {}
        for threads in ("2", "1"):
            out = tmp_path / threads
            env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
            subprocess.run(
                [sys.executable, "-c", _RUN, *_HARD_SEED_31, "--out", str(out)],
                env=dict(env, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                timeout=300,
                check=True,
            )
            environment = json.loads((out / "metadata.json").read_text())["environment"]
            assert environment["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
            if blas.in_effect()["threads"] is not None:
                assert environment["blas_threads_in_effect"] == 1
            found[threads] = _artifacts(out)
            config = json.loads(found[threads].pop("config.json"))
            assert config.pop("out_dir") == str(out)
            found[threads]["config.json"] = config
        assert found["2"] == found["1"]

    def test_the_session_runs_one_thread(self):
        effect = blas.in_effect()
        if effect["threads"] is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        assert effect["threads"] == 1
        assert isinstance(effect["core"], str) and effect["core"]

    def test_nothing_to_set_without_a_bundled_openblas(self, monkeypatch):
        monkeypatch.setattr(blas, "_library", lambda: None)
        assert blas.one_thread() is False
        assert blas.in_effect() == {"threads": None, "core": None}


def _tiny_sets():
    """A (train, test) pair of four 8x8 synthetic images each."""
    return tuple(cli.synthetic_mnist_set(4, seed, image_size=8) for seed in (0, 1))


def run_all_stubbed(out: Path, data, parallel: bool, **sets) -> list[dict]:
    """`cli.run_all` on `data`, for the stock `run all` config with its
    out_dir at `out` and the leaves `sets` (dotted path to value)."""
    cfg = parse_config(None, {**sets, "experiment": "all", "out_dir": str(out)})
    return cli.run_all(cfg, cli._jobs(cfg), data, parallel)


def stub_pool(monkeypatch):
    """Put a stand-in for the process pool in concurrent.futures, where
    run_all imports it from, and return its class. It records its keyword
    arguments in `made` and each submitted call in `calls`, and each
    submitted job completes at once, without running, with a summary that
    names the job's experiment."""

    class Pool:
        made: dict = {}
        calls: list = []

        def __init__(self, **kwargs):
            Pool.made, Pool.calls = kwargs, []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job, *args):
            Pool.calls.append((fn, job, *args))
            future = concurrent.futures.Future()
            future.set_result({"experiment": job.data["experiment"], "detection_f1": 0.8,
                               "self_vs_cross_accuracy": 0.9})
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return Pool


class TestRunAllLifestar:
    """lifestar.json branches, with the per-method runs stubbed out."""

    def run(self, tmp_path, monkeypatch, weights):
        pool = stub_pool(monkeypatch)
        run_all_stubbed(tmp_path, _tiny_sets(), False,
                        **{f"lifestar.{k}": v for k, v in zip(("alpha", "gamma"), weights)})
        # without --parallel, one job at a time, each in a fresh process
        assert (pool.made["max_workers"], pool.made["max_tasks_per_child"]) == (1, 1)
        return json.loads((tmp_path / "lifestar.json").read_text())

    def test_score_computed(self, tmp_path, monkeypatch):
        payload = self.run(tmp_path, monkeypatch, (0.5, 0.5))
        # self_maint = f1 = 0.8; self_recog = (0.9 - 0.5) / 0.5 = 0.8
        assert payload == {"alpha": 0.5, "gamma": 0.5, "score": pytest.approx(0.8),
                           "self_maint": pytest.approx(0.8), "self_recog": pytest.approx(0.8)}

    def test_no_weights_no_file(self, tmp_path, monkeypatch):
        stub_pool(monkeypatch)
        run_all_stubbed(tmp_path, _tiny_sets(), parallel=False)
        assert not (tmp_path / "lifestar.json").exists()


class TestRunAllHandOff:
    """`run all` hands each job its data as a file, not as a pickled
    argument that its process would hold beside the arrays rebuilt from it."""

    def test_a_job_is_sent_without_the_dataset(self, tmp_path, monkeypatch):
        pool = stub_pool(monkeypatch)
        data = tuple(cli.synthetic_mnist_set(1000, seed) for seed in (0, 1))  # 3 MiB each
        run_all_stubbed(tmp_path, data, parallel=False)
        assert [call[1].data["experiment"] for call in pool.calls] == list(cli.ALL_METHODS)
        for call in pool.calls:
            assert len(pickle.dumps(call)) < 2**16

    def test_each_job_reads_the_sets_it_was_given(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli, "run_single",
                            lambda job, data: seen.setdefault(job.data["experiment"], data))
        data, sets = _tiny_sets(), tmp_path / "sets.npz"
        cli._save_sets(sets, data)
        for experiment in ("baseline", "mirror-text"):
            cli._run_saved(parse_config(None, {"experiment": experiment}), sets)
        for got, given in zip(seen["baseline"], data):
            for name in ("images", "labels"):
                assert getattr(got, name).dtype == getattr(given, name).dtype
                np.testing.assert_array_equal(getattr(got, name), getattr(given, name))
        # mirror-text reads no dataset, so its process loads none
        assert seen["mirror-text"] is None
