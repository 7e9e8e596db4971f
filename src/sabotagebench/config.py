"""Experiment configuration: defaults, JSON file layer, flag overrides.

Resolution order is defaults < file < flags; the resolved mapping is
echoed into every output directory so a run can be reproduced from its
artifacts alone.  Validation is strict: an unknown key anywhere in the
tree fails with its dotted path, and values must match the type of the
default they replace.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .dataset import SabotageConfig
from .errors import ConfigError, ValidationError
from .mirror_cnn import MirrorCnnConfig
from .models import ModelConfig
from .quarantine import AdaptiveControllerState, SoftWeightConfig
from .training import (
    GateTrainConfig,
    PipelineConfig,
    SweepConfig,
    TrainConfig,
)

ALL_METHODS = (
    "baseline",
    "soft",
    "hard",
    "irm",
    "sweep",
    "adaptive",
    "mirror-cnn",
    "mirror-text",
)
EXPERIMENTS = (*ALL_METHODS, "all")

# The dataclass that owns each of these sections: its fields are the
# section's leaves, its field defaults their defaults, and
# `ExperimentConfig.build` turns the resolved section into one.
SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
    "soft": SoftWeightConfig,
    "gate": GateTrainConfig,
    "sweep": SweepConfig,
    "adaptive": AdaptiveControllerState,
    "mirror_cnn": MirrorCnnConfig,
}
# The one owner field no config sets: the controller's running history.
_NOT_LEAVES = {"history"}


def _leaves(owner) -> dict[str, Any]:
    """An owner's config leaves with their defaults; tuples become lists."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(owner)
        if f.name not in _NOT_LEAVES
    }


_PIPELINE = PipelineConfig()

DEFAULTS: dict[str, Any] = {
    "experiment": "baseline",
    "seed": 0,
    "out_dir": "runs",
    "dataset": {
        # auto: use mnist_dir when its four IDX files exist, else the
        # built-in synthetic glyph set (keeps every command runnable
        # without a download).
        "source": "auto",
        "mnist_dir": "data/mnist",
        "synthetic_train": 6000,
        "synthetic_test": 1000,
        "synthetic_seed": 1234,
    },
    "sabotage": {
        "rate": _PIPELINE.sabotage.rate,
        "label_mode": _PIPELINE.sabotage.label_mode,
    },
    "hard": {
        "cutoff": _PIPELINE.hard_cutoff,
        "auto_quantile": _PIPELINE.hard_auto_quantile,
    },
    **{name: _leaves(owner) for name, owner in SECTIONS.items()},
    "mirror_text": {"fixtures": None},
    # Life* weights have no published defaults; leave unset and require
    # all three explicitly before the score is computed.
    "lifestar": {"alpha": None, "beta": None, "gamma": None},
}

# Integer leaves with no owning dataclass to check them, and their least values.
_MINIMUMS = {"seed": 0, "dataset.synthetic_seed": 0, "dataset.synthetic_train": 1,
             "dataset.synthetic_test": 1}
# Number leaves that also take null, as their owning dataclass does.
_NULLABLE_NUMBERS = {"mirror_cnn.gate_boundary_fraction"}

# Leaves whose accepted values cannot be inferred from the default alone.
_SPECIAL_LEAVES = {
    "hard.cutoff": "number or 'auto'",
    "mirror_text.fixtures": "path string or null",
    "lifestar.alpha": "number or null",
    "lifestar.beta": "number or null",
    "lifestar.gamma": "number or null",
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_leaf(path: str, default: Any, value: Any) -> Any:
    if path in _SPECIAL_LEAVES:
        ok = (
            (path == "hard.cutoff" and (_is_number(value) or value == "auto"))
            or (path == "mirror_text.fixtures" and (value is None or isinstance(value, str)))
            or (path.startswith("lifestar.") and (value is None or _is_number(value)))
        )
        if not ok:
            raise ConfigError(f"{path}: expected {_SPECIAL_LEAVES[path]}, got {value!r}")
    elif value is None and path in _NULLABLE_NUMBERS:
        return None
    elif isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
    elif isinstance(default, int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif isinstance(default, float):
        if not _is_number(value):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        value = float(value)
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
    elif isinstance(default, list):
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
        value = [float(v) for v in value]
    # JSON's NaN and Infinity tokens parse; no leaf takes them, and the
    # echoed config.json could not hold them
    if any(isinstance(v, float) and not math.isfinite(v)
           for v in (value if isinstance(value, list) else [value])):
        raise ConfigError(f"{path}: expected finite numbers, got {value!r}")
    return value


def _merge(base: dict, incoming: Mapping, prefix: str = "") -> None:
    for key, value in incoming.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key: {path}")
        if isinstance(base[key], dict):
            if not isinstance(value, Mapping):
                raise ConfigError(f"{path}: expected a section (object), got {value!r}")
            _merge(base[key], value, prefix=f"{path}.")
        else:
            base[key] = _check_leaf(path, DEFAULTS_LEAF[path], value)


def _flatten(tree: Mapping, prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{path}."))
        else:
            flat[path] = value
    return flat


DEFAULTS_LEAF = _flatten(DEFAULTS)


def _set_dotted(tree: dict, path: str, value: Any) -> None:
    parts = path.split(".")
    node = tree
    walked = []
    for part in parts[:-1]:
        walked.append(part)
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key: {'.'.join(walked)}")
        node = node[part]
    leaf = parts[-1]
    full = ".".join(parts)
    if leaf not in node:
        raise ConfigError(f"unknown config key: {full}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"{full} is a section, not a value")
    node[leaf] = _check_leaf(full, DEFAULTS_LEAF[full], value)


def parse_override(text: str) -> tuple[str, Any]:
    """Parse one ``dotted.key=value`` CLI override; values are JSON when
    they parse as JSON, bare strings otherwise."""
    if "=" not in text:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


@dataclass
class ExperimentConfig:
    """Fully resolved configuration tree with typed builders.

    Builders hand sub-sections to the dataclasses that own their
    validation; any rejection is re-raised as a ConfigError carrying the
    section name so the CLI exits with the config status code. Every
    `SECTIONS` owner, the pipeline with its `sabotage` and `hard` leaves,
    and the Life* weights are checked once here, so a bad value fails at
    parse time, before any data loads or any experiment of `run all` trains.
    """

    data: dict[str, Any]

    def __post_init__(self) -> None:
        if self.data["experiment"] not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: expected one of {', '.join(EXPERIMENTS)}, "
                f"got {self.data['experiment']!r}"
            )
        flat = _flatten(self.data)
        for path, least in _MINIMUMS.items():
            if flat[path] < least:
                raise ConfigError(f"{path}: expected an integer >= {least}, got {flat[path]}")
        for name in SECTIONS:
            self.build(name)
        self.pipeline_config("baseline")
        weights = self.section("lifestar").values()
        if None in weights and any(v is not None for v in weights):
            raise ConfigError("lifestar: alpha, beta, gamma must be given together")
        if any(v is not None and v < 0 for v in weights):
            raise ConfigError(f"lifestar: weights must be >= 0, got {list(weights)}")

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def out_dir(self) -> Path:
        return Path(self.data["out_dir"])

    def section(self, name: str) -> dict[str, Any]:
        return self.data[name]

    def _build(self, section: str, factory, **kwargs):
        try:
            return factory(**kwargs)
        except ValidationError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    def sabotage_config(self, *, label_mode: str | None = None) -> SabotageConfig:
        sab = self.section("sabotage")
        return self._build(
            "sabotage",
            SabotageConfig,
            rate=sab["rate"],
            label_mode=label_mode or sab["label_mode"],
        )

    def build(self, name: str):
        """The `SECTIONS` owner of section `name`, built from its leaves."""
        leaves = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in self.section(name).items()
        }
        return self._build(name, SECTIONS[name], **leaves)

    def pipeline_config(self, method: str) -> PipelineConfig:
        label_mode = "reject" if method == "irm" else None
        hard = self.section("hard")
        return self._build(
            "hard",
            PipelineConfig,
            seed=self.seed,
            sabotage=self.sabotage_config(label_mode=label_mode),
            model=self.build("model"),
            train=self.build("train"),
            soft=self.build("soft"),
            gate=self.build("gate"),
            hard_cutoff=hard["cutoff"],
            hard_auto_quantile=hard["auto_quantile"],
        )

    def lifestar_weights(self) -> tuple[float, float, float] | None:
        """(alpha, beta, gamma), or None when no Life* score is asked for."""
        ls = self.section("lifestar")
        if ls["alpha"] is None:
            return None
        return float(ls["alpha"]), float(ls["beta"]), float(ls["gamma"])


def parse_config(
    path: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentConfig:
    """Layered resolution: package defaults, then the JSON file, then
    flag overrides; each layer is validated against the defaults tree.

    An empty file (or ``{}``) is valid and yields pure defaults.
    """
    resolved = copy.deepcopy(DEFAULTS)
    if path is not None:
        file_path = Path(path)
        try:
            text = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {file_path}: {exc}") from exc
        if text.strip():
            try:
                tree = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"config file {file_path} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(tree, dict):
                raise ConfigError(
                    f"config file {file_path} must hold a JSON object"
                )
            _merge(resolved, tree)
    for key, value in (overrides or {}).items():
        _set_dotted(resolved, key, value)
    return ExperimentConfig(resolved)
