"""Experiment configuration: defaults, JSON file layer, flag overrides.

Resolution order is defaults < file < flags; the resolved mapping is
echoed into every output directory so a run can be reproduced from its
artifacts alone.  Every section has one owner dataclass: its fields are
the section's leaves and their defaults, each field's annotation gives the
JSON kinds its leaf takes, and the owner's own checks give the ranges.  A
`--set a.b=v` flag is merged as the file layer `{"a": {"b": v}}` would be,
so a file and a flag meet one rule set and fail with one message: an
unknown key or a wrong kind names its dotted path, an out-of-range value
its section and field.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, get_args, get_type_hints

from .dataset import DatasetConfig, SabotageConfig
from .errors import ConfigError, ValidationError
from .metrics import LifestarWeights
from .mirror_cnn import MirrorCnnConfig
from .models import ModelConfig
from .quarantine import AdaptiveControllerState, SoftWeightConfig
from .training import GateTrainConfig, HardConfig, SweepConfig, TrainConfig

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


@dataclass
class MirrorTextConfig:
    """The recorded session `mirror-text` replays: a JSONL path, or None for
    the bundled one. It lives here so that training runs never import
    `mirror_text`, which checks the file when it loads it."""

    fixtures: str | None = None

    def __post_init__(self) -> None:
        if self.fixtures == "":
            raise ValidationError("fixtures must name a file, or be null for the bundled one")


@dataclass
class PipelineConfig:
    """The typed config of a run: its seed and, under each section's name,
    that section's owner. `ExperimentConfig` builds it once per run, and
    every experiment but mirror-text is called as `f(cfg, train_set,
    test_set)` with it."""

    seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    sabotage: SabotageConfig = field(default_factory=SabotageConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    soft: SoftWeightConfig = field(default_factory=SoftWeightConfig)
    gate: GateTrainConfig = field(default_factory=GateTrainConfig)
    hard: HardConfig = field(default_factory=HardConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    adaptive: AdaptiveControllerState = field(default_factory=AdaptiveControllerState)
    mirror_cnn: MirrorCnnConfig = field(default_factory=MirrorCnnConfig)
    mirror_text: MirrorTextConfig = field(default_factory=MirrorTextConfig)
    lifestar: LifestarWeights = field(default_factory=LifestarWeights)


# Each section's name and owner, in PipelineConfig's order
SECTIONS = {name: kind for name, kind in get_type_hints(PipelineConfig).items() if name != "seed"}
# The owner fields no config sets: the controller's running history, and
# the sabotage label mode, which `train_irm` sets to its reject labels.
_NOT_LEAVES = {"history", "label_mode"}


def _leaf_table() -> tuple[dict[str, Any], dict[str, tuple]]:
    """The defaults tree, and the types each leaf's annotation admits by
    dotted path (a top-level leaf: its default's type)."""
    defaults: dict[str, Any] = {"experiment": "baseline", "seed": 0, "out_dir": "runs"}
    kinds = {key: (type(value),) for key, value in defaults.items()}
    for section, owner in SECTIONS.items():
        hints = get_type_hints(owner)
        leaves = defaults[section] = {}
        for f in fields(owner):
            if f.name not in _NOT_LEAVES:
                leaves[f.name] = list(f.default) if isinstance(f.default, tuple) else f.default
                kinds[f"{section}.{f.name}"] = get_args(hints[f.name]) or (hints[f.name],)
    return defaults, kinds


DEFAULTS, _KINDS = _leaf_table()


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# For each annotated type: its name in messages, the JSON values it takes,
# and the value it stores.
_RULES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), None),
    # + 0.0 stores -0.0 as 0.0, so no number leaf carries a signed zero
    float: ("a number", _is_number, lambda v: float(v) + 0.0),
    str: ("a string", lambda v: isinstance(v, str), None),
    tuple: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
            lambda v: [float(x) for x in v]),
    type(None): ("null", lambda v: v is None, None),
}


def _check_leaf(path: str, value: Any) -> Any:
    kinds = _KINDS[path]
    for kind in kinds:
        _, takes, store = _RULES[kind]
        if takes(value):
            value = store(value) if store else value
            break
    else:
        names = " or ".join(_RULES[kind][0] for kind in kinds)
        raise ConfigError(f"{path}: expected {names}, got {value!r}")
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
            base[key] = _check_leaf(path, value)


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


def _build(name: str, leaves: Mapping[str, Any]):
    """The `SECTIONS` owner of section `name`, built from its resolved
    leaves; a rejection becomes a ConfigError naming the section."""
    try:
        return SECTIONS[name](**{key: tuple(value) if isinstance(value, list) else value
                                 for key, value in leaves.items()})
    except ValidationError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """The resolved config tree, `data`, and its typed form, `pipeline`.

    Every `SECTIONS` owner is built once, here, so a bad value fails at
    parse time, before any data loads or any experiment of `run all`
    trains. `data` is what config.json echoes and the digest covers.
    """

    data: dict[str, Any]
    pipeline: PipelineConfig = field(init=False)

    def __post_init__(self) -> None:
        if self.data["experiment"] not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: expected one of {', '.join(EXPERIMENTS)}, "
                f"got {self.data['experiment']!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed: expected an integer >= 0, got {self.seed}")
        self.pipeline = PipelineConfig(
            seed=self.seed, **{name: _build(name, self.data[name]) for name in SECTIONS})

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def out_dir(self) -> Path:
        return Path(self.data["out_dir"])


def parse_config(
    path: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentConfig:
    """Layered resolution: package defaults, then the JSON file, then
    flag overrides, each override merged as the one-leaf tree its dotted
    key names.

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
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(resolved, value)
    return ExperimentConfig(resolved)
