"""Detection metrics and the Life* aggregates.

Division conventions: precision, recall, F1 and accuracy-on-accepted all
return 0 on 0/0 (required to represent degenerate regimes such as an empty
accepted set without raising).
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import UnavailableMetricError, ValidationError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValidationError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(flags, sabotage_mask) -> ConfusionCounts:
    """Flag-vs-sabotage confusion: TP = flagged & sabotaged, FP = flagged & clean."""
    flags = np.asarray(flags, dtype=bool)
    mask = np.asarray(sabotage_mask, dtype=bool)
    if flags.shape != mask.shape:
        raise ValidationError(
            f"flags and sabotage mask lengths differ: {flags.shape} vs {mask.shape}"
        )
    return ConfusionCounts(
        tp=int(np.sum(flags & mask)),
        fp=int(np.sum(flags & ~mask)),
        fn=int(np.sum(~flags & mask)),
        tn=int(np.sum(~flags & ~mask)),
    )


def prf(counts: ConfusionCounts) -> tuple[float, float, float]:
    """(precision, recall, F1) with 0/0 -> 0."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def accuracy_on_accepted(predictions, labels, accepted) -> tuple[float, bool]:
    """Accuracy over accepted samples only; empty accepted set -> (0.0, True)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    accepted = np.asarray(accepted, dtype=bool)
    if not predictions.shape == labels.shape == accepted.shape:
        raise ValidationError(
            "predictions/labels/accepted lengths differ: "
            f"{predictions.shape} vs {labels.shape} vs {accepted.shape}"
        )
    kept = int(accepted.sum())
    if kept == 0:
        return 0.0, True
    correct = int(np.sum((predictions == labels) & accepted))
    return correct / kept, False


@dataclass(frozen=True)
class DetectionMetrics:
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    rejection_rate: float
    accuracy_on_accepted: float
    accepted_empty: bool

    def to_dict(self) -> dict:
        """The block's fields, with the confusion counts at the top level."""
        out = asdict(self)
        return {**out.pop("counts"), **out}


def detection_metrics(
    flags,
    sabotage_mask,
    accuracy: float,
    accepted_empty: bool,
) -> DetectionMetrics:
    """Assemble the full metric block from raw flag/sabotage vectors."""
    counts = confusion(flags, sabotage_mask)
    p, r, f1 = prf(counts)
    flagged = np.asarray(flags, dtype=bool)
    return DetectionMetrics(
        counts=counts,
        precision=p,
        recall=r,
        f1=f1,
        rejection_rate=float(flagged.mean()) if flagged.size else 0.0,
        accuracy_on_accepted=float(accuracy),
        accepted_empty=bool(accepted_empty),
    )


# ---------------------------------------------------------------- Life*


@dataclass(frozen=True)
class LifeStarInputs:
    alpha: float
    beta: float
    gamma: float
    self_maint: float
    self_recog: float
    emerg_comp: float | None = None

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValidationError("Life* weights must be >= 0")
        for name, value in (("self_maint", self.self_maint), ("self_recog", self.self_recog)):
            if not 0 <= value <= 1:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if self.emerg_comp is not None and not 0 <= self.emerg_comp <= 1:
            raise ValidationError(f"emerg_comp must lie in [0, 1], got {self.emerg_comp}")


def lifestar_score(inputs: LifeStarInputs) -> float:
    """alpha*SelfMaint + beta*EmergComp + gamma*SelfRecog.

    EmergComp has no computable definition in this workbench; weighting an
    unavailable component is an explicit error, never a silent zero.
    """
    if inputs.emerg_comp is None:
        if inputs.beta > 0:
            raise UnavailableMetricError(
                "EmergComp has no computable value; set beta to 0 or supply emerg_comp"
            )
        emerg = 0.0
    else:
        emerg = inputs.emerg_comp
    return (
        inputs.alpha * inputs.self_maint
        + inputs.beta * emerg
        + inputs.gamma * inputs.self_recog
    )


@dataclass(frozen=True)
class LifeStarChecklist:
    """Boolean criteria; every field must be set explicitly. Kept with no
    caller: it states the paper's Life* checklist (Oxford, NASA, Koshland)."""

    oxford: bool
    purely_carbon: bool
    nasa: bool
    functional_analogs: bool
    koshland_minus_energy: bool


def lifestar_predicate(c: LifeStarChecklist) -> bool:
    """The paper's Life* predicate over the checklist; kept with
    LifeStarChecklist, as the definition the Life* score builds on."""
    return (
        (c.oxford and not c.purely_carbon)
        or (c.nasa and c.functional_analogs)
        or c.koshland_minus_energy
    )


def self_maint_component(detection_f1: float) -> float:
    """Mapping convention: self-maintenance score = detection F1."""
    if not 0 <= detection_f1 <= 1:
        raise ValidationError(f"F1 must lie in [0, 1], got {detection_f1}")
    return float(detection_f1)


def self_recog_component(pair_accuracy: float) -> float:
    """Mapping convention: (pair accuracy - 0.5) / 0.5, clipped to [0, 1]."""
    if not 0 <= pair_accuracy <= 1:
        raise ValidationError(f"pair accuracy must lie in [0, 1], got {pair_accuracy}")
    return float(min(max((pair_accuracy - 0.5) / 0.5, 0.0), 1.0))
