"""Detection metrics and the Life* score.

Division conventions: precision, recall, F1 and accuracy-on-accepted all
return 0 on 0/0 (required to represent degenerate regimes such as an empty
accepted set without raising).

The paper's Life* checklist holds for a system that meets the Oxford
definition without being purely carbon-based, the NASA definition through
functional analogs, or Koshland's criteria minus energy; `lifestar`
scores only the weighted sum built on it.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValidationError("confusion counts must be nonnegative")


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


def separation_auc(scores, positive) -> float | None:
    """AUC of the positive rows' scores over the others: the chance that a
    positive row outscores a negative one, a tie counting 1/2, in rank-sum
    (Mann-Whitney U) form with tied scores sharing their mean rank. None
    when either class is empty."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positive = np.asarray(positive, dtype=bool).ravel()
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if not n_pos or not n_neg:
        return None
    order = np.argsort(scores, kind="stable")
    _, first, runs = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(first + (runs + 1) / 2, runs)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


# ---------------------------------------------------------------- Life*


@dataclass
class LifestarWeights:
    """The Life* weights, which have no published defaults: both, each
    >= 0, or neither when no score is asked for."""

    alpha: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        weights = [self.alpha, self.gamma]
        if None in weights and any(v is not None for v in weights):
            raise ValidationError("alpha and gamma must be given together")
        if any(v is not None and v < 0 for v in weights):
            raise ValidationError(f"weights must be >= 0, got {weights}")


def lifestar(weights: tuple[float, float], detection_f1: float,
             pair_accuracy: float) -> dict:
    """The lifestar.json payload for weights (alpha, gamma), as
    `LifestarWeights` checked them.

    Score = alpha*SelfMaint + gamma*SelfRecog, with SelfMaint the detection
    F1 and SelfRecog the mirror pair accuracy above chance, (accuracy -
    0.5) / 0.5 clipped to [0, 1]. The paper's third term, EmergComp, has no
    computable value in this workbench, so the score has no such term.
    """
    for name, value in (("F1", detection_f1), ("pair accuracy", pair_accuracy)):
        if not 0 <= value <= 1:
            raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    alpha, gamma = weights
    self_maint = float(detection_f1)
    self_recog = float(min(max((pair_accuracy - 0.5) / 0.5, 0.0), 1.0))
    score = alpha * self_maint + gamma * self_recog
    return {"alpha": alpha, "gamma": gamma, "score": score,
            "self_maint": self_maint, "self_recog": self_recog}
