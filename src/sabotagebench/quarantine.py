"""Per-sample weighting, flagging, threshold sweeps, and the
adaptive confidence-threshold controller.

Weighting: w = clip(weight_conf * gate_out**alpha, 0, 1) where weight_conf
scales linearly below the confidence threshold and saturates at 1 above it.
A sample is flagged when w falls strictly below the soft flag threshold.

The controller holds the flagged fraction inside a target band by moving the
cutoff tau with negative feedback: too many flags -> flag fewer, too few ->
flag more. Samples are flagged when their max softmax probability is below
tau, so "flag fewer" means lowering tau.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, WorkbenchError


@dataclass
class SoftWeightConfig:
    confidence_threshold: float = 0.1
    gate_exponent: float = 2.0
    soft_flag_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.confidence_threshold < 1:
            raise ValidationError(
                f"confidence_threshold must lie in (0, 1), got {self.confidence_threshold}"
            )
        if self.gate_exponent <= 0:
            raise ValidationError(f"gate_exponent must be > 0, got {self.gate_exponent}")
        if not 0 < self.soft_flag_threshold < 1:
            raise ValidationError(
                f"soft_flag_threshold must lie in (0, 1), got {self.soft_flag_threshold}"
            )


def decide(max_prob: np.ndarray, gate_out: np.ndarray, cfg: SoftWeightConfig):
    """The weighting and flagging above, over a batch's rows: returns
    (weight_conf, w, flags), two float64 arrays and a bool array.
    `SoftWeightConfig` has checked the thresholds and alpha."""
    max_prob = np.asarray(max_prob, dtype=np.float64)
    if max_prob.size and (max_prob.min() < 0 or max_prob.max() > 1):
        raise ValidationError("max_prob values must lie in [0, 1]")
    t = cfg.confidence_threshold
    wc = np.where(max_prob < t, max_prob / t, 1.0)
    w = np.clip(wc * np.asarray(gate_out, dtype=np.float64) ** cfg.gate_exponent, 0.0, 1.0)
    return wc, w, w < cfg.soft_flag_threshold


# ------------------------------------------------------------- controller


@dataclass(frozen=True)
class AdaptiveControllerState:
    """Current cutoff tau plus controller constants and the flagged-fraction
    history window (most recent last)."""

    tau: float = 0.30
    tau_min: float = 0.05
    tau_max: float = 0.95
    delta: float = 0.01
    window: int = 20
    upper_bound: float = 0.15
    lower_bound: float = 0.05
    history: tuple = ()

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValidationError(f"controller delta must be > 0, got {self.delta}")
        if self.lower_bound >= self.upper_bound:
            raise ValidationError(
                f"controller bounds inverted: lower {self.lower_bound} >= upper {self.upper_bound}"
            )
        if self.tau_min > self.tau_max:
            raise ValidationError(
                f"tau_min {self.tau_min} exceeds tau_max {self.tau_max}"
            )
        if not self.tau_min <= self.tau <= self.tau_max:
            raise ValidationError(
                f"tau {self.tau} outside [{self.tau_min}, {self.tau_max}]"
            )
        if self.window < 1:
            raise ValidationError(f"controller window must be >= 1, got {self.window}")

    @property
    def f_avg(self) -> float:
        if not self.history:
            return 0.0
        return float(sum(self.history) / len(self.history))


def adaptive_update(
    state: AdaptiveControllerState, batch_flagged_fraction: float
) -> AdaptiveControllerState:
    """Push the batch's flagged fraction and move tau by delta when the window
    mean leaves the band; tau is always clamped to [tau_min, tau_max]."""
    if not 0 <= batch_flagged_fraction <= 1:
        raise ValidationError(
            f"flagged fraction must lie in [0, 1], got {batch_flagged_fraction}"
        )
    history = (state.history + (float(batch_flagged_fraction),))[-state.window :]
    f_avg = sum(history) / len(history)
    tau = state.tau
    if f_avg > state.upper_bound:
        # Too much is being flagged. Samples are flagged when their confidence
        # is below tau, so negative feedback lowers tau.
        tau -= state.delta
    elif f_avg < state.lower_bound:
        tau += state.delta
    tau = min(max(tau, state.tau_min), state.tau_max)
    return replace(state, tau=tau, history=history)


def sweep_thresholds(values, train_fn) -> list:
    """Run train_fn(threshold) for each value; returns the per-threshold reports.

    `SweepConfig` checks the values. Errors from train_fn name the
    threshold: a WorkbenchError is re-raised with it prefixed to the message,
    any other exception keeps its type and gets a note, since its
    constructor may take other arguments.
    """
    reports = []
    for value in values:
        try:
            reports.append(train_fn(value))
        except WorkbenchError as exc:
            raise type(exc)(f"threshold {value}: {exc}") from exc
        except Exception as exc:
            exc.add_note(f"threshold {value}")
            raise
    return reports
