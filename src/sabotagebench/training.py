"""End-to-end training pipelines.

  baseline  plain classifier on the poisoned stream, no defense
  soft      per-sample loss scaled by w = clip(conf * gate**alpha, 0, 1);
            flags (w below the soft threshold) are logged and define
            "accepted" at evaluation but never remove samples from the loss
  hard      samples whose w falls below a cutoff are discarded from the loss
  irm       integrated rejection: sabotaged samples relabeled to the extra
            class n, standard CE over n+1 logits, argmax == n rejects
  sweep     confidence-only quarantine (flag iff max prob < tau, flagged
            excluded from the loss) retrained per threshold value
  adaptive  same quarantine with tau driven by the feedback controller

Each is called as `train_<method>(cfg, train_set, test_set)` (`run_sweep`
for the sweep), as mirror-cnn's `run_mirror_experiment` is, where `cfg` is
the run's one `config.PipelineConfig`, built when its config was parsed.
Soft and hard also take an optional pre-trained `GateAsset`, which tests
pass to share one gate.

All of them, the gate's disposable body and the mirror nets train in one
loop, `fit`: take a batch, forward it, let a policy decide, log, step. The
pipelines differ only in their seed streams, their policy and their final
flag rule. A policy maps a batch's logits and midlayer to a `Decision` of
one of two kinds:

  weights   every row trains, its loss scaled per row (`_fit_step`):
            baseline, irm, soft, the gate's body and the mirror nets
  accepted  only the rows not flagged train (`_fit_accepted`), and a batch
            with none left starves: hard, sweep and adaptive

A policy that flags (soft, hard, sweep, adaptive) also gives the tau and
f_avg of the batch's quarantine log row. One function, `_infer`, gives the
softmax (and gate scores) behind every final evaluation and test error.

Every pipeline derives all randomness from named streams of one seed, so
method variants that make identical choices (soft with unit weights, hard
with cutoff 0) reproduce the baseline trajectory bit for bit.

Each input goes through the conv trunk once per set of weights, with one
exception: the final evaluation (`_run`) runs the trunk over the whole
freshly poisoned test stream, whose clean rows the last epoch's test-error
pass already ran with the same weights. An accepted step trains through
the scoring forward's cache, cut down in place by `SimpleCNN.narrow` (the
same dict object `forward` returned, which backward then takes); only the
fc head is rerun, because a 1-row head GEMM goes through GEMV and rounds
differently from the same row of the full batch.
The gate pre-training looks the frozen body's midlayer of clean images up
in a table (25 KB per training image at the stock shapes: 150 MB for 6000
images, about 1.5 GB for the 60 000 of real MNIST) and forwards only the
inverted rows of each batch.

Inference keeps no cache (`extract_embeddings`). The conv trunk runs in
pieces of a training batch's size, so no inference buffer is bigger than a
training step's; the fc head and the gate still see each 512-row chunk of
`_infer` at once, so their GEMMs round as one forward of the chunk did.

Evaluation poisons the test stream at the training rate under a distinct
seed stream. Accuracy-on-accepted is computed over accepted AND clean
samples against original labels; counting accepted-but-sabotaged samples
(inverted pixels, corrupted labels) would make the metric unreachable for
any defense that lets a single poisoned sample through.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .dataset import (N_CLASSES, REJECT_LABEL, MnistSet, SabotageConfig, SabotagedBatch,
                      inject_sabotage)
from .errors import ValidationError, WorkbenchError
from .metrics import (
    ConfusionCounts,
    DetectionMetrics,
    accuracy_on_accepted,
    confusion,
    detection_metrics,
    prf,
    separation_auc,
)
from .models import (
    GateConfig,
    MlpBinary,
    SimpleCNN,
    extract_embeddings,
    make_irm_model,
)
from .nncore import (
    bce_with_logits,
    bce_with_logits_backward,
    sgd_step,
    softmax,
    weighted_softmax_ce,
    weighted_softmax_ce_backward,
)
from .quarantine import (
    AdaptiveControllerState,
    adaptive_update,
    decide,
    sweep_thresholds,
)
from .rng import stream

if TYPE_CHECKING:  # config imports this module's section owners
    from .config import PipelineConfig

BASELINE = "baseline"
SOFT = "soft"
HARD = "hard"
IRM = "irm"


@dataclass
class TrainConfig:
    epochs: int = 3
    batch_size: int = 64
    learning_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class GateTrainConfig:
    hidden: int = 128
    dropout: float = 0.3
    epochs: int = 3
    learning_rate: float = 1e-3
    body_epochs: int = 1
    logit_cap: float = 0.20

    def __post_init__(self) -> None:
        GateConfig(1, self.hidden, self.dropout)  # checks hidden and dropout
        if self.epochs < 1 or self.body_epochs < 1:
            raise ValidationError("gate epochs and body_epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError(f"gate learning_rate must be > 0, got {self.learning_rate}")
        if self.logit_cap <= 0:
            raise ValidationError(f"gate logit_cap must be > 0, got {self.logit_cap}")


@dataclass
class HardConfig:
    """The hard pipeline's cutoff on w: a fixed number, or "auto" for the
    `auto_quantile` quantile of each batch's w (see `_hard_flags`)."""

    cutoff: float | str = "auto"
    auto_quantile: float = 0.65

    def __post_init__(self) -> None:
        if self.cutoff != "auto" and not isinstance(self.cutoff, (int, float)):
            raise ValidationError(f"cutoff must be a number or 'auto', got {self.cutoff!r}")
        if not 0 < self.auto_quantile < 1:
            raise ValidationError(f"auto_quantile must lie in (0, 1), got {self.auto_quantile}")


@dataclass
class SweepConfig:
    thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5)
    epochs: int = 2

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"sweep epochs must be >= 1, got {self.epochs}")
        values = list(self.thresholds)
        if not values:
            raise ValidationError("threshold sweep needs at least one value")
        if any(not 0 < v < 1 for v in values):
            raise ValidationError(f"sweep thresholds must lie in (0, 1), got {values}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError(f"sweep thresholds must be strictly increasing, got {values}")


@dataclass
class EpochStats:
    epoch: int
    train_error: float
    test_error: float


@dataclass
class LogRow:
    """One per-batch quarantine log line (CSV columns in this order)."""

    epoch: int
    batch: int
    tau: float
    flagged_count: int
    sabotaged_count: int
    f_avg: float
    latency_s: float


@dataclass
class RunReport:
    method: str
    seed: int
    epochs: list[EpochStats] = field(default_factory=list)
    detection: DetectionMetrics | None = None
    starvation_events: int = 0
    train_flag_counts: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    log_rows: list[LogRow] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """Deterministic report payload; timing lives in run metadata instead."""
        out = asdict(self)
        del out["log_rows"], out["detection"]
        if self.detection is not None:
            out["detection"] = self.detection.to_dict()
        return out

    @property
    def latencies(self) -> list[float]:
        return [row.latency_s for row in self.log_rows]


# ----------------------------------------------------------------- helpers


def _batches(count: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


def _infer(model: SimpleCNN, images: np.ndarray, gate: MlpBinary | None = None,
           mid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """(softmax, gate scores or None without a gate) of `model` on `images`.

    The fc head and the gate see chunks of 512 rows at once, so the bytes
    are those of one forward per chunk. Given the images' midlayer `mid` (as
    `extract_embeddings` returns it), the trunk does not run."""
    probs, scores = [], []
    for start in range(0, images.shape[0], 512):
        rows = slice(start, start + 512)
        chunk = extract_embeddings(model, images[rows]) if mid is None else mid[rows]
        probs.append(softmax(model.head(chunk)))
        if gate is not None:
            scores.append(gate.forward(chunk, train=False)[0])
        del chunk  # the next chunk's trunk must not run beside it
    return np.concatenate(probs), np.concatenate(scores) if gate is not None else None


def _plain_test_error(model: SimpleCNN, test_set: MnistSet,
                      mid: np.ndarray | None = None) -> float:
    """Error rate of the argmax over `test_set`; `mid`, the test images'
    midlayer, saves the trunk pass (see `_infer`)."""
    probs = _infer(model, test_set.images, mid=mid)[0]
    return float(np.mean(probs.argmax(axis=1) != test_set.labels))


def _fit_step(model: SimpleCNN, logits, cache, labels, weights, lr: float):
    """Weighted loss, backward through `cache` and one SGD step; returns
    (loss, correct_count)."""
    loss, probs = weighted_softmax_ce(logits, labels, weights)
    dlogits = weighted_softmax_ce_backward(probs, labels, weights).astype(logits.dtype)
    model.backward(dlogits, cache)
    sgd_step(model.params, lr)
    return loss, int(np.sum(probs.argmax(axis=1) == labels))


def _fit_accepted(model: SimpleCNN, mid, cache, labels, accepted, lr: float) -> int:
    """Train on the accepted rows of a scoring forward, reusing its conv trunk
    (see `SimpleCNN.narrow`); returns the correct count."""
    logits = model.narrow(cache, mid, accepted)
    _, correct = _fit_step(
        model, logits, cache, labels[accepted], np.ones(logits.shape[0]), lr
    )
    return correct


def poison_eval_stream(test_set: MnistSet, sabotage: SabotageConfig, seed: int):
    """Freshly poisoned copy of the test stream under a dedicated seed stream."""
    rng = stream(seed, "sabotage/eval")
    return inject_sabotage(test_set.images, test_set.labels, sabotage, rng)


# ---------------------------------------------------------------- the loop


@dataclass
class Decision:
    """A policy's verdict on one batch.

    With `weights`, every row trains with its loss scaled by its weight;
    without, only the rows not flagged train. A policy that flags (`logged`)
    also gives the batch's log-row tau and f_avg."""

    weights: np.ndarray | None = None
    flags: np.ndarray | None = None
    tau: float = 0.0
    f_avg: float = 0.0


class UnitWeights:
    """Every row trains at weight 1; nothing is flagged or logged."""

    logged = False

    def __init__(self) -> None:
        self.ones = np.ones(0)

    def __call__(self, epoch, logits, mid) -> Decision:
        if self.ones.shape[0] != logits.shape[0]:
            self.ones = np.ones(logits.shape[0])
        return Decision(weights=self.ones)


def fit(model: SimpleCNN, report: RunReport, epochs: int, batches, policy, lr: float,
        test_set: MnistSet | None = None) -> None:
    """Train `model` for `epochs` epochs, logging into `report`.

    `batches(epoch)` yields the epoch's (images, labels, sabotage mask)
    batches; `policy(epoch, logits, midlayer)` decides each one (see
    `Decision`). A logged policy adds a quarantine log row per batch and a
    flag-vs-sabotage confusion count per epoch. Each epoch appends its train
    error over the rows trained and, given a `test_set`, its plain test
    error (NaN without one). The model's training ends here, so its
    gradient buffers are dropped on return.
    """
    for epoch in range(epochs):
        correct = trained = 0
        counts = np.zeros(4, dtype=np.int64)  # tp fp fn tn
        for batch_no, (images, labels, mask) in enumerate(batches(epoch)):
            logits, mid, cache = model.forward(images)
            t0 = time.perf_counter() if policy.logged else 0.0
            decision = policy(epoch, logits, mid)
            if policy.logged:
                latency = time.perf_counter() - t0
                flags = decision.flags
                c = confusion(flags, mask)
                counts += (c.tp, c.fp, c.fn, c.tn)
                report.log_rows.append(LogRow(epoch, batch_no, decision.tau, int(flags.sum()),
                                              int(mask.sum()), decision.f_avg, latency))
            if decision.weights is not None:
                correct += _fit_step(model, logits, cache, labels, decision.weights, lr)[1]
                trained += labels.shape[0]
            elif decision.flags.all():
                report.starvation_events += 1
            else:
                accepted = ~decision.flags
                correct += _fit_accepted(model, mid, cache, labels, accepted, lr)
                trained += int(accepted.sum())
            # the next batch's forward must not run beside this one's cache
            del logits, mid, cache
        if policy.logged:
            tp, fp, fn, tn = (int(v) for v in counts)
            report.train_flag_counts.append({"epoch": epoch, "tp": tp, "fp": fp, "fn": fn, "tn": tn})
        test_error = float("nan") if test_set is None else _plain_test_error(model, test_set)
        report.epochs.append(EpochStats(epoch, 1.0 - correct / max(trained, 1), test_error))
    model.params.drop_grads()


def _sabotaged(cfg: PipelineConfig, data: MnistSet):
    """The run's per-epoch batch source: `data` shuffled and sabotaged by the
    `shuffle/<epoch>` and `sabotage/<epoch>` streams."""

    def batches(epoch: int):
        shuffle = stream(cfg.seed, f"shuffle/{epoch}")
        sab = stream(cfg.seed, f"sabotage/{epoch}")
        for idx in _batches(data.count, cfg.train.batch_size, shuffle):
            bt = inject_sabotage(data.images[idx], data.labels[idx], cfg.sabotage, sab)
            yield bt.effective_images, bt.effective_labels, bt.mask

    return batches


def _eval_digests(flags: np.ndarray, predictions: np.ndarray) -> dict:
    """sha256 of the final evaluation's flag and prediction arrays: a report
    then shows a moved row even where every count it holds stays equal."""
    return {
        "eval_flags_sha256": hashlib.sha256(flags.astype(bool).tobytes()).hexdigest(),
        "eval_predictions_sha256":
            hashlib.sha256(predictions.astype(np.int64).tobytes()).hexdigest(),
    }


def _run(cfg: PipelineConfig, method: str, model: SimpleCNN, policy, flags_of,
         train_set: MnistSet, test_set: MnistSet, epochs: int,
         gate: MlpBinary | None = None) -> RunReport:
    """Train with `policy`, then fill the evaluation block on a freshly
    poisoned test stream, flagged by `flags_of(probs, scores)`: detection vs
    the sabotage mask, rejection rate over the stream, accuracy over accepted
    clean samples."""
    report = RunReport(method=method, seed=cfg.seed)
    fit(model, report, epochs, _sabotaged(cfg, train_set), policy, cfg.train.learning_rate,
        test_set)
    batch = poison_eval_stream(test_set, cfg.sabotage, cfg.seed)
    probs, scores = _infer(model, batch.effective_images, gate)
    flags, predictions = flags_of(probs, scores), probs.argmax(axis=1)
    acc, empty = accuracy_on_accepted(predictions, batch.labels, ~flags & ~batch.mask)
    report.detection = detection_metrics(flags, batch.mask, acc, empty)
    report.extras["model_checksum"] = model.params.checksum()
    report.extras.update(_eval_digests(flags, predictions))
    return report


# --------------------------------------------------------------- baseline


def train_baseline(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> RunReport:
    """Standard n-class classifier on the poisoned stream, no defense."""
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    return _run(cfg, BASELINE, model, UnitWeights(),
                lambda probs, _: np.zeros(probs.shape[0], dtype=bool),
                train_set, test_set, cfg.train.epochs)


# ------------------------------------------------------------------- gate


@dataclass
class GateAsset:
    """Frozen pre-trained gate plus held-out separation statistics."""

    gate: MlpBinary
    clean_score_mean: float
    sabotaged_score_mean: float
    max_score: float
    damping_scale: float
    body_checksum: str
    # AUC of clean over sabotaged calibration scores; None without both kinds
    val_auc: float | None = None


def pretrain_gate(cfg: PipelineConfig, train_set: MnistSet) -> GateAsset:
    """Train the gate as a binary clean(1)/sabotaged(0) classifier on the
    frozen mid-layer of a disposable 1-epoch body.

    The body replays the baseline's first epoch exactly (same seed streams)
    and is discarded afterwards; only the gate survives. Its parameters must
    be bit-identical before and after gate training.

    After training, the output layer is damped so calibration logits fit in
    [-logit_cap, logit_cap]. Damping is monotone, so the score ordering the
    hard pipeline relies on is untouched, while the absolute scores stay
    pinned near 0.5 no matter how far the main body drifts later; combined
    with squaring, every soft weight then sits below the flag threshold.

    The frozen body's midlayer of every clean training image is computed
    once, into a table of feature_dim floats per image (25 KB at the stock
    shapes); the gate batches and the calibration sample look their clean
    rows up in it and forward only their inverted rows.

    The calibration sample also gives `val_auc`, the AUC of its clean over
    its sabotaged scores: below 0.5 the gate ranks the two kinds backwards.
    """
    body = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    fit(body, RunReport(method="gate/body", seed=cfg.seed), cfg.gate.body_epochs,
        _sabotaged(cfg, train_set), UnitWeights(), cfg.train.learning_rate)

    frozen_checksum = body.params.checksum()
    # The body is frozen from here on, and its trunk computes each image on
    # its own, so a clean image's features are looked up in this table and
    # only the inverted rows of a batch are forwarded.
    clean_features = extract_embeddings(body, train_set.images)
    gate_cfg = GateConfig(cfg.model.feature_dim, cfg.gate.hidden, cfg.gate.dropout)
    gate = MlpBinary(gate_cfg, stream(cfg.seed, "init/gate"))
    drop_rng = stream(cfg.seed, "gate/dropout")
    for epoch in range(cfg.gate.epochs):
        shuffle = stream(cfg.seed, f"gate/shuffle/{epoch}")
        sab = stream(cfg.seed, f"gate/sabotage/{epoch}")
        for idx in _batches(train_set.count, cfg.train.batch_size, shuffle):
            bt = inject_sabotage(train_set.images[idx], train_set.labels[idx], cfg.sabotage, sab)
            flat = _body_features(body, clean_features, idx, bt)
            _, logits, cache = gate.forward(flat, train=True, rng=drop_rng)
            targets = (~bt.mask).astype(np.float64)
            _, probs = bce_with_logits(logits, targets)
            gate.backward(bce_with_logits_backward(probs, targets).astype(np.float32), cache)
            sgd_step(gate.params, cfg.gate.learning_rate)
    gate.params.drop_grads()
    if body.params.checksum() != frozen_checksum:
        raise WorkbenchError("frozen body parameters changed during gate pre-training")

    # Damping calibration plus held-out separation statistics, both on a
    # freshly poisoned seeded sample scored through the disposable body.
    val_rng = stream(cfg.seed, "gate/val")
    take = min(2048, train_set.count)
    val_idx = val_rng.choice(train_set.count, size=take, replace=False)
    bt = inject_sabotage(train_set.images[val_idx], train_set.labels[val_idx], cfg.sabotage, val_rng)
    flat = _body_features(body, clean_features, val_idx, bt)
    _, logits, _ = gate.forward(flat, train=False)
    peak = float(np.abs(logits).max())
    scale = min(1.0, cfg.gate.logit_cap / peak) if peak > 0 else 1.0
    gate.params["w2"].value *= np.float32(scale)
    gate.params["b2"].value *= np.float32(scale)
    scores, _, _ = gate.forward(flat, train=False)
    clean_mean = float(scores[~bt.mask].mean()) if (~bt.mask).any() else 0.0
    sab_mean = float(scores[bt.mask].mean()) if bt.mask.any() else 0.0
    return GateAsset(
        gate=gate,
        clean_score_mean=clean_mean,
        sabotaged_score_mean=sab_mean,
        max_score=float(scores.max()),
        damping_scale=scale,
        body_checksum=frozen_checksum,
        val_auc=separation_auc(scores, ~bt.mask),
    )


def _gate_separation(asset: GateAsset) -> dict:
    """The gate's calibration AUC, and whether it ranks sabotaged images
    above clean ones (AUC below 0.5)."""
    return {"gate_val_auc": asset.val_auc,
            "gate_inverted": asset.val_auc is not None and asset.val_auc < 0.5}


def _body_features(body: SimpleCNN, clean_features, idx, bt: SabotagedBatch) -> np.ndarray:
    """Body midlayer of a sabotaged batch of train_set[idx]: clean rows
    from the table, inverted rows forwarded (in chunks)."""
    flat = clean_features[idx]
    if bt.mask.any():
        flat[bt.mask] = extract_embeddings(body, bt.effective_images[bt.mask])
    return flat


def _hard_flags(w: np.ndarray, cutoff, quantile: float) -> tuple[np.ndarray, float]:
    """Hard rejection flags. The "auto" cutoff is the w quantile of each
    training batch (and of the whole evaluation stream), so the rejection
    rate tracks the configured quantile even as the body's score
    distribution drifts over training; a numeric cutoff is applied as-is
    (and can starve a batch, which the pipelines log)."""
    value = float(np.quantile(w, quantile)) if cutoff == "auto" else float(cutoff)
    return w < value, value


# ------------------------------------------------------------- soft / hard


class GatePolicy:
    """Soft (`hard` None) or hard quarantine through a frozen gate. Soft
    trains every row at weight w; hard trains the rows the cutoff accepts.
    f_avg is the flagged share of the epoch so far."""

    logged = True

    def __init__(self, cfg: PipelineConfig, gate: MlpBinary, hard: HardConfig | None) -> None:
        self.cfg = cfg
        self.gate = gate
        self.hard = hard
        self.epoch = self.flagged = self.seen = 0

    def rule(self, max_prob, scores):
        """(w, flags, tau) of the soft or hard rule over these rows."""
        _, w, flags = decide(max_prob, scores, self.cfg.soft)
        if self.hard is None:
            return w, flags, self.cfg.soft.confidence_threshold
        flags, tau = _hard_flags(w, self.hard.cutoff, self.hard.auto_quantile)
        return w, flags, tau

    def __call__(self, epoch, logits, mid) -> Decision:
        max_prob = softmax(logits).max(axis=1)
        scores = self.gate.forward(mid, train=False)[0]
        w, flags, tau = self.rule(max_prob, scores)
        if epoch != self.epoch:
            self.epoch, self.flagged, self.seen = epoch, 0, 0
        self.flagged += int(flags.sum())
        self.seen += flags.size
        weights = w if self.hard is None else None
        return Decision(weights, flags, tau, self.flagged / self.seen)


def _run_gated(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet,
               asset: GateAsset | None, hard: HardConfig | None) -> RunReport:
    """The soft (`hard` None) or hard pipeline; the final flags are the
    policy's rule over the whole evaluation stream."""
    if asset is None:
        asset = pretrain_gate(cfg, train_set)
    gate = asset.gate
    gate_checksum = gate.params.checksum()
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    policy = GatePolicy(cfg, gate, hard)
    report = _run(cfg, SOFT if hard is None else HARD, model, policy,
                  lambda probs, scores: policy.rule(probs.max(axis=1), scores)[1],
                  train_set, test_set, cfg.train.epochs, gate)
    if gate.params.checksum() != gate_checksum:
        raise WorkbenchError("frozen gate parameters changed during main training")
    report.extras.update(
        {
            "gate_clean_score_mean": asset.clean_score_mean,
            "gate_sabotaged_score_mean": asset.sabotaged_score_mean,
            "gate_max_score": asset.max_score,
            "gate_damping_scale": asset.damping_scale,
            **_gate_separation(asset),
        }
    )
    if hard is not None:
        report.extras["hard_cutoff"] = (
            f"auto(q={hard.auto_quantile})" if hard.cutoff == "auto" else float(hard.cutoff)
        )
    return report


def train_soft(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet,
               asset: GateAsset | None = None) -> RunReport:
    return _run_gated(cfg, train_set, test_set, asset, None)


def train_hard(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet,
               asset: GateAsset | None = None) -> RunReport:
    return _run_gated(cfg, train_set, test_set, asset, cfg.hard)


# -------------------------------------------------------------------- irm


def train_irm(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> RunReport:
    """Integrated rejection: sabotaged samples are relabeled to the extra
    class n and the network learns to route them there. At inference,
    argmax == n rejects the sample; there is no separate detector. The
    reject labels are irm's own: it sets them whatever `cfg.sabotage` says."""
    cfg = replace(cfg, sabotage=replace(cfg.sabotage, label_mode=REJECT_LABEL))
    reject_class = N_CLASSES
    model = make_irm_model(cfg.model, stream(cfg.seed, "init/body"))
    report = _run(cfg, IRM, model, UnitWeights(),
                  lambda probs, _: probs.argmax(axis=1) == reject_class,
                  train_set, test_set, cfg.train.epochs)
    report.extras["reject_class"] = reject_class
    return report


# --------------------------------------------------- confidence quarantine


class ConfidencePolicy:
    """Flags the rows whose max prob falls below tau (no gate) and trains the
    rest. With a controller, tau moves after every batch and f_avg is the
    controller's window mean; without one, tau is fixed and f_avg is the
    flagged share of the run so far."""

    logged = True

    def __init__(self, tau: float, controller: AdaptiveControllerState | None) -> None:
        self.tau = tau
        self.controller = controller
        self.flagged = self.seen = 0

    def __call__(self, epoch, logits, mid) -> Decision:
        tau = self.tau
        flags = softmax(logits).max(axis=1) < tau
        if self.controller is None:
            self.flagged += int(flags.sum())
            self.seen += flags.size
            return Decision(flags=flags, tau=tau, f_avg=self.flagged / self.seen)
        self.controller = adaptive_update(self.controller, float(flags.mean()))
        self.tau = self.controller.tau
        return Decision(flags=flags, tau=tau, f_avg=self.controller.f_avg)


def _confidence_run(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet,
                    tau: float, controller: AdaptiveControllerState | None,
                    epochs: int) -> RunReport:
    """Sweep (fixed tau) or adaptive (controller-driven) run. Stream names do
    not depend on tau, so every sweep threshold sees identical shuffles and
    sabotage masks."""
    policy = ConfidencePolicy(tau, controller)
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    report = _run(cfg, "sweep" if controller is None else "adaptive", model, policy,
                  lambda probs, _: probs.max(axis=1) < policy.tau,
                  train_set, test_set, epochs)
    report.extras["tau_final"] = policy.tau
    if controller is None:
        report.extras["threshold"] = tau
    return report


def run_sweep(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> dict:
    """Retrain from scratch at each of `cfg.sweep`'s thresholds; returns a
    per-threshold table.

    Cumulative precision/recall count training-time flag decisions over the
    whole run; error columns are the plain final test error."""
    sweep = cfg.sweep
    reports = sweep_thresholds(
        sweep.thresholds,
        lambda tau: _confidence_run(cfg, train_set, test_set, tau, None, sweep.epochs),
    )
    rows = []
    for report in reports:
        tp = sum(e["tp"] for e in report.train_flag_counts)
        fp = sum(e["fp"] for e in report.train_flag_counts)
        fn = sum(e["fn"] for e in report.train_flag_counts)
        tn = sum(e["tn"] for e in report.train_flag_counts)
        precision, recall, _ = prf(ConfusionCounts(tp, fp, fn, tn))
        rows.append(
            {
                "threshold": report.extras["threshold"],
                "final_train_error": report.epochs[-1].train_error,
                "final_test_error": report.epochs[-1].test_error,
                "flagged_count": tp + fp,
                "sabotaged_count": tp + fn,
                "precision": precision,
                "recall": recall,
                "starvation_events": report.starvation_events,
                "rejection_rate": report.detection.rejection_rate,
                "accuracy_on_accepted": report.detection.accuracy_on_accepted,
                "accepted_empty": report.detection.accepted_empty,
            }
        )
    return {"seed": cfg.seed, "epochs": sweep.epochs, "rows": rows, "reports": reports}


def train_adaptive(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> RunReport:
    """Confidence quarantine with the feedback controller steering tau from
    `cfg.adaptive`, which stays as it was: the state is frozen."""
    return _confidence_run(cfg, train_set, test_set, cfg.adaptive.tau, cfg.adaptive,
                           cfg.train.epochs)
