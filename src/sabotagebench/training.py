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

Every pipeline derives all randomness from named streams of one seed, so
method variants that make identical choices (soft with unit weights, hard
with cutoff 0) reproduce the baseline trajectory bit for bit.

Each input goes through the conv trunk once per set of weights. The hard,
sweep and adaptive loops score a batch with one forward and then train on
its accepted rows through that forward's cache, cut down in place by
`SimpleCNN.narrow` (the same dict object `forward` returned, which backward
then takes); only the fc head is rerun, because a 1-row head GEMM goes
through GEMV and rounds differently from the same row of the full batch.
The gate pre-training looks the frozen body's midlayer of clean images up
in a table (25 KB per training image at the stock shapes: 150 MB for 6000
images, about 1.5 GB for the 60 000 of real MNIST) and forwards only the
inverted rows of each batch.

Inference keeps no cache (`SimpleCNN.infer`, `extract_embeddings`). The
conv trunk runs in pieces of a training batch's size, so no inference
buffer is bigger than a training step's; the fc head and the gate still see
each caller's chunk (512 rows in `_forward_probs` and the gated final
evaluation) at once, so their GEMMs round as one forward of the chunk did.

Evaluation poisons the test stream at the training rate under a distinct
seed stream. Accuracy-on-accepted is computed over accepted AND clean
samples against original labels; counting accepted-but-sabotaged samples
(inverted pixels, corrupted labels) would make the metric unreachable for
any defense that lets a single poisoned sample through.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import MnistSet, SabotageConfig, SabotagedBatch, inject_sabotage, REJECT_LABEL
from .errors import ValidationError, WorkbenchError
from .metrics import (
    ConfusionCounts,
    DetectionMetrics,
    accuracy_on_accepted,
    confusion,
    detection_metrics,
    prf,
)
from .models import (
    GateConfig,
    MlpBinary,
    ModelConfig,
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
    SoftWeightConfig,
    adaptive_update,
    decide,
    sweep_thresholds,
)
from .rng import stream

BASELINE = "baseline"
SOFT = "soft"
HARD = "hard"
IRM = "irm"
METHODS = (BASELINE, SOFT, HARD, IRM)


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
        if self.epochs < 1 or self.body_epochs < 1:
            raise ValidationError("gate epochs and body_epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError(f"gate learning_rate must be > 0, got {self.learning_rate}")
        if self.logit_cap <= 0:
            raise ValidationError(f"gate logit_cap must be > 0, got {self.logit_cap}")


@dataclass
class PipelineConfig:
    method: str = BASELINE
    seed: int = 0
    sabotage: SabotageConfig = field(default_factory=lambda: SabotageConfig(rate=0.05))
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    soft: SoftWeightConfig = field(default_factory=SoftWeightConfig)
    gate: GateTrainConfig = field(default_factory=GateTrainConfig)
    hard_cutoff: float | str = "auto"
    hard_auto_quantile: float = 0.65
    force_unit_weights: bool = False
    estimate_sabotage_fraction: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == IRM and self.sabotage.label_mode != REJECT_LABEL:
            raise ValidationError("irm requires sabotage label_mode 'reject'")
        if self.hard_cutoff != "auto" and not isinstance(self.hard_cutoff, (int, float)):
            raise ValidationError(f"hard_cutoff must be a number or 'auto', got {self.hard_cutoff!r}")
        if not 0 < self.hard_auto_quantile < 1:
            raise ValidationError(
                f"hard_auto_quantile must lie in (0, 1), got {self.hard_auto_quantile}"
            )


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
    rejection_rate: float = 0.0
    accuracy_on_accepted: float = 0.0
    accepted_empty: bool = False
    starvation_events: int = 0
    train_flag_counts: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    log_rows: list[LogRow] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def to_json_dict(self) -> dict:
        """Deterministic report payload; timing lives in run metadata instead."""
        out = {
            "method": self.method,
            "seed": self.seed,
            "epochs": [
                {"epoch": e.epoch, "train_error": e.train_error, "test_error": e.test_error}
                for e in self.epochs
            ],
            "rejection_rate": self.rejection_rate,
            "accuracy_on_accepted": self.accuracy_on_accepted,
            "accepted_empty": self.accepted_empty,
            "starvation_events": self.starvation_events,
            "train_flag_counts": self.train_flag_counts,
            "extras": self.extras,
        }
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


def _forward_probs(model: SimpleCNN, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Softmax over chunks of `batch_size` rows; each chunk's head sees the
    chunk's rows at once (`SimpleCNN.infer`)."""
    chunks = []
    for start in range(0, images.shape[0], batch_size):
        logits = model.infer(images[start : start + batch_size])[0]
        chunks.append(softmax(logits))
    return np.concatenate(chunks, axis=0)


def _plain_test_error(model: SimpleCNN, test_set: MnistSet) -> float:
    probs = _forward_probs(model, test_set.images)
    return float(np.mean(probs.argmax(axis=1) != test_set.labels))


def _fit_step(model: SimpleCNN, logits, cache, labels, weights, lr: float):
    """Weighted loss, backward through `cache` and one SGD step; returns
    (loss, correct_count)."""
    loss, probs = weighted_softmax_ce(logits, labels, weights)
    dlogits = weighted_softmax_ce_backward(probs, labels, weights).astype(logits.dtype)
    model.backward(dlogits, cache)
    sgd_step(model.params, lr)
    return loss, int(np.sum(probs.argmax(axis=1) == labels))


def _train_step(model: SimpleCNN, images, labels, weights, lr: float, fraction: float = 0.0):
    """One forward/backward/SGD step; returns (loss, correct_count)."""
    logits, _, cache = model.forward(images, fraction)
    return _fit_step(model, logits, cache, labels, weights, lr)


def _fit_accepted(model: SimpleCNN, mid, cache, labels, accepted, lr: float) -> int:
    """Train on the accepted rows of a scoring forward, reusing its conv trunk
    (see `SimpleCNN.narrow`); returns the correct count."""
    logits = model.narrow(cache, mid, accepted)
    _, correct = _fit_step(
        model, logits, cache, labels[accepted], np.ones(logits.shape[0]), lr
    )
    return correct


def _gate_scores(gate: MlpBinary, midlayer: np.ndarray) -> np.ndarray:
    scores, _, _ = gate.forward(midlayer.reshape(midlayer.shape[0], -1), train=False)
    return scores


def poison_eval_stream(test_set: MnistSet, sabotage: SabotageConfig, seed: int):
    """Freshly poisoned copy of the test stream under a dedicated seed stream."""
    rng = stream(seed, "sabotage/eval")
    return inject_sabotage(test_set.images, test_set.labels, sabotage, rng)


def _finish_report(
    report: RunReport, flags: np.ndarray, batch: SabotagedBatch, predictions: np.ndarray
) -> None:
    """Fill the evaluation block: detection vs the sabotage mask, rejection
    rate over the poisoned stream, accuracy over accepted clean samples."""
    accepted = ~flags
    acc, empty = accuracy_on_accepted(predictions, batch.labels, accepted & ~batch.mask)
    report.detection = detection_metrics(flags, batch.mask, acc, empty)
    report.rejection_rate = float(flags.mean())
    report.accuracy_on_accepted = acc
    report.accepted_empty = empty


# --------------------------------------------------------------- baseline


def train_baseline(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> RunReport:
    """Standard n-class classifier on the poisoned stream, no defense."""
    started = time.perf_counter()
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    report = RunReport(method=BASELINE, seed=cfg.seed)
    ones = None
    for epoch in range(cfg.train.epochs):
        shuffle = stream(cfg.seed, f"shuffle/{epoch}")
        sab = stream(cfg.seed, f"sabotage/{epoch}")
        correct = 0
        for idx in _batches(train_set.count, cfg.train.batch_size, shuffle):
            bt = inject_sabotage(train_set.images[idx], train_set.labels[idx], cfg.sabotage, sab)
            if ones is None or ones.shape[0] != idx.size:
                ones = np.ones(idx.size)
            _, c = _train_step(model, bt.effective_images, bt.effective_labels, ones, cfg.train.learning_rate)
            correct += c
        report.epochs.append(
            EpochStats(epoch, 1.0 - correct / train_set.count, _plain_test_error(model, test_set))
        )
    eval_batch = poison_eval_stream(test_set, cfg.sabotage, cfg.seed)
    probs = _forward_probs(model, eval_batch.effective_images)
    flags = np.zeros(test_set.count, dtype=bool)
    _finish_report(report, flags, eval_batch, probs.argmax(axis=1))
    report.extras["model_checksum"] = model.params.checksum()
    report.wall_clock_s = time.perf_counter() - started
    report.extras["final_test_error"] = report.epochs[-1].test_error
    return report


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
    """
    body = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    ones = None
    for epoch in range(cfg.gate.body_epochs):
        shuffle = stream(cfg.seed, f"shuffle/{epoch}")
        sab = stream(cfg.seed, f"sabotage/{epoch}")
        for idx in _batches(train_set.count, cfg.train.batch_size, shuffle):
            bt = inject_sabotage(train_set.images[idx], train_set.labels[idx], cfg.sabotage, sab)
            if ones is None or ones.shape[0] != idx.size:
                ones = np.ones(idx.size)
            _train_step(model=body, images=bt.effective_images, labels=bt.effective_labels,
                        weights=ones, lr=cfg.train.learning_rate)

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
    )


def _body_features(body: SimpleCNN, clean_features, idx, bt: SabotagedBatch) -> np.ndarray:
    """Flattened body midlayer of a sabotaged batch of train_set[idx]: clean
    rows from the table, inverted rows forwarded (in chunks)."""
    flat = clean_features[idx]
    if bt.mask.any():
        flat[bt.mask] = extract_embeddings(body, bt.effective_images[bt.mask])
    return flat


def _hard_flags(w: np.ndarray, cutoff, quantile: float) -> tuple[np.ndarray, float]:
    """Hard rejection flags. The "auto" cutoff is the per-batch w quantile, so
    the rejection rate tracks the configured quantile even as the body's score
    distribution drifts over training; a numeric cutoff is applied as-is (and
    can starve a batch, which the pipelines log)."""
    value = float(np.quantile(w, quantile)) if cutoff == "auto" else float(cutoff)
    return w < value, value


# ------------------------------------------------------------- soft / hard


def _run_gated_pipeline(
    cfg: PipelineConfig,
    train_set: MnistSet,
    test_set: MnistSet,
    asset: GateAsset,
    hard_cutoff,
) -> RunReport:
    """Shared trainer for the soft (hard_cutoff None) and hard pipelines."""
    started = time.perf_counter()
    method = SOFT if hard_cutoff is None else HARD
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    gate = asset.gate
    gate_checksum = gate.params.checksum()
    report = RunReport(method=method, seed=cfg.seed)
    fraction = 0.0
    for epoch in range(cfg.train.epochs):
        shuffle = stream(cfg.seed, f"shuffle/{epoch}")
        sab = stream(cfg.seed, f"sabotage/{epoch}")
        correct = 0
        seen = 0
        trained = 0
        epoch_counts = np.zeros(4, dtype=np.int64)  # tp fp fn tn
        flagged_total = 0
        for batch_no, idx in enumerate(_batches(train_set.count, cfg.train.batch_size, shuffle)):
            bt = inject_sabotage(train_set.images[idx], train_set.labels[idx], cfg.sabotage, sab)
            logits, mid, cache = model.forward(bt.effective_images, fraction)
            t0 = time.perf_counter()
            max_prob = softmax(logits).max(axis=1)
            scores = _gate_scores(gate, mid)
            if cfg.force_unit_weights:
                w = np.ones(idx.size)
                flags = np.zeros(idx.size, dtype=bool)
            else:
                _, w, flags = decide(max_prob, scores, cfg.soft)
            batch_tau = cfg.soft.confidence_threshold
            if method == HARD:
                flags, batch_tau = _hard_flags(w, hard_cutoff, cfg.hard_auto_quantile)
            latency = time.perf_counter() - t0
            c = confusion(flags, bt.mask)
            epoch_counts += (c.tp, c.fp, c.fn, c.tn)
            flagged_total += int(flags.sum())
            seen += idx.size
            report.log_rows.append(
                LogRow(
                    epoch=epoch,
                    batch=batch_no,
                    tau=batch_tau,
                    flagged_count=int(flags.sum()),
                    sabotaged_count=int(bt.mask.sum()),
                    f_avg=flagged_total / seen,
                    latency_s=latency,
                )
            )
            if method == SOFT:
                correct += _fit_step(
                    model, logits, cache, bt.effective_labels, w, cfg.train.learning_rate
                )[1]
            else:
                accepted = ~flags
                if not accepted.any():
                    report.starvation_events += 1
                    if cfg.estimate_sabotage_fraction:
                        fraction = float(flags.mean())
                    continue
                correct += _fit_accepted(
                    model, mid, cache, bt.effective_labels, accepted, cfg.train.learning_rate
                )
                trained += int(accepted.sum())
            if cfg.estimate_sabotage_fraction:
                fraction = float(flags.mean())
        tp, fp, fn, tn = (int(v) for v in epoch_counts)
        report.train_flag_counts.append({"epoch": epoch, "tp": tp, "fp": fp, "fn": fn, "tn": tn})
        denom = train_set.count if method == SOFT else max(trained, 1)
        report.epochs.append(
            EpochStats(epoch, 1.0 - correct / denom, _plain_test_error(model, test_set))
        )
    # Final evaluation on a freshly poisoned stream.
    eval_batch = poison_eval_stream(test_set, cfg.sabotage, cfg.seed)
    flags, preds = _gated_eval(cfg, model, gate, eval_batch.effective_images, fraction, hard_cutoff)
    _finish_report(report, flags, eval_batch, preds)
    if gate.params.checksum() != gate_checksum:
        raise WorkbenchError("frozen gate parameters changed during main training")
    report.extras.update(
        {
            "gate_clean_score_mean": asset.clean_score_mean,
            "gate_sabotaged_score_mean": asset.sabotaged_score_mean,
            "gate_max_score": asset.max_score,
            "gate_damping_scale": asset.damping_scale,
            "model_checksum": model.params.checksum(),
            "final_test_error": report.epochs[-1].test_error,
        }
    )
    if method == HARD:
        report.extras["hard_cutoff"] = (
            f"auto(q={cfg.hard_auto_quantile})" if hard_cutoff == "auto" else float(hard_cutoff)
        )
    report.wall_clock_s = time.perf_counter() - started
    return report


def _gated_eval(cfg: PipelineConfig, model: SimpleCNN, gate: MlpBinary, images, fraction: float,
                hard_cutoff) -> tuple[np.ndarray, np.ndarray]:
    """(flags, predictions) of the soft (hard_cutoff None) or hard pipeline
    on `images`, decided over chunks of 512 rows."""
    chunks_flags, chunks_pred = [], []
    for start in range(0, images.shape[0], 512):
        logits, mid = model.infer(images[start : start + 512], fraction)
        probs = softmax(logits)
        scores = _gate_scores(gate, mid)
        if cfg.force_unit_weights:
            flags = np.zeros(probs.shape[0], dtype=bool)
        else:
            _, w, flags = decide(probs.max(axis=1), scores, cfg.soft)
            if hard_cutoff is not None:
                flags, _ = _hard_flags(w, hard_cutoff, cfg.hard_auto_quantile)
        chunks_flags.append(flags)
        chunks_pred.append(probs.argmax(axis=1))
    return np.concatenate(chunks_flags), np.concatenate(chunks_pred)


def train_soft(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet,
               asset: GateAsset | None = None) -> RunReport:
    if asset is None:
        asset = pretrain_gate(cfg, train_set)
    return _run_gated_pipeline(cfg, train_set, test_set, asset, hard_cutoff=None)


def train_hard(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet,
               asset: GateAsset | None = None) -> RunReport:
    if asset is None:
        asset = pretrain_gate(cfg, train_set)
    return _run_gated_pipeline(cfg, train_set, test_set, asset, hard_cutoff=cfg.hard_cutoff)


# -------------------------------------------------------------------- irm


def train_irm(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> RunReport:
    """Integrated rejection: sabotaged samples are relabeled to the extra
    class n and the network learns to route them there. At inference,
    argmax == n rejects the sample; there is no separate detector."""
    started = time.perf_counter()
    model = make_irm_model(cfg.model, stream(cfg.seed, "init/body"))
    reject_class = cfg.model.n_classes
    report = RunReport(method=IRM, seed=cfg.seed)
    ones = None
    for epoch in range(cfg.train.epochs):
        shuffle = stream(cfg.seed, f"shuffle/{epoch}")
        sab = stream(cfg.seed, f"sabotage/{epoch}")
        correct = 0
        for idx in _batches(train_set.count, cfg.train.batch_size, shuffle):
            bt = inject_sabotage(train_set.images[idx], train_set.labels[idx], cfg.sabotage, sab)
            if ones is None or ones.shape[0] != idx.size:
                ones = np.ones(idx.size)
            _, c = _train_step(
                model, bt.effective_images, bt.effective_labels, ones, cfg.train.learning_rate
            )
            correct += c
        report.epochs.append(
            EpochStats(epoch, 1.0 - correct / train_set.count, _plain_test_error(model, test_set))
        )
    eval_batch = poison_eval_stream(test_set, cfg.sabotage, cfg.seed)
    probs = _forward_probs(model, eval_batch.effective_images)
    preds = probs.argmax(axis=1)
    flags = preds == reject_class
    _finish_report(report, flags, eval_batch, preds)
    report.extras.update(
        {
            "reject_class": reject_class,
            "model_checksum": model.params.checksum(),
            "final_test_error": report.epochs[-1].test_error,
        }
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


# --------------------------------------------------- confidence quarantine


@dataclass
class SweepConfig:
    thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5)
    epochs: int = 2

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"sweep epochs must be >= 1, got {self.epochs}")


def _confidence_quarantine_run(
    cfg: PipelineConfig,
    train_set: MnistSet,
    test_set: MnistSet,
    tau: float,
    controller: AdaptiveControllerState | None,
    epochs: int,
) -> RunReport:
    """Shared engine for sweep (fixed tau) and adaptive (controller-driven)
    runs. Flags are confidence-only (max prob below tau, no gate) and flagged
    samples are excluded from the loss. Stream names do not depend on tau, so
    every sweep threshold sees identical shuffles and sabotage masks."""
    started = time.perf_counter()
    method = "adaptive" if controller is not None else "sweep"
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    report = RunReport(method=method, seed=cfg.seed)
    fraction = 0.0
    cumulative_flagged = 0
    cumulative_seen = 0
    for epoch in range(epochs):
        shuffle = stream(cfg.seed, f"shuffle/{epoch}")
        sab = stream(cfg.seed, f"sabotage/{epoch}")
        correct = 0
        trained = 0
        epoch_counts = np.zeros(4, dtype=np.int64)
        for batch_no, idx in enumerate(_batches(train_set.count, cfg.train.batch_size, shuffle)):
            bt = inject_sabotage(train_set.images[idx], train_set.labels[idx], cfg.sabotage, sab)
            logits, mid, cache = model.forward(bt.effective_images, fraction)
            t0 = time.perf_counter()
            max_prob = softmax(logits).max(axis=1)
            current_tau = controller.tau if controller is not None else tau
            flags = max_prob < current_tau
            if controller is not None:
                controller = adaptive_update(controller, float(flags.mean()))
                f_avg = controller.f_avg
            else:
                cumulative_flagged += int(flags.sum())
                cumulative_seen += idx.size
                f_avg = cumulative_flagged / cumulative_seen
            latency = time.perf_counter() - t0
            c = confusion(flags, bt.mask)
            epoch_counts += (c.tp, c.fp, c.fn, c.tn)
            report.log_rows.append(
                LogRow(
                    epoch=epoch,
                    batch=batch_no,
                    tau=current_tau,
                    flagged_count=int(flags.sum()),
                    sabotaged_count=int(bt.mask.sum()),
                    f_avg=f_avg,
                    latency_s=latency,
                )
            )
            accepted = ~flags
            if not accepted.any():
                report.starvation_events += 1
                if cfg.estimate_sabotage_fraction:
                    fraction = float(flags.mean())
                continue
            correct += _fit_accepted(
                model, mid, cache, bt.effective_labels, accepted, cfg.train.learning_rate
            )
            trained += int(accepted.sum())
            if cfg.estimate_sabotage_fraction:
                fraction = float(flags.mean())
        tp, fp, fn, tn = (int(v) for v in epoch_counts)
        report.train_flag_counts.append({"epoch": epoch, "tp": tp, "fp": fp, "fn": fn, "tn": tn})
        report.epochs.append(
            EpochStats(epoch, 1.0 - correct / max(trained, 1), _plain_test_error(model, test_set))
        )
    final_tau = controller.tau if controller is not None else tau
    eval_batch = poison_eval_stream(test_set, cfg.sabotage, cfg.seed)
    probs = _forward_probs(model, eval_batch.effective_images)
    flags = probs.max(axis=1) < final_tau
    _finish_report(report, flags, eval_batch, probs.argmax(axis=1))
    report.extras.update(
        {
            "tau_final": final_tau,
            "model_checksum": model.params.checksum(),
            "final_test_error": report.epochs[-1].test_error,
        }
    )
    if controller is None:
        report.extras["threshold"] = tau
    report.wall_clock_s = time.perf_counter() - started
    return report


def run_sweep(
    cfg: PipelineConfig, sweep: SweepConfig, train_set: MnistSet, test_set: MnistSet
) -> dict:
    """Retrain from scratch at each threshold; returns a per-threshold table.

    Cumulative precision/recall count training-time flag decisions over the
    whole run; error columns are the plain final test error."""
    reports = sweep_thresholds(
        sweep.thresholds,
        lambda tau: _confidence_quarantine_run(cfg, train_set, test_set, tau, None, sweep.epochs),
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
                "rejection_rate": report.rejection_rate,
                "accuracy_on_accepted": report.accuracy_on_accepted,
                "accepted_empty": report.accepted_empty,
            }
        )
    return {"seed": cfg.seed, "epochs": sweep.epochs, "rows": rows, "reports": reports}


def train_adaptive(
    cfg: PipelineConfig,
    train_set: MnistSet,
    test_set: MnistSet,
    controller: AdaptiveControllerState | None = None,
) -> RunReport:
    """Confidence quarantine with the feedback controller steering tau."""
    state = controller if controller is not None else AdaptiveControllerState()
    return _confidence_quarantine_run(
        cfg, train_set, test_set, state.tau, state, cfg.train.epochs
    )
