"""The training loops as they were before every CNN pipeline ran through one
`fit` loop and one final evaluation.

Test-only oracle, kept verbatim:
- `pretrain_gate`, from before the frozen body's features were cached: it
  forwards the whole of every gate batch and the whole calibration sample
  through the frozen body;
- `train_baseline`, `_run_gated_pipeline` with `_gated_eval`, `train_irm`,
  `_confidence_quarantine_run` and `mirror_cnn.train_partial`, each with its
  own epoch loop and final evaluation, with `_train_step` and
  `_finish_report`, the engine helpers that only these loops used. The
  branches of the removed `estimate_sabotage_fraction` knob, which read its
  default (False), and the conv2 bypass's sabotage fraction, always 0.0,
  are gone, as are those of the removed `force_unit_weights` knob (a test
  that wants unit weights patches this module's `decide`); the removed
  `ModelConfig.n_classes` reads `dataset.N_CLASSES`;
- `_forward_probs`, the softmax these loops evaluated with, where the
  deleted `SimpleCNN.infer(x)` is written out as
  `head(extract_embeddings(model, x))`, as is the one call of it in
  `_gated_eval`. The deleted `training._gate_scores(gate, mid)` is written
  out as `gate.forward(mid, train=False)[0]`.

The report fields that only repeated a value of the detection block
(`rejection_rate`, `accuracy_on_accepted`, `accepted_empty` and
`extras.final_test_error`) are no longer written. The hard quantile is
read as `cfg.hard.auto_quantile`, since the `hard` section has its own
owner, `HardConfig`.

The engine's versions must give the same reports, logs and checksums. Do not
edit it.
"""

import time

import numpy as np

from sabotagebench.config import PipelineConfig
from sabotagebench.dataset import N_CLASSES, MnistSet, SabotagedBatch, inject_sabotage
from sabotagebench.errors import WorkbenchError
from sabotagebench.metrics import accuracy_on_accepted, confusion, detection_metrics
from sabotagebench.models import (
    GateConfig,
    MlpBinary,
    ModelConfig,
    SimpleCNN,
    extract_embeddings,
    make_irm_model,
)
from sabotagebench.nncore import bce_with_logits, bce_with_logits_backward, sgd_step, softmax
from sabotagebench.quarantine import AdaptiveControllerState, adaptive_update, decide
from sabotagebench.rng import stream
from sabotagebench.training import (
    BASELINE,
    HARD,
    IRM,
    SOFT,
    EpochStats,
    GateAsset,
    LogRow,
    RunReport,
    _batches,
    _fit_accepted,
    _fit_step,
    _hard_flags,
    _plain_test_error,
    poison_eval_stream,
)


def _train_step(model: SimpleCNN, images, labels, weights, lr: float):
    """One forward/backward/SGD step; returns (loss, correct_count)."""
    logits, _, cache = model.forward(images)
    return _fit_step(model, logits, cache, labels, weights, lr)


def _finish_report(
    report: RunReport, flags: np.ndarray, batch: SabotagedBatch, predictions: np.ndarray
) -> None:
    """Fill the evaluation block: detection vs the sabotage mask, rejection
    rate over the poisoned stream, accuracy over accepted clean samples."""
    accepted = ~flags
    acc, empty = accuracy_on_accepted(predictions, batch.labels, accepted & ~batch.mask)
    report.detection = detection_metrics(flags, batch.mask, acc, empty)


def _forward_probs(model: SimpleCNN, images: np.ndarray, batch_size: int = 512,
                   mid: np.ndarray | None = None) -> np.ndarray:
    """Softmax over chunks of `batch_size` rows; each chunk's head sees the
    chunk's rows at once (`SimpleCNN.infer`). Given the images' midlayer
    `mid` (as `extract_embeddings` returns it), only the head
    runs, over the same chunks, so the bytes are the same."""
    chunks = []
    for start in range(0, images.shape[0], batch_size):
        rows = slice(start, start + batch_size)
        logits = (model.head(extract_embeddings(model, images[rows])) if mid is None
                  else model.head(mid[rows]))
        chunks.append(softmax(logits))
    return np.concatenate(chunks, axis=0)


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
    gate_cfg = GateConfig(cfg.model.feature_dim, cfg.gate.hidden, cfg.gate.dropout)
    gate = MlpBinary(gate_cfg, stream(cfg.seed, "init/gate"))
    drop_rng = stream(cfg.seed, "gate/dropout")
    for epoch in range(cfg.gate.epochs):
        shuffle = stream(cfg.seed, f"gate/shuffle/{epoch}")
        sab = stream(cfg.seed, f"gate/sabotage/{epoch}")
        for idx in _batches(train_set.count, cfg.train.batch_size, shuffle):
            bt = inject_sabotage(train_set.images[idx], train_set.labels[idx], cfg.sabotage, sab)
            _, mid, _ = body.forward(bt.effective_images)
            flat = mid.reshape(mid.shape[0], -1)
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
    # scored in chunks: one forward over the whole sample would hold conv2's
    # im2col buffer for all of it at once
    flat = extract_embeddings(body, bt.effective_images)
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


def train_baseline(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> RunReport:
    """Standard n-class classifier on the poisoned stream, no defense."""
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
    return report


def _run_gated_pipeline(
    cfg: PipelineConfig,
    train_set: MnistSet,
    test_set: MnistSet,
    asset: GateAsset,
    hard_cutoff,
) -> RunReport:
    """Shared trainer for the soft (hard_cutoff None) and hard pipelines."""
    method = SOFT if hard_cutoff is None else HARD
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    gate = asset.gate
    gate_checksum = gate.params.checksum()
    report = RunReport(method=method, seed=cfg.seed)
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
            logits, mid, cache = model.forward(bt.effective_images)
            t0 = time.perf_counter()
            max_prob = softmax(logits).max(axis=1)
            scores = gate.forward(mid, train=False)[0]
            _, w, flags = decide(max_prob, scores, cfg.soft)
            batch_tau = cfg.soft.confidence_threshold
            if method == HARD:
                flags, batch_tau = _hard_flags(w, hard_cutoff, cfg.hard.auto_quantile)
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
                    continue
                correct += _fit_accepted(
                    model, mid, cache, bt.effective_labels, accepted, cfg.train.learning_rate
                )
                trained += int(accepted.sum())
        tp, fp, fn, tn = (int(v) for v in epoch_counts)
        report.train_flag_counts.append({"epoch": epoch, "tp": tp, "fp": fp, "fn": fn, "tn": tn})
        denom = train_set.count if method == SOFT else max(trained, 1)
        report.epochs.append(
            EpochStats(epoch, 1.0 - correct / denom, _plain_test_error(model, test_set))
        )
    # Final evaluation on a freshly poisoned stream.
    eval_batch = poison_eval_stream(test_set, cfg.sabotage, cfg.seed)
    flags, preds = _gated_eval(cfg, model, gate, eval_batch.effective_images, hard_cutoff)
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
        }
    )
    if method == HARD:
        report.extras["hard_cutoff"] = (
            f"auto(q={cfg.hard.auto_quantile})" if hard_cutoff == "auto" else float(hard_cutoff)
        )
    return report


def _gated_eval(cfg: PipelineConfig, model: SimpleCNN, gate: MlpBinary, images,
                hard_cutoff) -> tuple[np.ndarray, np.ndarray]:
    """(flags, predictions) of the soft (hard_cutoff None) or hard pipeline
    on `images`, decided over chunks of 512 rows."""
    chunks_flags, chunks_pred = [], []
    for start in range(0, images.shape[0], 512):
        mid = extract_embeddings(model, images[start : start + 512])
        logits = model.head(mid)
        probs = softmax(logits)
        scores = gate.forward(mid, train=False)[0]
        _, w, flags = decide(probs.max(axis=1), scores, cfg.soft)
        if hard_cutoff is not None:
            flags, _ = _hard_flags(w, hard_cutoff, cfg.hard.auto_quantile)
        chunks_flags.append(flags)
        chunks_pred.append(probs.argmax(axis=1))
    return np.concatenate(chunks_flags), np.concatenate(chunks_pred)


def train_irm(cfg: PipelineConfig, train_set: MnistSet, test_set: MnistSet) -> RunReport:
    """Integrated rejection: sabotaged samples are relabeled to the extra
    class n and the network learns to route them there. At inference,
    argmax == n rejects the sample; there is no separate detector."""
    model = make_irm_model(cfg.model, stream(cfg.seed, "init/body"))
    reject_class = N_CLASSES
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
        }
    )
    return report


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
    method = "adaptive" if controller is not None else "sweep"
    model = SimpleCNN(cfg.model, stream(cfg.seed, "init/body"))
    report = RunReport(method=method, seed=cfg.seed)
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
            logits, mid, cache = model.forward(bt.effective_images)
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
                continue
            correct += _fit_accepted(
                model, mid, cache, bt.effective_labels, accepted, cfg.train.learning_rate
            )
            trained += int(accepted.sum())
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
        }
    )
    if controller is None:
        report.extras["threshold"] = tau
    return report


def train_partial(subset: MnistSet, model_cfg: ModelConfig, seed: int, tag: str,
                  epochs: int = 1, batch_size: int = 64, learning_rate: float = 0.01,
                  test_set: MnistSet | None = None) -> tuple[SimpleCNN, float]:
    """Train a fresh net briefly on one subset; returns (net, test error).

    The tag keeps the two nets' seed streams apart so they differ in both
    data and initialization."""
    net = SimpleCNN(model_cfg, stream(seed, f"mirror/init/{tag}"))
    ones = None
    for epoch in range(epochs):
        shuffle = stream(seed, f"mirror/shuffle/{tag}/{epoch}")
        for idx in _batches(subset.count, batch_size, shuffle):
            if ones is None or ones.shape[0] != idx.size:
                ones = np.ones(idx.size)
            _train_step(net, subset.images[idx], subset.labels[idx], ones, learning_rate)
    error = _plain_test_error(net, test_set) if test_set is not None else float("nan")
    return net, error
