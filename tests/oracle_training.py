"""The gate pre-training loop as it was before the frozen body's features
were cached.

Test-only oracle: `pretrain_gate` forwards the whole of every gate batch and
the whole calibration sample through the frozen body. It is kept verbatim so
the engine's version can be checked against it field by field. Do not edit
it.
"""

import numpy as np

from sabotagebench.dataset import MnistSet, inject_sabotage
from sabotagebench.errors import WorkbenchError
from sabotagebench.models import GateConfig, MlpBinary, SimpleCNN, extract_embeddings
from sabotagebench.nncore import bce_with_logits, bce_with_logits_backward, sgd_step
from sabotagebench.rng import stream
from sabotagebench.training import GateAsset, PipelineConfig, _batches, _train_step


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
