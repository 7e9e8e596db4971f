"""Inference and pair-gate code as it was before the conv trunk ran in pieces
and the pair features were built batch by batch.

Test-only oracle: each function forwards a whole chunk through
`SimpleCNN.forward` (or builds the whole pair feature table) and is kept
verbatim, apart from the gated evaluation loop, which is lifted out of the
pipeline into a function of its inputs, and the conv2 bypass's sabotage
fraction, always 0.0, is no longer passed. The engine's versions must give
the same bytes. Do not edit it.
"""

import numpy as np

from sabotagebench.mirror_cnn import MODE_CROSS, MODE_SELF, PairSet
from sabotagebench.models import GateConfig, MlpBinary, SimpleCNN
from sabotagebench.nncore import bce_with_logits, bce_with_logits_backward, sgd_step, softmax
from sabotagebench.errors import ValidationError
from sabotagebench.quarantine import decide
from sabotagebench.rng import stream
from sabotagebench.training import PipelineConfig, _batches, _gate_scores, _hard_flags


def forward_probs(model: SimpleCNN, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
    chunks = []
    for start in range(0, images.shape[0], batch_size):
        # bind the logits only: a chunk's cache must not live through the next forward
        logits = model.forward(images[start : start + batch_size])[0]
        chunks.append(softmax(logits))
    return np.concatenate(chunks, axis=0)


def extract_embeddings(model: SimpleCNN, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    dtype = np.result_type(images.dtype, model.params["conv1_w"].value.dtype)
    out = np.empty((images.shape[0], model.cfg.feature_dim), dtype=dtype)
    for start in range(0, images.shape[0], batch_size):
        mid = model.forward(images[start : start + batch_size])[1]
        out[start : start + mid.shape[0]] = mid.reshape(mid.shape[0], -1)
    return out


def gated_eval(cfg: PipelineConfig, model: SimpleCNN, gate: MlpBinary, images, hard_cutoff) -> tuple[np.ndarray, np.ndarray]:
    """The final-evaluation loop of the soft (hard_cutoff None) and hard
    pipelines; returns (flags, predictions)."""
    chunks_flags, chunks_pred = [], []
    for start in range(0, images.shape[0], 512):
        sl = slice(start, start + 512)
        logits, mid = model.forward(images[sl])[:2]
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


def train_pair_gate(pairs: PairSet, seed: int, hidden: int = 256,
                    epochs: int = 3, batch_size: int = 64,
                    learning_rate: float = 0.05,
                    boundary_fraction: float | None = 1 / 3) -> MlpBinary:
    counts = pairs.counts
    if set(counts) != {MODE_SELF, MODE_CROSS}:
        raise ValidationError(
            f"training pairs must contain exactly self and cross modes, got {sorted(counts)}"
        )
    if counts[MODE_SELF] != counts[MODE_CROSS]:
        raise ValidationError(
            f"training pairs must be balanced, got {counts[MODE_SELF]} self "
            f"vs {counts[MODE_CROSS]} cross"
        )
    if boundary_fraction is not None and not 0 <= boundary_fraction < 1:
        raise ValidationError(
            f"boundary_fraction must lie in [0, 1) or be None, got {boundary_fraction}"
        )
    features = pairs.features()
    targets = pairs.targets()
    gate = MlpBinary(GateConfig(features.shape[1], hidden, dropout=0.0),
                     stream(seed, "mirror/gate/init"))

    for epoch in range(epochs):
        shuffle = stream(seed, f"mirror/gate/shuffle/{epoch}")
        for idx in _batches(features.shape[0], batch_size, shuffle):
            _, logits, cache = gate.forward(features[idx], train=True)
            t = targets[idx]
            _, probs = bce_with_logits(logits, t)
            gate.backward(bce_with_logits_backward(probs, t).astype(np.float32), cache)
            sgd_step(gate.params, learning_rate)
    if boundary_fraction is not None:
        chunks = []
        for start in range(0, features.shape[0], 512):
            _, logits, _ = gate.forward(features[start : start + 512], train=False)
            chunks.append(logits)
        logits = np.concatenate(chunks)
        self_mean = logits[targets == 1.0].mean()
        cross_mean = logits[targets == 0.0].mean()
        boundary = cross_mean + boundary_fraction * (self_mean - cross_mean)
        gate.params["b2"].value -= np.float32(boundary)
    return gate


def eval_pairs(gate: MlpBinary, pairs: PairSet, batch_size: int = 256) -> dict:
    scores = []
    features = pairs.features()
    for start in range(0, features.shape[0], batch_size):
        s, _, _ = gate.forward(features[start : start + batch_size], train=False)
        scores.append(s)
    called_self = np.concatenate(scores) >= 0.5
    correct = called_self == (pairs.targets() == 1.0)
    out = {"overall": float(correct.mean())}
    for mode in np.unique(pairs.modes):
        out[str(mode)] = float(correct[pairs.modes == mode].mean())
    return out
