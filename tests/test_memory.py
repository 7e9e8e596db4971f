"""Peak traced memory of the stock conv trunk, inference and one training
step, and of the mirror pair gate's training.

tracemalloc sees numpy's buffers, so its peak is the largest set of arrays
alive at once during the call, in this process, independent of the heap.
conv2's im2col matrix of a 64-image batch is 27.6 MiB; inference builds it
one block of images at a time and the backward its gradient, so neither
appears whole. The bounds sit between the blocked peaks and the peaks with
a full-size buffer (44.6 MiB for the midlayer, 75.9 MiB for a step).

The pair gate's w1 (12544 x 256 at the stock widths) is 12.25 MiB. Its
backward writes w1's gradient into the gradient buffer, and its boundary
pass scores chunks of a training batch, so the training loop holds no
w1-sized temporary; the peak, 31.1 MiB, is w1 and its gradient buffer
beside one step's buffers. With a fresh w1 gradient per step and 512-pair
boundary chunks (25.7 MB of features each) it was 53.5 MiB, and 36.8 MiB
while `fan_in_uniform` drew the whole of w1 in float64 (24.5 MiB) before
its float32 copy; it now draws 64K values at a time, and w1's draw peaks
at 12.8 MiB. One step of a gate built beforehand is bounded on its own:
0.24 MiB, 3.1 MiB with a finiteness mask of the whole w1 gradient in
`sgd_step`, 12.5 MiB with a fresh w1 gradient.

The mirror experiment writes each net's test-set embeddings straight into
its half of the pair table; with two embedding tables and their
concatenated copy, the phase from the second net's training to the first
pair set held twice the table.

The synthetic set draws its pixel noise 512 rows at a time: 6000 images
(17.9 MiB) peak at 25.4 MiB, and at 72.0 MiB with one float64 draw of the
whole set.
"""
import tracemalloc

import numpy as np
import pytest

from sabotagebench import mirror_cnn
from sabotagebench.config import PipelineConfig
from sabotagebench.dataset import synthetic_mnist_set
from sabotagebench.mirror_cnn import (
    MODE_CROSS,
    MODE_SELF,
    MirrorCnnConfig,
    build_pair_set,
    run_mirror_experiment,
    train_pair_gate,
)
from sabotagebench.models import GateConfig, MlpBinary, ModelConfig, SimpleCNN, extract_embeddings
from sabotagebench.nncore import (bce_with_logits, bce_with_logits_backward, fan_in_uniform,
                                  sgd_step)
from sabotagebench.training import _fit_step

MIB = 1 << 20


@pytest.fixture
def stock_batch():
    rng = np.random.default_rng(4)
    model = SimpleCNN(ModelConfig(), rng)
    x = rng.random((64, 1, 28, 28)).astype(np.float32)
    return model, x, rng.integers(0, 10, size=64)


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def test_extract_embeddings_builds_no_full_im2col(stock_batch):
    model, x, _ = stock_batch
    assert _peak_mib(lambda: extract_embeddings(model, x)) < 24


def test_training_step_builds_no_full_input_gradient_columns(stock_batch):
    model, x, labels = stock_batch

    def step():
        logits, _, cache = model.forward(x)
        _fit_step(model, logits, cache, labels, np.ones(64), 0.1)

    assert _peak_mib(step) < 60


def test_pair_gate_step_allocates_no_weight_gradient():
    # one 64-pair step at the stock widths, the gate and its batch built
    # beforehand: 0.24 MiB; 3.1 MiB with sgd_step's finiteness mask of the
    # whole w1 gradient, 12.5 MiB with a fresh w1 gradient
    rng = np.random.default_rng(6)
    gate = MlpBinary(GateConfig(2 * 6272, 256, dropout=0.0), rng)
    x = np.maximum(rng.normal(size=(64, 2 * 6272)).astype(np.float32), 0)
    targets = (rng.random(64) < 0.5).astype(np.float64)

    def step():
        _, logits, cache = gate.forward(x, train=True)
        _, probs = bce_with_logits(logits, targets)
        gate.backward(bce_with_logits_backward(probs, targets).astype(np.float32), cache)
        sgd_step(gate.params, 0.05)

    assert _peak_mib(step) < 1


def test_pair_gate_holds_no_weight_sized_temporaries():
    # 1024 pairs of stock-width embeddings (2 x 6272 floats), hidden 256
    rng = np.random.default_rng(6)
    table = np.maximum(rng.normal(size=(2 * 64, 6272)).astype(np.float32), 0)
    pairs = build_pair_set(table, np.arange(64), {MODE_SELF: 512, MODE_CROSS: 512}, rng)
    cfg = PipelineConfig(seed=5, mirror_cnn=MirrorCnnConfig(gate_epochs=1))
    assert _peak_mib(lambda: train_pair_gate(cfg, pairs)) < 45


def test_init_draws_no_float64_copy_of_the_weight():
    # w1 of the stock pair gate, 12.25 MiB as float32: 12.8 MiB drawn 64K
    # values at a time, 36.8 MiB with one float64 draw of the whole of it
    rng = np.random.default_rng(6)
    assert _peak_mib(lambda: fan_in_uniform(rng, (2 * 6272, 256), 2 * 6272)) < 14


def test_synthetic_set_draws_no_whole_set_noise():
    assert _peak_mib(lambda: synthetic_mnist_set(6000, 1234)) < 30


def test_mirror_embeddings_fill_one_pair_table(monkeypatch):
    # From the second net's training to the first pair set, the traced
    # memory grows by the [2T, 6272] table and one trunk piece's activations
    # (under 24 MiB, see test_extract_embeddings_builds_no_full_im2col):
    # 120.6 MiB at T = 2000, with a 95.7 MiB table. With two embedding tables
    # and their concatenation it grew by 179.1 MiB.
    train, test = synthetic_mnist_set(128, 30), synthetic_mnist_set(2000, 31)
    cfg = PipelineConfig(mirror_cnn=MirrorCnnConfig(
        subset_size=64, train_pairs_per_mode=8, eval_pairs_per_mode=8, gate_hidden=4,
        gate_epochs=1))
    train_partial, build = mirror_cnn.train_partial, mirror_cnn.build_pair_set
    phase = {}

    def trained(*args):
        net = train_partial(*args)
        phase["nets"] = phase.get("nets", 0) + 1
        if phase["nets"] == 2:
            phase["start"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return net

    def paired(table, *args):
        phase.setdefault("growth", tracemalloc.get_traced_memory()[1] - phase["start"])
        phase["table"] = table.nbytes
        return build(table, *args)

    monkeypatch.setattr(mirror_cnn, "train_partial", trained)
    monkeypatch.setattr(mirror_cnn, "build_pair_set", paired)
    tracemalloc.start()
    try:
        run_mirror_experiment(cfg, train, test)
    finally:
        tracemalloc.stop()
    assert phase["table"] == 2 * 2000 * 6272 * 4
    assert phase["growth"] < phase["table"] + 40 * MIB, phase
