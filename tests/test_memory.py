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
w1-sized temporary; the peak, 36.8 MiB, is `fan_in_uniform`'s float64 draw
of w1 (24.5 MiB) beside its float32 copy. With a fresh w1 gradient per step
and 512-pair boundary chunks (25.7 MB of features each) it was 53.5 MiB.
As the draw hides the step's buffers, one step of a gate built beforehand
is bounded on its own: 3.1 MiB, 12.5 MiB with a fresh w1 gradient.
"""
import tracemalloc

import numpy as np
import pytest

from sabotagebench.mirror_cnn import MODE_CROSS, MODE_SELF, build_pair_set, train_pair_gate
from sabotagebench.models import GateConfig, MlpBinary, ModelConfig, SimpleCNN
from sabotagebench.nncore import bce_with_logits, bce_with_logits_backward, sgd_step
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


def test_midlayer_builds_no_full_im2col(stock_batch):
    model, x, _ = stock_batch
    assert _peak_mib(lambda: model.midlayer(x)) < 24


def test_training_step_builds_no_full_input_gradient_columns(stock_batch):
    model, x, labels = stock_batch

    def step():
        logits, _, cache = model.forward(x)
        _fit_step(model, logits, cache, labels, np.ones(64), 0.1)

    assert _peak_mib(step) < 60


def test_pair_gate_step_allocates_no_weight_gradient():
    # one 64-pair step at the stock widths, the gate and its batch built
    # beforehand: 3.1 MiB (sgd_step's finiteness mask of w1's gradient),
    # 12.5 MiB with a fresh w1 gradient
    rng = np.random.default_rng(6)
    gate = MlpBinary(GateConfig(2 * 6272, 256, dropout=0.0), rng)
    x = np.maximum(rng.normal(size=(64, 2 * 6272)).astype(np.float32), 0)
    targets = (rng.random(64) < 0.5).astype(np.float64)

    def step():
        _, logits, cache = gate.forward(x, train=True)
        _, probs = bce_with_logits(logits, targets)
        gate.backward(bce_with_logits_backward(probs, targets).astype(np.float32), cache)
        sgd_step(gate.params, 0.05)

    assert _peak_mib(step) < 8


def test_pair_gate_holds_no_weight_sized_temporaries():
    # 1024 pairs of stock-width embeddings (2 x 6272 floats), hidden 256
    rng = np.random.default_rng(6)
    table = np.maximum(rng.normal(size=(2 * 64, 6272)).astype(np.float32), 0)
    pairs = build_pair_set(table, np.arange(64), {MODE_SELF: 512, MODE_CROSS: 512}, rng)
    assert _peak_mib(lambda: train_pair_gate(pairs, seed=5, hidden=256, epochs=1)) < 45
