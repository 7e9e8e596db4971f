"""Peak traced memory of the stock conv trunk, inference and one training step.

tracemalloc sees numpy's buffers, so its peak is the largest set of arrays
alive at once during the call, in this process, independent of the heap.
conv2's im2col matrix of a 64-image batch is 27.6 MiB; inference builds it
one block of images at a time and the backward its gradient, so neither
appears whole. The bounds sit between the blocked peaks and the peaks with
a full-size buffer (44.6 MiB for the midlayer, 75.9 MiB for a step).
"""
import tracemalloc

import numpy as np
import pytest

from sabotagebench.models import ModelConfig, SimpleCNN
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
