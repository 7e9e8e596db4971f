"""Shared fixtures.

Two dataset scales: `tiny_*` (1200/300, shrunken model) for mechanism
and contract tests, and session-scoped `med_*` (6000/1000, full-size
model) for the integration tests that need the detection behavior to
actually emerge. The synthetic glyph set replaces MNIST everywhere so
the whole suite runs without a download.

The session fixes glibc's heap thresholds as the CLI does, so the suite's
training steps run on the same heap as the program's.
"""
import numpy as np
import pytest

from sabotagebench.dataset import SabotageConfig, synthetic_mnist_set
from sabotagebench.heap import keep_heap
from sabotagebench.models import ModelConfig
from sabotagebench.training import GateTrainConfig, PipelineConfig, TrainConfig

TINY_MODEL = dict(conv1_channels=4, conv2_channels=8, fc_hidden=32)


def pytest_configure(config):
    keep_heap()


@pytest.fixture(scope="session")
def tiny_train():
    return synthetic_mnist_set(1200, 1234)


@pytest.fixture(scope="session")
def tiny_test():
    return synthetic_mnist_set(300, 1235)


@pytest.fixture(scope="session")
def med_train():
    return synthetic_mnist_set(6000, 1234)


@pytest.fixture(scope="session")
def med_test():
    return synthetic_mnist_set(1000, 1235)


def tiny_pipeline(method: str, seed: int = 0, **kwargs) -> PipelineConfig:
    """Tiny-scale pipeline settings; `method` only picks the label mode."""
    label_mode = "reject" if method == "irm" else "random"
    defaults = dict(
        seed=seed,
        sabotage=SabotageConfig(rate=0.05, label_mode=label_mode),
        model=ModelConfig(**TINY_MODEL),
        train=TrainConfig(epochs=1, learning_rate=0.1),
        gate=GateTrainConfig(hidden=32, epochs=1),
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def med_pipeline(method: str, seed: int = 0, **kwargs) -> PipelineConfig:
    label_mode = "reject" if method == "irm" else "random"
    defaults = dict(
        seed=seed,
        sabotage=SabotageConfig(rate=0.05, label_mode=label_mode),
        model=ModelConfig(),
        train=TrainConfig(epochs=2, learning_rate=0.1),
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="session")
def med_gate_asset(med_train):
    """Gate pretrained once at the medium scale; reused by soft/hard tests."""
    from sabotagebench.training import pretrain_gate

    return pretrain_gate(med_pipeline("hard"), med_train)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def nhwc(a):
    """An NCHW array viewed channels-last, as the engine's image ops take it."""
    return a.transpose(0, 2, 3, 1)


def nchw(a):
    """A channels-last array viewed NCHW, as the oracle ops take it."""
    return a.transpose(0, 3, 1, 2)
