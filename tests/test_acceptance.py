"""Desk-scale reproduction targets, one test per numbered criterion.

`pytest -v` on this file reads as the acceptance checklist.  Criteria
1-7 train on the real MNIST IDX files and are skipped honestly when the
dataset is absent; they are never approximated with synthetic data.
Point SABOTAGEBENCH_MNIST_DIR at a directory holding the four standard
files (train-images-idx3-ubyte, train-labels-idx1-ubyte,
t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte, plain or .gz), or place
them under data/mnist.  Criteria 8 and 9 need no download and always
run.

Every run here uses the stock configuration (seed 0, sabotage rate
0.05) so the numbers line up with the published tolerances.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from sabotagebench import reporting
from sabotagebench.config import parse_config
from sabotagebench.dataset import invert, load_mnist_dir
from sabotagebench.metrics import ConfusionCounts, accuracy_on_accepted, confusion, prf
from sabotagebench.mirror_cnn import run_mirror_experiment
from sabotagebench.mirror_text import run_mirror_text_experiment
from sabotagebench.models import GateConfig, MlpBinary
from sabotagebench.nncore.gradcheck import grad_check
from sabotagebench.nncore.ops import bce_with_logits, bce_with_logits_backward
from sabotagebench.quarantine import (
    AdaptiveControllerState,
    adaptive_update,
    combine_weight,
    confidence_weight,
)
from sabotagebench.training import (
    run_sweep,
    train_adaptive,
    train_baseline,
    train_hard,
    train_irm,
    train_soft,
)

MNIST_ENV = "SABOTAGEBENCH_MNIST_DIR"
_STEMS = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _find_mnist() -> Path | None:
    roots = []
    env = os.environ.get(MNIST_ENV)
    if env:
        roots.append(Path(env))
    roots.append(Path("data/mnist"))
    for root in roots:
        if all((root / s).exists() or (root / f"{s}.gz").exists() for s in _STEMS):
            return root
    return None


MNIST_ROOT = _find_mnist()
requires_mnist = pytest.mark.skipif(
    MNIST_ROOT is None,
    reason=f"MNIST IDX files not found; set {MNIST_ENV} or provide data/mnist",
)


def stock_config():
    return parse_config(
        None,
        {"dataset.source": "mnist", "dataset.mnist_dir": str(MNIST_ROOT)},
    )


@pytest.fixture(scope="module")
def mnist_data():
    return load_mnist_dir(MNIST_ROOT)


@pytest.fixture(scope="module")
def baseline_report(mnist_data):
    return train_baseline(stock_config().pipeline_config("baseline"), *mnist_data)


@pytest.fixture(scope="module")
def irm_report(mnist_data):
    return train_irm(stock_config().pipeline_config("irm"), *mnist_data)


@pytest.fixture(scope="module")
def hard_report(mnist_data):
    return train_hard(stock_config().pipeline_config("hard"), *mnist_data)


@pytest.fixture(scope="module")
def soft_report(mnist_data):
    return train_soft(stock_config().pipeline_config("soft"), *mnist_data)


@pytest.fixture(scope="module")
def sweep_result(mnist_data):
    cfg = stock_config()
    return run_sweep(cfg.pipeline_config("baseline"), cfg.build("sweep"), *mnist_data)


@pytest.fixture(scope="module")
def adaptive_report(mnist_data):
    cfg = stock_config()
    return train_adaptive(cfg.pipeline_config("baseline"), *mnist_data, cfg.build("adaptive"))


@pytest.fixture(scope="module")
def mirror_report(mnist_data):
    cfg = stock_config()
    return run_mirror_experiment(
        cfg.build("mirror_cnn"), cfg.build("model"), cfg.seed, *mnist_data
    )


@requires_mnist
def test_criterion_1_baseline_accuracy(baseline_report):
    # >= 98.0% test accuracy after 3 epochs
    assert 1.0 - baseline_report.epochs[-1].test_error >= 0.980


@requires_mnist
def test_criterion_2_irm_rejection_and_detection(irm_report):
    assert irm_report.rejection_rate == pytest.approx(0.0487, abs=0.010)
    assert irm_report.detection.precision >= 0.98
    assert irm_report.detection.recall >= 0.98
    assert irm_report.accuracy_on_accepted >= 0.980


@requires_mnist
def test_criterion_3_hard_gate_bands(hard_report):
    assert hard_report.accuracy_on_accepted >= 0.980
    assert 0.50 <= hard_report.rejection_rate <= 0.80
    assert hard_report.detection.recall >= 0.70


@requires_mnist
def test_criterion_4_soft_degenerate_regime(soft_report):
    assert soft_report.rejection_rate == 1.0
    assert soft_report.detection.recall == 1.0
    assert soft_report.detection.precision == pytest.approx(0.05, abs=0.01)
    assert soft_report.accuracy_on_accepted == 0.0
    assert soft_report.accepted_empty


@requires_mnist
def test_criterion_5_threshold_sweep(sweep_result):
    rows = {row["threshold"]: row for row in sweep_result["rows"]}
    assert sorted(rows) == [0.1, 0.2, 0.3, 0.4, 0.5]
    low = rows[0.1]
    assert low["final_test_error"] <= 0.03
    assert low["recall"] <= 0.05
    for tau in (0.2, 0.3, 0.4, 0.5):
        row = rows[tau]
        assert row["recall"] == 1.0, tau
        assert row["precision"] == pytest.approx(0.047, abs=0.010), tau
        assert row["final_test_error"] >= 0.80, tau


@requires_mnist
def test_criterion_6_adaptive_homeostasis(adaptive_report):
    # f_avg is the controller's own window-sized moving mean of the
    # flagged fraction; it must hold the band through the final half.
    rows = adaptive_report.log_rows
    second_half = rows[len(rows) // 2 :]
    assert second_half
    for row in second_half:
        assert 0.05 <= row.f_avg <= 0.20, (row.epoch, row.batch, row.f_avg)
    assert 0.5 <= adaptive_report.detection.recall <= 0.8
    assert adaptive_report.detection.precision >= 0.2


@requires_mnist
def test_criterion_7_mirror_cnn(mirror_report):
    assert mirror_report.test_error_a == pytest.approx(0.13, abs=0.04)
    assert mirror_report.test_error_b == pytest.approx(0.13, abs=0.04)
    assert mirror_report.self_vs_cross_accuracy >= 0.99
    assert 0.60 <= mirror_report.semiself_accuracy <= 0.99


def test_criterion_8_mirror_text_fixture_scores():
    report = run_mirror_text_experiment()
    scores = {row["system"]: row["score_percent"] for row in report.recognition}
    assert sorted(scores.values()) == [25.0, 50.0, 100.0, 100.0, 100.0]
    assert scores == {"A": 25.0, "B": 100.0, "C": 50.0, "D": 100.0, "E": 100.0}


def test_criterion_9_property_suite(tmp_path):
    # (a) gate gradients match central finite differences
    rng = np.random.default_rng(3)
    gate = MlpBinary(GateConfig(input_dim=6, hidden=5, dropout=0.0), rng)
    for _, param in gate.params.items():
        param.value = param.value.astype(np.float64)
        param.grad = param.grad.astype(np.float64)
    x = rng.normal(size=(4, 6))
    targets = np.array([1.0, 0.0, 1.0, 0.0])

    def loss_fn(backward: bool = False) -> float:
        _, logits, cache = gate.forward(x)
        loss, probs = bce_with_logits(logits, targets)
        if backward:
            gate.backward(bce_with_logits_backward(probs, targets), cache)
        return float(loss)

    assert grad_check(loss_fn, gate.params) < 1e-4

    # (b) metrics agree with a brute-force count on a 20-sample fixture
    flags = rng.integers(0, 2, size=20).astype(bool)
    mask = rng.integers(0, 2, size=20).astype(bool)
    counts = confusion(flags, mask)
    brute = ConfusionCounts(
        tp=sum(f and m for f, m in zip(flags, mask)),
        fp=sum(f and not m for f, m in zip(flags, mask)),
        fn=sum(m and not f for f, m in zip(flags, mask)),
        tn=sum(not f and not m for f, m in zip(flags, mask)),
    )
    assert counts == brute
    precision, recall, f1 = prf(counts)
    assert precision == brute.tp / (brute.tp + brute.fp)
    assert recall == brute.tp / (brute.tp + brute.fn)
    assert f1 == pytest.approx(2 * precision * recall / (precision + recall))
    preds = rng.integers(0, 10, size=20)
    labels = rng.integers(0, 10, size=20)
    accepted = np.ones(20, dtype=bool)
    acc, empty = accuracy_on_accepted(preds, labels, accepted)
    assert acc == float(np.mean(preds == labels)) and not empty

    # (c) pixel inversion is an involution (float32 round-trip)
    pixels = rng.uniform(0, 1, size=(6, 1, 8, 8)).astype(np.float32)
    assert np.allclose(invert(invert(pixels)), pixels, atol=1e-6)

    # (d) combined weight is monotone in both inputs
    grid = np.linspace(0.0, 1.0, 21)
    for conf in (0.25, 0.6, 1.0):
        w = combine_weight(np.full_like(grid, conf), grid, 2.0)
        assert np.all(np.diff(w) >= 0)
    assert np.all(np.diff(confidence_weight(grid, 0.4)) >= 0)

    # (e) the adaptive threshold never escapes its clamp
    state = AdaptiveControllerState()
    for fraction in (1.0,) * 200 + (0.0,) * 200:
        state = adaptive_update(state, fraction)
        assert state.tau_min <= state.tau <= state.tau_max

    # (f) same seed, same config -> byte-identical report artifacts
    cfg = parse_config(
        None,
        {
            "dataset.source": "synthetic",
            "dataset.synthetic_train": 128,
            "dataset.synthetic_test": 64,
            "model.conv1_channels": 2,
            "model.conv2_channels": 3,
            "model.fc_hidden": 8,
            "model.image_size": 8,
            "train.epochs": 1,
        },
    )
    from sabotagebench.cli import load_data

    train_set, test_set = load_data(cfg)
    dirs = (tmp_path / "first", tmp_path / "second")
    for out in dirs:
        report = train_baseline(cfg.pipeline_config("baseline"), train_set, test_set)
        reporting.write_run_report(out, report)
    for name in ("report_baseline_seed0.json", "epochs_baseline_seed0.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
