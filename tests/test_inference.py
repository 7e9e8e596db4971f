"""Inference without a training step's cache, and the process heap.

Inference runs the conv trunk in pieces of at most a training batch's size
and the fc head once per 512-row chunk (`training._infer`); the mirror pair
gate builds its features batch by batch. Both must give the bytes of the
one-forward-per-chunk code kept in `oracle_inference`. The heap thresholds
the CLI sets must keep a warm training step from faulting pages in.
"""

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracle_backward
import oracle_inference as oracle
import oracle_pairs
from sabotagebench import heap
from sabotagebench.errors import NumericsError
from sabotagebench.mirror_cnn import (
    MODE_CROSS,
    MODE_SELF,
    MODE_SEMISELF,
    PairSet,
    build_pair_set,
    eval_pairs,
    pair_table,
    train_pair_gate,
)
from sabotagebench.models import GateConfig, MlpBinary, ModelConfig, SimpleCNN, extract_embeddings
from sabotagebench.nncore import relu, softmax
from sabotagebench.quarantine import decide
from sabotagebench.training import (
    PipelineConfig,
    _gate_scores,
    _gated_flags,
    _infer,
)

SIZES = [1, 2, 63, 64, 65, 129, 511, 512, 513, 1025]


@pytest.fixture(scope="module")
def stock():
    """A stock model and gate, and 1025 images whose prefixes are the inputs."""
    rng = np.random.default_rng(2024)
    model = SimpleCNN(ModelConfig(), np.random.default_rng(7))
    gate = MlpBinary(GateConfig(model.cfg.feature_dim), np.random.default_rng(8))
    images = rng.random((max(SIZES), 1, 28, 28)).astype(np.float32)
    return model, gate, images


def test_stock_piece_is_a_training_batch(stock):
    model, _, images = stock
    assert model.trunk_piece(images.dtype) == 64


@pytest.mark.parametrize("n", SIZES)
def test_forward_probs_matches_oracle(stock, n):
    model, _, images = stock
    assert _infer(model, images[:n])[0].tobytes() == oracle.forward_probs(
        model, images[:n]
    ).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_extract_embeddings_matches_oracle(stock, n):
    model, _, images = stock
    emb = extract_embeddings(model, images[:n])
    expected = oracle.extract_embeddings(model, images[:n])
    assert emb.dtype == expected.dtype and emb.shape == expected.shape
    assert emb.tobytes() == expected.tobytes()


# the trailing 0.0 of each id is the sabotage fraction these cases ran at
# before the conv2 bypass was deleted; kept so the case names stay stable
@pytest.mark.parametrize("hard_cutoff", [None, "auto"], ids=["None-0.0", "auto-0.0"])
@pytest.mark.parametrize("n", SIZES)
def test_gated_eval_matches_oracle(stock, n, hard_cutoff):
    model, gate, images = stock
    cfg = PipelineConfig()
    probs, scores = _infer(model, images[:n], gate)
    flags, preds = _gated_flags(cfg, hard_cutoff)(probs, scores), probs.argmax(axis=1)
    cutoff = hard_cutoff
    if hard_cutoff == "auto" and n > 512:
        # the oracle takes the auto quantile per 512-row chunk; give it the
        # whole stream's as a numeric cutoff
        w = _oracle_weights(cfg, model, gate, images[:n])
        cutoff = float(np.quantile(w, cfg.hard_auto_quantile))
    expected_flags, expected_preds = oracle.gated_eval(cfg, model, gate, images[:n], cutoff)
    assert flags.tobytes() == expected_flags.tobytes()
    assert preds.tobytes() == expected_preds.tobytes()


def _oracle_weights(cfg, model, gate, images):
    """Soft weights w of `images`, from one forward per 512-row chunk."""
    probs, scores = [], []
    for start in range(0, images.shape[0], 512):
        logits, mid, _ = model.forward(images[start : start + 512])
        probs.append(softmax(logits))
        scores.append(_gate_scores(gate, mid))
    return decide(np.concatenate(probs).max(axis=1), np.concatenate(scores), cfg.soft)[1]


def test_auto_cutoff_takes_the_quantile_of_the_whole_eval_stream(stock):
    model, gate, images = stock
    cfg = PipelineConfig()
    flags = _gated_flags(cfg, "auto")(*_infer(model, images, gate))
    w = _oracle_weights(cfg, model, gate, images)
    assert images.shape[0] == 1025
    assert flags.tobytes() == (w < np.quantile(w, cfg.hard_auto_quantile)).tobytes()


def test_midlayer_names_a_nonfinite_layer():
    model = SimpleCNN(ModelConfig(conv1_channels=2, conv2_channels=3, fc_hidden=8, image_size=8),
                      np.random.default_rng(0))
    model.params["conv2_w"].value[0, 0, 0, 0] = np.nan
    x = np.random.default_rng(1).random((5, 1, 8, 8)).astype(np.float32)
    with pytest.raises(NumericsError, match="'conv2'"):
        model.midlayer(x, piece=2)


# ------------------------------------------------------------ pair features


def _tables(rng, dim=12):
    emb_a = rng.normal(size=(30, dim)).astype(np.float32)
    emb_b = (rng.normal(size=(30, dim)) + 1.0).astype(np.float32)
    return emb_a, emb_b


def _counts(n_per_mode, semiself=True):
    modes = [MODE_SELF, MODE_CROSS] + ([MODE_SEMISELF] if semiself else [])
    return {m: n_per_mode for m in modes}


def _pairs(rng, n_per_mode, dim=12, semiself=True):
    emb_a, emb_b = _tables(rng, dim)
    return build_pair_set(pair_table(emb_a, emb_b), np.arange(30), _counts(n_per_mode, semiself),
                          rng)


def test_pair_feature_rows_equal_the_full_table(rng):
    pairs = _pairs(rng, 40)
    full = pairs.features()
    for rows in (rng.permutation(pairs.count)[:17], np.array([3]), slice(0, 512),
                 slice(100, 120), slice(119, 130)):
        assert pairs.features(rows).tobytes() == full[rows].tobytes()


def test_pair_features_gather_like_concatenate(rng):
    # both halves are gathered from the table into one buffer; negative
    # and out-of-range rows behave as in plain indexing on the copied
    # left and right tables of the same draws
    emb_a, emb_b = _tables(rng)
    old_rng, new_rng = np.random.default_rng(4), np.random.default_rng(4)
    old = oracle_pairs.PairSet.merge(
        *(oracle_pairs.build_pairs(emb_a, emb_b, m, old_rng, n) for m, n in _counts(10).items())
    )
    pairs = build_pair_set(pair_table(emb_a, emb_b), np.arange(30), _counts(10), new_rng)
    for rows in (np.array([4, -1, 0, 4]), slice(None), slice(25, 5, -3), np.array([], int)):
        expected = np.concatenate([old.left[rows], old.right[rows]], axis=1)
        got = pairs.features(rows)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    with pytest.raises(IndexError):
        pairs.features(np.array([pairs.count]))


@pytest.mark.parametrize("boundary_fraction", [None, 1 / 3])
@pytest.mark.parametrize("per_mode", [1, 33, 300])
def test_pair_gate_matches_oracle(per_mode, boundary_fraction):
    train = _pairs(np.random.default_rng(per_mode), per_mode, semiself=False)
    kwargs = dict(seed=5, hidden=16, epochs=2, boundary_fraction=boundary_fraction)
    gate = train_pair_gate(train, **kwargs)
    expected = oracle.train_pair_gate(train, **kwargs)
    assert gate.params.checksum() == expected.params.checksum()
    held = _pairs(np.random.default_rng(per_mode + 1), per_mode + 100)
    assert eval_pairs(gate, held) == oracle.eval_pairs(expected, held)
    assert eval_pairs(gate, held, batch_size=7) == oracle.eval_pairs(expected, held, batch_size=7)


@pytest.mark.parametrize("per_mode", [1, 133, 300])
def test_joint_accuracy_equals_scoring_those_modes_alone(per_mode):
    # self and cross come first in an eval set, as in run_mirror_experiment;
    # scoring their rows as a set of their own ends in another chunk layout
    # (133 per mode: a 10-row last chunk there, 143 rows here)
    held = _pairs(np.random.default_rng(per_mode), per_mode)
    gate = train_pair_gate(_pairs(np.random.default_rng(7), 20, semiself=False),
                           seed=5, hidden=16, epochs=1)
    rows = slice(0, 2 * per_mode)
    base = PairSet(held.table, held.rows[rows], held.modes[rows])
    for batch_size in (256, 7):
        got = eval_pairs(gate, held, batch_size, joint=(MODE_SELF, MODE_CROSS))
        assert got["joint"] == eval_pairs(gate, base, batch_size)["overall"]
        assert {k: v for k, v in got.items() if k != "joint"} == eval_pairs(gate, held, batch_size)


def _relu_pairs(rng, n_per_mode, dim, dead):
    """Self and cross pairs of ReLU'd embeddings whose first `dead` features
    are 0 in every row; the ReLU keeps the -0.0 of a negative input, as the
    midlayer's does."""
    emb_a, emb_b = (relu(rng.normal(size=(30, dim)).astype(np.float32))[0] for _ in "ab")
    emb_a[:, :dead] = 0.0
    emb_b[:, :dead] = -0.0
    return build_pair_set(pair_table(emb_a, emb_b), np.arange(30),
                          _counts(n_per_mode, semiself=False), rng)


@pytest.mark.parametrize("batch_size", [64, 63])
def test_pair_gate_matches_the_adding_backward(monkeypatch, batch_size):
    # dead features and dead hidden units make rows of zeros in the weight
    # gradients, where a GEMM may write -0.0 and `grad +=` made +0.0
    # (OpenBLAS's sgemm writes +0.0 there; test_nncore_ops steps a written
    # -0.0). The oracle also scores the boundary in 512-pair chunks. 289
    # pairs per mode leave a short last chunk at either chunk size.
    train = _relu_pairs(np.random.default_rng(3), 289, 40, dead=10)
    kwargs = dict(seed=5, hidden=16, epochs=2, batch_size=batch_size)
    gate = train_pair_gate(train, **kwargs)
    monkeypatch.setattr(oracle, "MlpBinary", oracle_backward.AddingMlp)
    expected = oracle.train_pair_gate(train, **kwargs)
    assert type(expected) is oracle_backward.AddingMlp
    assert gate.params.checksum() == expected.params.checksum()


@pytest.mark.parametrize("per_mode", [32, 289])
@pytest.mark.parametrize("batch_size", [1, 63, 64])
def test_boundary_chunks_never_hold_one_pair(monkeypatch, per_mode, batch_size):
    # A balanced pair count is even and the boundary chunk is rounded up to
    # an even size, so the last chunk is never a lone pair, whose 1-row GEMM
    # would run through GEMV and round differently (64 pairs in chunks of 63
    # would leave one).
    sizes = []
    forward = MlpBinary.forward

    def spy(gate, x, train=False, rng=None):
        if not train:
            sizes.append(x.shape[0])
        return forward(gate, x, train, rng)

    monkeypatch.setattr(MlpBinary, "forward", spy)
    pairs = _pairs(np.random.default_rng(per_mode), per_mode, semiself=False)
    train_pair_gate(pairs, seed=5, hidden=8, epochs=1, batch_size=batch_size)
    assert sum(sizes) == pairs.count
    assert min(sizes) >= 2 and max(sizes) <= batch_size + 1


@pytest.mark.parametrize("count", [578, 2000])
def test_boundary_logits_do_not_depend_on_the_chunk(count):
    # stock width: 6272 floats per embedding, the stock 256 hidden units
    rng = np.random.default_rng(count)
    table = relu(rng.normal(size=(2 * 50, 6272)).astype(np.float32))[0]
    pairs = build_pair_set(table, np.arange(50), _counts(count // 2, semiself=False), rng)
    gate = MlpBinary(GateConfig(2 * 6272, 256, dropout=0.0), np.random.default_rng(1))

    def logits(chunk):
        return np.concatenate([
            gate.forward(pairs.features(slice(start, start + chunk)))[1]
            for start in range(0, pairs.count, chunk)
        ])

    assert logits(64).tobytes() == logits(512).tobytes()


# -------------------------------------------------------------------- heap


def test_keep_heap_does_nothing_off_glibc(monkeypatch):
    def no_libc(*args, **kwargs):
        raise AssertionError("the C library was opened off glibc")

    monkeypatch.setattr(heap.platform, "libc_ver", lambda *args, **kwargs: ("", ""))
    monkeypatch.setattr(heap.ctypes, "CDLL", no_libc)
    assert heap.keep_heap() is False


_WARM_STEPS = """
import json, resource
import numpy as np
from sabotagebench.heap import keep_heap
from sabotagebench.models import ModelConfig, SimpleCNN
from sabotagebench.training import RunReport, UnitWeights, fit

assert keep_heap()
rng = np.random.default_rng(0)
model = SimpleCNN(ModelConfig(), rng)
x = rng.random((64, 1, 28, 28)).astype(np.float32)
labels = rng.integers(0, 10, size=64)


class CountFaults(UnitWeights):
    # one mark per batch, between its forward and its backward
    def __init__(self):
        super().__init__()
        self.marks = []

    def __call__(self, epoch, logits, mid):
        self.marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return super().__call__(epoch, logits, mid)


policy = CountFaults()
fit(model, RunReport("warm", 0), 1, lambda epoch: ((x, labels, None) for _ in range(7)),
    policy, 0.01)
faults = np.diff(policy.marks).tolist()  # a step's backward, then the next forward
print(json.dumps(faults[3:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are glibc-only")
def test_warm_train_steps_fault_no_pages_in():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_WARM_STEPS)],
        env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    faults = json.loads(done.stdout.splitlines()[-1])
    assert all(f < 100 for f in faults), faults
