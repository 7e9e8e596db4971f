"""CNN backbone, rejection head, and the binary gate MLP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_ops
from oracle_training import _train_step
from oracle_trunk import ReluThenPoolCNN
from sabotagebench import models
from sabotagebench.errors import NumericsError, ValidationError
from sabotagebench.models import (
    GateConfig,
    MlpBinary,
    ModelConfig,
    SimpleCNN,
    extract_embeddings,
    make_irm_model,
)
from sabotagebench.nncore import fan_in_uniform
from sabotagebench.nncore.gradcheck import grad_check
from sabotagebench.nncore.ops import weighted_softmax_ce, weighted_softmax_ce_backward
from sabotagebench.training import _fit_step

from conftest import nchw, nhwc

TINY = dict(conv1_channels=2, conv2_channels=3, fc_hidden=8, image_size=8)


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return SimpleCNN(cfg, np.random.default_rng(seed)), cfg


class TestModelConfig:
    def test_feature_dim(self):
        cfg = ModelConfig()
        assert cfg.pooled_size == 14
        assert cfg.feature_dim == 32 * 14 * 14

    def test_rejects_kernel_padding_mismatch(self):
        with pytest.raises(ValidationError, match="kernel_size"):
            ModelConfig(kernel_size=5, padding=1)

    def test_rejects_odd_image(self):
        with pytest.raises(ValidationError, match="even"):
            ModelConfig(image_size=27)


class TestSimpleCNN:
    def test_forward_shapes(self, rng):
        model, cfg = tiny_model()
        x = rng.random((5, 1, 8, 8)).astype(np.float32)
        logits, mid, _ = model.forward(x)
        assert logits.shape == (5, 10)
        assert mid.shape == (5, cfg.conv2_channels, 4, 4)

    def test_custom_output_count(self, rng):
        cfg = ModelConfig(**TINY)
        model = SimpleCNN(cfg, np.random.default_rng(0), n_outputs=3)
        logits, _, _ = model.forward(rng.random((2, 1, 8, 8)).astype(np.float32))
        assert logits.shape == (2, 3)

    def test_irm_model_adds_rejection_output(self, rng):
        model = make_irm_model(ModelConfig(**TINY), np.random.default_rng(0))
        logits, _, _ = model.forward(rng.random((2, 1, 8, 8)).astype(np.float32))
        assert logits.shape == (2, 11)

    def test_deterministic_init_per_seed(self):
        a, _ = tiny_model(seed=3)
        b, _ = tiny_model(seed=3)
        c, _ = tiny_model(seed=4)
        assert a.params.checksum() == b.params.checksum()
        assert a.params.checksum() != c.params.checksum()

    def test_init_keeps_the_retired_bypass_draws(self):
        # a 1x1 conv2 bypass once drew its weight and bias between conv2's
        # and fc1's; the head must still get the values it drew after them
        cfg = ModelConfig()
        model = SimpleCNN(cfg, np.random.default_rng(0))
        assert not [name for name, _ in model.params.items() if name.startswith("bypass_")]
        c1, c2, feat, hidden = cfg.conv1_channels, cfg.conv2_channels, cfg.feature_dim, cfg.fc_hidden
        rng = np.random.default_rng(0)
        draws = [
            fan_in_uniform(rng, shape, fan)
            for shape, fan in [
                ((c1, 1, 3, 3), 9), ((c1,), 9),
                ((c2, c1, 3, 3), c1 * 9), ((c2,), c1 * 9),
                ((c2, c1, 1, 1), c1), ((c2,), c1),
                ((feat, hidden), feat), ((hidden,), feat),
                ((hidden, 10), hidden), ((10,), hidden),
            ]
        ]
        assert model.params["fc1_w"].value.tobytes() == draws[6].tobytes()
        assert model.params["fc2_w"].value.tobytes() == draws[8].tobytes()

    def test_gradients_match_finite_differences(self, rng):
        model, _ = tiny_model()
        for _, param in model.params.items():
            param.value = param.value.astype(np.float64)
            param.grad = np.zeros_like(param.value)
        x = rng.random((3, 1, 8, 8))
        labels = np.array([0, 4, 9])
        weights = np.ones(3)

        def loss_fn(backward: bool) -> float:
            logits, _, cache = model.forward(x)
            loss, probs = weighted_softmax_ce(logits, labels, weights)
            if backward:
                model.backward(
                    weighted_softmax_ce_backward(probs, labels, weights), cache
                )
            return loss

        assert grad_check(loss_fn, model.params) < 1e-4


class TestEngineMatchesOracle:
    """One training step with the engine's conv/pool ops and one with the
    pre-rewrite oracle ops must leave bit-identical parameters. The oracle
    ops are NCHW; they are wrapped with transposes at the call boundary to
    take and return the engine's channels-last arrays."""

    @staticmethod
    def _stepped_checksum(images, labels):
        model = SimpleCNN(ModelConfig(), np.random.default_rng(11))
        weights = np.ones(images.shape[0])
        _train_step(model, images, labels, weights, lr=0.1)
        return model.params.checksum()

    def test_train_step_checksum(self, rng, monkeypatch):
        images = rng.random((24, 1, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, size=24)
        engine = self._stepped_checksum(images, labels)
        for name, op in _channels_last_oracle().items():
            monkeypatch.setattr(models, name, op)
        assert self._stepped_checksum(images, labels) == engine


def _channels_last_oracle():
    """The NCHW oracle ops behind the engine's channels-last call convention."""

    def conv2d(x, w, b, padding=0):
        y, cache = oracle_ops.conv2d(nchw(x), w, b, padding)
        return nhwc(y), cache

    def conv2d_backward(dy, cache, input_grad=True):
        # the oracle always computes dx; models skips conv1's, which it discards
        dx, dw, db = oracle_ops.conv2d_backward(nchw(dy), cache)
        return nhwc(dx), dw, db

    def maxpool2x2(x):
        y, idx = oracle_ops.maxpool2x2(nchw(x))
        return nhwc(y), nhwc(idx)

    def maxpool2x2_backward(dy, idx):
        return nhwc(oracle_ops.maxpool2x2_backward(nchw(dy), nchw(idx)))

    return {
        "conv2d": conv2d,
        "conv2d_backward": conv2d_backward,
        "maxpool2x2": maxpool2x2,
        "maxpool2x2_backward": maxpool2x2_backward,
    }


def _stock_batch(seed, n):
    """n synthetic-looking stock-size images, about a third of them inverted."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1, 28, 28)).astype(np.float32)
    inverted = rng.random(n) < 0.3
    x[inverted] = 1.0 - x[inverted]
    return x, rng.integers(0, 10, size=n)


class TestTrunkRowIndependence:
    """The conv trunk computes each image on its own: the midlayer rows of a
    batch hold the same bytes as a forward of just those rows."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 64),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_midlayer_rows_match_forward_of_rows(self, n, data, seed):
        model = SimpleCNN(ModelConfig(), np.random.default_rng(seed % 7))
        x, _ = _stock_batch(seed, n)
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows = np.array(keep, dtype=bool)
        rows[data.draw(st.integers(0, n - 1))] = True
        _, mid, _ = model.forward(x)
        _, mid_rows, _ = model.forward(x[rows])
        assert mid[rows].tobytes() == mid_rows.tobytes()


def _shifted_pair(seed, shift):
    """The engine's stock model and the ReLU-then-pool oracle with the same
    parameters, both conv biases lowered by `shift` so that many 2x2 windows
    of conv2's output hold no positive value."""
    pair = []
    for cls in (SimpleCNN, ReluThenPoolCNN):
        model = cls(ModelConfig(), np.random.default_rng(seed))
        for name in ("conv1_b", "conv2_b"):
            model.params[name].value -= np.float32(shift)
        pair.append(model)
    return pair


def _glyph_batch(seed, n):
    """n stock-size images with blank regions, so conv outputs tie exactly."""
    x, labels = _stock_batch(seed, n)
    x[np.random.default_rng(seed + 1).random(x.shape) < 0.6] = 0.0
    return x, labels


class TestPoolBeforeReluMatchesOracle:
    """Pooling conv2's output before its ReLU gives the bytes of ReLU then
    pool: equal logits and midlayers, and equal parameters after a plain
    step and after a step through a narrowed cache."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 64),
        shift=st.floats(0.0, 0.2),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_and_steps(self, n, shift, data, seed):
        x, labels = _glyph_batch(seed, n)
        weights = np.ones(n)
        engine, oracle = _shifted_pair(seed % 7, shift)
        for step in ("plain", "narrowed"):
            logits, mid, cache = engine.forward(x)
            o_logits, o_mid, o_cache = oracle.forward(x)
            assert mid.tobytes() == o_mid.tobytes()
            assert logits.tobytes() == o_logits.tobytes()
            rows = np.ones(n, dtype=bool)
            if step == "narrowed":
                rows = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
                rows[data.draw(st.integers(0, n - 1))] = True
                logits = engine.narrow(cache, mid, rows)
                o_logits = oracle.narrow(o_cache, o_mid, rows)
                assert logits.tobytes() == o_logits.tobytes()
            _fit_step(engine, logits, cache, labels[rows], weights[rows], lr=0.1)
            _fit_step(oracle, o_logits, o_cache, labels[rows], weights[rows], lr=0.1)
            assert engine.params.checksum() == oracle.params.checksum()

    def test_shifted_biases_move_pool_indices(self):
        # the case the equality rests on: windows with no positive value,
        # where the two orders pick different indices
        x, _ = _glyph_batch(3, 16)
        engine, oracle = _shifted_pair(3, 0.15)
        _, mid, cache = engine.forward(x)
        _, _, o_cache = oracle.forward(x)
        moved = cache["pool_idx"] != o_cache["pool_idx"]
        assert moved.mean() > 0.05
        assert (mid == 0).mean() > 0.2


class TestNarrowedCache:
    """A scoring forward's cache cut down to some rows trains exactly like a
    fresh forward of those rows."""

    # the trailing 0.0 of each id is the sabotage fraction these cases ran
    # at before the conv2 bypass was deleted; kept so the names stay stable
    @pytest.mark.parametrize(
        "rows",
        [[5], [0, 3, 17, 40, 63], list(range(64))],
        ids=["rows0-0.0", "rows1-0.0", "rows2-0.0"],
    )
    def test_step_matches_train_step_on_rows(self, rows):
        x, labels = _stock_batch(12, 64)
        weights = np.ones(len(rows))
        fresh = SimpleCNN(ModelConfig(), np.random.default_rng(11))
        _train_step(fresh, x[rows], labels[rows], weights, lr=0.1)

        model = SimpleCNN(ModelConfig(), np.random.default_rng(11))
        _, mid, cache = model.forward(x)
        mask = np.zeros(64, dtype=bool)
        mask[rows] = True
        logits = model.narrow(cache, mid, mask)
        expected, _, _ = SimpleCNN(ModelConfig(), np.random.default_rng(11)).forward(x[rows])
        assert logits.tobytes() == expected.tobytes()
        _fit_step(model, logits, cache, labels[rows], weights, lr=0.1)
        assert model.params.checksum() == fresh.params.checksum()

    def test_narrow_keeps_the_cache_object(self, rng):
        model, _ = tiny_model()
        x = rng.random((4, 1, 8, 8)).astype(np.float32)
        _, mid, cache = model.forward(x)
        keys = set(cache)
        before = id(cache)
        logits = model.narrow(cache, mid, np.array([False, True, False, True]))
        assert id(cache) == before and set(cache) == keys
        assert logits.shape == (2, 10)
        assert cache["mid_shape"] == (2,) + mid.shape[1:]


class TestNonFiniteNaming:
    """A non-finite weight must raise a NumericsError naming its layer."""

    # the 0.0 in each id is the sabotage fraction these cases ran at before
    # the conv2 bypass was deleted; kept so the case names stay stable
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "param, layer",
        [
            pytest.param("conv1_w", "conv1", id="conv1_w-conv1-0.0"),
            pytest.param("conv2_w", "conv2", id="conv2_w-conv2-0.0"),
            pytest.param("fc1_w", "fc1", id="fc1_w-fc1-0.0"),
            pytest.param("fc2_w", "fc2", id="fc2_w-fc2-0.0"),
        ],
    )
    def test_planted_value_names_its_layer(self, rng, param, layer, bad):
        model, _ = tiny_model()
        value = model.params[param].value
        value[(0,) * value.ndim] = bad
        x = rng.random((3, 1, 8, 8)).astype(np.float32)
        with pytest.raises(NumericsError, match=f"'{layer}'"):
            model.forward(x)


class TestEmbeddings:
    def test_matches_forward_midlayer(self, rng):
        model, cfg = tiny_model()
        x = rng.random((7, 1, 8, 8)).astype(np.float32)
        emb = extract_embeddings(model, x, batch_size=3)
        _, mid, _ = model.forward(x)
        assert emb.shape == (7, cfg.feature_dim)
        np.testing.assert_allclose(emb, mid.reshape(7, -1), atol=1e-6)

    def test_chunked_forward_equals_full_batch_bytes(self, rng):
        model = SimpleCNN(ModelConfig(), np.random.default_rng(5))
        x = rng.random((300, 1, 28, 28)).astype(np.float32)
        _, mid, _ = model.forward(x)
        emb = extract_embeddings(model, x, batch_size=128)
        assert emb.dtype == mid.dtype
        assert emb.tobytes() == mid.reshape(300, -1).tobytes()

    def test_does_not_mutate_params(self, rng):
        model, _ = tiny_model()
        before = model.params.checksum()
        extract_embeddings(model, rng.random((4, 1, 8, 8)).astype(np.float32))
        assert model.params.checksum() == before


class TestGateMlp:
    def test_config_validation(self):
        with pytest.raises(ValidationError, match="input_dim"):
            GateConfig(input_dim=0)
        with pytest.raises(ValidationError, match="dropout"):
            GateConfig(input_dim=4, dropout=1.0)

    def test_scores_in_unit_interval(self, rng):
        gate = MlpBinary(GateConfig(input_dim=6, hidden=5), np.random.default_rng(0))
        scores, logits, _ = gate.forward(rng.normal(size=(10, 6)))
        assert scores.shape == (10,) and logits.shape == (10,)
        assert scores.min() > 0 and scores.max() < 1

    def test_input_shape_validation(self, rng):
        gate = MlpBinary(GateConfig(input_dim=6, hidden=5), np.random.default_rng(0))
        with pytest.raises(ValidationError, match=r"\[N,6\]"):
            gate.forward(rng.normal(size=(10, 7)))

    def test_train_mode_needs_rng_when_dropping(self, rng):
        gate = MlpBinary(
            GateConfig(input_dim=6, hidden=5, dropout=0.5), np.random.default_rng(0)
        )
        with pytest.raises(ValidationError, match="rng"):
            gate.forward(rng.normal(size=(2, 6)), train=True)

    def test_eval_mode_is_deterministic_despite_dropout(self, rng):
        gate = MlpBinary(
            GateConfig(input_dim=6, hidden=5, dropout=0.5), np.random.default_rng(0)
        )
        x = rng.normal(size=(4, 6))
        a, _, _ = gate.forward(x)
        b, _, _ = gate.forward(x)
        np.testing.assert_array_equal(a, b)
