"""Forward oracles and finite-difference gradient checks for the NN ops.

conv2d and maxpool2x2 take channels-last ([N,H,W,C]) activations; the
tests draw NCHW data and transpose only at the call boundary.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sabotagebench.errors import NumericsError, ShapeError, ValidationError
from sabotagebench.nncore.gradcheck import grad_check
from sabotagebench.nncore.ops import (
    bce_with_logits,
    bce_with_logits_backward,
    conv2d,
    conv2d_backward,
    dropout,
    linear,
    linear_backward,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
    sigmoid,
    softmax,
    weighted_softmax_ce,
    weighted_softmax_ce_backward,
)
from sabotagebench.nncore.optim import sgd_step
from sabotagebench.nncore.tensor import ParamSet, fan_in_uniform

from conftest import nchw, nhwc


def conv2d_oracle(x, w, b, padding):
    """Direct nested-loop convolution; the trusted reference."""
    n, c_in, h, width = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - k + 1
    ow = width + 2 * padding - k + 1
    out = np.zeros((n, c_out, oh, ow))
    for i in range(n):
        for o in range(c_out):
            for r in range(oh):
                for col in range(ow):
                    patch = xp[i, :, r : r + k, col : col + k]
                    out[i, o, r, col] = np.sum(patch * w[o]) + b[o]
    return out


class TestConv2d:
    def test_matches_nested_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        y, _ = conv2d(nhwc(x), w, b, padding=1)
        assert y.shape == (2, 6, 6, 4)
        np.testing.assert_allclose(nchw(y), conv2d_oracle(x, w, b, 1), rtol=1e-4, atol=1e-5)

    def test_no_padding_shrinks_output(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = np.zeros(3, dtype=np.float32)
        y, _ = conv2d(nhwc(x), w, b, padding=0)
        assert y.shape == (1, 3, 3, 3)
        np.testing.assert_allclose(nchw(y), conv2d_oracle(x, w, b, 0), rtol=1e-4, atol=1e-5)

    def test_1x1_kernel_is_channel_mixing(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        w = rng.normal(size=(5, 3, 1, 1)).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32)
        y, _ = conv2d(nhwc(x), w, b, padding=0)
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0]) + b[None, :, None, None]
        np.testing.assert_allclose(nchw(y), expected, rtol=1e-4, atol=1e-5)

    def test_channel_mismatch_rejected(self, rng):
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        w = rng.normal(size=(3, 5, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            conv2d(nhwc(x), w, np.zeros(3, dtype=np.float32), padding=1)

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        params = ParamSet()
        params.add("w", rng.normal(size=(3, 2, 3, 3)) * 0.5)
        params.add("b", rng.normal(size=3) * 0.5)
        target = rng.normal(size=(2, 3, 5, 5))

        def loss_fn(backward=False):
            y, cache = conv2d(nhwc(x), params["w"].value, params["b"].value, padding=1)
            loss = 0.5 * float(np.sum((nchw(y) - target) ** 2))
            if backward:
                _, dw, db = conv2d_backward(nhwc(nchw(y) - target), cache)
                params["w"].grad += dw
                params["b"].grad += db
            return loss

        assert grad_check(loss_fn, params) < 1e-4

    def test_input_gradient(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3)) * 0.5
        b = np.zeros(2)
        y, cache = conv2d(nhwc(x), w, b, padding=1)
        dy = rng.normal(size=nchw(y).shape)
        dx, _, _ = conv2d_backward(nhwc(dy), cache)
        eps = 1e-5
        idx = (0, 1, 2, 3)
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        numeric = (
            np.sum(nchw(conv2d(nhwc(xp), w, b, 1)[0]) * dy)
            - np.sum(nchw(conv2d(nhwc(xm), w, b, 1)[0]) * dy)
        ) / (2 * eps)
        assert abs(nchw(dx)[idx] - numeric) / max(1.0, abs(numeric)) < 1e-4


class TestPoolAndRelu:
    def test_maxpool_picks_maxima(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y, _ = maxpool2x2(nhwc(x))
        np.testing.assert_array_equal(nchw(y)[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_odd_size_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2x2(nhwc(np.zeros((1, 1, 5, 5), dtype=np.float32)))

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        y, idx = maxpool2x2(nhwc(x))
        dx = maxpool2x2_backward(np.ones_like(y), idx)
        np.testing.assert_array_equal(nchw(dx)[0, 0], [[0, 0], [0, 1]])

    def test_relu_and_backward(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        y, mask = relu(x.copy())
        np.testing.assert_array_equal(y, np.maximum(x, 0))
        assert y.tobytes() == (x * (x > 0)).tobytes()
        dy = rng.normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_array_equal(relu_backward(dy, mask), dy * (x > 0))
        z = x.copy()
        assert relu(z)[0] is z


class TestLinear:
    def test_forward_oracle(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        y, _ = linear(x, w, b)
        np.testing.assert_allclose(y, x @ w + b, rtol=1e-6)

    def test_gradients(self, rng):
        x = rng.normal(size=(3, 4))
        params = ParamSet()
        params.add("w", rng.normal(size=(4, 2)))
        params.add("b", rng.normal(size=2))
        target = rng.normal(size=(3, 2))

        def loss_fn(backward=False):
            y, cache = linear(x, params["w"].value, params["b"].value)
            loss = 0.5 * float(np.sum((y - target) ** 2))
            if backward:
                _, dw, db = linear_backward(y - target, cache)
                params["w"].grad += dw
                params["b"].grad += db
            return loss

        assert grad_check(loss_fn, params) < 1e-4


class TestWithoutInputGrad:
    """input_grad=False returns no dx and the same dw, db bytes."""

    @pytest.mark.parametrize(
        "n, c, k, size, padding", [(1, 1, 1, 3, 1), (5, 3, 4, 6, 0), (64, 1, 16, 28, 1)]
    )
    def test_conv2d(self, rng, n, c, k, size, padding):
        x = rng.normal(size=(n, c, size, size)).astype(np.float32)
        w = rng.normal(size=(k, c, 3, 3)).astype(np.float32)
        y, cache = conv2d(nhwc(x), w, np.zeros(k, dtype=np.float32), padding)
        dy = rng.normal(size=y.shape).astype(np.float32)
        _, dw, db = conv2d_backward(dy, cache)
        dx, dw_only, db_only = conv2d_backward(dy, cache, input_grad=False)
        assert dx is None
        assert dw_only.tobytes() == dw.tobytes() and db_only.tobytes() == db.tobytes()

    @pytest.mark.parametrize("n", [1, 64])
    def test_linear(self, rng, n):
        x = rng.normal(size=(n, 300)).astype(np.float32)
        w = rng.normal(size=(300, 16)).astype(np.float32)
        y, cache = linear(x, w, np.zeros(16, dtype=np.float32))
        dy = rng.normal(size=y.shape).astype(np.float32)
        _, dw, db = linear_backward(dy, cache)
        dx, dw_only, db_only = linear_backward(dy, cache, input_grad=False)
        assert dx is None
        assert dw_only.tobytes() == dw.tobytes() and db_only.tobytes() == db.tobytes()


    @pytest.mark.parametrize("n", [1, 64])
    def test_linear_weight_gradient_written_into_a_buffer(self, rng, n):
        x = rng.normal(size=(n, 300)).astype(np.float32)
        w = rng.normal(size=(300, 16)).astype(np.float32)
        _, cache = linear(x, w, np.zeros(16, dtype=np.float32))
        dy = rng.normal(size=(n, 16)).astype(np.float32)
        dx, dw, db = linear_backward(dy, cache)
        buffer = np.full_like(w, np.nan)
        dx_out, dw_out, db_out = linear_backward(dy, cache, dw_out=buffer)
        assert dw_out is buffer
        for got, expected in ((dx_out, dx), (dw_out, dw), (db_out, db)):
            assert got.tobytes() == expected.tobytes()


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(6, 10)).astype(np.float32))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert (p > 0).all()

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 5))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-6)

    def test_softmax_survives_large_logits(self):
        p = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-9

    def test_ce_matches_manual_formula(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        weights = np.array([1.0, 0.5, 0.0, 0.25])
        loss, probs = weighted_softmax_ce(logits, labels, weights)
        p = softmax(logits)
        expected = -(weights * np.log(p[np.arange(4), labels])).sum() / 4
        assert abs(loss - expected) < 1e-8
        np.testing.assert_allclose(probs, p, atol=1e-9)

    def test_zero_weight_sample_contributes_nothing(self, rng):
        logits = rng.normal(size=(2, 4))
        labels = np.array([1, 3])
        loss_both, probs = weighted_softmax_ce(logits, labels, np.array([1.0, 0.0]))
        loss_one, _ = weighted_softmax_ce(logits[:1], labels[:1], np.array([1.0]))
        assert abs(2 * loss_both - loss_one) < 1e-9
        dlogits = weighted_softmax_ce_backward(probs, labels, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(dlogits[1], 0.0)

    def test_bad_label_rejected(self):
        with pytest.raises(ValidationError):
            weighted_softmax_ce(np.zeros((1, 3)), np.array([3]), np.ones(1))

    def test_gradients(self, rng):
        x = rng.normal(size=(5, 4))
        labels = np.array([0, 1, 2, 3, 1])
        weights = np.array([1.0, 0.3, 0.0, 0.7, 1.0])
        params = ParamSet()
        params.add("w", rng.normal(size=(4, 4)))
        params.add("b", rng.normal(size=4))

        def loss_fn(backward=False):
            logits, cache = linear(x, params["w"].value, params["b"].value)
            loss, probs = weighted_softmax_ce(logits, labels, weights)
            if backward:
                dlogits = weighted_softmax_ce_backward(probs, labels, weights)
                _, dw, db = linear_backward(dlogits, cache)
                params["w"].grad += dw
                params["b"].grad += db
            return float(loss)

        assert grad_check(loss_fn, params) < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-20, max_value=20), min_size=2, max_size=8
        )
    )
    def test_softmax_argmax_matches_logit_argmax(self, row):
        logits = np.array([row])
        ordered = np.sort(row)
        assume(float(ordered[-1] - ordered[-2]) > 1e-6)
        assert int(np.argmax(softmax(logits))) == int(np.argmax(logits))


class TestBinaryCrossEntropy:
    def test_matches_manual_formula(self, rng):
        logits = rng.normal(size=6)
        targets = (rng.random(6) > 0.5).astype(np.float64)
        loss, probs = bce_with_logits(logits, targets)
        p = sigmoid(logits)
        expected = -np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p))
        assert abs(loss - expected) < 1e-8

    def test_extreme_logits_stay_finite(self):
        loss, probs = bce_with_logits(np.array([500.0, -500.0]), np.array([0.0, 1.0]))
        assert np.isfinite(loss)
        assert np.isfinite(probs).all()

    def test_gradients(self, rng):
        x = rng.normal(size=(4, 3))
        targets = np.array([1.0, 0.0, 1.0, 1.0])
        params = ParamSet()
        params.add("w", rng.normal(size=(3, 1)))
        params.add("b", rng.normal(size=1))

        def loss_fn(backward=False):
            z, cache = linear(x, params["w"].value, params["b"].value)
            loss, probs = bce_with_logits(z[:, 0], targets)
            if backward:
                dlogits = bce_with_logits_backward(probs, targets)
                _, dw, db = linear_backward(dlogits[:, None], cache)
                params["w"].grad += dw
                params["b"].grad += db
            return float(loss)

        assert grad_check(loss_fn, params) < 1e-4


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        y, mask = dropout(x, 0.5, rng, train=False)
        np.testing.assert_array_equal(y, x)
        assert mask is None

    def test_zero_rate_is_identity_even_in_train(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        y, mask = dropout(x, 0.0, rng, train=True)
        np.testing.assert_array_equal(y, x)
        assert mask is None

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = np.ones((200, 50), dtype=np.float32)
        y, mask = dropout(x, 0.3, rng, train=True)
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-6)
        assert abs((y == 0).mean() - 0.3) < 0.02

    def test_bad_rate_rejected(self, rng):
        with pytest.raises(ValidationError):
            dropout(np.ones((2, 2)), 1.0, rng, train=True)


class TestOptimizer:
    def test_sgd_step_applies_and_clears(self, rng):
        params = ParamSet()
        params.add("w", np.ones((2, 2), dtype=np.float32))
        params["w"].grad += 2.0
        sgd_step(params, 0.1)
        np.testing.assert_allclose(params["w"].value, 0.8)
        np.testing.assert_array_equal(params["w"].grad, 0.0)

    def test_written_gradient_steps_like_an_added_one(self, rng):
        # a written gradient keeps a -0.0 that `grad +=` into the zeroed
        # buffer turned into +0.0; the step leaves every parameter the same
        value = fan_in_uniform(rng, (60,), 60)
        value[:6] = 0.0
        dw = rng.normal(size=60).astype(np.float32)
        dw[::3] = -0.0
        dw[1::4] = 0.0
        written, added = ParamSet(), ParamSet()
        for params in (written, added):
            params.add("w", value.copy())
        written["w"].grad[...] = dw
        added["w"].grad += dw
        assert np.signbit(written["w"].grad).sum() > np.signbit(added["w"].grad).sum()
        sgd_step(written, 0.1)
        sgd_step(added, 0.1)
        assert written.checksum() == added.checksum()
        unmoved = (value == 0) & (dw == 0)
        assert unmoved.sum() >= 2 and not np.signbit(written["w"].value[unmoved]).any()

    def test_nonfinite_gradient_rejected(self):
        params = ParamSet()
        params.add("w", np.ones(2, dtype=np.float32))
        params["w"].grad += np.array([np.inf, 0.0], dtype=np.float32)
        with pytest.raises(NumericsError):
            sgd_step(params, 0.1)


class TestInit:
    def test_fan_in_uniform_bounds_and_determinism(self):
        bound = 1.0 / np.sqrt(50)
        a = fan_in_uniform(np.random.default_rng(5), (20, 50), 50)
        b = fan_in_uniform(np.random.default_rng(5), (20, 50), 50)
        assert a.dtype == np.float32
        assert float(np.abs(a).max()) <= bound
        np.testing.assert_array_equal(a, b)
