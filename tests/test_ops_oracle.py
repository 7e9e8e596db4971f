"""The engine's conv and pool ops against the pre-rewrite oracle, byte for byte.

Bytes, not values: relu is `x * mask`, so pool inputs hold -0.0, and
`array_equal` would count -0.0 and 0.0 as equal.

The engine's ops are channels-last ([N,H,W,C]) and the oracle's NCHW; every
test draws NCHW data and transposes only at the engine's call boundary.
"""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_ops as oracle
from sabotagebench.nncore.ops import conv2d, conv2d_backward, maxpool2x2, maxpool2x2_backward

from conftest import nchw, nhwc

DTYPES = (np.float32, np.float64)
QUARTERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def assert_same_bytes(new, old):
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def relu(x):
    return x * (x > 0)


def check_pool(x, dy):
    y, idx = maxpool2x2(nhwc(x))
    y_old, idx_old = oracle.maxpool2x2(x)
    assert_same_bytes(nchw(y), y_old)
    assert_same_bytes(nchw(idx), idx_old)
    assert_same_bytes(
        nchw(maxpool2x2_backward(nhwc(dy), idx)), oracle.maxpool2x2_backward(dy, idx_old)
    )


def check_conv(x, kernel, bias, padding, dy_rng):
    y, cache = conv2d(nhwc(x), kernel, bias, padding)
    y_old, cache_old = oracle.conv2d(x, kernel, bias, padding)
    assert_same_bytes(nchw(y), y_old)
    dy = dy_rng.normal(size=y_old.shape).astype(x.dtype)
    dx, dw, db = conv2d_backward(nhwc(dy), cache)
    dx_old, dw_old, db_old = oracle.conv2d_backward(dy, cache_old)
    assert_same_bytes(nchw(dx), dx_old)
    assert_same_bytes(dw, dw_old)
    assert_same_bytes(db, db_old)


class TestConvAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        ksize=st.sampled_from([1, 3, 5]),
        padding=st.integers(0, 2),
        n=st.integers(1, 9),
        c=st.integers(1, 6),
        k=st.integers(1, 6),
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        relu_input=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_and_gradients(self, dtype, ksize, padding, n, c, k, h, w, relu_input, seed):
        assume(h + 2 * padding >= ksize and w + 2 * padding >= ksize)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        if relu_input:
            x = relu(x)
        kernel = rng.normal(size=(k, c, ksize, ksize)).astype(dtype)
        bias = rng.normal(size=k).astype(dtype)
        check_conv(x, kernel, bias, padding, rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, 64])
    def test_default_model_shapes(self, rng, dtype, n):
        # conv1 and conv2 of the stock SimpleCNN, and a 1x1 conv (kernel_size=1,
        # padding=0) at conv2's widths
        for c, k, ksize, padding in [(1, 16, 3, 1), (16, 32, 3, 1), (16, 32, 1, 0)]:
            x = relu(rng.normal(size=(n, c, 28, 28))).astype(dtype)
            kernel = rng.normal(size=(k, c, ksize, ksize)).astype(dtype)
            bias = rng.normal(size=k).astype(dtype)
            check_conv(x, kernel, bias, padding, rng)


class TestPoolAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        n=st.integers(1, 9),
        c=st.integers(1, 6),
        ho=st.integers(1, 7),
        wo=st.integers(1, 7),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relu_inputs_with_ties(self, dtype, n, c, ho, wo, levels, seed):
        # few distinct levels force ties; relu turns the negatives into -0.0
        rng = np.random.default_rng(seed)
        raw = rng.integers(-levels, levels + 1, size=(n, c, 2 * ho, 2 * wo))
        x = relu(raw.astype(dtype) / levels)
        dy = rng.normal(size=(n, c, ho, wo)).astype(dtype)
        dy[rng.random(dy.shape) < 0.25] = -0.0
        check_pool(x, dy)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("value", [-0.0, 0.0, 0.5])
    def test_all_equal_windows(self, dtype, value):
        x = np.full((2, 3, 4, 6), value, dtype=dtype)
        check_pool(x, np.arange(2 * 3 * 2 * 3, dtype=dtype).reshape(2, 3, 2, 3) - 5)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_signed_zero_pattern(self, dtype):
        # all 16 windows of -0.0/+0.0, one window each
        patterns = list(itertools.product([-0.0, 0.0], repeat=4))
        x = np.zeros((1, len(patterns), 2, 2), dtype=dtype)
        for ch, pattern in enumerate(patterns):
            for value, (di, dj) in zip(pattern, QUARTERS):
                x[0, ch, di, dj] = value
        check_pool(x, np.linspace(-1, 1, len(patterns), dtype=dtype).reshape(1, -1, 1, 1))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pair", list(itertools.combinations(range(4), 2)))
    @pytest.mark.parametrize("low", [-0.0, 0.0, 0.25])
    def test_tie_at_every_pair_of_positions(self, dtype, pair, low):
        x = np.full((1, 1, 2, 2), low, dtype=dtype)
        for q in pair:
            x[(0, 0) + QUARTERS[q]] = 1.0
        y, idx = maxpool2x2(nhwc(x))
        assert idx[0, 0, 0, 0] == pair[0]
        check_pool(x, np.full((1, 1, 1, 1), 3.0, dtype=dtype))

    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        n=st.integers(1, 9),
        c=st.integers(1, 6),
        ho=st.integers(1, 7),
        wo=st.integers(1, 7),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_tie_pairs_and_signed_gradients(self, dtype, n, c, ho, wo, levels, seed):
        # every window ties its maximum at one of the six pairs of positions,
        # drawn per window, and holds lower values at the other two; a zero
        # maximum is -0.0 or 0.0 per position. dy mixes negatives, -0.0 and 0.0.
        rng = np.random.default_rng(seed)
        pairs = np.array(list(itertools.combinations(range(4), 2)))
        tied = pairs[rng.integers(0, len(pairs), size=(n, c, ho, wo))]
        top = rng.integers(-levels, levels + 1, size=(n, c, ho, wo)) / levels
        x = np.empty((n, c, 2 * ho, 2 * wo), dtype=dtype)
        for q, (di, dj) in enumerate(QUARTERS):
            sign = np.copysign(1.0, rng.random(top.shape) - 0.5)
            value = np.where(top == 0, 0.0 * sign, top)
            lower = top - 1 - rng.random(top.shape)
            x[:, :, di::2, dj::2] = np.where((tied == q).any(axis=-1), value, lower)
        dy = rng.normal(size=(n, c, ho, wo)).astype(dtype)
        dy[rng.random(dy.shape) < 0.25] = -0.0
        dy[rng.random(dy.shape) < 0.1] = 0.0
        check_pool(x, dy)
        _, idx = maxpool2x2(nhwc(x))
        assert (nchw(idx) == tied[..., 0]).all()
