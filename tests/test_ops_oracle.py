"""The engine's conv and pool ops against the NCHW oracles, byte for byte,
and the conv within a stated rounding bound of the (c, kh, kw) im2col it
replaced and of a float64 direct sum.

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
from sabotagebench.nncore.ops import (
    _BLOCK_BYTES,
    _image_blocks,
    conv2d,
    conv2d_backward,
    maxpool2x2,
    maxpool2x2_backward,
)

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


# a random conv: dtype, kernel size, padding and NCHW shape
CONV_CASES = given(
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


def random_conv(dtype, ksize, padding, n, c, k, h, w, relu_input, seed):
    """(x, kernel, bias, padding, rng) of one CONV_CASES draw; rng then
    draws dy."""
    assume(h + 2 * padding >= ksize and w + 2 * padding >= ksize)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    if relu_input:
        x = relu(x)
    kernel = rng.normal(size=(k, c, ksize, ksize)).astype(dtype)
    bias = rng.normal(size=k).astype(dtype)
    return x, kernel, bias, padding, rng


class TestConvAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @CONV_CASES
    def test_forward_and_gradients(self, dtype, ksize, padding, n, c, k, h, w, relu_input, seed):
        check_conv(*random_conv(dtype, ksize, padding, n, c, k, h, w, relu_input, seed))

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


# conv1 and conv2 of the stock SimpleCNN: (C, K); 3x3 kernels, padding 1
STOCK_CONVS = {"conv1": (1, 16), "conv2": (16, 32)}


class TestBlockedConv:
    """The GEMMs that run one block of images at a time (conv2d, with or
    without kept columns, and the input gradient of conv2d_backward) keep
    the bytes of the oracle's one GEMM over the batch, at the stock shapes
    and at batch sizes that leave a remainder to fold into the last block.
    Batches 1 and 64 are covered by
    TestConvAgainstOracle.test_default_model_shapes."""

    @pytest.mark.parametrize("n", [2, 3, 63, 65, 129])
    @pytest.mark.parametrize("layer", sorted(STOCK_CONVS))
    def test_forward_without_cols_keeps_the_bytes(self, rng, layer, n):
        c, k = STOCK_CONVS[layer]
        x = relu(rng.normal(size=(n, c, 28, 28))).astype(np.float32)
        kernel = rng.normal(size=(k, c, 3, 3)).astype(np.float32)
        bias = rng.normal(size=k).astype(np.float32)
        y, no_cache = conv2d(nhwc(x), kernel, bias, 1, keep_cols=False)
        assert no_cache is None
        assert_same_bytes(nchw(y), oracle.conv2d(x, kernel, bias, 1)[0])

    @pytest.mark.parametrize("n", [2, 3, 63, 65, 129])
    def test_backward_matches_oracle(self, rng, n):
        c, k = STOCK_CONVS["conv2"]
        x = relu(rng.normal(size=(n, c, 28, 28))).astype(np.float32)
        kernel = rng.normal(size=(k, c, 3, 3)).astype(np.float32)
        bias = rng.normal(size=k).astype(np.float32)
        check_conv(x, kernel, bias, 1, rng)

    # conv1 spans several blocks from 74 images on (37 images a step)
    @pytest.mark.parametrize("n", [2, 3, 63, 65, 129])
    def test_conv1_matches_oracle(self, rng, n):
        c, k = STOCK_CONVS["conv1"]
        x = rng.random((n, c, 28, 28)).astype(np.float32)
        kernel = rng.normal(size=(k, c, 3, 3)).astype(np.float32)
        bias = rng.normal(size=k).astype(np.float32)
        check_conv(x, kernel, bias, 1, rng)


def gamma(terms: int, dtype) -> float:
    """The classical bound on the relative error of a sum of `terms` rounded
    products, in any order: |computed - exact| <= gamma * sum |term|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1)."""
    nu = terms * np.finfo(dtype).eps / 2
    return nu / (1 - nu)


def direct_conv64(x, kernel, bias, padding, dy):
    """y, dx, dw and db of a stride-1 conv as float64 sums over the kernel
    taps, with no im2col; all NCHW."""
    x, kernel, bias, dy = (np.asarray(a, dtype=np.float64) for a in (x, kernel, bias, dy))
    ho, wo = dy.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    y = np.zeros(dy.shape) + bias[:, None, None]
    dxp = np.zeros(xp.shape)
    dw = np.empty(kernel.shape)
    for i in range(kernel.shape[2]):
        for j in range(kernel.shape[3]):
            window = xp[:, :, i : i + ho, j : j + wo]
            y += np.einsum("nchw,kc->nkhw", window, kernel[:, :, i, j])
            dxp[:, :, i : i + ho, j : j + wo] += np.einsum("nkhw,kc->nchw", dy, kernel[:, :, i, j])
            dw[:, :, i, j] = np.einsum("nkhw,nchw->kc", dy, window)
    dx = dxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]
    return y, dx, dw, dy.sum(axis=(0, 2, 3))


def check_conv_rounding(x, kernel, bias, padding, dy_rng):
    """The engine's conv2d and conv2d_backward against the (c, kh, kw)
    formulation and against the float64 direct sum. Each of the three is
    within gamma(L) * sum |term| of the exact result, L being the output's
    number of terms: C*kh*kw + 1 for y (the bias included), K*kh*kw for dx,
    N*Ho*Wo for dw and db. So any two of them differ by at most twice that
    (the float64 sum's own bound is at most the dtype's)."""
    k, c, kh, kw = kernel.shape
    y, cache = conv2d(nhwc(x), kernel, bias, padding)
    y_old, cache_old = oracle.conv2d_channel_major(x, kernel, bias, padding)
    dy = dy_rng.normal(size=y_old.shape).astype(x.dtype)
    dx, dw, db = conv2d_backward(nhwc(dy), cache)
    old = (y_old, *oracle.conv2d_backward_channel_major(dy, cache_old))
    exact = direct_conv64(x, kernel, bias, padding, dy)
    magnitude = direct_conv64(abs(x), abs(kernel), abs(bias), padding, abs(dy))
    rows = dy.shape[0] * dy.shape[2] * dy.shape[3]
    terms = (c * kh * kw + 1, k * kh * kw, rows, rows)
    for name, new, before, ref, size, count in zip(
        ("y", "dx", "dw", "db"), (nchw(y), nchw(dx), dw, db), old, exact, magnitude, terms
    ):
        bound = 2 * gamma(count, x.dtype) * size
        for other in (before, ref):
            excess = np.abs(new.astype(np.float64) - other) - bound
            assert excess.max() <= 0, f"{name} exceeds its rounding bound by {excess.max()}"


class TestConvRoundingBound:
    """The tap-major engine changes y's bytes (and conv1's dx, and db with
    K = 1) against the (c, kh, kw) im2col it replaced; every output stays
    within the rounding bound of check_conv_rounding of both that
    formulation and a float64 direct sum."""

    @settings(max_examples=100, deadline=None)
    @CONV_CASES
    def test_hypothesis_shapes(self, dtype, ksize, padding, n, c, k, h, w, relu_input, seed):
        check_conv_rounding(*random_conv(dtype, ksize, padding, n, c, k, h, w, relu_input, seed))

    @pytest.mark.parametrize("layer", sorted(STOCK_CONVS))
    def test_stock_shapes(self, rng, layer):
        c, k = STOCK_CONVS[layer]
        x = relu(rng.normal(size=(64, c, 28, 28))).astype(np.float32)
        kernel = rng.normal(size=(k, c, 3, 3)).astype(np.float32)
        bias = rng.normal(size=k).astype(np.float32)
        check_conv_rounding(x, kernel, bias, 1, rng)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), image_bytes=st.integers(1, 3 * _BLOCK_BYTES))
def test_image_blocks_tile_the_batch(n, image_bytes):
    step = max(1, _BLOCK_BYTES // image_bytes)
    blocks = _image_blocks(n, image_bytes)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [blk.stop - blk.start for blk in blocks]
    if len(blocks) == 1:
        assert sizes[0] == n
    else:
        # every block a full step, the remainder folded into the last one
        assert sizes[:-1] == [step] * (len(blocks) - 1)
        assert step <= sizes[-1] < 2 * step
