"""Forward and backward passes for every layer in the workbench.

Conventions:
  - image activations are channels-last, [N, H, W, C]; conv kernels stay
    [K, C, kh, kw]; dense activations are [N, D]
  - forward functions return (output, cache); the matching *_backward takes
    (grad_out, cache) and returns gradients in argument order
  - float dtype follows the inputs (float32 in training, float64 in grad
    checks); loss scalars accumulate in float64

conv2d is im2col plus one GEMM, the bias added into the GEMM's output in
place. `cols` is [N*Ho*Wo, C*kh*kw] with columns in (c, kh, kw) order; it
is filled by one copy per kernel tap from the channels-last (padded) input,
and conv2d_backward adds dcols back tap by tap, in (kh, kw) order, into a
channels-last buffer. The GEMM output rows
are (n, ho, wo) and its columns k, so `y` is channels-last as it comes out
of the GEMM and `dy` goes into the GEMMs as it is: a channels-last trunk
copies nothing between layers. Every GEMM keeps the same operands, layouts
and transpose flags, and every sum the same order, as the plain NCHW
im2col version, so results are bit-identical to it. The K-major layout
([C*kh*kw, N*Ho*Wo], `wmat @ cols`) is cheaper to fill but swaps or
transposes the GEMM operands; on small shapes NumPy and OpenBLAS then pick
other kernels (GEMV, small-matrix GEMM) that round differently.

maxpool2x2 takes np.maximum over the four strided quarters of each 2x2
window. The index is the first maximum in (0,0), (0,1), (1,0), (1,1) order,
so ties, -0.0 against 0.0 included (relu outputs hold -0.0), route the
gradient to the earliest position; the pooled value of a tie is the last
tied element, which only shows in the sign of a zero. SimpleCNN pools
conv2's output before its ReLU: max and max-with-0 commute, so
relu(maxpool2x2(x)) holds the bytes of maxpool2x2(relu(x)) at a quarter of
the ReLU's work (see models.py for the backward). A NaN input yields a
NaN output but an unspecified index; SimpleCNN.forward raises on any
non-finite activation before a backward could use it.

Pooling is branch-free. A masked copy (`np.copyto(..., where=mask)`)
branches on every element of a random mask and mispredicts about half the
time; arithmetic on the mask does not branch. The forward keeps the index
as the running np.maximum of q * (quarter q > running max): q grows, so the
last strictly greater quarter wins, which is the first maximum. The
backward ANDs the bits of dy with -(idx == q), all ones or all zeros, which
gives exactly dy or +0.0, as np.where(idx == q, dy, 0) does.
"""

import numpy as np

from ..errors import ShapeError, ValidationError


def _check_image_batch(name: str, x: np.ndarray) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be [N,H,W,C], got shape {tuple(x.shape)}")


# ---------------------------------------------------------------- conv2d

# im2col and its scatter run over blocks of images whose columns fit in L2
_BLOCK_BYTES = 1 << 20


def _image_blocks(n: int, image_bytes: int) -> list[slice]:
    step = max(1, _BLOCK_BYTES // max(1, image_bytes))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, padding: int = 0):
    """Stride-1 2-D convolution (cross-correlation) with symmetric padding.

    x: [N,H,W,C], w: [K,C,kh,kw], b: [K] -> y: [N,H',W',K] where
    H' = H + 2*padding - kh + 1.
    """
    _check_image_batch("conv2d input", x)
    if w.ndim != 4:
        raise ShapeError(f"conv2d kernel must be [K,C,kh,kw], got shape {tuple(w.shape)}")
    n, h, wd, c = x.shape
    k, cw, kh, kw = w.shape
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: input C={c}, kernel C={cw}")
    if b.shape != (k,):
        raise ShapeError(f"conv2d bias must be [{k}], got shape {tuple(b.shape)}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} larger than padded input {hp}x{wp}"
        )
    ho, wo = hp - kh + 1, wp - kw + 1
    # cols: [N,Ho,Wo,C,kh,kw] -> [N*Ho*Wo, C*kh*kw], one copy per kernel tap
    # from the padded input, a cache-sized block of images at a time
    if padding:
        xh = np.zeros((n, hp, wp, c), dtype=x.dtype)
        xh[:, padding : padding + h, padding : padding + wd] = x
    else:
        xh = x
    cols = np.empty((n, ho, wo, c, kh, kw), dtype=x.dtype)
    for blk in _image_blocks(n, cols[:1].nbytes):
        dst, src = cols[blk], xh[blk]
        for i in range(kh):
            for j in range(kw):
                dst[..., i, j] = src[:, i : i + ho, j : j + wo]
    cols = cols.reshape(n * ho * wo, c * kh * kw)
    wmat = w.reshape(k, c * kh * kw)
    y = cols @ wmat.T
    y += b
    cache = (cols, wmat, w.shape, x.shape, padding)
    return y.reshape(n, ho, wo, k), cache


def conv2d_backward(dy: np.ndarray, cache, input_grad: bool = True):
    """Gradients of conv2d: returns (dx, dw, db).

    dy and dx are channels-last like conv2d's output and input; with padding,
    dx is a view into the padded gradient buffer. With input_grad False, dx
    is None and its GEMM and scatter are skipped; dw and db are the same
    bytes either way.
    """
    cols, wmat, wshape, xshape, padding = cache
    k, c, kh, kw = wshape
    n, h, wd, _ = xshape
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = hp - kh + 1, wp - kw + 1
    dy2 = dy.reshape(n * ho * wo, k)
    db = dy2.sum(axis=0, dtype=dy.dtype)
    dw = (dy2.T @ cols).reshape(wshape)
    if not input_grad:
        return None, dw, db
    # dcols: [N,Ho,Wo,C,kh,kw]; each tap adds into the padded input gradient,
    # a cache-sized block of images at a time
    dcols = (dy2 @ wmat).reshape(n, ho, wo, c, kh, kw)
    dxh = np.zeros((n, hp, wp, c), dtype=dy.dtype)
    for blk in _image_blocks(n, dcols[:1].nbytes):
        dst, src = dxh[blk], dcols[blk]
        for i in range(kh):
            for j in range(kw):
                dst[:, i : i + ho, j : j + wo] += src[..., i, j]
    return dxh[:, padding : padding + h, padding : padding + wd], dw, db


def conv2d_cache_rows(cache, rows):
    """The conv2d cache of x[rows], cut from the cache of x.

    Each image owns a contiguous run of Ho*Wo rows of `cols`, so the cut holds
    the same bytes, in the same layout, as the cache of a forward of x[rows].
    """
    cols, wmat, wshape, xshape, padding = cache
    per_image = cols.reshape(xshape[0], -1, cols.shape[1])[rows]
    return (
        per_image.reshape(-1, cols.shape[1]),
        wmat,
        wshape,
        (per_image.shape[0], *xshape[1:]),
        padding,
    )


# ------------------------------------------------------------- maxpool2x2

# window offsets (row, col) in the order of the pooling indices 0..3
_QUARTERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2(x: np.ndarray):
    """Non-overlapping 2x2 max pooling of [N,H,W,C]; returns (y, argmax
    indices 0..3), both [N,H/2,W/2,C].

    The index is the first maximum in row-major window order.
    """
    _check_image_batch("maxpool2x2 input", x)
    _, h, w, _ = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even H and W, got {h}x{w}")
    quarters = [x[:, di::2, dj::2] for di, dj in _QUARTERS]
    y = quarters[0].copy()
    idx = np.zeros(y.shape, dtype=np.int8)
    greater = np.empty(y.shape, dtype=np.int8)
    for q in range(1, 4):
        np.greater(quarters[q], y, out=greater.view(np.bool_))
        if q > 1:
            np.multiply(greater, np.int8(q), out=greater)
        np.maximum(idx, greater, out=idx)
        np.maximum(y, quarters[q], out=y)
    return y, idx


def maxpool2x2_backward(dy: np.ndarray, idx: np.ndarray):
    """Route each pooled gradient to its window's argmax position."""
    n, ho, wo, c = dy.shape
    dx = np.empty((n, ho * 2, wo * 2, c), dtype=dy.dtype)
    bits = np.dtype(f"i{dy.itemsize}")
    hit = np.empty(dy.shape, dtype=np.bool_)
    mask = np.empty(dy.shape, dtype=bits)
    for q, (di, dj) in enumerate(_QUARTERS):
        np.equal(idx, q, out=hit)
        np.negative(hit.view(np.int8), out=mask, casting="unsafe")
        np.bitwise_and(dy.view(bits), mask, out=dx[:, di::2, dj::2].view(bits))
    return dx


# ------------------------------------------------------------------ relu


def relu(x: np.ndarray):
    """Elementwise max(0, x), written over x; returns (x, positive mask).

    Each value becomes x * mask, so a negative x gives -0.0 (np.maximum would
    give +0.0) and a non-finite x stays non-finite."""
    mask = x > 0
    return np.multiply(x, mask, out=x), mask


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


# ---------------------------------------------------------------- linear


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Affine map x @ w + b for x: [N,D], w: [D,M], b: [M]."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(
            f"linear expects 2-D input/weights, got {tuple(x.shape)} and {tuple(w.shape)}"
        )
    if x.shape[1] != w.shape[0]:
        raise ShapeError(
            f"linear inner dims disagree: input D={x.shape[1]}, weights D={w.shape[0]}"
        )
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias must be [{w.shape[1]}], got shape {tuple(b.shape)}")
    return x @ w + b, (x, w)


def linear_backward(dy: np.ndarray, cache, input_grad: bool = True):
    """Gradients of linear: returns (dx, dw, db); dx is None, and not
    computed, when input_grad is False."""
    x, w = cache
    dx = dy @ w.T if input_grad else None
    dw = x.T @ dy
    db = dy.sum(axis=0, dtype=dy.dtype)
    return dx, dw, db


# --------------------------------------------------------------- softmax


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with log-sum-exp stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def weighted_softmax_ce(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    """Per-sample-weighted cross-entropy.

    loss = sum_i(weights[i] * CE_i) / N, so all-ones weights give the plain
    mean cross-entropy. Returns (loss, probs).
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [N,K], got shape {tuple(logits.shape)}")
    n, k = logits.shape
    labels = np.asarray(labels)
    weights = np.asarray(weights)
    if labels.shape != (n,) or weights.shape != (n,):
        raise ShapeError(
            f"labels/weights must be [{n}], got {tuple(labels.shape)} and {tuple(weights.shape)}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValidationError(
            f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]"
        )
    if weights.size and (weights.min() < 0 or weights.max() > 1):
        raise ValidationError("per-sample weights must lie in [0, 1]")
    logp = _log_softmax(logits)
    ce = -logp[np.arange(n), labels]
    loss = float(np.sum(weights.astype(np.float64) * ce.astype(np.float64)) / n)
    return loss, np.exp(logp)


def weighted_softmax_ce_backward(probs: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    """d(loss)/d(logits) for weighted_softmax_ce."""
    n = probs.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1
    dlogits *= (np.asarray(weights) / n)[:, None].astype(probs.dtype)
    return dlogits


# --------------------------------------------------------- sigmoid / BCE


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits: np.ndarray, targets: np.ndarray):
    """Mean binary cross-entropy on raw logits; returns (loss, probs)."""
    if logits.shape != targets.shape:
        raise ShapeError(
            f"bce logits/targets shapes differ: {tuple(logits.shape)} vs {tuple(targets.shape)}"
        )
    t = targets.astype(np.float64)
    z = logits.astype(np.float64)
    # log(1 + e^-|z|) is stable for both signs
    loss_vec = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    loss = float(loss_vec.mean())
    return loss, sigmoid(logits)


def bce_with_logits_backward(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return (probs - targets.astype(probs.dtype)) / probs.size


# ---------------------------------------------------------------- dropout


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator, train: bool):
    """Inverted dropout; identity (mask None) when train is False or rate 0."""
    if not 0 <= rate < 1:
        raise ValidationError(f"dropout rate must lie in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return x * keep * scale, keep * scale


def dropout_backward(dy: np.ndarray, mask) -> np.ndarray:
    if mask is None:
        return dy
    return dy * mask
