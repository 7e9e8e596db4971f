"""The four image ops as they were before the channels-last rewrite.

Test-only oracle: `conv2d`, `conv2d_backward`, `maxpool2x2` and
`maxpool2x2_backward` are kept verbatim so the engine's versions can be
checked against them byte for byte. Do not edit them.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sabotagebench.errors import ShapeError


def _check_image_batch(name: str, x: np.ndarray) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be [N,C,H,W], got shape {tuple(x.shape)}")


# ---------------------------------------------------------------- conv2d


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, padding: int = 0):
    """Stride-1 2-D convolution (cross-correlation) with symmetric padding.

    x: [N,C,H,W], w: [K,C,kh,kw], b: [K] -> y: [N,K,H',W'] where
    H' = H + 2*padding - kh + 1.
    """
    _check_image_batch("conv2d input", x)
    if w.ndim != 4:
        raise ShapeError(f"conv2d kernel must be [K,C,kh,kw], got shape {tuple(w.shape)}")
    n, c, h, wd = x.shape
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
    if padding:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    ho, wo = hp - kh + 1, wp - kw + 1
    # windows: [N, C, Ho, Wo, kh, kw] -> cols: [N*Ho*Wo, C*kh*kw]
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n * ho * wo, c * kh * kw)
    wmat = w.reshape(k, c * kh * kw)
    y = cols @ wmat.T + b
    y = y.reshape(n, ho, wo, k).transpose(0, 3, 1, 2)
    cache = (cols, wmat, w.shape, x.shape, padding)
    return np.ascontiguousarray(y), cache


def conv2d_backward(dy: np.ndarray, cache):
    """Gradients of conv2d: returns (dx, dw, db)."""
    cols, wmat, wshape, xshape, padding = cache
    k, c, kh, kw = wshape
    n, _, h, wd = xshape
    ho, wo = h + 2 * padding - kh + 1, wd + 2 * padding - kw + 1
    dy2 = dy.transpose(0, 2, 3, 1).reshape(n * ho * wo, k)
    db = dy2.sum(axis=0, dtype=dy.dtype)
    dw = (dy2.T @ cols).reshape(wshape)
    # dcols: [N,Ho,Wo,C,kh,kw] -> accumulate back into the padded input
    dcols = (dy2 @ wmat).reshape(n, ho, wo, c, kh, kw)
    dcols = dcols.transpose(0, 3, 4, 5, 1, 2)  # [N,C,kh,kw,Ho,Wo]
    dxp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho, j : j + wo] += dcols[:, :, i, j]
    if padding:
        dx = dxp[:, :, padding:-padding, padding:-padding]
    else:
        dx = dxp
    return np.ascontiguousarray(dx), dw, db


# ------------------------------------------------------------- maxpool2x2


def maxpool2x2(x: np.ndarray):
    """Non-overlapping 2x2 max pooling; returns (y, argmax indices 0..3)."""
    _check_image_batch("maxpool2x2 input", x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even H and W, got {h}x{w}")
    ho, wo = h // 2, w // 2
    windows = x.reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(n, c, ho, wo, 4)
    idx = windows.argmax(axis=-1).astype(np.int8)
    y = windows.max(axis=-1)
    return np.ascontiguousarray(y), idx


def maxpool2x2_backward(dy: np.ndarray, idx: np.ndarray):
    """Scatter pooled gradients back to the argmax positions."""
    n, c, ho, wo = dy.shape
    dwin = np.zeros((n, c, ho, wo, 4), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[..., None].astype(np.intp), dy[..., None], axis=-1)
    dx = dwin.reshape(n, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(dx.reshape(n, c, ho * 2, wo * 2))
