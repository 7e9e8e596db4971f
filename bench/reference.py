"""A fixed job that measures how fast the machine is at the moment.

The machine the benchmark was written on is shared, and its speed drifts by
up to a third over minutes: identical mirror repetitions took from 23 to
36 s within a quarter of an hour, with under 2% of the time stolen by the
host. So every workload process also times this job, once before the
workload and once after its reports are written, and run.py scales the
workload's times by it (see `REFERENCE_S`).

The job uses numpy and the interpreter in the same mix as the workbench's
training steps: an im2col conv forward and backward at the stock conv2
shape, a 2x2 max pool over the same activations, an elementwise mask, and
a plain Python loop for the interpreter-bound part of set-up. It is the
benchmark's own code, so a change to the workbench never changes it.
"""
from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The job's time, in seconds, on one core of the 2-core machine the
# benchmark was written on, at a calm moment. Times scaled by
# REFERENCE_S / (measured job time) read as seconds at that speed.
REFERENCE_S = 0.22
ROUNDS = 5


def _round(x: np.ndarray, w: np.ndarray) -> float:
    """One conv2-sized forward and backward pass, as the engine computes them."""
    n, c, h, wd = x.shape
    k = w.shape[1]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(xp, (3, 3), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(n * h * wd, c * 9)
    y = (cols @ w).reshape(n, h, wd, k).transpose(0, 3, 1, 2)
    y = np.ascontiguousarray(y * (y > 0))
    pooled = y.reshape(n, k, h // 2, 2, wd // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    pooled = pooled.reshape(n, k, h // 2, wd // 2, 4)
    total = float(pooled.max(axis=-1).sum()) + float(pooled.argmax(axis=-1).sum())
    dy = y.transpose(0, 2, 3, 1).reshape(n * h * wd, k)
    total += float((dy.T @ cols).sum())
    dcols = (dy @ w.T).reshape(n, h, wd, c, 3, 3).transpose(0, 3, 4, 5, 1, 2)
    dxp = np.zeros_like(xp)
    for i in range(3):
        for j in range(3):
            dxp[:, :, i : i + h, j : j + wd] += dcols[:, :, i, j]
    total += float(dxp.sum())
    acc = 0
    for i in range(40_000):
        acc += i % 7
    return total + acc


def measure() -> float:
    """Seconds the job takes now (median of its rounds)."""
    rng = np.random.default_rng(0)
    x = rng.random((64, 16, 28, 28), dtype=np.float32)
    w = rng.random((144, 32), dtype=np.float32)
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _round(x, w)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
