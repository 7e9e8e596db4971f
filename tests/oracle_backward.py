"""The backward passes as they were before the linear layers wrote their
weight gradients into the gradient buffers.

Test-only oracle: `nncore.linear_backward`, which returned a fresh weight
gradient, and the `backward` of `SimpleCNN` and `MlpBinary`, which added it
to the zeroed buffer (`grad +=`), kept verbatim as methods of subclasses that
inherit everything else. The CNN's backward takes the midlayer's 4-D shape
from the model config, as the cache no longer holds it. The engine's models
must leave the same parameters. Do not edit it otherwise.
"""

import numpy as np

from sabotagebench.models import MlpBinary, SimpleCNN
from sabotagebench.nncore import (
    conv2d_backward,
    dropout_backward,
    maxpool2x2_backward,
    relu_backward,
)


def linear_backward(dy: np.ndarray, cache, input_grad: bool = True):
    """Gradients of linear: returns (dx, dw, db); dx is None, and not
    computed, when input_grad is False."""
    x, w = cache
    dx = dy @ w.T if input_grad else None
    dw = x.T @ dy
    db = dy.sum(axis=0, dtype=dy.dtype)
    return dx, dw, db


class AddingCNN(SimpleCNN):
    def backward(self, dlogits: np.ndarray, cache) -> None:
        """Accumulate parameter gradients for one forward pass."""
        p = self.params
        da3, dw, db = linear_backward(dlogits, cache["fc2"])
        p["fc2_w"].grad += dw
        p["fc2_b"].grad += db
        df1 = relu_backward(da3, cache["relu3"])
        dflat, dw, db = linear_backward(df1, cache["fc1"])
        p["fc1_w"].grad += dw
        p["fc1_b"].grad += db
        size = self.cfg.pooled_size
        dmid = dflat.reshape(len(dflat), self.cfg.conv2_channels, size, size).transpose(0, 2, 3, 1)
        dpooled = relu_backward(dmid, cache["relu2"])
        dh2 = maxpool2x2_backward(dpooled, cache["pool_idx"])
        da1, dw, db = conv2d_backward(dh2, cache["conv2"])
        p["conv2_w"].grad += dw
        p["conv2_b"].grad += db
        dh1 = relu_backward(da1, cache["relu1"])
        _, dw, db = conv2d_backward(dh1, cache["conv1"], input_grad=False)
        p["conv1_w"].grad += dw
        p["conv1_b"].grad += db


class AddingMlp(MlpBinary):
    def backward(self, dlogits: np.ndarray, cache) -> None:
        p = self.params
        dz = dlogits[:, None]
        dd, dw, db = linear_backward(dz, cache["fc2"])
        p["w2"].grad += dw
        p["b2"].grad += db
        da = dropout_backward(dd, cache["drop"])
        dh = relu_backward(da, cache["relu"])
        _, dw, db = linear_backward(dh, cache["fc1"], input_grad=False)
        p["w1"].grad += dw
        p["b1"].grad += db
