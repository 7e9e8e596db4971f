"""The conv trunk as it was before conv2's output was pooled before its ReLU.

Test-only oracle: `_trunk` and `backward` of `SimpleCNN` from before the
change, kept verbatim (ReLU before the pool, the ReLU backward at full size
behind the pool backward) as methods of a subclass, which inherits the
unchanged head, `forward`, `narrow` and inference, with `nncore.relu` as it
was then (out of place). The engine's model must give the same logits,
midlayers and parameters. Do not edit it.
"""

import numpy as np

from sabotagebench.errors import ShapeError
from sabotagebench.models import SimpleCNN
from sabotagebench.nncore import (
    conv2d,
    conv2d_backward,
    linear_backward,
    maxpool2x2,
    maxpool2x2_backward,
    relu_backward,
)


def relu(x: np.ndarray):
    """Elementwise max(0, x); cache is the positive mask."""
    mask = x > 0
    return x * mask, mask


class ReluThenPoolCNN(SimpleCNN):
    def _trunk(self, x: np.ndarray):
        """conv1 -> ReLU -> conv2 -> ReLU -> pool; returns
        (mid [N,C,H/2,W/2], h1, h2 [N,H,W,C], trunk cache)."""
        if x.ndim != 4:
            raise ShapeError(f"images must be [N,C,H,W], got shape {tuple(x.shape)}")
        p = self.params
        x = x.transpose(0, 2, 3, 1)
        h1, c_conv1 = conv2d(x, p["conv1_w"].value, p["conv1_b"].value, self.cfg.padding)
        a1, m_relu1 = relu(h1)
        h2, c_conv2 = conv2d(a1, p["conv2_w"].value, p["conv2_b"].value, self.cfg.padding)
        a2, m_relu2 = relu(h2)
        pooled, idx_pool = maxpool2x2(a2)
        mid = np.ascontiguousarray(pooled.transpose(0, 3, 1, 2))
        cache = {
            "conv1": c_conv1,
            "relu1": m_relu1,
            "conv2": c_conv2,
            "relu2": m_relu2,
            "pool_idx": idx_pool,
            "mid_shape": mid.shape,
        }
        return mid, h1, h2, cache

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
        dmid = dflat.reshape(cache["mid_shape"]).transpose(0, 2, 3, 1)
        da2 = maxpool2x2_backward(dmid, cache["pool_idx"])
        dh2 = relu_backward(da2, cache["relu2"])
        da1, dw, db = conv2d_backward(dh2, cache["conv2"])
        p["conv2_w"].grad += dw
        p["conv2_b"].grad += db
        dh1 = relu_backward(da1, cache["relu1"])
        _, dw, db = conv2d_backward(dh1, cache["conv1"], input_grad=False)
        p["conv1_w"].grad += dw
        p["conv1_b"].grad += db
