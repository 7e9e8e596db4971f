"""Minimal deterministic tensor/NN engine.

Tensors are C-contiguous numpy arrays (float32 parameters and activations,
float64 accumulation in losses and metrics). All forward/backward math lives
in `ops`; parameters in `ParamSet`; plain SGD in `optim`; finite-difference
validation in `gradcheck`.
"""

from .tensor import Param, ParamSet, fan_in_uniform, require_finite
from .ops import (
    conv2d,
    conv2d_backward,
    conv2d_cache_rows,
    linear,
    linear_backward,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
    sigmoid,
    bce_with_logits,
    bce_with_logits_backward,
    dropout,
    dropout_backward,
    softmax,
    weighted_softmax_ce,
    weighted_softmax_ce_backward,
)
from .optim import sgd_step
from .gradcheck import grad_check

__all__ = [
    "Param",
    "ParamSet",
    "fan_in_uniform",
    "require_finite",
    "conv2d",
    "conv2d_backward",
    "conv2d_cache_rows",
    "linear",
    "linear_backward",
    "maxpool2x2",
    "maxpool2x2_backward",
    "relu",
    "relu_backward",
    "sigmoid",
    "bce_with_logits",
    "bce_with_logits_backward",
    "dropout",
    "dropout_backward",
    "softmax",
    "weighted_softmax_ce",
    "weighted_softmax_ce_backward",
    "sgd_step",
    "grad_check",
]
