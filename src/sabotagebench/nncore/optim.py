"""Plain SGD. No momentum, no schedules; determinism over sophistication."""

import numpy as np

from ..errors import NumericsError
from .tensor import ParamSet


def sgd_step(params: ParamSet, learning_rate: float) -> ParamSet:
    """p <- p - lr * grad for every parameter, then zero all gradients.

    The product lr * grad is formed in the gradient buffer itself, which is
    zeroed next anyway, so no parameter-sized temporary is allocated; the
    multiply and the subtract round as they would with one.
    """
    for name, param in params.items():
        if not np.isfinite(param.grad).all():
            raise NumericsError(f"non-finite gradient in parameter '{name}'")
        np.multiply(param.grad, param.value.dtype.type(learning_rate), out=param.grad)
        param.value -= param.grad
    params.zero_grads()
    return params
