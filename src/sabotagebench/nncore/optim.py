"""Plain SGD. No momentum, no schedules; determinism over sophistication."""

import numpy as np

from ..errors import NumericsError
from .tensor import ParamSet


def sgd_step(params: ParamSet, learning_rate: float) -> ParamSet:
    """p <- p - lr * grad for every parameter, then zero all gradients.

    The product lr * grad is formed in the gradient buffer itself, which is
    zeroed next anyway, so no parameter-sized temporary is allocated; the
    multiply and the subtract round as they would with one.

    A written gradient (see ParamSet) differs from `0 + grad`, its `+=`
    into a zeroed buffer, only where grad holds -0.0, which the add makes
    +0.0. Such an entry leaves its parameter alone either way: `value -
    lr * (-0.0)` and `value - lr * (+0.0)` both equal `value` unless
    `value` is -0.0, and no parameter is: `fan_in_uniform` never draws
    -0.0, and `a - b` is -0.0 only when `a` already is.
    """
    for name, param in params.items():
        if not np.isfinite(param.grad).all():
            raise NumericsError(f"non-finite gradient in parameter '{name}'")
        np.multiply(param.grad, param.value.dtype.type(learning_rate), out=param.grad)
        param.value -= param.grad
    params.zero_grads()
    return params
