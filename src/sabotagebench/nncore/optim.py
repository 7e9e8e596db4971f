"""Plain SGD. No momentum, no schedules; determinism over sophistication."""

import numpy as np

from ..errors import NumericsError
from .tensor import ParamSet

# Gradient elements per finiteness check, so the check's bool mask is 64 KiB
# whatever the parameter's size (a whole-gradient mask of the mirror pair
# gate's first layer would take 3.1 MiB).
_FINITE_SLICE = 1 << 16


def _all_finite(grad: np.ndarray) -> bool:
    flat = grad.reshape(-1)
    return all(np.isfinite(flat[start : start + _FINITE_SLICE]).all()
               for start in range(0, flat.size, _FINITE_SLICE))


def sgd_step(params: ParamSet, learning_rate: float) -> ParamSet:
    """p <- p - lr * grad for every parameter.

    The product lr * grad is formed in the gradient buffer itself, which the
    next backward pass overwrites (see ParamSet), so no parameter-sized
    temporary is allocated; the multiply and the subtract round as they
    would with one.

    A gradient entry of -0.0 steps like +0.0: `value - lr * (-0.0)` and
    `value - lr * (+0.0)` both equal `value` unless `value` is -0.0, and no
    parameter is: `fan_in_uniform` never draws -0.0, and `a - b` is -0.0
    only when `a` already is.

    A non-finite gradient raises NumericsError before its parameter is
    touched; a set whose gradients were dropped (`ParamSet.drop_grads`)
    raises ValidationError.
    """
    for name, param in params.items():
        if not _all_finite(param.grad):
            raise NumericsError(f"non-finite gradient in parameter '{name}'")
        np.multiply(param.grad, param.value.dtype.type(learning_rate), out=param.grad)
        param.value -= param.grad
    return params
