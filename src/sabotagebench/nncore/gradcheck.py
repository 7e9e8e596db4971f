"""Central finite-difference validation of analytic gradients.

Intended for test-scale models (every parameter element is perturbed twice).
Run it on float64 parameters; float32 forward passes drown the difference
quotient in rounding noise long before the 1e-4 bar.
"""

import math

import numpy as np

from ..errors import NumericsError, ValidationError
from .tensor import ParamSet


def grad_check(loss_fn, params: ParamSet, epsilon: float = 1e-5) -> float:
    """Return the worst relative error between analytic and numeric gradients.

    `loss_fn(backward: bool) -> float` must compute the scalar loss from the
    current parameter values, writing every gradient of `params` only when
    `backward` is True. Relative error per element is
    |a - n| / max(1, |a|, |n|), so near-zero gradients are compared absolutely.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValidationError(f"epsilon must lie in [1e-6, 1e-3], got {epsilon}")
    loss = loss_fn(backward=True)
    if not math.isfinite(loss):
        raise NumericsError(f"non-finite loss {loss} in grad_check")
    analytic = {name: param.grad.copy() for name, param in params.items()}

    worst = 0.0
    for name, param in params.items():
        flat = param.value.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            plus = loss_fn(backward=False)
            flat[i] = original - epsilon
            minus = loss_fn(backward=False)
            flat[i] = original
            if not (math.isfinite(plus) and math.isfinite(minus)):
                raise NumericsError(f"non-finite loss while perturbing '{name}'")
            numeric = (plus - minus) / (2.0 * epsilon)
            a = float(grad_flat[i])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
