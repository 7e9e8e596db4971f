"""Parameter containers and small tensor helpers."""

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import NumericsError, ValidationError


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Raise NumericsError naming `name` if `arr` contains non-finite values."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in '{name}'")
    return arr


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int, dtype=np.float32) -> np.ndarray:
    """Seeded uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if fan_in <= 0:
        raise ValidationError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


@dataclass
class Param:
    """One named tensor plus its gradient accumulator of identical shape."""

    value: np.ndarray
    grad: np.ndarray


class ParamSet:
    """Ordered, named collection of parameters with gradient buffers.

    Gradients accumulate (+=) during backward passes and are zeroed by the
    optimizer step; `checksum()` hashes names, shapes and raw bytes so frozen
    phases can prove bit-identity.
    """

    def __init__(self) -> None:
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self._params:
            raise ValidationError(f"duplicate parameter name '{name}'")
        value = np.ascontiguousarray(value)
        param = Param(value=value, grad=np.zeros_like(value))
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for param in self._params.values():
            param.grad[...] = 0

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name, param in self._params.items():
            digest.update(name.encode("utf-8"))
            digest.update(str(param.value.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(param.value).tobytes())
        return digest.hexdigest()
