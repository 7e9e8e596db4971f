"""Parameter containers and small tensor helpers."""

import hashlib

import numpy as np

from ..errors import NumericsError, ValidationError


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Raise NumericsError naming `name` if `arr` contains non-finite values."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in '{name}'")
    return arr


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Seeded float32 uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    The float64 draw fills the result 64K values at a time. The generator
    fills in order, so the bytes and the generator's next draw are those of
    one draw of the whole shape, without its full-size float64 temporary.
    """
    if fan_in <= 0:
        raise ValidationError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(float(fan_in))
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, 1 << 16):
        piece = flat[start : start + (1 << 16)]
        piece[...] = rng.uniform(-bound, bound, size=piece.size)
    return out


class Param:
    """One named tensor plus its gradient buffer of identical shape, until
    `ParamSet.drop_grads` drops the buffer; reading `grad` after that
    raises ValidationError naming the parameter."""

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = value
        self._grad = np.zeros_like(value)

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            raise ValidationError(
                f"parameter '{self.name}' has no gradient buffer: its training has ended"
            )
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray | None) -> None:
        self._grad = grad


class ParamSet:
    """Ordered, named collection of parameters with gradient buffers.

    A backward pass writes every gradient into its buffer over whatever the
    buffer held (a linear layer's weight gradient is its GEMM's output), so
    two passes before a step do not sum, and nothing clears a buffer: after
    `sgd_step` it holds lr * grad until the next backward overwrites it.
    `checksum()` hashes names, shapes and raw bytes so frozen phases can
    prove bit-identity.

    When a set's training ends, `drop_grads` frees its gradient buffers:
    a frozen or finished network needs only its values, and a later
    backward pass or SGD step on it raises instead of training it.
    """

    def __init__(self) -> None:
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self._params:
            raise ValidationError(f"duplicate parameter name '{name}'")
        param = Param(name, np.ascontiguousarray(value))
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self):
        return self._params.items()

    def drop_grads(self) -> None:
        for param in self._params.values():
            param.grad = None

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name, param in self._params.items():
            digest.update(name.encode("utf-8"))
            digest.update(str(param.value.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(param.value).tobytes())
        return digest.hexdigest()
