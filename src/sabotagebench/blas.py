"""One OpenBLAS thread per process.

OpenBLAS splits a large GEMM over its threads, and the split changes how
its sums round: a `run hard` at one thread and at two wrote different model
checksums. So every process that trains runs one thread, whatever
OPENBLAS_NUM_THREADS says, and its reports keep their bytes. The count is
set through the `ctypes` symbols of numpy's bundled OpenBLAS
(`libscipy_openblas64_`); where numpy bundles none, `one_thread` does
nothing and `in_effect` reports None.
Only the process owner calls `one_thread` (the CLI's `main`, its worker
processes, the test session); importing this module changes nothing.
"""

import ctypes
import functools
from pathlib import Path

import numpy as np


@functools.cache
def _library() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, or None where numpy bundles none."""
    root = Path(np.__file__).resolve().parent
    for folder in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas64_*")):
            try:
                return ctypes.CDLL(str(path))
            except OSError:
                continue
    return None


def _function(name: str, restype, *argtypes):
    """The bundled OpenBLAS's `scipy_openblas_<name>64_`, typed, or None."""
    lib = _library()
    fn = None if lib is None else getattr(lib, f"scipy_openblas_{name}64_", None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, list(argtypes)
    return fn


def one_thread() -> bool:
    """Run numpy's OpenBLAS on one thread in this process.

    Returns True when the count was set, False where there is no bundled
    OpenBLAS to set it in."""
    set_threads = _function("set_num_threads", None, ctypes.c_int)
    if set_threads is None:
        return False
    set_threads(1)
    return True


def in_effect() -> dict:
    """The OpenBLAS thread count in effect and the name of the core kernel
    set it runs, each None where numpy bundles no OpenBLAS."""
    get_threads = _function("get_num_threads", ctypes.c_int)
    get_core = _function("get_corename", ctypes.c_char_p)
    return {
        "threads": None if get_threads is None else get_threads(),
        "core": None if get_core is None else get_core().decode("ascii", "replace"),
    }
