"""Fixed glibc heap thresholds for a process that trains.

A stock training step (batch 64) allocates and frees about 90 MiB of
transient buffers; the largest is conv2's im2col `cols`, 27.6 MiB. With
glibc's dynamic thresholds, freeing such a buffer raises the trim threshold
to twice its size, and the top of the heap is then handed back to the
kernel after every step and faulted in again, zeroed, on the next one: about
5000 minor faults and 20 ms of system time per step.

`keep_heap` fixes both thresholds. Setting either one turns glibc's dynamic
adjustment off, so both are set:

  mmap threshold  32 MiB, above the largest buffer of a training step and
                  the highest value older glibc accepts. Blocks below it
                  come from the heap and are reused step after step.
  trim threshold  128 MiB, above a step's transient peak, so the freed top
                  of the heap stays mapped.

The program never holds a buffer bigger than a training step's for long:
inference runs the conv trunk in pieces sized by `MMAP_THRESHOLD` (see
`models.SimpleCNN.midlayer`), so the kept heap does not raise peak memory.

Only the process owner calls `keep_heap` (the CLI's `main`, its worker
processes, the test session); importing this module changes nothing.
"""

import ctypes
import platform

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 128 << 20


def keep_heap() -> bool:
    """Fix glibc's mmap and trim thresholds for this process.

    Returns True when both were set. Off glibc it does nothing and returns
    False.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set
