"""Per-thread scratch arrays that a hot path reuses from one call to the next.

A training step builds the same large arrays on every call: the sampler's
jacobian and the encoder's im2col matrix.  Freed at the end of a step, they
leave more free space at the top of the heap than glibc's trim threshold, so
the heap is handed back to the OS and faulted in again on the next step,
about 1,600 minor faults per default adversarial step.  :func:`scratch`
hands the same array back instead, once nothing else holds it.

An array is reused only when the cache holds the sole reference to it, so a
result that a caller still keeps, or any view of it, is never overwritten.
Each thread has its own arrays, freed when the thread ends.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

_local = threading.local()


def _references(arrays: dict, key) -> int:
    """References to ``arrays[key]``, as :func:`scratch` counts them."""
    return sys.getrefcount(arrays[key])


# What _references reads for an array that only its dict holds, measured so
# that an interpreter that counts borrowed references differently can never
# hand out an array that is still in use.
_IDLE = _references({None: np.empty(0)}, None)


def scratch(key, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of *shape*, like ``np.empty``.

    It is the array this thread last got for *key* if the shape matches and
    nothing outside the cache refers to it; otherwise a new one, which then
    replaces it in the cache.
    """
    arrays = _local.__dict__.setdefault("arrays", {})
    if key in arrays and arrays[key].shape == shape and _references(arrays, key) == _IDLE:
        return arrays[key]
    arrays[key] = out = np.empty(shape)
    return out
