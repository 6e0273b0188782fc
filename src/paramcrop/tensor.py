"""Validated dense float64 helpers: :func:`as_dense` and :func:`matmul`.

Nothing in the package calls these; they and their tests are the last of the
old tensor core and go with the next deletion (ROADMAP item 3).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericsError


def as_dense(values, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Coerce *values* to a finite, C-contiguous float64 array.

    Raises
    ------
    DimensionError
        If *shape* is given and does not match.
    NumericsError
        If any element is NaN or infinite.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if np.ndim(values) == 0:
        arr = arr.reshape(())  # ascontiguousarray promotes 0-d to 1-d
    if shape is not None and arr.shape != tuple(shape):
        raise DimensionError(f"expected shape {tuple(shape)}, got {arr.shape}")
    _require_finite(arr, "input")
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {what}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D matrix product with explicit inner-dimension checking."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}"
        )
    out = a @ b
    _require_finite(out, "matmul result")
    return out
