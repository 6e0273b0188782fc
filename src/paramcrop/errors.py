"""Exception taxonomy shared by all paramcrop modules.

In the command-line front end ``ConfigError`` exits 2 and every other class
here exits 3; exit 4 is an I/O or out-of-memory error (OSError, MemoryError).
"""

from __future__ import annotations


class ParamCropError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ParamCropError):
    """Shape or axis mismatch between operands."""


class ConfigError(ParamCropError):
    """Invalid or malformed configuration value."""


class NumericsError(ParamCropError):
    """A numeric operation produced or received non-finite values."""


class TrainingError(ParamCropError):
    """Training-loop failure (non-finite loss or gradients mid-run)."""
