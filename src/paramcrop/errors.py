"""Exception taxonomy shared by all paramcrop modules.

Each class maps onto one process exit code in the command-line front end:
config errors exit 2, numerical/training errors exit 3, I/O errors exit 4.
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


class UnsupportedMetricError(ParamCropError):
    """Requested metric is undefined for the given parameters."""
