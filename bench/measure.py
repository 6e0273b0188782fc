"""Summary statistics, computed operation counts and per-layer aggregation."""

from __future__ import annotations

import math
from collections import defaultdict

from spans import STEP, Span, self_times

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND_TAIL = 10

BYTES_PER_FLOAT = 8  # the package computes in float64 throughout


def _tail_index(n: int, q: float) -> int:
    """0-based nearest-rank index of the *q* quantile of *n* sorted samples."""
    return max(0, math.ceil(q * n) - 1)


def min_samples(q: float) -> int:
    """Fewest samples for which :func:`tail_percentile` accepts *q*."""
    n = 1
    while n - 1 - _tail_index(n, q) < MIN_BEYOND_TAIL:
        n += 1
    return n


def tail_percentile(samples: list[float], q: float) -> float:
    """Nearest-rank *q* quantile, refused unless 10 samples lie beyond it."""
    ordered = sorted(samples)
    k = _tail_index(len(ordered), q)
    beyond = len(ordered) - 1 - k
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(
            f"p{100 * q:g} of {len(ordered)} samples leaves {beyond} beyond it; "
            f"need {MIN_BEYOND_TAIL} (at least {min_samples(q)} samples)"
        )
    return ordered[k]


# ---------------------------------------------------------------------------
# Operation and byte counts, computed from array shapes
# ---------------------------------------------------------------------------


def conv_positions(spatial: tuple[int, ...], kernel: int, stride: int) -> int:
    """Output positions of a valid-padded strided convolution."""
    return math.prod((n - kernel) // stride + 1 for n in spatial)


def encode_flop(
    video_shape: tuple[int, int, int, int],
    conv_channels: int,
    kernel: int,
    stride: int,
    embed_dim: int,
) -> int:
    """Multiply-adds of one ``encode`` call, two FLOP each.

    Counts the convolution and the projection; bias, ReLU, pooling and the
    final normalisation are elementwise and left out.
    """
    channels = video_shape[0]
    positions = conv_positions(video_shape[1:], kernel, stride)
    return 2 * conv_channels * channels * kernel**3 * positions + 2 * embed_dim * conv_channels


def encode_bytes(
    video_shape: tuple[int, int, int, int],
    conv_channels: int,
    kernel: int,
    stride: int,
    embed_dim: int,
) -> int:
    """Compulsory traffic of one ``encode`` call: each array read or written once.

    Reads the clip and all weights; writes the cached pre-activation and the
    embedding.  Repeated reads of overlapping windows are not counted.
    """
    channels = video_shape[0]
    positions = conv_positions(video_shape[1:], kernel, stride)
    weights = (
        conv_channels * channels * kernel**3 + conv_channels
        + embed_dim * conv_channels + embed_dim
    )
    elements = math.prod(video_shape) + weights + conv_channels * positions + embed_dim
    return BYTES_PER_FLOAT * elements


def sample_points(grid_shape: tuple[int, ...]) -> int:
    """Grid points one ``sample`` call interpolates."""
    return math.prod(grid_shape[:-1])


def sample_bytes(video_shape: tuple[int, ...], grid_shape: tuple[int, ...]) -> int:
    """Compulsory traffic of one ``sample`` call: clip and grid in, crop out."""
    points = sample_points(grid_shape)
    elements = math.prod(video_shape) + math.prod(grid_shape) + video_shape[0] * points
    return BYTES_PER_FLOAT * elements


# ---------------------------------------------------------------------------
# Per-layer aggregation
# ---------------------------------------------------------------------------


def layer_table(spans: list[Span]) -> tuple[dict[str, dict[str, float]], int, float]:
    """Per span name: calls, self seconds, inclusive seconds.

    Returns the table, the number of steps and the summed step wall time.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    steps, step_wall = 0, 0.0
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        row["total_s"] += s.duration
        if s.name == STEP:
            steps += 1
            step_wall += s.duration
    return dict(table), steps, step_wall
