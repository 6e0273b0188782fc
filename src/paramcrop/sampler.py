"""Trilinear volume resampling on normalised grids, with analytic gradients.

Batch-first: one call resamples ``V`` views from each of ``N`` clips, one
row per view; a single clip is a leading axis of 1.  Rows go in passes of
as many whole rows as fit 2048 points, and at least one, so the default
8 x 16 x 16 crop is one row per pass and small crops share one.  A pass
gathers one t face at a time by flat offset into the clips, so it can span
clips; a gather holds C x 4 x 2048 values (C x 4 x P for rows of P > 2048).

Coordinates follow the endpoint-inclusive convention: -1 and +1 land exactly
on the first and last voxel centre of an axis (``index = (coord + 1) / 2 *
(len - 1)``).  Coordinates outside [-1, 1] are clamped to the border voxel;
their gradient in the clamped axis is zero, matching the flat extrapolation.

The backward pass differentiates w.r.t. the grid coordinates only — the
source video is training data here, never a learnable leaf.  At an exact
voxel boundary the derivative uses the cell above the boundary (one-sided),
except at the top edge of an axis where only the cell below exists.

The interpolation is three nested lerps (x, then y, then t), and each lerp
computes the difference of its two cell faces anyway.  :func:`sample` blends
those face differences into the per-point coordinate derivatives and returns
them, so :func:`sample_backward` is a reduction over channels: it reads
neither the clip nor the grid, and the clips can be released once the
forward is done.  :func:`resample` is the same forward without them, for
callers that never run a backward.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Points per pass: rows of P points go max(1, 2048 // P) at a time.
_CHUNK_POINTS = 2048


def _check_inputs(video: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    video = np.asarray(video, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if video.ndim != 5:
        raise DimensionError(f"video must be (N, C, T, H, W), got shape {video.shape}")
    if grid.ndim < 3 or grid.shape[-1] != 3 or grid.shape[0] != video.shape[0]:
        raise DimensionError(
            f"grid must be (N, V, ..., 3) with N = {video.shape[0]}, "
            f"got shape {grid.shape}"
        )
    for name, n in zip(("T", "H", "W"), video.shape[2:]):
        if n < 2:
            raise DimensionError(f"source axis {name} must have length >= 2, got {n}")
    return video, grid


def _cell_setup(coords: np.ndarray, length: int):
    """Map one axis of normalised coords to (cell index, fraction, clamped)."""
    clamped = np.abs(coords) > 1.0
    c = np.minimum(np.maximum(coords, -1.0), 1.0)
    idx = (c + 1.0) * 0.5 * (length - 1)
    lo = np.minimum(np.floor(idx), length - 2)
    frac = idx - lo
    return lo.astype(np.int64), frac, clamped


def _interpolate(
    video: np.ndarray, grid: np.ndarray, with_jacobian: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    video, grid = _check_inputs(video, grid)
    n_clips, n_ch, t_len, h_len, w_len = video.shape
    coords = grid.reshape(n_clips * grid.shape[1], -1, 3)
    n_rows, n_points = coords.shape[:2]
    crops = np.empty((n_rows, n_ch, n_points))
    jac = np.empty((n_rows, 3, n_ch, n_points)) if with_jacobian else None
    lengths = (w_len, h_len, t_len)
    # Flat offsets into the clips: of each row's clip, and of each channel
    # plus the four corners of a cell's t face, ordered (x, y) so that each
    # lerp combines two contiguous halves.  The t + 1 face is H * W further.
    clip_len = t_len * h_len * w_len
    clips = np.arange(n_rows) // grid.shape[1] * (n_ch * clip_len)
    corners = (np.array([0, w_len, 1, 1 + w_len])[:, None, None, None]
               + np.arange(n_ch)[:, None] * clip_len)
    flat = video.reshape(-1)  # a copy only for clips that are not C-contiguous
    # Whole rows per pass, as many as fit _CHUNK_POINTS and at least one,
    # one t face at a time: a gather holds C x 4 x max(_CHUNK_POINTS, P)
    # values.  Each face's and each pass's arrays are freed before the next
    # are built; held, they cost about 10% of sample() at the default shapes.
    step = max(1, _CHUNK_POINTS // max(n_points, 1))
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        # Per-point setup on 1-D views, which numpy runs faster than 2-D ones.
        shape = (min(step, n_rows - start), 1, n_points)
        points = coords[rows].reshape(-1, 3)
        cells = [_cell_setup(points[:, axis], n) for axis, n in enumerate(lengths)]
        (x0, wx, _), (y0, wy, _), (t0, wt, _) = cells
        wx, wy, wt = (w.reshape(shape) for w in (wx, wy, wt))
        cell = ((t0 * h_len + y0) * w_len + x0).reshape(shape)
        # (corner, row, channel, point)
        index = corners + (cell + clips[rows, None, None])
        faces = []
        for face in range(2):
            c = np.take(flat[face * h_len * w_len:], index)
            dx = c[2:] - c[:2]
            a = dx * wx
            a += c[:2]
            del c
            dy = a[1] - a[0]
            value = dy * wy
            value += a[0]
            # d/dx is the x difference lerped along y.
            faces.append((value, dx[0] + (dx[1] - dx[0]) * wy, dy) if with_jacobian
                         else (value,))
            del a, dx
        (v0, *d0), (v1, *d1) = faces
        dt = v1 - v0
        np.multiply(dt, wt, out=crops[rows])
        crops[rows] += v0
        if with_jacobian:
            # The x and y derivatives blend across the two faces like the
            # values do; the value difference is the t derivative.
            out = jac[rows]
            out[:, 0] = d0[0] + (d1[0] - d0[0]) * wt
            out[:, 1] = d0[1] + (d1[1] - d0[1]) * wt
            out[:, 2] = dt
            for axis, (n, (_, _, clamped)) in enumerate(zip(lengths, cells)):
                out[:, axis] *= ~clamped.reshape(shape) * (0.5 * (n - 1))
        del index, faces, v0, v1, d0, d1, dt
    return crops.reshape((n_rows, n_ch) + grid.shape[2:-1]), jac


def sample(video: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinearly interpolate each clip at its views' grids, for a backward.

    Parameters
    ----------
    video : (N, C, T, H, W) ndarray
    grid : (N, V, ..., 3) ndarray
        Normalised (x, y, t) sampling positions of ``V`` views per clip,
        typically (N, V, T', H', W', 3).

    Returns
    -------
    (crops, jacobian)
        ``crops`` is (N * V, C, ...): one interpolated channel stack per
        grid point, view ``v`` of clip ``n`` in row ``n * V + v``.
        ``jacobian`` is (N * V, 3, C, P) for ``P`` points per view: the
        derivative of every crop value w.r.t. its point's (x, y, t)
        coordinates, zero in a clamped axis.  It is what
        :func:`sample_backward` needs.
    """
    return _interpolate(video, grid, with_jacobian=True)


def resample(video: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The crops of :func:`sample` alone, for callers that run no backward."""
    return _interpolate(video, grid, with_jacobian=False)[0]


def sample_backward(grad_out: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """Gradient of :func:`sample` w.r.t. the grid coordinates.

    Parameters
    ----------
    grad_out : (N * V, C, ...) ndarray
        Loss gradient w.r.t. the sampled crops.
    jacobian : (N * V, 3, C, P) ndarray
        The second output of the forward :func:`sample` call.

    Returns
    -------
    (N * V, ..., 3) ndarray
        Per-point (x, y, t) coordinate gradients, one row per crop; zero in
        any axis whose coordinate was clamped at the border.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    rows, _, n_ch, n_points = jacobian.shape
    if grad_out.shape[:2] != (rows, n_ch) or grad_out[0, 0].size != n_points:
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match jacobian "
            f"{jacobian.shape}"
        )
    grad = np.einsum("rcp,racp->rpa", grad_out.reshape(rows, n_ch, -1), jacobian)
    return grad.reshape(grad_out.shape[:1] + grad_out.shape[2:] + (3,))
