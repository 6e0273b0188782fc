"""Trilinear volume resampling on normalised grids, with analytic gradients.

Batch-first: one call resamples ``V`` views from each of ``N`` clips.  The
views of a clip read from that one clip, which is never copied per view; a
single clip is a leading axis of 1.

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


def _face(
    flat: np.ndarray, index: np.ndarray, wx: np.ndarray, wy: np.ndarray,
    with_jacobian: bool,
):
    """Bilinear value on one t face of each point's cell, with its derivatives.

    *index* holds the flat offsets of the face's four corners, ordered
    (x, y), so that each lerp combines two contiguous halves.  Returns the
    value and, with *with_jacobian*, its x and y fraction derivatives.
    """
    c = np.take(flat, index, axis=1)
    dx = c[:, 2:] - c[:, :2]
    a = dx * wx
    a += c[:, :2]
    del c
    dy = a[:, 1] - a[:, 0]
    value = dy * wy
    value += a[:, 0]
    if not with_jacobian:
        return value, None, None
    # d/dx is the x difference lerped along y.
    return value, dx[:, 0] + (dx[:, 1] - dx[:, 0]) * wy, dy


def _view(
    flat: np.ndarray, points: np.ndarray, shape: tuple[int, int, int],
    out: np.ndarray, jac: np.ndarray | None,
) -> None:
    """Interpolate one view from its clip's (C, T*H*W) values into *out*.

    With *jac* given, also write the (3, C, P) coordinate derivatives there.
    """
    t_len, h_len, w_len = shape
    lengths = (w_len, h_len, t_len)
    cells = [_cell_setup(points[:, axis], n) for axis, n in enumerate(lengths)]
    (x0, wx, _), (y0, wy, _), (t0, wt, _) = cells
    # Flat offsets of the four corners of a cell's t face, ordered (x, y).
    base = (t0 * h_len + y0) * w_len + x0 + np.array([0, w_len, 1, 1 + w_len])[:, None]
    v0, dx0, dy0 = _face(flat, base, wx, wy, jac is not None)
    base += h_len * w_len
    v1, dx1, dy1 = _face(flat, base, wx, wy, jac is not None)
    dt = v1 - v0
    np.multiply(dt, wt, out=out)
    out += v0
    if jac is None:
        return
    # The x and y derivatives blend across the two faces like the values
    # do; the value difference is the t derivative.
    jac[0] = dx0 + (dx1 - dx0) * wt
    jac[1] = dy0 + (dy1 - dy0) * wt
    jac[2] = dt
    for axis, (n, (_, _, clamped)) in enumerate(zip(lengths, cells)):
        jac[axis] *= ~clamped * (0.5 * (n - 1))


def _interpolate(
    video: np.ndarray, grid: np.ndarray, with_jacobian: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    video, grid = _check_inputs(video, grid)
    n_clips, n_ch = video.shape[:2]
    n_views = grid.shape[1]
    coords = grid.reshape(n_clips * n_views, -1, 3)
    crops = np.empty((coords.shape[0], n_ch, coords.shape[1]))
    jac = np.empty((coords.shape[0], 3, n_ch, coords.shape[1])) if with_jacobian else None
    # One view at a time, one t face at a time: gathering the corners of the
    # whole batch at once would hold 8 x the crops in memory.
    for row, points in enumerate(coords):
        _view(
            video[row // n_views].reshape(n_ch, -1), points, video.shape[2:],
            crops[row], None if jac is None else jac[row],
        )
    return crops.reshape((coords.shape[0], n_ch) + grid.shape[2:-1]), jac


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
