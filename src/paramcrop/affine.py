"""Crop parameterisation: unit-interval params -> per-axis map -> sampling grid.

A crop is an axis-aligned cube described by five numbers in canonical order:
spatial scale, temporal scale, and the three centre offsets (x, y, t).  They
arrive as raw values in (0, 1) ("unit params"); :func:`clamp_params` maps
them into their admissible physical ranges, where the offset ranges depend on
the already-mapped scales so that the crop cube can never leave the
normalised [-1, 1] extent of the source clip.

A cubic crop's affine map has the linear part ``diag(sp, sp, st)``, so
:func:`build_affine_matrix` gives it as per-axis scales over offsets, and is
the one place that pairs parameter columns with the axes (x, y, t);
:func:`transform_grid` scales and shifts the grid with no matrix product.

Batch-first: crop parameters travel as ``(R, 5)`` arrays, one row per crop in
canonical order, from :func:`clamp_params` through :func:`build_affine_matrix`
and :func:`transform_grid` and back; a single crop is a leading axis of 1.
Everything here is differentiable by hand: each forward op has a matching
``*_backward`` that propagates loss gradients with plain ndarray arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

# Column indices into a unit-parameter (or parameter-gradient) row of length 5.
SPATIAL_SCALE, TEMPORAL_SCALE, OFFSET_X, OFFSET_Y, OFFSET_T = range(5)


@dataclass(frozen=True)
class ParamBounds:
    """Static admissible ranges for the scales, plus the detach band.

    Offset ranges are intentionally absent: they are recomputed from the
    mapped scales (a crop of scale ``s`` centred at offset ``d`` spans
    ``[d - s, d + s]``, so ``|d| <= 1 - s`` keeps it inside the clip).

    Parameters
    ----------
    spatial_scale_range, temporal_scale_range : (float, float)
        Half-extent ranges; minima must be strictly positive and large
        enough that the smallest crop cube's volume does not underflow to 0.
    detach_bound : float
        Early-stopping band half-width in [0, 0.5].  0 disables early
        stopping entirely; 0.5 stops every gradient.
    """

    spatial_scale_range: tuple[float, float] = (0.5, 1.0)
    temporal_scale_range: tuple[float, float] = (0.5, 1.0)
    detach_bound: float = 0.2

    def __post_init__(self) -> None:
        for name in ("spatial_scale_range", "temporal_scale_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= float(hi) - float(lo) < np.inf:
                raise ConfigError(
                    f"{name}: need a finite max - min >= 0, got ({lo}, {hi})")
            if lo <= 0.0:
                raise ConfigError(f"{name}: scale minimum must be positive")
            if hi > 1.0:
                raise ConfigError(
                    f"{name}: scale maximum must not exceed 1 (crops must fit "
                    f"inside the source), got {hi}"
                )
        # Overlap metrics divide by crop cube volumes, the smallest of which
        # must stay a positive float.
        sp_min, st_min = self.spatial_scale_range[0], self.temporal_scale_range[0]
        if (2.0 * sp_min) ** 2 * (2.0 * st_min) == 0.0:
            raise ConfigError(
                f"spatial_scale_range, temporal_scale_range: the smallest crop "
                f"cube volume underflows to 0 at minima ({sp_min}, {st_min})"
            )
        if not 0.0 <= self.detach_bound <= 0.5:
            raise ConfigError(
                f"detach_bound must lie in [0, 0.5], got {self.detach_bound}"
            )

    def offset_bounds(
        self, spatial_scale: float, temporal_scale: float
    ) -> tuple[tuple[float, float], tuple[float, float]]:
        """Dynamic (min, max) pairs for the spatial and temporal offsets."""
        return (
            (spatial_scale - 1.0, 1.0 - spatial_scale),
            (temporal_scale - 1.0, 1.0 - temporal_scale),
        )


def apply_early_stop(unit_params: np.ndarray, detach_bound: float) -> np.ndarray:
    """Early-stopping mask for near-saturated unit params.

    A coordinate further than ``0.5 - detach_bound`` from the midpoint 0.5 is
    considered converged: its value passes through unchanged but its mask
    entry is False, which downstream zeroes the gradient flowing back into
    the generator for that coordinate.

    Returns
    -------
    boolean ndarray shaped like *unit_params*
        True where the gradient should still flow.  *detach_bound* is taken
        as already validated (see :class:`ParamBounds`).
    """
    return np.abs(np.asarray(unit_params, dtype=np.float64) - 0.5) <= 0.5 - detach_bound


def clamp_params(unit_params: np.ndarray, bounds: ParamBounds) -> np.ndarray:
    """Map (R, 5) unit params to (R, 5) physical params.

    Scales are mapped affinely by their static ranges; offsets are then
    mapped by ``[scale - 1, 1 - scale]`` using the freshly mapped scales,
    which guarantees containment of the crop cube.
    """
    v = np.asarray(unit_params, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 5:
        raise DimensionError(f"unit params must have shape (R, 5), got {v.shape}")
    sp_lo, sp_hi = bounds.spatial_scale_range
    st_lo, st_hi = bounds.temporal_scale_range
    u_sp, u_st, u_x, u_y, u_t = v.T
    sp = sp_lo + u_sp * (sp_hi - sp_lo)
    st = st_lo + u_st * (st_hi - st_lo)
    (dx_lo, dx_hi), (dt_lo, dt_hi) = bounds.offset_bounds(sp, st)
    dx = dx_lo + u_x * (dx_hi - dx_lo)
    dy = dx_lo + u_y * (dx_hi - dx_lo)
    dt = dt_lo + u_t * (dt_hi - dt_lo)
    return np.stack([sp, st, dx, dy, dt], axis=1)


def clamp_params_backward(
    grad_params: np.ndarray,
    unit_params: np.ndarray,
    bounds: ParamBounds,
    mask: np.ndarray,
) -> np.ndarray:
    """Backpropagate through :func:`clamp_params`.

    The offset ranges depend on the scales, so the scale coordinates collect
    extra terms from the offsets that they bound.  With scale span ``a``,
    offset unit value ``u`` and offset ``d = (s - 1) + u * 2 * (1 - s)``:
    ``dd/ds = 1 - 2u`` and ``dd/du = 2 * (1 - s)``.

    Parameters
    ----------
    grad_params : (R, 5) ndarray
        Loss gradient w.r.t. the mapped parameters, canonical order.
    unit_params : (R, 5) ndarray
        The raw values originally passed to :func:`clamp_params`.
    mask : (R, 5) boolean ndarray
        Early-stop mask; masked-out coordinates get zero gradient.

    Returns
    -------
    (R, 5) ndarray
        Loss gradient w.r.t. the unit params.
    """
    g = np.asarray(grad_params, dtype=np.float64)
    v = np.asarray(unit_params, dtype=np.float64)
    m = np.asarray(mask)
    if v.ndim != 2 or v.shape[1] != 5 or not g.shape == m.shape == v.shape:
        raise DimensionError(
            f"grad params, unit params and mask must share one (R, 5) shape, "
            f"got {g.shape}, {v.shape} and {m.shape}"
        )
    sp_lo, sp_hi = bounds.spatial_scale_range
    st_lo, st_hi = bounds.temporal_scale_range
    sp_span = sp_hi - sp_lo
    st_span = st_hi - st_lo
    sp = sp_lo + v[:, SPATIAL_SCALE] * sp_span
    st = st_lo + v[:, TEMPORAL_SCALE] * st_span

    return np.stack([
        sp_span * (g[:, SPATIAL_SCALE]
                   + g[:, OFFSET_X] * (1.0 - 2.0 * v[:, OFFSET_X])
                   + g[:, OFFSET_Y] * (1.0 - 2.0 * v[:, OFFSET_Y])),
        st_span * (g[:, TEMPORAL_SCALE] + g[:, OFFSET_T] * (1.0 - 2.0 * v[:, OFFSET_T])),
        2.0 * (1.0 - sp) * g[:, OFFSET_X],
        2.0 * (1.0 - sp) * g[:, OFFSET_Y],
        2.0 * (1.0 - st) * g[:, OFFSET_T],
    ], axis=1) * m.astype(np.float64)


def build_affine_matrix(params: np.ndarray) -> np.ndarray:
    """(R, 2, 3) crop maps: scales ``(sp, sp, st)`` over offsets ``(dx, dy, dt)``."""
    p = np.asarray(params, dtype=np.float64)
    return np.stack([p[:, [SPATIAL_SCALE, SPATIAL_SCALE, TEMPORAL_SCALE]],
                     p[:, [OFFSET_X, OFFSET_Y, OFFSET_T]]], axis=1)


def grid_axis(n: int) -> np.ndarray:
    """*n* evenly spaced coordinates from -1 to 1; an axis of one point is 0."""
    if n == 1:
        return np.zeros(1)
    return -1.0 + 2.0 * np.arange(n) / (n - 1)


def generate_grid(t_len: int, h_len: int, w_len: int) -> np.ndarray:
    """Evenly spaced normalised sampling grid of shape (T, H, W, 3).

    Each grid point stores (x, y, t) coordinates in [-1, 1] with endpoints
    included (see :func:`grid_axis`).
    """
    for name, n in (("t_len", t_len), ("h_len", h_len), ("w_len", w_len)):
        if n < 1:
            raise DimensionError(f"{name} must be >= 1, got {n}")
    tc, yc, xc = np.meshgrid(*map(grid_axis, (t_len, h_len, w_len)), indexing="ij")
    return np.ascontiguousarray(np.stack([xc, yc, tc], axis=-1))


def transform_grid(grid: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Scale and shift every (x, y, t) point of a grid by each of R crop maps.

    Parameters
    ----------
    grid : (..., 3) ndarray
        The shared untransformed grid.
    maps : (R, 2, 3) ndarray
        Per-axis scales and offsets from :func:`build_affine_matrix`; a
        single crop is a leading axis of 1.

    Returns
    -------
    (R, ..., 3) C-contiguous ndarray
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim < 1 or grid.shape[-1] != 3:
        raise DimensionError(f"grid last axis must be 3, got shape {grid.shape}")
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3 or maps.shape[1:] != (2, 3):
        raise DimensionError(f"crop maps must be (R, 2, 3), got {maps.shape}")
    # Into a C-contiguous array: a broadcast result may put the row axis
    # innermost, which reorders the float sums of later reductions.  One axis
    # at a time, so numpy's inner loop runs along a grid axis: over the whole
    # (..., 3) array it ran 3 elements at a time, about 3x slower at the
    # training shapes.  Each element gets the same product and sum.
    per_row = (len(maps),) + (1,) * (grid.ndim - 1)
    out = np.empty((len(maps),) + grid.shape)
    for axis in range(3):
        coords = out[..., axis]
        np.multiply(grid[..., axis], maps[:, 0, axis].reshape(per_row), out=coords)
        coords += maps[:, 1, axis].reshape(per_row)
    return out


def transform_grid_backward(grad_coords: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gradient of :func:`transform_grid` w.r.t. each row's five crop parameters.

    Parameters
    ----------
    grad_coords : (R, ..., 3) ndarray
        Loss gradient w.r.t. the transformed coordinates.
    grid : (..., 3) ndarray
        The *untransformed* grid that was fed to :func:`transform_grid`.

    Returns
    -------
    (R, 5) ndarray
        Per-row accumulated gradient in canonical parameter order.
    """
    g = np.asarray(grad_coords, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if g.shape[1:] != grid.shape or g.ndim != grid.ndim + 1:
        raise DimensionError(
            f"grad/grid shape mismatch: {g.shape} vs (R,) + {grid.shape}"
        )
    rows = len(g)
    x, y, t = grid.reshape(-1, 3).T
    g = g.reshape(rows, -1, 3)
    gx, gy, gt = g[..., 0], g[..., 1], g[..., 2]

    return np.stack([gx @ x + gy @ y, gt @ t, np.sum(gx, axis=1),
                     np.sum(gy, axis=1), np.sum(gt, axis=1)], axis=1)
