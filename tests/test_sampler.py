"""Tests for trilinear grid sampling and its coordinate gradients."""

from __future__ import annotations

import numpy as np
import pytest

from paramcrop.affine import generate_grid
from paramcrop.errors import DimensionError
from paramcrop.sampler import resample, sample, sample_backward


def sample_one(video: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Crop of one (C, T, H, W) clip at one grid, via a leading axis of 1."""
    return resample(video[None], grid[None, None])[0]


def grad_one(upstream: np.ndarray, video: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Grid gradient of one clip's crop, via a leading axis of 1."""
    _, jacobian = sample(video[None], grid[None, None])
    return sample_backward(upstream[None], jacobian)[0]


def naive_sample_point(video: np.ndarray, x: float, y: float, t: float) -> np.ndarray:
    """Scalar-at-a-time trilinear interpolation, written independently.

    Coordinates use the same convention as the sampler: [-1, 1] maps onto
    voxel centers 0 .. L-1, values outside are clamped to the border.
    """
    _, nt, nh, nw = video.shape

    def prep(coord: float, length: int):
        if length == 1:
            return 0, 0, 0.0
        idx = (coord + 1.0) / 2.0 * (length - 1)
        idx = min(max(idx, 0.0), float(length - 1))
        lo = int(np.floor(idx))
        lo = min(lo, length - 2)
        return lo, lo + 1, idx - lo

    tx0, tx1, fx = prep(x, nw)
    ty0, ty1, fy = prep(y, nh)
    tt0, tt1, ft = prep(t, nt)

    out = np.zeros(video.shape[0])
    for c in range(video.shape[0]):
        acc = 0.0
        for dt, wt in ((tt0, 1.0 - ft), (tt1, ft)):
            for dy, wy in ((ty0, 1.0 - fy), (ty1, fy)):
                for dx, wx in ((tx0, 1.0 - fx), (tx1, fx)):
                    acc += wt * wy * wx * video[c, dt, dy, dx]
        out[c] = acc
    return out


@pytest.fixture
def video():
    rng = np.random.default_rng(42)
    return rng.uniform(0.0, 1.0, size=(3, 5, 6, 7))


class TestForward:
    def test_identity_grid_recovers_video(self, video):
        g = generate_grid(*video.shape[1:])
        out = sample_one(video, g)
        assert out.shape == video.shape
        np.testing.assert_allclose(out, video, atol=1e-12)

    def test_matches_naive_oracle(self, video):
        rng = np.random.default_rng(7)
        grid = rng.uniform(-1.3, 1.3, size=(4, 3, 2, 3))
        out = sample_one(video, grid)
        for it in range(4):
            for ih in range(3):
                for iw in range(2):
                    x, y, t = grid[it, ih, iw]
                    np.testing.assert_allclose(
                        out[:, it, ih, iw],
                        naive_sample_point(video, x, y, t),
                        atol=1e-13)

    def test_hand_case_midpoint(self):
        video = np.zeros((1, 2, 2, 2))
        video[0, 0, 0] = [2.0, 6.0]
        # halfway along x, pinned to the first row/frame
        grid = np.array([[0.0, -1.0, -1.0]])
        assert sample_one(video, grid)[0, 0] == pytest.approx(4.0)

    def test_voxel_centers_exact(self, video):
        # Sampling exactly at the center of voxel (t=2, y=1, x=3).
        _, nt, nh, nw = video.shape
        grid = np.array([[
            2.0 * 3 / (nw - 1) - 1.0,
            2.0 * 1 / (nh - 1) - 1.0,
            2.0 * 2 / (nt - 1) - 1.0,
        ]])
        np.testing.assert_allclose(sample_one(video, grid)[:, 0], video[:, 2, 1, 3],
                                   atol=1e-14)

    def test_border_clamp(self, video):
        far = np.array([[5.0, -7.0, 9.0]])
        out = sample_one(video, far)[:, 0]
        np.testing.assert_allclose(out, video[:, -1, 0, -1], atol=1e-14)

    def test_grid_last_axis_checked(self, video):
        with pytest.raises(DimensionError):
            resample(video[None], np.zeros((1, 1, 2, 2)))

    def test_video_rank_checked(self):
        with pytest.raises(DimensionError):
            resample(np.zeros((2, 2, 2, 2)), np.zeros((2, 1, 1, 3)))


    def test_sample_and_resample_agree(self, video):
        rng = np.random.default_rng(5)
        grid = rng.uniform(-1.2, 1.2, size=(1, 2, 3, 4, 3))
        crops, _ = sample(video[None], grid)
        np.testing.assert_array_equal(crops, resample(video[None], grid))

    def test_non_contiguous_clips_match_their_copy(self, video):
        rng = np.random.default_rng(7)
        clips = np.stack([video, video[::-1]])[..., ::-1]
        assert not clips.flags.c_contiguous
        grid = rng.uniform(-1.2, 1.2, size=(2, 2, 3, 4, 5, 3))
        crops, jacobian = sample(clips, grid)
        copy_crops, copy_jacobian = sample(np.ascontiguousarray(clips), grid)
        np.testing.assert_array_equal(crops, copy_crops)
        np.testing.assert_array_equal(jacobian, copy_jacobian)
        np.testing.assert_array_equal(resample(clips, grid), copy_crops)


class TestBackward:
    def test_matches_finite_differences_interior(self, video):
        rng = np.random.default_rng(11)
        # Keep coordinates away from voxel boundaries where the piecewise
        # linear interpolant has kinks.
        grid = rng.uniform(-0.9, 0.9, size=(6, 3))
        upstream = rng.normal(size=(video.shape[0], 6))
        h = 1e-6

        grad = grad_one(upstream, video, grid)
        assert grad.shape == grid.shape
        for i in range(6):
            for axis in range(3):
                shifted = grid.copy()
                shifted[i, axis] += h
                up = float(np.sum(upstream * sample_one(video, shifted)))
                shifted[i, axis] -= 2 * h
                down = float(np.sum(upstream * sample_one(video, shifted)))
                fd = (up - down) / (2.0 * h)
                assert grad[i, axis] == pytest.approx(fd, abs=5e-6), (i, axis)

    def test_clamped_coordinates_get_zero_gradient(self, video):
        grid = np.array([[3.0, 0.1, 0.1], [0.1, -2.0, 0.1], [0.1, 0.1, 4.0]])
        upstream = np.ones((video.shape[0], 3))
        grad = grad_one(upstream, video, grid)
        assert grad[0, 0] == 0.0
        assert grad[1, 1] == 0.0
        assert grad[2, 2] == 0.0
        # Unclamped axes of the same points still receive gradient.
        assert grad[0, 1] != 0.0 or grad[0, 2] != 0.0

    def test_linear_region_gradient_is_constant(self):
        """Inside one voxel cell the interpolant is trilinear, so the
        x-gradient at fixed (y, t) fractions is an exact difference."""
        video = np.zeros((1, 2, 2, 2))
        video[0, 0, 0] = [1.0, 3.0]  # value rises by 2 along x at y=t=0
        grid = np.array([[-0.25, -1.0, -1.0]])
        upstream = np.ones((1, 1))
        grad = grad_one(upstream, video, grid)
        # d value / d x_norm = (3 - 1) * (W - 1) / 2 = 1.0
        assert grad[0, 0] == pytest.approx(1.0)

    def test_upstream_shape_checked(self, video):
        _, jacobian = sample(video[None], np.zeros((1, 1, 5, 3)))
        with pytest.raises(DimensionError):
            sample_backward(np.zeros((1, 2, 5)), jacobian)

