"""Tests for parameter mapping, early stopping, and the affine grid pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from paramcrop.affine import (
    OFFSET_T,
    OFFSET_X,
    SPATIAL_SCALE,
    TEMPORAL_SCALE,
    ParamBounds,
    apply_early_stop,
    build_affine_matrix,
    clamp_params,
    clamp_params_backward,
    generate_grid,
    transform_grid,
    transform_grid_backward,
)
from paramcrop.errors import ConfigError, DimensionError


def params_row(sp, st, dx, dy, dt) -> np.ndarray:
    """One crop's physical params as a (1, 5) row."""
    return np.array([[sp, st, dx, dy, dt]])


def default_bounds(**overrides) -> ParamBounds:
    kwargs = dict(
        spatial_scale_range=(0.5, 1.0),
        temporal_scale_range=(0.5, 1.0),
        detach_bound=0.2,
    )
    kwargs.update(overrides)
    return ParamBounds(**kwargs)


class TestParamBounds:
    def test_validation(self):
        with pytest.raises(ConfigError):
            default_bounds(spatial_scale_range=(0.9, 0.5))
        with pytest.raises(ConfigError):
            default_bounds(temporal_scale_range=(0.0, 1.0))
        with pytest.raises(ConfigError):
            default_bounds(spatial_scale_range=(0.5, 1.5))
        with pytest.raises(ConfigError):
            default_bounds(detach_bound=0.6)
        with pytest.raises(ConfigError):
            default_bounds(detach_bound=-0.1)
        # (2 * 1e-300)^2 * 2 underflows to 0, so no overlap could be computed.
        with pytest.raises(ConfigError, match="underflows"):
            default_bounds(spatial_scale_range=(1e-300, 1.0))
        with pytest.raises(ConfigError, match="underflows"):
            default_bounds(spatial_scale_range=(1e-160, 1.0),
                           temporal_scale_range=(1e-10, 1.0))
        default_bounds(spatial_scale_range=(1e-6, 1.0))

    def test_offset_bounds_shrink_with_scale(self):
        (slo, shi), (tlo, thi) = default_bounds().offset_bounds(0.75, 0.6)
        assert slo == -0.25 and shi == 0.25
        assert tlo == pytest.approx(-0.4) and thi == pytest.approx(0.4)
        (slo, shi), (tlo, thi) = default_bounds().offset_bounds(1.0, 1.0)
        assert slo == shi == 0.0
        assert tlo == thi == 0.0


class TestEarlyStop:
    def test_all_pass_at_zero_bound(self):
        v = np.array([[0.0, 0.25, 0.5, 0.75, 1.0, 0.999]])
        mask = apply_early_stop(v, 0.0)
        assert mask.all()

    def test_all_stop_at_half_bound(self):
        """b = 0.5 admits only v exactly 0.5; generic values all stop."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            mask = apply_early_stop(rng.uniform(0.0, 1.0, size=(1, 6)), 0.5)
            assert not mask.any()
        mask = apply_early_stop(np.full((1, 6), 0.5), 0.5)
        assert mask.all()

    def test_band_edges_inclusive(self):
        # |v - 0.5| <= 0.5 - b keeps the gradient alive at exact equality.
        # 0.25 / 0.75 are exactly representable, so the comparison is sharp.
        b = 0.25
        v = np.array([[0.25, 0.75, 0.25 - 1e-9, 0.75 + 1e-9, 0.5, 0.5]])
        mask = apply_early_stop(v, b)
        np.testing.assert_array_equal(mask, [[True, True, False, False,
                                              True, True]])

    def test_values_pass_through_unchanged(self):
        v = np.array([[0.01, 0.5, 0.99, 0.2, 0.8, 0.45]])
        saved = v.copy()
        mask = apply_early_stop(v, 0.3)
        assert mask.shape == v.shape
        np.testing.assert_array_equal(v, saved)

    def test_stop_fraction_grows_with_bound(self):
        """Monte-Carlo check: stopped fraction ~ 2b for uniform draws."""
        rng = np.random.default_rng(42)
        for b in (0.1, 0.25, 0.4):
            kept = 0
            draws = 8000
            for _ in range(draws):
                mask = apply_early_stop(rng.uniform(0.0, 1.0, size=(1, 6)), b)
                kept += int(mask.sum())
            stopped = 1.0 - kept / (6 * draws)
            assert abs(stopped - 2.0 * b) < 0.01


class TestClampParams:
    def test_interval_endpoints(self):
        bounds = default_bounds()
        (sp0, st0, dx0, _, dt0), = clamp_params(np.zeros((1, 5)), bounds)
        (sp1, st1, dx1, _, dt1), = clamp_params(np.ones((1, 5)), bounds)
        assert sp0 == 0.5 and sp1 == 1.0
        assert st0 == 0.5 and st1 == 1.0
        # At v=0 every scale sits at 0.5, so offsets span [-0.5, 0.5].
        assert dx0 == -0.5 and dt0 == -0.5
        # At v=1 scales hit 1.0 and the offset interval collapses to zero.
        assert dx1 == 0.0 and dt1 == 0.0

    def test_midpoint(self):
        (sp, _, dx, dy, dt), = clamp_params(np.full((1, 5), 0.5), default_bounds())
        assert sp == pytest.approx(0.75)
        assert dx == pytest.approx(0.0)
        assert dy == pytest.approx(0.0)
        assert dt == pytest.approx(0.0)

    def test_containment_arithmetic(self):
        """Mapped offsets always satisfy |offset| <= 1 - scale."""
        rng = np.random.default_rng(42)
        bounds = default_bounds(spatial_scale_range=(0.25, 1.0),
                                temporal_scale_range=(0.4, 0.9))
        for _ in range(500):
            v = rng.uniform(0.0, 1.0, size=(1, 5))
            (sp, st, dx, dy, dt), = clamp_params(v, bounds)
            assert abs(dx) <= 1.0 - sp + 1e-15
            assert abs(dy) <= 1.0 - sp + 1e-15
            assert abs(dt) <= 1.0 - st + 1e-15

    def test_input_shape_checked(self):
        with pytest.raises(DimensionError):
            clamp_params(np.zeros((1, 6)), default_bounds())


class TestClampBackward:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        bounds = default_bounds(spatial_scale_range=(0.3, 0.9),
                                temporal_scale_range=(0.5, 0.95))
        h = 1e-7
        for _ in range(25):
            v = rng.uniform(0.05, 0.95, size=(1, 5))
            upstream = rng.normal(size=(1, 5))

            def scalar(vv: np.ndarray) -> float:
                return float(np.vdot(upstream, clamp_params(vv, bounds)))

            grad = clamp_params_backward(upstream, v, bounds, np.ones((1, 5)))
            for i in range(5):
                e = np.zeros((1, 5))
                e[0, i] = h
                fd = (scalar(v + e) - scalar(v - e)) / (2.0 * h)
                assert grad[0, i] == pytest.approx(fd, abs=5e-7), f"param {i}"

    def test_mask_zeroes_components(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.2, 0.8, size=(1, 5))
        upstream = rng.normal(size=(1, 5))
        mask = np.array([[1.0, 0.0, 0.0, 1.0, 0.0]])
        grad = clamp_params_backward(upstream, v, default_bounds(), mask)
        assert grad[0, TEMPORAL_SCALE] == 0.0
        assert grad[0, OFFSET_X] == 0.0
        assert grad[0, OFFSET_T] == 0.0
        assert grad[0, SPATIAL_SCALE] != 0.0

    def test_scale_gradient_includes_offset_coupling(self):
        """Spatial scale widens/narrows the offset interval, so offset
        upstream gradients must flow back into the scale component."""
        v = np.full((1, 5), 0.5)
        upstream = np.zeros((1, 5))
        upstream[0, OFFSET_X] = 1.0
        grad = clamp_params_backward(upstream, v, default_bounds(), np.ones((1, 5)))
        # dx = (1 - s)(2 v_x - 1); at v_x = 0.5 the direct term is 0
        # but d dx/d s = -(2 v_x - 1) = 0 there too; move v_x off-center.
        assert grad[0, SPATIAL_SCALE] == 0.0
        v2 = v.copy()
        v2[0, OFFSET_X] = 0.75
        grad2 = clamp_params_backward(upstream, v2, default_bounds(), np.ones((1, 5)))
        # ds/dv0 = 0.5, d offset/ds = -(2*0.75 - 1) = -0.5 -> -0.25
        assert grad2[0, SPATIAL_SCALE] == pytest.approx(-0.25)


class TestAffineMatrix:
    """A crop's map is (2, 3): per-axis scales over offsets, on (x, y, t)."""

    def test_identity_parameters(self):
        p = params_row(1.0, 1.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(build_affine_matrix(p)[0],
                                   [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], atol=0.0)

    def test_known_entries(self):
        p = params_row(sp=0.5, st=0.75, dx=0.1, dy=-0.2, dt=0.3)
        m = build_affine_matrix(p)[0]
        expected = np.array([
            [0.5, 0.5, 0.75],
            [0.1, -0.2, 0.3],
        ])
        np.testing.assert_allclose(m, expected, atol=1e-15)


class TestGrid:
    def test_corner_values(self):
        g = generate_grid(2, 2, 2)
        assert g.shape == (2, 2, 2, 3)
        np.testing.assert_array_equal(g[0, 0, 0], [-1.0, -1.0, -1.0])
        np.testing.assert_array_equal(g[-1, -1, -1], [1.0, 1.0, 1.0])
        # layout: last axis is (x, y, t)
        np.testing.assert_array_equal(g[0, 0, 1], [1.0, -1.0, -1.0])
        np.testing.assert_array_equal(g[0, 1, 0], [-1.0, 1.0, -1.0])
        np.testing.assert_array_equal(g[1, 0, 0], [-1.0, -1.0, 1.0])

    def test_even_spacing(self):
        g = generate_grid(5, 3, 4)
        np.testing.assert_allclose(g[:, 0, 0, 2], np.linspace(-1, 1, 5), atol=1e-15)
        np.testing.assert_allclose(g[0, :, 0, 1], np.linspace(-1, 1, 3), atol=1e-15)
        np.testing.assert_allclose(g[0, 0, :, 0], np.linspace(-1, 1, 4), atol=1e-15)

    def test_singleton_axis_centered(self):
        g = generate_grid(1, 3, 3)
        np.testing.assert_array_equal(g[..., 2], np.zeros((1, 3, 3)))

    def test_positive_sizes_required(self):
        with pytest.raises(DimensionError):
            generate_grid(0, 2, 2)


class TestTransformGrid:
    def test_identity(self):
        g = generate_grid(3, 4, 5)
        p = params_row(1.0, 1.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(transform_grid(g, build_affine_matrix(p))[0],
                                   g, atol=1e-15)

    def test_pure_translation(self):
        g = generate_grid(2, 2, 2)
        p = params_row(1.0, 1.0, 0.25, -0.5, 0.125)
        out = transform_grid(g, build_affine_matrix(p))[0]
        np.testing.assert_allclose(out[..., 0], g[..., 0] + 0.25, atol=1e-15)
        np.testing.assert_allclose(out[..., 1], g[..., 1] - 0.5, atol=1e-15)
        np.testing.assert_allclose(out[..., 2], g[..., 2] + 0.125, atol=1e-15)

    def test_pointwise_against_manual_formula(self):
        rng = np.random.default_rng(42)
        p = params_row(0.6, 0.8, 0.1, -0.1, 0.05)
        m = build_affine_matrix(p)
        g = rng.uniform(-1.0, 1.0, size=(4, 3))
        out = transform_grid(g, m)[0]
        for i in range(4):
            x, y, t = g[i]
            assert out[i, 0] == pytest.approx(0.6 * x + 0.1)
            assert out[i, 1] == pytest.approx(0.6 * y - 0.1)
            assert out[i, 2] == pytest.approx(0.8 * t + 0.05)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        g = rng.uniform(-1.0, 1.0, size=(3, 4, 2, 3))
        upstream = rng.normal(size=g.shape)
        base = params_row(0.7, 0.6, 0.05, -0.15, 0.2)
        h = 1e-7

        def scalar(vec: np.ndarray) -> float:
            matrix = build_affine_matrix(vec[None])
            return float(np.sum(upstream * transform_grid(g, matrix)[0]))

        grad = transform_grid_backward(upstream[None], g)
        assert grad.shape == (1, 5)
        grad = grad[0]
        vec0 = base[0]
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (scalar(vec0 + e) - scalar(vec0 - e)) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6), f"param {i}"

    # The training footprint of the default crop (16 rows of 7x15x15) and
    # the pre-crop grid of the default input (16x32x32).
    @pytest.mark.parametrize("shape", [(7, 15, 15), (16, 32, 32)],
                             ids=["footprint", "pre-crop"])
    def test_equals_homogeneous_product_bit_for_bit(self, shape):
        rng = np.random.default_rng(7)
        grid = generate_grid(*shape)
        params = clamp_params(rng.random((16, 5)), default_bounds())
        sp, st, dx, dy, dt = params.T
        matrices = np.zeros((16, 3, 4))
        matrices[:, 0, 0] = matrices[:, 1, 1] = sp
        matrices[:, 2, 2] = st
        matrices[:, :, 3] = np.stack([dx, dy, dt], axis=1)
        homogeneous = np.concatenate([grid, np.ones(shape + (1,))], axis=-1)
        expected = np.einsum("rij,...j->r...i", matrices, homogeneous)
        out = transform_grid(grid, build_affine_matrix(params))
        assert out.shape == (16,) + shape + (3,)
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()

    # The footprint slice chain_forward passes (not contiguous), an arbitrary
    # grid like check_grid_transform's, and a single point.
    @pytest.mark.parametrize("grid", [
        generate_grid(8, 16, 16)[:7, :15, :15],
        np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 3, 4, 3)),
        np.array([0.25, -0.75, 0.5]),
    ], ids=["footprint", "random", "point"])
    @pytest.mark.parametrize("rows", [1, 16])
    def test_equals_broadcast_formula_bit_for_bit(self, grid, rows):
        params = clamp_params(np.random.default_rng(rows).random((rows, 5)),
                              default_bounds())
        maps = build_affine_matrix(params)
        per_row = (rows,) + (1,) * (grid.ndim - 1) + (3,)
        expected = grid * maps[:, 0].reshape(per_row) + maps[:, 1].reshape(per_row)
        out = transform_grid(grid, maps)
        assert out.shape == (rows,) + grid.shape
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("maps_shape", [(2, 3), (1, 3, 4), (1, 2, 4)])
    def test_map_shape_checked(self, maps_shape):
        with pytest.raises(DimensionError):
            transform_grid(generate_grid(2, 2, 2), np.zeros(maps_shape))

    def test_backward_takes_rows_from_grad(self):
        grid = generate_grid(2, 3, 4)
        assert transform_grid_backward(np.ones((5,) + grid.shape), grid).shape == (5, 5)
        for bad in [np.ones(grid.shape), np.ones((5, 2, 3, 5, 3))]:
            with pytest.raises(DimensionError):
                transform_grid_backward(bad, grid)
