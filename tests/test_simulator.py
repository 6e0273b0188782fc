"""Tests for crop geometry, baseline strategies, config I/O, and short runs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from paramcrop.affine import clamp_params, generate_grid
from paramcrop.errors import ConfigError
from paramcrop.simulator import (
    CROP_COLUMNS,
    CSV_HEADER,
    CropCube,
    TrainConfig,
    baseline_params,
    center_manhattan,
    config_from_pairs,
    config_to_pairs,
    crop_cube,
    format_float,
    make_synthetic_batch,
    render_csv,
    run_training,
    st_iou,
)


def cube(cx, cy, ct, hx, hy, ht) -> CropCube:
    """One cube, as a leading axis of 1."""
    return CropCube(center=np.array([[cx, cy, ct]]),
                    half=np.array([[hx, hy, ht]]))


def one_cube(unit: np.ndarray, bounds) -> CropCube:
    """Cube of a single (6,) unit-param draw, read at its crop columns."""
    return crop_cube(clamp_params(unit[None, CROP_COLUMNS], bounds))


def mc_iou(a: CropCube, b: CropCube, points: np.ndarray) -> float:
    """Monte-Carlo membership oracle over a shared point cloud in [-1,1]^3."""
    def inside(c: CropCube) -> np.ndarray:
        iv = c.intervals[0]
        return np.all((points >= iv[:, 0]) & (points <= iv[:, 1]), axis=1)

    in_a, in_b = inside(a), inside(b)
    either = np.count_nonzero(in_a | in_b)
    if either == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / either


class TestCropCube:
    def test_from_params(self):
        p = np.array([[0.5, 0.75, 0.1, -0.2, 0.3]])
        c = crop_cube(p)
        np.testing.assert_array_equal(c.center, [[0.1, -0.2, 0.3]])
        np.testing.assert_array_equal(c.half, [[0.5, 0.5, 0.75]])

    def test_intervals_and_volume(self):
        c = cube(0.0, 0.0, 0.5, 0.5, 0.5, 0.25)
        np.testing.assert_allclose(
            c.intervals, [[[-0.5, 0.5], [-0.5, 0.5], [0.25, 0.75]]])
        assert c.volume == pytest.approx([1.0 * 1.0 * 0.5])


class TestStIou:
    def test_identical_cubes(self):
        c = cube(0.1, -0.2, 0.0, 0.5, 0.5, 0.6)
        assert st_iou(c, c)[0] == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_cubes(self):
        a = cube(-0.6, 0.0, 0.0, 0.3, 0.3, 0.3)
        b = cube(0.6, 0.0, 0.0, 0.3, 0.3, 0.3)
        assert st_iou(a, b)[0] == 0.0

    def test_half_scale_cubes_offset_half(self):
        a = cube(0.0, 0.0, 0.0, 0.5, 0.5, 0.5)
        b = cube(0.5, 0.0, 0.0, 0.5, 0.5, 0.5)
        assert st_iou(a, b)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_nested_cubes(self):
        outer = cube(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        inner = cube(0.0, 0.0, 0.0, 0.5, 0.5, 0.5)
        assert st_iou(outer, inner)[0] == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = rng.uniform(0.2, 0.6, size=(2, 3))
            c = rng.uniform(-0.3, 0.3, size=(2, 3))
            a = CropCube(center=c[:1], half=h[:1])
            b = CropCube(center=c[1:], half=h[1:])
            assert st_iou(a, b)[0] == st_iou(b, a)[0]

    def test_matches_monte_carlo(self):
        """Membership-count oracle on a shared point cloud (the heavier
        version of this check lives in the acceptance suite)."""
        rng = np.random.default_rng(42)
        points = rng.uniform(-1.0, 1.0, size=(200_000, 3))
        bounds = TrainConfig().bounds
        for _ in range(20):
            a, b = one_cube(rng.random(6), bounds), one_cube(rng.random(6), bounds)
            assert st_iou(a, b)[0] == pytest.approx(mc_iou(a, b, points),
                                                    abs=0.02)


class TestCenterManhattan:
    def test_raw_distance(self):
        a = cube(0.1, 0.2, 0.3, 0.5, 0.5, 0.5)
        b = cube(-0.1, 0.0, 0.7, 0.5, 0.5, 0.5)
        raw, _ = center_manhattan(a, b)
        assert raw[0] == pytest.approx(0.2 + 0.2 + 0.4)

    def test_normalisation_uses_reachable_maximum(self):
        # Each centre can stray |1 - half| per axis, so two half-0.5 cubes
        # have reachable Manhattan separation 3.0.
        a = cube(-0.5, -0.5, -0.5, 0.5, 0.5, 0.5)
        b = cube(0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        raw, norm = center_manhattan(a, b)
        assert raw[0] == pytest.approx(3.0)
        assert norm[0] == pytest.approx(1.0)

    def test_full_size_cubes_define_zero(self):
        a = cube(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        raw, norm = center_manhattan(a, a)
        assert raw[0] == 0.0 and norm[0] == 0.0

    def test_norm_clipped_to_one(self):
        # Centres pushed beyond their own reachable envelope still report 1.
        a = cube(-0.9, 0.0, 0.0, 0.9, 0.9, 0.9)
        b = cube(0.9, 0.0, 0.0, 0.9, 0.9, 0.9)
        _, norm = center_manhattan(a, b)
        assert norm[0] == 1.0


class TestBaselines:
    def rng(self):
        return np.random.default_rng(42)

    def test_simple_is_identical_full_crops(self):
        a, b = baseline_params("simple", 0, 10, self.rng(), 1, jitter=0.0)[0]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, [1.0, 1.0, 0.5, 0.5, 0.5, 0.5])

    def test_hard_is_opposite_corners(self):
        bounds = TrainConfig().bounds
        a, b = baseline_params("hard", 0, 10, self.rng(), 1, jitter=0.0)[0]
        ca, cb = one_cube(a, bounds), one_cube(b, bounds)
        assert st_iou(ca, cb)[0] == 0.0
        assert center_manhattan(ca, cb)[1][0] == pytest.approx(1.0)

    def test_manual_ramps_from_overlap_to_separation(self):
        bounds = TrainConfig().bounds
        total = 11
        dists = []
        for step in range(total):
            a, b = baseline_params("manual", step, total, self.rng(), 1,
                                   jitter=0.0)[0]
            ca, cb = one_cube(a, bounds), one_cube(b, bounds)
            dists.append(center_manhattan(ca, cb)[1][0])
        assert dists[0] == 0.0
        assert dists[-1] == pytest.approx(1.0)
        assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:]))

    def test_manual_breakpoint_delays_ramp(self):
        total = 10
        for step in range(5):
            a, b = baseline_params("manual", step, total, self.rng(), 1,
                                   jitter=0.0, manual_breakpoint=0.5)[0]
            np.testing.assert_array_equal(a, b)
        a, b = baseline_params("manual", 9, total, self.rng(), 1,
                               jitter=0.0, manual_breakpoint=0.5)[0]
        assert not np.array_equal(a, b)

    def test_random_uniform_and_seeded(self):
        a1, b1 = baseline_params("random", 0, 10, np.random.default_rng(7), 1)[0]
        a2, b2 = baseline_params("random", 0, 10, np.random.default_rng(7), 1)[0]
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        assert not np.array_equal(a1, b1)
        assert np.all((a1 >= 0.0) & (a1 < 1.0))

    def test_jitter_keeps_unit_interval(self):
        rng = self.rng()
        for step in range(50):
            a, b = baseline_params("hard", step, 50, rng, 1, jitter=0.4)[0]
            for v in (a, b):
                assert np.all((v >= 0.0) & (v <= 1.0))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            baseline_params("zoom", 0, 10, self.rng(), 1)


class TestSyntheticBatch:
    def test_shapes_and_values(self):
        rng = np.random.default_rng(42)
        clips = make_synthetic_batch(rng, 3, (2, 4, 6, 5))
        assert clips.shape == (3, 2, 4, 6, 5)
        for clip in clips:
            assert clip.shape == (2, 4, 6, 5)
            assert np.all(np.isfinite(clip))
            assert clip.min() >= 0.0

    def test_clips_differ(self):
        rng = np.random.default_rng(42)
        a, b = make_synthetic_batch(rng, 2, (1, 4, 8, 8))
        assert not np.array_equal(a, b)

    def test_blob_moves_over_time(self):
        """The brightest location should track the blob's velocity."""
        rng = np.random.default_rng(3)
        (clip,) = make_synthetic_batch(rng, 1, (1, 8, 32, 32))
        peaks = [np.unravel_index(np.argmax(clip[0, t]), clip.shape[2:])
                 for t in range(8)]
        travel = np.abs(np.array(peaks[-1]) - np.array(peaks[0])).sum()
        assert travel >= 2

    def test_bad_count(self):
        with pytest.raises(ConfigError):
            make_synthetic_batch(np.random.default_rng(0), 0, (1, 4, 4, 4))

    @pytest.mark.parametrize("shape", [(3, 16, 32, 32), (2, 2, 2, 2), (1, 5, 2, 7),
                                       (2, 3, 9, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_matches_per_voxel_formula(self, seed, shape):
        """Offsets taken per axis give the bytes of the per-voxel formula."""
        def per_voxel(rng, count):
            channels, t_len, h_len, w_len = shape
            grid = generate_grid(t_len, h_len, w_len)
            x, y, t = grid[..., 0], grid[..., 1], grid[..., 2]
            clips = np.empty((count,) + shape)
            for clip in clips:
                start = rng.uniform(-0.5, 0.5, 2)
                velocity = rng.uniform(-0.5, 0.5, 2)
                radius = rng.uniform(0.2, 0.4)
                colour = rng.uniform(0.5, 1.0, channels)
                noise = 0.05 * rng.random((channels, t_len, h_len, w_len))
                cx = start[0] + velocity[0] * t
                cy = start[1] + velocity[1] * t
                blob = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * radius**2))
                np.multiply(colour[:, None, None, None], blob, out=clip)
                clip += noise
            return clips

        expected = per_voxel(np.random.default_rng(seed), 3)
        actual = make_synthetic_batch(np.random.default_rng(seed), 3, shape)
        np.testing.assert_array_equal(actual, expected)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.steps == 2000
        assert cfg.batch_size == 8
        assert cfg.strategy == "paramcrop"

    def test_rejections(self):
        with pytest.raises(ConfigError, match="strategy"):
            TrainConfig(strategy="bilinear")
        with pytest.raises(ConfigError, match="crop_shape"):
            TrainConfig(crop_shape=(8, 16, 64))
        with pytest.raises(ConfigError, match="crop_shape"):
            TrainConfig(crop_shape=(2, 16, 16))
        with pytest.raises(ConfigError, match="detach_bound"):
            TrainConfig(detach_bound=0.7)
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError, match="temperature"):
            TrainConfig(temperature=-0.1)
        with pytest.raises(ConfigError, match="spatial_scale"):
            TrainConfig(spatial_scale_min=0.0)
        with pytest.raises(ConfigError, match="spatial_scale"):
            TrainConfig(spatial_scale_max=1.5)
        with pytest.raises(ConfigError, match="temporal_scale"):
            TrainConfig(temporal_scale_min=0.8, temporal_scale_max=0.6)
        with pytest.raises(ConfigError, match="angle"):
            config_from_pairs({"angle_min": "0.2", "angle_max": "-0.2"})
        # The smallest crop cube volume would underflow to 0.
        with pytest.raises(ConfigError, match="spatial_scale"):
            TrainConfig(strategy="hard", spatial_scale_min=1e-300,
                        input_shape=(1, 4, 6, 6), crop_shape=(3, 3, 3),
                        batch_size=2)

    def test_bounds_property(self):
        cfg = TrainConfig(spatial_scale_min=0.25, spatial_scale_max=0.75,
                          detach_bound=0.3)
        b = cfg.bounds
        assert b.spatial_scale_range == (0.25, 0.75)
        assert b.detach_bound == 0.3


class TestConfigSerialisation:
    def test_round_trip_defaults(self):
        cfg = TrainConfig()
        assert config_from_pairs(config_to_pairs(cfg)) == cfg

    def test_round_trip_modified(self):
        cfg = TrainConfig(steps=123, strategy="manual", seed=99,
                          input_shape=(2, 8, 12, 12), crop_shape=(4, 6, 6),
                          cropper_lr=0.0125, random_flip=True,
                          manual_breakpoint=0.75)
        assert config_from_pairs(config_to_pairs(cfg)) == cfg

    def test_float_text_is_exact(self):
        cfg = TrainConfig(encoder_lr=0.1 + 0.2)  # not representable tidily
        out = config_from_pairs(config_to_pairs(cfg))
        assert out.encoder_lr == cfg.encoder_lr

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_pairs({"learning_rate": "0.1"})

    def test_bad_shape_text(self):
        with pytest.raises(ConfigError, match="input_shape"):
            config_from_pairs({"input_shape": "3x16x32"})
        with pytest.raises(ConfigError, match="input_shape"):
            config_from_pairs({"input_shape": "axbxcxd"})

    def test_bad_bool_text(self):
        with pytest.raises(ConfigError, match="random_flip"):
            config_from_pairs({"random_flip": "maybe"})

    def test_bad_float_text(self):
        with pytest.raises(ConfigError, match="encoder_lr"):
            config_from_pairs({"encoder_lr": "fast"})

    def test_overrides_apply_to_base(self):
        base = TrainConfig(steps=50)
        out = config_from_pairs({"batch_size": "4"}, base=base)
        assert out.steps == 50 and out.batch_size == 4


class TestCsv:
    def test_format_float_nine_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.333333333"
        assert format_float(2.0) == "2"
        assert format_float(1234567891.0) == "1.23456789e+09"
        assert format_float(-0.5) == "-0.5"

    def test_render(self, tiny_result):
        text = render_csv(tiny_result.records)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(tiny_result.records)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == len(CSV_HEADER.split(","))


TINY = TrainConfig(
    steps=4,
    batch_size=2,
    input_shape=(2, 8, 10, 10),
    crop_shape=(4, 5, 5),
    embed_dim=8,
    conv_channels=4,
    noise_dim=6,
    hidden_dim=8,
    probe_samples=8,
    seed=5,
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_training(TINY)


class TestShortRuns:
    def test_record_stream(self, tiny_result):
        assert len(tiny_result.records) == TINY.steps
        unit_columns = CSV_HEADER.split(",")[5:]
        for i, rec in enumerate(tiny_result.records):
            assert rec["step"] == i
            assert np.isfinite(rec["loss"])
            assert 0.0 <= rec["iou"] <= 1.0
            assert 0.0 <= rec["dist_norm"] <= 1.0
            unit_mean = np.array([rec[name] for name in unit_columns])
            assert np.all((unit_mean > 0.0) & (unit_mean < 1.0))

    def test_probe_reflects_near_identity_init(self, tiny_result):
        assert tiny_result.probe_iou > 0.9
        assert tiny_result.probe_dist_norm < 0.05

    def test_adversary_artifacts_present(self, tiny_result):
        assert tiny_result.croppers is not None
        assert len(tiny_result.croppers.w1) == len(tiny_result.croppers.w2) == 2
        assert len(tiny_result.cropper_grad_max) == TINY.steps
        assert all(g >= 0.0 for g in tiny_result.cropper_grad_max)

    def test_deterministic_repeat(self, tiny_result):
        again = run_training(TINY)
        assert render_csv(again.records) == render_csv(tiny_result.records)
        np.testing.assert_array_equal(again.encoder.conv_weight,
                                      tiny_result.encoder.conv_weight)
        np.testing.assert_array_equal(again.croppers.w1[0],
                                      tiny_result.croppers.w1[0])

    def test_seed_changes_trajectory(self, tiny_result):
        other = run_training(replace(TINY, seed=6))
        assert render_csv(other.records) != render_csv(tiny_result.records)

    def test_baseline_run_has_no_adversary(self):
        res = run_training(replace(TINY, strategy="random"))
        assert res.croppers is None
        assert all(g == 0.0 for g in res.cropper_grad_max)

    def test_simple_baseline_full_overlap(self):
        res = run_training(replace(TINY, strategy="simple",
                                   baseline_jitter=0.0))
        for rec in res.records:
            assert rec["iou"] == pytest.approx(1.0, abs=1e-12)
            assert rec["dist_norm"] == 0.0

    def test_extra_augmentations_run_deterministically(self):
        cfg = replace(TINY, steps=2, random_flip=True, pre_crop=True)
        a = run_training(cfg)
        b = run_training(cfg)
        assert render_csv(a.records) == render_csv(b.records)
