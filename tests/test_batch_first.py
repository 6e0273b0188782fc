"""Batch-first layers: R rows in one call match R calls with a leading axis of 1.

Weight gradients (encoder, generator MLP) are summed over the rows, so there
the R-row call matches the sum of the one-row calls.

Also checks the masked-step shortcut of the training step: with a detach band
of 0.5 every cropper gradient is masked, and the cropper weights must come out
of a run bit-identical to their initial values.  And it checks the training
step's glue around the shared crop chain (the reversal, the detach mask, the
branch split and the update): one step moves each generator's weights by the
finite-difference gradient of the negated loss.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from paramcrop.affine import (
    ParamBounds,
    apply_early_stop,
    build_affine_matrix,
    clamp_params,
    clamp_params_backward,
    generate_grid,
    transform_grid,
    transform_grid_backward,
)
from paramcrop.contrastive import ToyEncoder, encode, encode_backward
from paramcrop.errors import DimensionError
from paramcrop.gradcheck import _grid_safe_mask, central_difference, max_relative_error
from paramcrop.paramgen import CropperState, mlp_backward, mlp_forward, sample_noise
from paramcrop.sampler import sample, sample_backward
from paramcrop.simulator import (
    CropCube,
    TrainConfig,
    _Trainer,
    center_manhattan,
    chain_forward,
    crop_grids,
    generate,
    make_synthetic_batch,
    run_training,
    st_iou,
)

ROWS = 4


def assert_close(actual: np.ndarray, expected: np.ndarray) -> None:
    """Agreement to 1e-12 relative to the largest magnitude of *expected*."""
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= 1e-12 * scale


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


BOUNDS = ParamBounds(
    spatial_scale_range=(0.3, 0.9),
    temporal_scale_range=(0.4, 0.95),
    angle_range=(-0.5, 0.5),
    detach_bound=0.2,
)


def random_params(rng: np.random.Generator) -> np.ndarray:
    """(ROWS, 6) physical crop params with non-trivial angles."""
    return rng.uniform([0.4, 0.4, -0.7, -0.3, -0.3, -0.3],
                       [0.9, 0.9, 0.7, 0.3, 0.3, 0.3], size=(ROWS, 6))


class TestParamMapping:
    def test_clamp_rows_match_single_calls(self, rng):
        units = rng.random((ROWS, 6))
        params = clamp_params(units, BOUNDS)
        assert params.shape == (ROWS, 6)
        for r in range(ROWS):
            assert_close(params[r], clamp_params(units[r:r + 1], BOUNDS)[0])

    def test_clamp_backward_rows_match_single_calls(self, rng):
        units = rng.random((ROWS, 6))
        upstream = rng.normal(size=(ROWS, 6))
        mask = apply_early_stop(units, BOUNDS.detach_bound)
        grads = clamp_params_backward(upstream, units, BOUNDS, mask)
        assert grads.shape == (ROWS, 6)
        for r in range(ROWS):
            one = clamp_params_backward(
                upstream[r:r + 1], units[r:r + 1], BOUNDS, mask[r:r + 1]
            )
            assert_close(grads[r], one[0])

    def test_clamp_backward_shapes_checked(self, rng):
        units = rng.random((ROWS, 6))
        with pytest.raises(DimensionError):
            clamp_params_backward(np.zeros((ROWS, 6)), units, BOUNDS,
                                  np.ones((ROWS - 1, 6), dtype=bool))

    def test_early_stop_rows_match_single_calls(self, rng):
        units = rng.random((ROWS, 6))
        mask = apply_early_stop(units, 0.3)
        assert mask.shape == (ROWS, 6) and mask.dtype == bool
        for r in range(ROWS):
            one = apply_early_stop(units[r:r + 1], 0.3)
            np.testing.assert_array_equal(mask[r], one[0])

    def test_affine_matrix_rows_match_single_calls(self, rng):
        params = random_params(rng)
        matrices = build_affine_matrix(params)
        assert matrices.shape == (ROWS, 3, 4)
        for r in range(ROWS):
            assert_close(matrices[r], build_affine_matrix(params[r:r + 1])[0])


class TestGenerator:
    def test_forward_and_backward_rows_match_single_calls(self, rng):
        state = CropperState.initialise(rng, noise_dim=5, hidden_dim=7, init_scale=0.5)
        noise = rng.random((ROWS, 5))
        upstream = rng.normal(size=(ROWS, 6))
        unit, cache = mlp_forward(noise, state)
        grads = mlp_backward(upstream, cache, state)
        assert unit.shape == (ROWS, 6)
        summed = {key: np.zeros_like(value) for key, value in grads.items()}
        for r in range(ROWS):
            one_unit, one_cache = mlp_forward(noise[r:r + 1], state)
            assert_close(unit[r], one_unit[0])
            one_grads = mlp_backward(upstream[r:r + 1], one_cache, state)
            for key in summed:
                summed[key] += one_grads[key]
        # Weight gradients are summed over the rows.
        assert set(grads) == {"w1", "w2"}
        for key, value in grads.items():
            assert_close(value, summed[key])


class TestCropMetrics:
    def cubes(self, rng: np.random.Generator) -> tuple[CropCube, CropCube]:
        half = rng.uniform(0.2, 0.9, size=(2, ROWS, 3))
        center = rng.uniform(-0.4, 0.4, size=(2, ROWS, 3))
        return CropCube(center[0], half[0]), CropCube(center[1], half[1])

    def test_rows_match_single_calls(self, rng):
        a, b = self.cubes(rng)
        iou = st_iou(a, b)
        raw, norm = center_manhattan(a, b)
        assert iou.shape == raw.shape == norm.shape == (ROWS,)
        for r in range(ROWS):
            one_a = CropCube(a.center[r:r + 1], a.half[r:r + 1])
            one_b = CropCube(b.center[r:r + 1], b.half[r:r + 1])
            assert_close(iou[r], st_iou(one_a, one_b)[0])
            one_raw, one_norm = center_manhattan(one_a, one_b)
            assert_close(raw[r], one_raw[0])
            assert_close(norm[r], one_norm[0])


class TestSampler:
    def test_rows_match_single_calls(self, rng):
        videos = rng.uniform(0.0, 1.0, size=(ROWS, 2, 5, 6, 7))
        grids = rng.uniform(-1.1, 1.1, size=(ROWS, 2, 2, 3, 4, 3))
        upstream = rng.normal(size=(2 * ROWS, 2, 2, 3, 4))
        crops, jacobian = sample(videos, grids)
        grad = sample_backward(upstream, jacobian)
        assert crops.shape == (2 * ROWS, 2, 2, 3, 4)
        assert grad.shape == (2 * ROWS, 2, 3, 4, 3)
        for n in range(ROWS):
            for v in range(2):
                row = 2 * n + v
                one_crop, one_jac = sample(videos[n:n + 1], grids[n:n + 1, v:v + 1])
                assert_close(crops[row], one_crop[0])
                assert_close(
                    grad[row], sample_backward(upstream[row:row + 1], one_jac)[0]
                )

    def test_grid_rows_must_match_clips(self, rng):
        videos = rng.uniform(size=(ROWS, 2, 5, 6, 7))
        with pytest.raises(DimensionError):
            sample(videos, np.zeros((ROWS - 1, 1, 4, 3)))


class TestGridTransform:
    def test_rows_match_single_calls(self, rng):
        grid = generate_grid(3, 4, 5)
        params = random_params(rng)
        matrices = build_affine_matrix(params)
        upstream = rng.normal(size=(ROWS,) + grid.shape)
        coords = transform_grid(grid, matrices)
        grads = transform_grid_backward(upstream, grid, params)
        assert coords.shape == (ROWS,) + grid.shape
        assert grads.shape == (ROWS, 6)
        for r in range(ROWS):
            assert_close(coords[r], transform_grid(grid, matrices[r:r + 1])[0])
            assert_close(
                grads[r], transform_grid_backward(upstream[r:r + 1], grid, params[r:r + 1])[0]
            )

    def test_matrix_batch_shape_checked(self):
        with pytest.raises(DimensionError):
            transform_grid(generate_grid(2, 2, 2), np.zeros((3, 4)))


class TestEncoder:
    def test_rows_match_single_calls(self, rng):
        enc = ToyEncoder.initialise(rng, in_channels=2, conv_channels=4, embed_dim=6)
        clips = rng.uniform(0.0, 1.0, size=(ROWS, 2, 7, 8, 9))
        upstream = rng.normal(size=(ROWS, 6))
        emb, cache = encode(clips, enc)
        grads, grad_video = encode_backward(upstream, cache, enc)
        summed = {key: np.zeros_like(value) for key, value in grads.items()}
        for r in range(ROWS):
            one_emb, one_cache = encode(clips[r:r + 1], enc)
            one_grads, one_video = encode_backward(upstream[r:r + 1], one_cache, enc)
            assert_close(emb[r], one_emb[0])
            assert_close(grad_video[r], one_video[0])
            for key in summed:
                summed[key] += one_grads[key]
        # Weight gradients are summed over the rows.
        for key, value in grads.items():
            assert_close(value, summed[key])

    def test_input_gradient_can_be_skipped(self, rng):
        enc = ToyEncoder.initialise(rng, in_channels=2, conv_channels=4, embed_dim=6)
        clips = rng.uniform(0.0, 1.0, size=(ROWS, 2, 7, 8, 9))
        upstream = rng.normal(size=(ROWS, 6))
        _, cache = encode(clips, enc)
        full, _ = encode_backward(upstream, cache, enc)
        weights_only, grad_video = encode_backward(upstream, cache, enc, input_grad=False)
        assert grad_video is None
        for key, value in full.items():
            np.testing.assert_array_equal(weights_only[key], value)


SMALL = TrainConfig(
    steps=6,
    batch_size=3,
    input_shape=(2, 8, 10, 10),
    crop_shape=(4, 5, 5),
    embed_dim=8,
    conv_channels=4,
    noise_dim=6,
    hidden_dim=8,
    probe_samples=8,
    seed=4,
)


def test_full_detach_band_leaves_croppers_bit_identical():
    cfg = replace(SMALL, detach_bound=0.5)
    initial = _Trainer(cfg).croppers
    result = run_training(cfg)
    assert result.cropper_grad_max.tolist() == [0.0] * cfg.steps
    for before, after in zip(initial, result.croppers):
        np.testing.assert_array_equal(after.w1, before.w1)
        np.testing.assert_array_equal(after.w2, before.w2)


# Seed 3's draws are clear of every kink that a step of GLUE_H in one weight
# could cross (checked below, the way gradcheck screens its instances).
GLUE_SEED = 3
# At the training init scale the weight gradients are about 1e-5, so the
# ~1e-10 rounding noise of a central difference at h = 1e-6 would be 1e-5 of
# them; at 1e-4 it is ~1e-7, and the curvature error stays smaller still.
GLUE_H = 1e-4


def test_step_moves_croppers_by_reversed_loss_gradient():
    cfg = replace(SMALL, detach_bound=0.0, momentum=0.0, seed=GLUE_SEED)
    trainer = _Trainer(cfg)
    before = list(trainer.croppers)
    trainer.step(0)

    # The step's forward rebuilt from a fresh trainer: the same draws.
    fresh = _Trainer(cfg)
    clips = make_synthetic_batch(fresh.data_rng, cfg.batch_size, cfg.input_shape)
    noises = [sample_noise(rng, cfg.batch_size, cfg.noise_dim) for rng in fresh.noise_rngs]

    def forward(croppers):
        units, caches = generate(noises, croppers)
        loss, _, tape = chain_forward(units, clips, cfg.bounds, fresh.crop_grid,
                                      fresh.encoder, cfg.loss_cfg, False)
        return loss, units, caches, tape

    _, units, caches, tape = forward(fresh.croppers)
    _, grids = crop_grids(units, cfg.bounds, fresh.crop_grid)
    assert np.all(_grid_safe_mask(grids, cfg.input_shape[1:], margin=1e-5))
    # A step of h in one w1 entry moves a hidden pre-activation by at most h.
    assert min(np.min(np.abs(c.hidden_pre)) for c in caches) > GLUE_H
    assert np.min(np.abs(tape[-1].conv_pre)) > 1e-4

    for branch in (0, 1):
        for attr in ("w1", "w2"):
            def neg_loss(w, branch=branch, attr=attr):
                croppers = list(fresh.croppers)
                croppers[branch] = replace(croppers[branch], **{attr: w})
                return -forward(croppers)[0]

            numeric = central_difference(
                neg_loss, getattr(fresh.croppers[branch], attr), GLUE_H
            )
            applied = (getattr(before[branch], attr)
                       - getattr(trainer.croppers[branch], attr)) / cfg.cropper_lr
            assert max_relative_error(applied, numeric) < 1e-5, (branch, attr)
