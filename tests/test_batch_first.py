"""Batch-first layers: R rows in one call match R calls with a leading axis of 1.

Also checks the masked-step shortcut of the training step: with a detach band
of 0.5 every cropper gradient is masked, and the cropper weights must come out
of a run bit-identical to their initial values.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from paramcrop.affine import (
    AffineParams,
    build_affine_matrix,
    generate_grid,
    transform_grid,
    transform_grid_backward,
)
from paramcrop.contrastive import ToyEncoder, encode, encode_backward
from paramcrop.errors import DimensionError
from paramcrop.sampler import sample, sample_backward
from paramcrop.simulator import TrainConfig, _Trainer, run_training

ROWS = 4


def assert_close(actual: np.ndarray, expected: np.ndarray) -> None:
    """Agreement to 1e-12 relative to the largest magnitude of *expected*."""
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= 1e-12 * scale


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


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
        params = [
            AffineParams(*rng.uniform([0.4, 0.4, -0.7, -0.3, -0.3, -0.3],
                                      [0.9, 0.9, 0.7, 0.3, 0.3, 0.3]))
            for _ in range(ROWS)
        ]
        matrices = np.stack([build_affine_matrix(p) for p in params])
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
    assert result.cropper_grad_max == [0.0] * cfg.steps
    for before, after in zip(initial, result.croppers):
        np.testing.assert_array_equal(after.w1, before.w1)
        np.testing.assert_array_equal(after.w2, before.w2)
