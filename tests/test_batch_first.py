"""Batch-first layers: R rows in one call match R calls with a leading axis of 1.

Weight gradients (encoder, generator MLP) are summed over the rows, so there
the R-row call matches the sum of the one-row calls.

Also checks the masked-step shortcut of the crop chain: with a detach band of
0.5, or with draws outside the band in every crop column, every cropper
gradient is masked, so a learning forward computes no sampler jacobian, and
the cropper weights must come out of a run bit-identical to their initial
values.  And it checks the training step's glue
around the shared crop chain (the noise interleave, the reversal and the
update): one step moves each generator's weights by the finite-difference
gradient of the negated loss.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from paramcrop import sampler, simulator
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
from paramcrop.contrastive import (
    LossConfig,
    ToyEncoder,
    encode,
    encode_backward,
    nt_xent,
    nt_xent_backward,
)
from paramcrop.errors import ConfigError, DimensionError
from paramcrop.gradcheck import _grid_safe_mask, central_difference, max_relative_error
from paramcrop.paramgen import CropperState, mlp_backward, mlp_forward, sample_noise
from paramcrop.sampler import resample, sample, sample_backward
from paramcrop.simulator import (
    CROP_COLUMNS,
    CropCube,
    TrainConfig,
    _Trainer,
    center_manhattan,
    chain_backward,
    chain_forward,
    crop_grids,
    generate,
    make_synthetic_batch,
    run_training,
    st_iou,
)

ROWS = 4
ENCODER_FIELDS = ("conv_weight", "conv_bias", "proj_weight", "proj_bias")


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
    detach_bound=0.2,
)


def random_params(rng: np.random.Generator) -> np.ndarray:
    """(ROWS, 5) physical crop params."""
    return rng.uniform([0.4, 0.4, -0.3, -0.3, -0.3],
                       [0.9, 0.9, 0.3, 0.3, 0.3], size=(ROWS, 5))


class TestParamMapping:
    def test_clamp_rows_match_single_calls(self, rng):
        units = rng.random((ROWS, 5))
        params = clamp_params(units, BOUNDS)
        assert params.shape == (ROWS, 5)
        for r in range(ROWS):
            assert_close(params[r], clamp_params(units[r:r + 1], BOUNDS)[0])

    def test_clamp_backward_rows_match_single_calls(self, rng):
        units = rng.random((ROWS, 5))
        upstream = rng.normal(size=(ROWS, 5))
        mask = apply_early_stop(units, BOUNDS.detach_bound)
        grads = clamp_params_backward(upstream, units, BOUNDS, mask)
        assert grads.shape == (ROWS, 5)
        for r in range(ROWS):
            one = clamp_params_backward(
                upstream[r:r + 1], units[r:r + 1], BOUNDS, mask[r:r + 1]
            )
            assert_close(grads[r], one[0])

    def test_clamp_backward_shapes_checked(self, rng):
        units = rng.random((ROWS, 5))
        with pytest.raises(DimensionError):
            clamp_params_backward(np.zeros((ROWS, 5)), units, BOUNDS,
                                  np.ones((ROWS - 1, 5), dtype=bool))

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
        assert matrices.shape == (ROWS, 2, 3)
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

    def test_stacked_pair_matches_two_single_generators_bit_for_bit(self, rng):
        pair = CropperState.stacked((rng, rng), noise_dim=5, hidden_dim=7,
                                    init_scale=0.5)
        assert pair.w1.shape == (2, 7, 5) and pair.w2.shape == (2, 6, 7)
        noise = rng.random((2, ROWS, 5))
        upstream = rng.normal(size=(2, ROWS, 6))
        unit, cache = mlp_forward(noise, pair)
        grads = mlp_backward(upstream, cache, pair)
        for branch in (0, 1):
            single = CropperState(w1=pair.w1[branch], w2=pair.w2[branch])
            one_unit, one_cache = mlp_forward(noise[branch], single)
            assert unit[branch].tobytes() == one_unit.tobytes()
            one_grads = mlp_backward(upstream[branch], one_cache, single)
            for key in ("w1", "w2"):
                assert grads[key][branch].tobytes() == one_grads[key].tobytes()

    def test_generate_rows_match_their_branch_generator(self, rng):
        pair = CropperState.stacked((rng, rng), noise_dim=5, hidden_dim=7,
                                    init_scale=0.5)
        noise = rng.random((2 * ROWS, 5))
        units, _ = generate(noise, pair)
        assert units.shape == (2 * ROWS, 6)
        # Row 2k + branch is that branch's generator on that noise row.
        for r in range(2 * ROWS):
            single = CropperState(w1=pair.w1[r % 2], w2=pair.w2[r % 2])
            assert_close(units[r], mlp_forward(noise[r:r + 1], single)[0][0])

    @pytest.mark.parametrize("shape", [
        (ROWS, 5), (1, ROWS, 5), (3, ROWS, 5), (2, 1, ROWS, 5), (2, ROWS, 4), (5,),
    ])
    def test_noise_must_carry_the_weights_leading_axes(self, rng, shape):
        pair = CropperState.stacked((rng, rng), noise_dim=5, hidden_dim=7)
        with pytest.raises(ConfigError, match="does not match"):
            mlp_forward(np.zeros(shape), pair)
        # A single generator takes no leading axes either.
        single = CropperState.initialise(rng, noise_dim=5, hidden_dim=7)
        with pytest.raises(ConfigError, match="does not match"):
            mlp_forward(np.zeros((2, ROWS, 5)), single)


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
    # Point shapes, and the rows each gather pass then takes out of the
    # 2 * ROWS rows: one row per pass; every row in one pass, spanning all
    # clips; and 3 + 3 + 2 rows, passes that span clips and a short last one.
    @pytest.mark.parametrize(
        "points, rows_per_pass",
        [((8, 16, 16), 1), ((2, 3, 4), 85), ((6, 10, 10), 3)],
        ids=["one_row_per_pass", "one_pass", "ragged_last_pass"],
    )
    def test_rows_match_single_calls(self, rng, points, rows_per_pass):
        assert max(1, sampler._CHUNK_POINTS // int(np.prod(points))) == rows_per_pass
        videos = rng.uniform(0.0, 1.0, size=(ROWS, 2, 5, 6, 7))
        grids = rng.uniform(-1.3, 1.3, size=(ROWS, 2) + points + (3,))
        assert np.any(np.abs(grids) > 1.0)
        upstream = rng.normal(size=(2 * ROWS, 2) + points)
        crops, jacobian = sample(videos, grids)
        resampled = resample(videos, grids)
        grad = sample_backward(upstream, jacobian)
        assert crops.shape == (2 * ROWS, 2) + points
        assert grad.shape == (2 * ROWS,) + points + (3,)
        for n in range(ROWS):
            for v in range(2):
                row = 2 * n + v
                one = (videos[n:n + 1], grids[n:n + 1, v:v + 1])
                one_crop, one_jac = sample(*one)
                np.testing.assert_array_equal(crops[row], one_crop[0])
                np.testing.assert_array_equal(jacobian[row], one_jac[0])
                np.testing.assert_array_equal(resampled[row], resample(*one)[0])
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
        grads = transform_grid_backward(upstream, grid)
        assert coords.shape == (ROWS,) + grid.shape
        assert grads.shape == (ROWS, 5)
        for r in range(ROWS):
            assert_close(coords[r], transform_grid(grid, matrices[r:r + 1])[0])
            assert_close(
                grads[r], transform_grid_backward(upstream[r:r + 1], grid)[0]
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


class TestProbeAxis:
    """Leading probe axes on the loss, the encoder weights and the crop chain,
    as the finite differences use them, match one call per probe."""

    def test_nt_xent_probes_match_single_calls(self, rng):
        cfg = LossConfig(temperature=0.1, num_samples=3)
        emb = rng.normal(size=(ROWS, 6, 5))
        emb[1, 2] = 0.0  # a zero row stays zero in its own probe only
        losses = nt_xent(emb, cfg)
        assert losses.shape == (ROWS,)
        for p in range(ROWS):
            one = nt_xent(emb[p], cfg)
            assert isinstance(one, float)
            assert abs(losses[p] - one) <= 1e-15 * abs(one)
        nested = nt_xent(emb.reshape((2, ROWS // 2, 6, 5)), cfg)
        np.testing.assert_array_equal(nested.ravel(), losses)

    def test_nt_xent_row_count_checked(self):
        cfg = LossConfig(num_samples=3)
        with pytest.raises(DimensionError, match="expected 6 rows"):
            nt_xent(np.ones((ROWS, 5, 4)), cfg)
        with pytest.raises(DimensionError, match="must be"):
            nt_xent(np.ones(6), cfg)
        with pytest.raises(DimensionError, match="backward takes"):
            nt_xent_backward(np.ones((ROWS, 6, 4)), cfg)

    @pytest.mark.parametrize("per_row_clips", [False, True], ids=["shared", "per_row"])
    @pytest.mark.parametrize("probed", ["w1", "w2"])
    def test_chain_probes_match_single_calls(self, rng, probed, per_row_clips):
        cfg = SMALL
        n_rows = 2 * cfg.batch_size
        trainer = _Trainer(cfg)
        pair = CropperState.stacked((rng, rng), noise_dim=cfg.noise_dim,
                                    hidden_dim=cfg.hidden_dim, init_scale=0.5)
        noise = rng.random((n_rows, cfg.noise_dim))
        # One field carries the probes, the other is broadcast to them.
        field = getattr(pair, probed)
        stack = field + rng.normal(scale=0.2, size=(ROWS,) + field.shape)
        probes = CropperState(**{
            name: np.broadcast_to(getattr(pair, name), (ROWS,) + getattr(pair, name).shape)
            for name in ("w1", "w2")
        })
        probes = replace(probes, **{probed: stack})
        clips = rng.uniform(size=(n_rows if per_row_clips else cfg.batch_size,)
                            + cfg.input_shape)
        args = (clips, cfg.bounds, trainer.crop_grid, trainer.encoder, cfg.loss_cfg)

        units, _ = generate(noise, probes)
        losses, params, _ = chain_forward(units, *args, False)
        assert units.shape == (ROWS, n_rows, 6)
        assert params.shape == (ROWS, n_rows, 5)
        assert losses.shape == (ROWS,)
        for p in range(ROWS):
            one_units, _ = generate(noise, replace(pair, **{probed: stack[p]}))
            one_loss, one_params, _ = chain_forward(one_units, *args, False)
            assert_close(units[p], one_units)
            assert_close(params[p], one_params)
            assert abs(losses[p] - one_loss) <= 1e-12 * abs(one_loss)

    @pytest.mark.parametrize("probed", ENCODER_FIELDS)
    def test_encoder_probes_match_single_calls(self, rng, probed):
        enc = ToyEncoder.initialise(rng, in_channels=2, conv_channels=4, embed_dim=6)
        clips = rng.uniform(0.0, 1.0, size=(3, 2, 7, 8, 9))
        # One field carries the probes, the others are broadcast to them.
        field = getattr(enc, probed)
        stack = field + rng.normal(scale=0.2, size=(ROWS,) + field.shape)
        probes = replace(enc, **{
            name: np.broadcast_to(getattr(enc, name), (ROWS,) + getattr(enc, name).shape)
            for name in ENCODER_FIELDS
        })
        probes = replace(probes, **{probed: stack})
        emb, cache = encode(clips, probes)
        assert emb.shape == (ROWS, 3, 6)
        for p in range(ROWS):
            one_emb, one_cache = encode(clips, replace(enc, **{probed: stack[p]}))
            assert_close(emb[p], one_emb)
            assert_close(cache.conv_pre[p], one_cache.conv_pre)
        nested = replace(probes, **{
            name: getattr(probes, name).reshape((2, ROWS // 2) + getattr(enc, name).shape)
            for name in ENCODER_FIELDS
        })
        np.testing.assert_array_equal(encode(clips, nested)[0].reshape(emb.shape), emb)

    def test_encoder_backward_takes_one_encoder(self, rng):
        enc = ToyEncoder.initialise(rng, in_channels=2, conv_channels=4, embed_dim=6)
        stacked = replace(enc, **{name: np.stack([getattr(enc, name)] * 2)
                                  for name in ENCODER_FIELDS})
        clips = rng.uniform(0.0, 1.0, size=(3, 2, 7, 8, 9))
        emb, cache = encode(clips, stacked)
        with pytest.raises(DimensionError, match="one encoder"):
            encode_backward(np.ones_like(emb), cache, stacked)

    def test_learning_forward_rejects_a_probe_axis(self, rng):
        cfg = SMALL
        trainer = _Trainer(cfg)
        units = rng.random((ROWS, 2 * cfg.batch_size, 6))
        clips = make_synthetic_batch(rng, cfg.batch_size, cfg.input_shape)
        with pytest.raises(DimensionError, match="learning forward takes"):
            chain_forward(units, clips, cfg.bounds, trainer.crop_grid,
                          trainer.encoder, cfg.loss_cfg, True)


def test_full_detach_band_leaves_croppers_bit_identical():
    cfg = replace(SMALL, detach_bound=0.5)
    initial = _Trainer(cfg).croppers
    result = run_training(cfg)
    assert result.cropper_grad_max.tolist() == [0.0] * cfg.steps
    for branch in (0, 1):
        np.testing.assert_array_equal(result.croppers.w1[branch], initial.w1[branch])
        np.testing.assert_array_equal(result.croppers.w2[branch], initial.w2[branch])


@pytest.mark.parametrize("detach_bound", [0.0, 0.5])
def test_learning_forward_applies_the_detach_band(monkeypatch, detach_bound):
    cfg = replace(SMALL, detach_bound=detach_bound)
    trainer = _Trainer(cfg)
    rng = np.random.default_rng(0)
    units = rng.random((2 * cfg.batch_size, 6))
    clips = make_synthetic_batch(rng, cfg.batch_size, cfg.input_shape)
    sampled = []
    monkeypatch.setattr(simulator, "sample",
                        lambda *args: sampled.append(args) or sample(*args))
    _, _, tape = chain_forward(units, clips, cfg.bounds, trainer.crop_grid,
                               trainer.encoder, cfg.loss_cfg, True)
    _, grad_units = chain_backward(tape)
    jacobian = tape[-3]
    if detach_bound == 0.5:
        # The band masks every entry: no jacobian, and a zero unit gradient.
        assert sampled == [] and jacobian is None
        assert grad_units.shape == units.shape and not np.any(grad_units)
    else:
        assert len(sampled) == 1 and jacobian is not None
        assert np.any(grad_units)


def _spied_chain(monkeypatch, cfg, draws):
    """The learning forward and backward of *draws*, with the sampler calls
    and the ``clamp_params_backward`` calls recorded."""
    trainer = _Trainer(cfg)
    clips = make_synthetic_batch(np.random.default_rng(1), cfg.batch_size,
                                 cfg.input_shape)
    calls = {"sample": [], "resample": [], "clamp_params_backward": []}
    for name in calls:
        real = getattr(simulator, name)
        monkeypatch.setattr(simulator, name, lambda *args, real=real, name=name:
                            calls[name].append(args) or real(*args))
    _, _, tape = chain_forward(draws, clips, cfg.bounds, trainer.crop_grid,
                               trainer.encoder, cfg.loss_cfg, True)
    return tape, chain_backward(tape)[1], calls


def test_band_masking_every_crop_column_skips_the_crop_gradient(monkeypatch):
    # Every crop column outside the 0.2 band; the unread column 2 sits at 0.5,
    # inside it, and must not keep the step's crop gradient alive.
    cfg = replace(SMALL, detach_bound=0.2)
    rng = np.random.default_rng(0)
    draws = rng.uniform(0.05, 0.15, (2 * cfg.batch_size, 6))
    draws[1::2] = 1.0 - draws[1::2]
    draws[:, 2] = 0.5
    tape, grad_draws, calls = _spied_chain(monkeypatch, cfg, draws)
    assert calls["sample"] == [] and len(calls["resample"]) == 1
    assert tape[-3] is None
    assert calls["clamp_params_backward"] == []
    assert grad_draws.shape == draws.shape and not np.any(grad_draws)


def test_draw_gradient_is_the_crop_columns_gradient(monkeypatch):
    cfg = replace(SMALL, detach_bound=0.2)
    draws = np.random.default_rng(0).random((2 * cfg.batch_size, 6))
    units = draws[:, CROP_COLUMNS]
    mask = apply_early_stop(units, cfg.bounds.detach_bound)
    assert np.any(mask) and not np.all(mask)
    tape, grad_draws, calls = _spied_chain(monkeypatch, cfg, draws)
    assert len(calls["sample"]) == 1 and tape[-3] is not None
    (grad_params, *_), = calls["clamp_params_backward"]
    assert grad_params.shape == units.shape
    assert np.all(grad_draws[:, 2] == 0.0)
    np.testing.assert_array_equal(
        grad_draws[:, CROP_COLUMNS],
        clamp_params_backward(grad_params, units, cfg.bounds, mask))


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
    before = trainer.croppers
    trainer.step(0)

    # The step's forward rebuilt from a fresh trainer: the same draws.
    fresh = _Trainer(cfg)
    clips = make_synthetic_batch(fresh.data_rng, cfg.batch_size, cfg.input_shape)
    noises = np.stack([sample_noise(rng, cfg.batch_size, cfg.noise_dim)
                       for rng in fresh.noise_rngs], axis=1).reshape(-1, cfg.noise_dim)

    def forward(croppers):
        units, cache = generate(noises, croppers)
        loss, _, tape = chain_forward(units, clips, cfg.bounds, fresh.crop_grid,
                                      fresh.encoder, cfg.loss_cfg, False)
        return loss, units, cache, tape

    _, units, cache, tape = forward(fresh.croppers)
    _, grids = crop_grids(units[:, CROP_COLUMNS], cfg.bounds, fresh.crop_grid)
    assert np.all(_grid_safe_mask(grids, cfg.input_shape[1:], margin=1e-5))
    # A step of h in one w1 entry moves a hidden pre-activation by at most h.
    assert np.min(np.abs(cache.hidden_pre)) > GLUE_H
    assert np.min(np.abs(tape[-1].conv_pre)) > 1e-4

    for branch in (0, 1):
        for attr in ("w1", "w2"):
            def neg_loss(w, branch=branch, attr=attr):
                stacked = getattr(fresh.croppers, attr).copy()
                stacked[branch] = w
                return -forward(replace(fresh.croppers, **{attr: stacked}))[0]

            numeric = central_difference(
                lambda ws, neg_loss=neg_loss: np.array([neg_loss(w) for w in ws]),
                getattr(fresh.croppers, attr)[branch], GLUE_H,
            )
            applied = (getattr(before, attr)[branch]
                       - getattr(trainer.croppers, attr)[branch]) / cfg.cropper_lr
            assert max_relative_error(applied, numeric) < 1e-5, (branch, attr)


# The crop chain samples only the encoder's footprint of the crop grid: the
# leading (n - 3) // 2 * 2 + 3 points of each axis, which the valid stride-2,
# kernel-3 convolution reads.  Those tests pin it against a reference chain
# that samples the full grid, assembled here from the public functions.


def _full_grid_chain(units, clips, cfg, crop_grid, encoder):
    """Loss, encoder gradients and (2N, 5) unit gradient with every crop point sampled."""
    mask = apply_early_stop(units, cfg.bounds.detach_bound)
    _, grids = crop_grids(units, cfg.bounds, crop_grid)
    crops, jacobian = sample(clips, grids.reshape((len(clips), -1) + grids.shape[1:]))
    embeddings, cache = encode(crops, encoder)
    loss = nt_xent(embeddings, cfg.loss_cfg)
    enc_grads, grad_crops = encode_backward(
        nt_xent_backward(embeddings, cfg.loss_cfg), cache, encoder)
    grad_params = transform_grid_backward(sample_backward(grad_crops, jacobian), crop_grid)
    return loss, enc_grads, clamp_params_backward(grad_params, units, cfg.bounds, mask)


# Crops are axis-aligned cubes, which the "-axis" of the ids names.
@pytest.mark.parametrize("base", [TrainConfig(), SMALL],
                         ids=["default-axis", "small-axis"])
def test_footprint_chain_matches_full_grid_chain_bit_for_bit(rng, base):
    cfg = replace(base, detach_bound=0.0)
    trainer = _Trainer(cfg)
    draws = rng.random((2 * cfg.batch_size, 6))
    clips = make_synthetic_batch(rng, cfg.batch_size, cfg.input_shape)
    loss, _, tape = chain_forward(draws, clips, cfg.bounds, trainer.crop_grid,
                                  trainer.encoder, cfg.loss_cfg, True)
    enc_grads, grad_draws = chain_backward(tape)
    ref_loss, ref_grads, ref_units = _full_grid_chain(
        draws[:, CROP_COLUMNS], clips, cfg, trainer.crop_grid, trainer.encoder)
    assert loss == ref_loss
    assert np.any(grad_draws)
    np.testing.assert_array_equal(grad_draws[:, CROP_COLUMNS], ref_units)
    for key, value in ref_grads.items():
        np.testing.assert_array_equal(enc_grads[key], value)


@pytest.mark.parametrize("base, views", [
    (TrainConfig(), (7, 15, 15)),
    (SMALL, (3, 5, 5)),
], ids=["default", "small"])
def test_sampler_reads_only_the_encoder_footprint(monkeypatch, base, views):
    seen = []
    for name in ("sample", "resample"):
        real = getattr(simulator, name)
        monkeypatch.setattr(
            simulator, name,
            lambda clips, grid, real=real, name=name:
                seen.append((name, grid.shape)) or real(clips, grid))
    for strategy in ("paramcrop", "random"):
        _Trainer(replace(base, strategy=strategy)).step(0)
    expected = (base.batch_size, 2) + views + (3,)
    assert seen == [("sample", expected), ("resample", expected)]
