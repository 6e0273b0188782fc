"""Acceptance battery: one test per headline guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
guarantee.  The long-horizon training fixtures are shared module-wide, so the
whole battery costs four full simulator runs (several minutes) plus the
20-seed gradient check.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from paramcrop.affine import ParamBounds, clamp_params, generate_grid, \
    transform_grid, build_affine_matrix
from paramcrop.contrastive import LossConfig, nt_xent
from paramcrop.errors import ConfigError
from paramcrop.gradcheck import build_chain_instance, chain_cropper_grads, \
    run_all, render_report
from paramcrop.sampler import resample
from paramcrop.simulator import CropCube, TrainConfig, crop_cube, \
    run_training, st_iou, render_csv
from paramcrop.cli import main as cli_main


# ---------------------------------------------------------------------------
# Shared long-run fixtures (each: (RunResult, wall seconds))
# ---------------------------------------------------------------------------


def _timed_run(cfg: TrainConfig):
    start = time.perf_counter()
    result = run_training(cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def adversarial_run():
    """Default adversarial configuration: 2000 steps, 8 pairs, seed 0."""
    return _timed_run(TrainConfig())


@pytest.fixture(scope="module")
def unconstrained_run():
    return _timed_run(TrainConfig(detach_bound=0.0))


@pytest.fixture(scope="module")
def frozen_run():
    return _timed_run(TrainConfig(detach_bound=0.5))


@pytest.fixture(scope="module")
def random_baseline_run():
    return _timed_run(TrainConfig(strategy="random"))


def _phase_means(records, fraction=0.1):
    count = max(1, int(len(records) * fraction))
    head, tail = records[:count], records[-count:]
    return (
        float(np.mean(head["dist_norm"])),
        float(np.mean(tail["dist_norm"])),
        float(np.mean(head["iou"])),
        float(np.mean(tail["iou"])),
    )


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------


def test_01_gradient_fidelity_20_seeds():
    start = time.perf_counter()
    results = run_all(base_seed=0, num_seeds=20, tolerance=1e-5)
    elapsed = time.perf_counter() - start
    report = render_report(results)
    names = {r.name for r in results}
    assert {"sampler_grid", "interval_map", "grid_transform", "nt_xent",
            "encoder", "generator_mlp", "full_chain"} <= names
    assert all(r.num_seeds == 20 for r in results)
    assert all(r.passed for r in results), "\n" + report
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Reversal delivers exactly -1x the plain gradient
# ---------------------------------------------------------------------------


def test_02_reversal_is_bit_exact_negation():
    for seed in (0, 1, 2):
        inst, _ = build_chain_instance(np.random.SeedSequence(seed))
        plain = chain_cropper_grads(inst, reverse=False)
        reversed_ = chain_cropper_grads(inst, reverse=True)
        for branch in (0, 1):
            for p, r in ((plain["w1"][branch], reversed_["w1"][branch]),
                         (plain["w2"][branch], reversed_["w2"][branch])):
                nonzero = p != 0.0
                assert nonzero.any()
                # Bit-for-bit negation wherever the gradient is nonzero.
                np.testing.assert_array_equal(
                    r[nonzero].view(np.uint64), (-p[nonzero]).view(np.uint64)
                )
                # Exact zeros (inactive ReLU rows) stay exact zeros; summing
                # signed zeros always lands on +0.0, so only the value (not
                # the sign bit) is comparable there.
                assert np.array_equal(r == 0.0, p == 0.0)


# ---------------------------------------------------------------------------
# 3. Identity crop reproduces the source
# ---------------------------------------------------------------------------


def test_03_identity_crop_reproduces_source():
    rng = np.random.default_rng(0)
    video = rng.uniform(0.0, 1.0, size=(3, 16, 32, 32))
    grid = generate_grid(16, 32, 32)
    out = resample(video[None], grid[None, None])[0]
    assert float(np.max(np.abs(out - video))) <= 1e-12


# ---------------------------------------------------------------------------
# 4. Containment: every crop stays inside the source volume
# ---------------------------------------------------------------------------


def test_04_containment_ten_thousand_draws():
    cfg = TrainConfig()
    bounds = cfg.bounds
    crop_grid = generate_grid(*cfg.crop_shape)
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(10_000):
        params = clamp_params(rng.random((1, 5)), bounds)
        coords = transform_grid(crop_grid, build_affine_matrix(params))
        if np.any(coords < -1.0) or np.any(coords > 1.0):
            violations += 1
    assert violations == 0


def test_04_containment_at_every_accepted_scale_range():
    """The eight corners of every crop lie in [-1, 1]^3 exactly, for scale
    ranges from the smallest positive float to 1 that the volume check
    accepts, at unit params drawn in [0, 1) and at the ends 0 and 1."""
    minima = [5e-324, 1e-300, 1e-160, 1e-12, 0.25, 0.5, 0.999, 1.0]
    ranges = sorted({(lo, hi) for lo in minima for hi in (lo, 0.5, 0.75, 1.0)
                     if lo <= hi})
    corners = generate_grid(2, 2, 2)
    rng = np.random.default_rng(4)
    accepted = 0
    for spatial in ranges:
        for temporal in ranges:
            try:
                bounds = ParamBounds(spatial_scale_range=spatial,
                                     temporal_scale_range=temporal)
            except ConfigError:
                continue
            units = np.concatenate([rng.random((1000, 5)), np.zeros((1, 5)),
                                    np.ones((1, 5)), rng.integers(0, 2, (62, 5))])
            coords = transform_grid(corners, build_affine_matrix(
                clamp_params(units, bounds)))
            assert np.all((-1.0 <= coords) & (coords <= 1.0)), (spatial, temporal)
            accepted += 1
    # The volume check rejects only pairs of tiny minima.
    assert accepted > len(ranges) ** 2 // 2


# ---------------------------------------------------------------------------
# 5. Adversarial disparity dynamics
# ---------------------------------------------------------------------------


def test_05_disparity_dynamics(adversarial_run):
    result, elapsed = adversarial_run
    assert result.probe_iou > 0.7
    assert result.probe_dist_norm < 0.15
    first_dist, last_dist, first_iou, last_iou = _phase_means(result.records)
    assert last_dist >= 2.0 * first_dist, (first_dist, last_dist)
    assert last_iou < first_iou, (first_iou, last_iou)
    assert elapsed < 600.0, f"default run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. Detach-band semantics
# ---------------------------------------------------------------------------


def test_06_detach_band_semantics(adversarial_run, unconstrained_run,
                                  frozen_run):
    frozen, _ = frozen_run
    # A full half-width band blocks every generator gradient at every step.
    assert max(frozen.cropper_grad_max) == 0.0
    _, frozen_last_dist, _, _ = _phase_means(frozen.records)
    assert abs(frozen_last_dist - frozen.probe_dist_norm) < 0.05

    default, _ = adversarial_run
    unconstrained, _ = unconstrained_run
    _, default_last_dist, _, _ = _phase_means(default.records)
    _, open_last_dist, _, _ = _phase_means(unconstrained.records)
    assert open_last_dist >= default_last_dist, (open_last_dist,
                                                 default_last_dist)


# ---------------------------------------------------------------------------
# 7. Contrastive loss oracles
# ---------------------------------------------------------------------------


def _textbook_loss(embeddings: np.ndarray, temperature: float) -> float:
    """Independent double-loop transcription of the pairwise loss."""
    unit = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    n_rows = unit.shape[0]
    total = 0.0
    for i in range(n_rows):
        partner = i + 1 if i % 2 == 0 else i - 1
        num = np.exp(np.dot(unit[i], unit[partner]) / temperature)
        den = sum(
            np.exp(np.dot(unit[i], unit[j]) / temperature)
            for j in range(n_rows) if j != i
        )
        total -= np.log(num / den)
    return total / n_rows


def test_07_contrastive_loss_oracles():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            e = rng.normal(size=(2 * n, 8))
            cfg = LossConfig(temperature=0.1, num_samples=n)
            assert abs(nt_xent(e, cfg) - _textbook_loss(e, 0.1)) <= 1e-12

    # Two orthogonal pairs at temperature 1 solve in closed form.
    hand = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    got = nt_xent(hand, LossConfig(temperature=1.0, num_samples=2))
    assert abs(got - np.log1p(2.0 / np.e)) <= 1e-9

    # All rows identical: the softmax is uniform over 2N-1 candidates.
    for n in (1, 2, 3, 4):
        e = np.tile(rng.normal(size=(1, 5)), (2 * n, 1))
        got = nt_xent(e, LossConfig(temperature=0.1, num_samples=n))
        assert abs(got - np.log(2 * n - 1)) <= 1e-12


# ---------------------------------------------------------------------------
# 8. Overlap (IoU) oracle
# ---------------------------------------------------------------------------


def test_08_iou_against_monte_carlo():
    rng = np.random.default_rng(0)
    points = rng.uniform(-1.0, 1.0, size=(1_000_000, 3))
    bounds = TrainConfig().bounds

    def membership_iou(a, b) -> float:
        def inside(c):
            iv = c.intervals[0]
            return np.all((points >= iv[:, 0]) & (points <= iv[:, 1]), axis=1)

        in_a, in_b = inside(a), inside(b)
        either = np.count_nonzero(in_a | in_b)
        return np.count_nonzero(in_a & in_b) / either if either else 0.0

    for _ in range(100):
        a = crop_cube(clamp_params(rng.random((1, 5)), bounds))
        b = crop_cube(clamp_params(rng.random((1, 5)), bounds))
        assert abs(st_iou(a, b)[0] - membership_iou(a, b)) < 0.01

    # Hand case: half-extent-0.5 cubes offset by 0.5 along one axis.
    base = CropCube(center=np.zeros((1, 3)), half=np.full((1, 3), 0.5))
    shifted = CropCube(center=np.array([[0.5, 0.0, 0.0]]), half=np.full((1, 3), 0.5))
    assert abs(st_iou(base, shifted)[0] - 1.0 / 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# 9. Random-strategy stationarity
# ---------------------------------------------------------------------------


def test_09_random_baseline_is_stationary(random_baseline_run):
    result, _ = random_baseline_run
    records = result.records
    quarter = len(records) // 4
    first = float(np.mean(records["dist_norm"][:quarter]))
    last = float(np.mean(records["dist_norm"][-quarter:]))
    assert abs(first - last) / max(first, last) < 0.05, (first, last)


# ---------------------------------------------------------------------------
# 10. Determinism: reruns are byte-identical
# ---------------------------------------------------------------------------


def test_10_rerun_yields_byte_identical_csv(tmp_path):
    cfg_text = (
        "steps = 25\nbatch_size = 2\ninput_shape = 2x8x12x12\n"
        "crop_shape = 4x6x6\nembed_dim = 8\nconv_channels = 4\n"
        "noise_dim = 6\nhidden_dim = 8\nprobe_samples = 8\nseed = 3\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--config", str(cfg_path),
                     "--out", str(out_a)]) == 0
    assert cli_main(["train", "--config", str(cfg_path),
                     "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == \
        (out_b / "metrics.csv").read_bytes()

    cmp_a, cmp_b = tmp_path / "ca", tmp_path / "cb"
    for out in (cmp_a, cmp_b):
        assert cli_main(["compare", "--config", str(cfg_path),
                         "--out", str(out),
                         "--strategies", "paramcrop,random"]) == 0
    assert (cmp_a / "compare.csv").read_bytes() == \
        (cmp_b / "compare.csv").read_bytes()

    # The library route must agree with itself as well.
    cfg = TrainConfig(steps=10, batch_size=2, input_shape=(2, 8, 12, 12),
                      crop_shape=(4, 6, 6), embed_dim=8, conv_channels=4,
                      noise_dim=6, hidden_dim=8, probe_samples=8, seed=3)
    assert render_csv(run_training(cfg).records) == \
        render_csv(run_training(cfg).records)
