"""Central-difference verification of every hand-written backward pass.

Each check family builds a small random problem, computes the analytic
gradient, then re-derives it numerically by perturbing one input at a time
(h = 1e-6, float64 throughout).  The reported figure is the worst absolute
deviation normalised by the gradient's own magnitude::

    err = max|analytic - numeric| / max(max|analytic|, max|numeric|, 1e-12)

which stays meaningful for gradients whose entries span several orders of
magnitude while still catching any per-entry formula error above ~1e-5 of
the gradient scale.

Finite differences are only valid away from kinks, so instances are screened:
sampling coordinates must keep clear of voxel boundaries and the clamp
threshold, ReLU pre-activations and generator hidden units must keep clear
of zero.  Degenerate draws are rejected and rebuilt from a spawned seed —
the screening never moves a value, it only re-rolls the dice.

The ``full_chain`` family checks the training step's own chain, not a copy:
it runs ``simulator``'s :func:`~paramcrop.simulator.generate`,
``chain_forward``, ``chain_backward`` and ``generate_backward``, so a fault
in any of them, or in how they order the two branches, fails it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .affine import (
    ParamBounds,
    apply_early_stop,
    build_affine_matrix,
    clamp_params,
    clamp_params_backward,
    generate_grid,
    transform_grid,
    transform_grid_backward,
)
from .contrastive import (
    LossConfig,
    ToyEncoder,
    encode,
    encode_backward,
    nt_xent,
    nt_xent_backward,
)
from .errors import ConfigError, NumericsError
from .paramgen import (
    CropperState,
    mlp_backward,
    mlp_forward,
    reverse_gradient,
)
from .sampler import resample, sample, sample_backward
from .simulator import (
    chain_backward,
    chain_forward,
    crop_grids,
    generate,
    generate_backward,
    make_synthetic_batch,
)

DEFAULT_STEP = 1e-6
DEFAULT_TOLERANCE = 1e-5
_MAX_REBUILDS = 50


def central_difference(fn, x: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Numerical gradient of scalar ``fn`` at *x*, one entry at a time."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, grad_flat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst deviation, normalised by the larger gradient magnitude."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != f.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {f.shape}")
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(f), initial=0.0))
    if scale < 1e-12:
        return 0.0
    return float(np.max(np.abs(a - f)) / scale)


def _weights_error(weights, grads: dict[str, np.ndarray], loss) -> float:
    """Worst error of field-keyed *grads* of ``loss(weights)``, field by field."""
    worst = 0.0
    for name, grad in grads.items():
        numeric = central_difference(
            lambda w, name=name: loss(replace(weights, **{name: w})),
            getattr(weights, name),
        )
        worst = max(worst, max_relative_error(grad, numeric))
    return worst


def _screened(seed_seq: np.random.SeedSequence, build, what: str):
    """The first non-None ``build(rng)``, one spawned child seed per try."""
    for child in seed_seq.spawn(_MAX_REBUILDS):
        instance = build(np.random.default_rng(child))
        if instance is not None:
            return instance
    raise NumericsError(f"could not build a kink-free {what} instance")


def _coord_clear_of_kinks(
    coords: np.ndarray, length: int, margin: float
) -> np.ndarray:
    """True where a coordinate sits safely inside one interpolation cell."""
    inside = np.abs(coords) <= 1.0 + margin
    idx = (np.clip(coords, -1.0, 1.0) + 1.0) * 0.5 * (length - 1)
    threshold = margin * (length - 1) * 0.5
    near_edge = np.abs(idx - np.round(idx)) < threshold
    return ~(inside & near_edge)


def _grid_safe_mask(grid: np.ndarray, dims: tuple[int, int, int], margin: float):
    t_len, h_len, w_len = dims
    return np.stack(
        [
            _coord_clear_of_kinks(grid[..., 0], w_len, margin),
            _coord_clear_of_kinks(grid[..., 1], h_len, margin),
            _coord_clear_of_kinks(grid[..., 2], t_len, margin),
        ],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# Individual check families
# ---------------------------------------------------------------------------


def check_sampler_grid(seed_seq: np.random.SeedSequence) -> float:
    """Resampler output w.r.t. grid coordinates."""
    rng = np.random.default_rng(seed_seq)
    video = rng.normal(size=(1, 2, 5, 6, 7))
    grid = rng.uniform(-1.05, 1.05, size=(1, 1, 3, 4, 5, 3))
    weight = rng.normal(size=(1, 2, 3, 4, 5))
    analytic = sample_backward(weight, sample(video, grid)[1]).reshape(grid.shape)

    def objective(g):
        return float(np.sum(weight * resample(video, g)))

    numeric = central_difference(objective, grid)
    # Comparisons are only fair where no perturbation can cross a cell edge
    # or the clamp threshold.
    safe = _grid_safe_mask(grid[0], video.shape[2:], margin=1e-4)[None]
    return max_relative_error(analytic[safe], numeric[safe])


def check_interval_map(seed_seq: np.random.SeedSequence) -> float:
    """Unit-params -> physical-params mapping, including the coupled offsets."""
    rng = np.random.default_rng(seed_seq)
    bounds = ParamBounds(
        spatial_scale_range=(rng.uniform(0.3, 0.6), rng.uniform(0.65, 0.95)),
        temporal_scale_range=(rng.uniform(0.3, 0.6), rng.uniform(0.65, 0.95)),
        angle_range=(rng.uniform(-0.6, -0.1), rng.uniform(0.1, 0.6)),
    )
    unit = rng.random((1, 6))
    weight = rng.normal(size=(1, 6))
    full_mask = np.ones((1, 6), dtype=bool)
    analytic = clamp_params_backward(weight, unit, bounds, full_mask)

    def objective(v):
        return float(np.vdot(weight, clamp_params(v, bounds)))

    numeric = central_difference(objective, unit)
    return max_relative_error(analytic, numeric)


def check_grid_transform(seed_seq: np.random.SeedSequence) -> float:
    """Transformed grid coordinates w.r.t. the six crop parameters."""
    rng = np.random.default_rng(seed_seq)
    grid = rng.uniform(-1.0, 1.0, size=(2, 3, 4, 3))
    weight = rng.normal(size=grid.shape)
    params = np.array(
        [[
            rng.uniform(0.4, 0.9),
            rng.uniform(0.4, 0.9),
            rng.uniform(-0.7, 0.7),
            rng.uniform(-0.3, 0.3),
            rng.uniform(-0.3, 0.3),
            rng.uniform(-0.3, 0.3),
        ]]
    )
    analytic = transform_grid_backward(weight[None], grid, params)

    def objective(p):
        return float(np.sum(weight * transform_grid(grid, build_affine_matrix(p))))

    numeric = central_difference(objective, params)
    return max_relative_error(analytic, numeric)


def check_nt_xent(seed_seq: np.random.SeedSequence) -> float:
    """Contrastive loss w.r.t. raw (unnormalised) embedding rows."""
    rng = np.random.default_rng(seed_seq)
    num_samples = int(rng.integers(2, 5))
    cfg = LossConfig(temperature=0.1, num_samples=num_samples)
    emb = rng.normal(size=(2 * num_samples, 6))
    analytic = nt_xent_backward(emb, cfg)

    def objective(e):
        return nt_xent(e, cfg)

    numeric = central_difference(objective, emb)
    return max_relative_error(analytic, numeric)


def _encoder_instance(rng: np.random.Generator):
    enc = ToyEncoder.initialise(rng, in_channels=2, conv_channels=3, embed_dim=5)
    video = rng.normal(size=(1, 2, 4, 6, 5))
    _, cache = encode(video, enc)
    if np.min(np.abs(cache.conv_pre)) > 3e-5 and np.min(cache.norm) > 1e-3:
        return enc, video, rng
    return None


def check_encoder(seed_seq: np.random.SeedSequence) -> float:
    """Encoder embedding w.r.t. all weights and the input clip."""
    enc, video, rng = _screened(seed_seq, _encoder_instance, "encoder")
    weight = rng.normal(size=(1, enc.embed_dim))
    _, cache = encode(video, enc)
    grads, grad_video = encode_backward(weight, cache, enc)

    def objective(x, e):
        emb, _ = encode(x, e)
        return float(np.sum(weight * emb))

    worst = _weights_error(enc, grads, lambda e: objective(video, e))
    numeric = central_difference(lambda x: objective(x, enc), video)
    return max(worst, max_relative_error(grad_video, numeric))


def _mlp_instance(rng: np.random.Generator):
    state = CropperState.initialise(rng, noise_dim=5, hidden_dim=7, init_scale=0.1)
    noise = rng.random((1, 5))
    _, cache = mlp_forward(noise, state)
    if np.min(np.abs(cache.hidden_pre)) > 1e-5:
        return state, noise, rng
    return None


def check_generator_mlp(seed_seq: np.random.SeedSequence) -> float:
    """Generator unit-params w.r.t. both weight matrices."""
    state, noise, rng = _screened(seed_seq, _mlp_instance, "generator")
    weight = rng.normal(size=(1, 6))
    _, cache = mlp_forward(noise, state)

    def objective(s):
        out, _ = mlp_forward(noise, s)
        return float(np.vdot(weight, out))

    return _weights_error(state, mlp_backward(weight, cache, state), objective)


# ---------------------------------------------------------------------------
# Full chain: generator weights -> crop -> encoder -> contrastive loss
# ---------------------------------------------------------------------------


@dataclass
class ChainInstance:
    """A frozen tiny adversarial problem for end-to-end gradient checks."""

    videos: np.ndarray  # (num_samples, C, T, H, W)
    encoder: ToyEncoder
    croppers: tuple[CropperState, CropperState]
    noises: np.ndarray  # (num_samples, 2, noise_dim)
    bounds: ParamBounds
    crop_grid: np.ndarray
    loss_cfg: LossConfig


def _chain_forward(inst: ChainInstance, croppers, backward: bool):
    """The training step's forward on *inst*: ``(loss, tape, units, mlp_caches)``.

    The sampler jacobian is computed only with *backward*; the numerical
    side of the checks never runs a backward.
    """
    units, caches = generate(inst.noises.swapaxes(0, 1), croppers)
    loss, _, tape = chain_forward(
        units, inst.videos, inst.bounds, inst.crop_grid, inst.encoder,
        inst.loss_cfg, backward,
    )
    return loss, tape, units, caches


def chain_loss(inst: ChainInstance, croppers=None) -> float:
    return _chain_forward(inst, croppers or inst.croppers, backward=False)[0]


def chain_cropper_grads(
    inst: ChainInstance, reverse: bool = False
) -> list[dict[str, np.ndarray]]:
    """Analytic loss gradients for both generators' weights, field-keyed.

    With ``reverse=True`` the gradient is sign-flipped at the generator
    output exactly as the adversarial training step does.
    """
    _, tape, units, caches = _chain_forward(inst, inst.croppers, backward=True)
    _, grad_units = chain_backward(
        tape, apply_early_stop(units, inst.bounds.detach_bound),
        inst.bounds, inst.crop_grid, inst.encoder, inst.loss_cfg,
    )
    if reverse:
        grad_units = reverse_gradient(grad_units)
    return generate_backward(grad_units, caches, inst.croppers)


def build_chain_instance(seed_seq: np.random.SeedSequence) -> ChainInstance:
    """Build a tiny chain whose loss is locally smooth in the weights.

    Generator weights are initialised larger than in training (0.3 rather
    than 0.01), and draws whose weight gradients fall below ~2e-3 are
    re-rolled: the objective is computed to ~1e-15 absolute, so a central
    difference with h = 1e-6 carries ~1e-9 of rounding noise, and only
    instances with healthy gradient magnitude can be compared at 1e-5
    relative tolerance.  Screening re-rolls the dice; it never edits values.
    """
    bounds = ParamBounds(
        spatial_scale_range=(0.45, 0.9),
        temporal_scale_range=(0.45, 0.9),
        angle_range=(-0.4, 0.4),
        detach_bound=0.0,
    )
    crop_grid = generate_grid(4, 5, 5)
    loss_cfg = LossConfig(temperature=0.05, num_samples=2)

    def build(rng: np.random.Generator) -> ChainInstance | None:
        videos = make_synthetic_batch(rng, 2, (2, 8, 10, 10))
        encoder = ToyEncoder.initialise(
            rng, in_channels=2, conv_channels=3, embed_dim=6
        )
        croppers = tuple(
            CropperState.initialise(rng, noise_dim=6, hidden_dim=8, init_scale=0.3)
            for _ in range(2)
        )
        noises = rng.random((2, 2, 6))
        inst = ChainInstance(
            videos=videos, encoder=encoder, croppers=croppers, noises=noises,
            bounds=bounds, crop_grid=crop_grid, loss_cfg=loss_cfg,
        )
        if _chain_is_smooth(inst) and _chain_is_well_conditioned(inst):
            return inst
        return None

    return _screened(seed_seq, build, "chain")


def _chain_is_well_conditioned(inst: ChainInstance) -> bool:
    grads = chain_cropper_grads(inst)
    smallest_scale = min(
        np.max(np.abs(g)) for branch in grads for g in branch.values()
    )
    return smallest_scale > 2e-3


def _chain_is_smooth(inst: ChainInstance) -> bool:
    _, tape, units, caches = _chain_forward(inst, inst.croppers, backward=False)
    _, grids = crop_grids(units, inst.bounds, inst.crop_grid)
    if not np.all(_grid_safe_mask(grids, inst.videos.shape[2:], margin=1e-5)):
        return False
    if any(np.min(np.abs(c.hidden_pre)) <= 1e-5 for c in caches):
        return False
    enc_cache = tape[-1]
    return np.min(np.abs(enc_cache.conv_pre)) > 1e-5 and np.min(enc_cache.norm) > 1e-3


def check_full_chain(seed_seq: np.random.SeedSequence) -> float:
    """End-to-end: generator weights through crop, encoder and loss."""
    inst = build_chain_instance(seed_seq)
    worst = 0.0
    for branch, grads in enumerate(chain_cropper_grads(inst, reverse=False)):
        def objective(state, branch=branch):
            states = list(inst.croppers)
            states[branch] = state
            return chain_loss(inst, tuple(states))

        worst = max(worst, _weights_error(inst.croppers[branch], grads, objective))
    return worst


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


CHECK_FAMILIES = {
    "sampler_grid": check_sampler_grid,
    "interval_map": check_interval_map,
    "grid_transform": check_grid_transform,
    "nt_xent": check_nt_xent,
    "encoder": check_encoder,
    "generator_mlp": check_generator_mlp,
    "full_chain": check_full_chain,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    num_seeds: int
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def run_all(
    base_seed: int = 0,
    num_seeds: int = 20,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[CheckResult]:
    """Run every family over *num_seeds* independent instances."""
    if num_seeds < 1:
        raise ConfigError(f"num_seeds: must be >= 1, got {num_seeds}")
    if base_seed < 0:
        raise ConfigError(f"base_seed: must be >= 0, got {base_seed}")
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigError(f"tolerance: must be finite and > 0, got {tolerance}")
    results = []
    root = np.random.SeedSequence(base_seed)
    for name, fn in CHECK_FAMILIES.items():
        start = time.perf_counter()
        seeds = root.spawn(num_seeds)
        worst = max(fn(ss) for ss in seeds)
        results.append(
            CheckResult(
                name=name,
                max_error=worst,
                tolerance=tolerance,
                num_seeds=num_seeds,
                elapsed_s=time.perf_counter() - start,
            )
        )
    return results


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<14} max_err={r.max_error:.3e}  "
            f"tol={r.tolerance:.1e}  seeds={r.num_seeds}  "
            f"({r.elapsed_s:.2f}s)"
        )
    return "\n".join(lines) + "\n"
