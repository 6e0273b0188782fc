"""Central-difference verification of every hand-written backward pass.

Every check family is a screened random instance whose analytic gradient,
computed once, is checked by ``_weights_error`` (field-keyed weights) or
``_input_error`` (one input array), which re-derive it numerically from the
losses at +h and -h in each entry (h = 1e-6, float64 throughout).  Those
probes are evaluated in batched passes: a pass stacks at most
``_PASS_PROBES`` = 64 perturbed copies of the input on a new leading axis and
runs them as rows of the family's own batch-first calls (the views of one
``resample``, the rows of ``clamp_params``, ``transform_grid`` and
``encode``, the leading axes of ``nt_xent``, ``generate`` and
``chain_forward``, and the leading weight axes of ``mlp_forward`` and
``encode``).  So a pass holds at most 64 probes' intermediates, about 64
times one forward's, and an input of n entries costs ``ceil(2n / 64)``
calls instead of 2n.  On the largest family, ``full_chain``, that puts the
tracemalloc peak of a repeated call at about 1.6 MB (0.9 MB with passes of
16); a process's first call also counts the sampler jacobian and im2col
matrix that stay cached for the next (:mod:`paramcrop.buffers`).  The reported
figure is the worst absolute deviation normalised by the gradient's own
magnitude::

    err = max|analytic - numeric| / max(max|analytic|, max|numeric|, 1e-12)

which stays meaningful for gradients whose entries span several orders of
magnitude while still catching any per-entry formula error above ~1e-5 of
the gradient scale.  A non-finite entry on either side makes it ``inf``.

Finite differences are only valid away from kinks, so instances are screened:
sampling coordinates must keep clear of voxel boundaries and the clamp
threshold, ReLU pre-activations and generator hidden units must keep clear
of zero.  Degenerate draws are rejected and rebuilt from a spawned seed —
the screening never moves a value, it only re-rolls the dice.

The ``full_chain`` family checks the training step's own chain, not a copy:
it runs ``simulator``'s :func:`~paramcrop.simulator.generate`,
``chain_forward``, ``chain_backward`` and ``generate_backward`` on the stacked
generator pair, so a fault in any of them, or in how they order the two
branches, fails it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .affine import (
    ParamBounds,
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
    CROP_COLUMNS,
    chain_backward,
    chain_forward,
    crop_grids,
    generate,
    generate_backward,
    make_synthetic_batch,
)

DEFAULT_STEP = 1e-6
DEFAULT_TOLERANCE = 1e-5
DEFAULT_NUM_SEEDS = 20
_MAX_REBUILDS = 50
# Probes per pass of central_difference: at most this many perturbed copies
# of an input, and their intermediates, are alive at once.
_PASS_PROBES = 64


def central_difference(fn, x: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Numerical gradient at *x* of the scalar loss that *fn* gives per probe.

    *fn* takes a ``(k, *x.shape)`` stack of probes, each a copy of *x* with
    one entry moved by +h or -h, and returns their ``k`` losses.  Entry ``i``
    of the flattened *x* is probed at +h then -h; the ``2 * x.size`` probes
    go in that order in passes of at most ``_PASS_PROBES`` = 64, so *fn* runs
    ``ceil(2 * x.size / _PASS_PROBES)`` times.  A pass holds 64 probes'
    intermediates at once: ``full_chain``'s tracemalloc peak on a repeated
    call is about 1.6 MB (0.9 MB with passes of 16).  *x* is not modified.
    """
    shape = np.shape(x)
    flat = np.array(x, dtype=np.float64).reshape(-1)
    losses = np.empty(2 * flat.size)
    for start in range(0, len(losses), _PASS_PROBES):
        probes = np.arange(start, min(start + _PASS_PROBES, len(losses)))
        stack = np.repeat(flat[None], len(probes), axis=0)
        stack[np.arange(len(probes)), probes // 2] += np.where(probes % 2, -h, h)
        out = np.asarray(fn(stack.reshape((len(probes),) + shape)), dtype=np.float64)
        if out.shape != probes.shape:
            raise ValueError(f"fn returned shape {out.shape} for {len(probes)} probes")
        losses[probes] = out
    return ((losses[0::2] - losses[1::2]) / (2.0 * h)).reshape(shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst deviation, normalised by the larger gradient magnitude.

    ``inf`` when either side has a non-finite entry, so no comparison or
    ``max`` over errors can drop it.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != f.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {f.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))):
        return float("inf")
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(f), initial=0.0))
    if scale < 1e-12:
        return 0.0
    return float(np.max(np.abs(a - f)) / scale)


def _weights_error(weights, grads: dict[str, np.ndarray], losses,
                   stacked: bool = False) -> float:
    """Worst error of field-keyed *grads* of a loss of *weights*, field by field.

    *losses* takes *weights* with a leading probe axis on every field named
    in *grads*, the unprobed ones broadcast rather than copied, and returns
    one loss per probe.  With *stacked*, each generator on axis 0 is
    normalised by its own scale.
    """
    worst = 0.0
    for name, grad in grads.items():
        def probe_losses(stack, name=name):
            probes = {key: np.broadcast_to(getattr(weights, key),
                                           stack.shape[:1] + getattr(weights, key).shape)
                      for key in grads}
            return losses(replace(weights, **{**probes, name: stack}))

        numeric = central_difference(probe_losses, getattr(weights, name))
        pairs = zip(grad, numeric) if stacked else [(grad, numeric)]
        worst = max(worst, *(max_relative_error(a, f) for a, f in pairs))
    return worst


def _input_error(analytic: np.ndarray, losses, x: np.ndarray, keep=...) -> float:
    """Error of *analytic*, the gradient at *x* of the loss that *losses* gives
    per probe (see :func:`central_difference`), on its *keep* entries."""
    return max_relative_error(analytic[keep], central_difference(losses, x)[keep])


def _screened(seed_seq: np.random.SeedSequence, build, what: str):
    """The first non-None ``build(rng)``, one spawned child seed per try."""
    for child in seed_seq.spawn(_MAX_REBUILDS):
        instance = build(np.random.default_rng(child))
        if instance is not None:
            return instance
    raise NumericsError(f"could not build a kink-free {what} instance")


def _grid_safe_mask(grid: np.ndarray, dims: tuple[int, int, int], margin: float):
    """True where an (x, y, t) coordinate of *grid* sits safely inside one
    interpolation cell of a clip of (T, H, W) *dims*."""
    length = np.array(dims[::-1])
    inside = np.abs(grid) <= 1.0 + margin
    idx = (np.clip(grid, -1.0, 1.0) + 1.0) * 0.5 * (length - 1)
    threshold = margin * (length - 1) * 0.5
    near_edge = np.abs(idx - np.round(idx)) < threshold
    return ~(inside & near_edge)


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
    # Comparisons are only fair where no perturbation can cross a cell edge
    # or the clamp threshold.
    safe = _grid_safe_mask(grid[0], video.shape[2:], margin=1e-4)[None]

    def losses(grids):
        # The probes are views of the one clip, so one resample serves a pass.
        crops = resample(video, grids[:, 0].swapaxes(0, 1))
        return np.sum((weight * crops).reshape(len(crops), -1), axis=1)

    return _input_error(analytic, losses, grid, keep=safe)


def check_interval_map(seed_seq: np.random.SeedSequence) -> float:
    """Unit-params -> physical-params mapping, including the coupled offsets."""
    rng = np.random.default_rng(seed_seq)
    bounds = ParamBounds(
        spatial_scale_range=(rng.uniform(0.3, 0.6), rng.uniform(0.65, 0.95)),
        temporal_scale_range=(rng.uniform(0.3, 0.6), rng.uniform(0.65, 0.95)),
    )
    # Drawn six wide and read at the crop columns, as the training draws are.
    unit = rng.random((1, 6))[:, CROP_COLUMNS]
    weight = rng.normal(size=(1, 6))[:, CROP_COLUMNS]
    analytic = clamp_params_backward(weight, unit, bounds, np.ones((1, 5), dtype=bool))

    def losses(units):
        return clamp_params(units[:, 0], bounds) @ weight[0]

    return _input_error(analytic, losses, unit)


def check_grid_transform(seed_seq: np.random.SeedSequence) -> float:
    """Transformed grid coordinates w.r.t. the five crop parameters."""
    rng = np.random.default_rng(seed_seq)
    grid = rng.uniform(-1.0, 1.0, size=(2, 3, 4, 3))
    weight = rng.normal(size=grid.shape)
    # Drawn six wide and read at the crop columns, as the training draws are.
    params = rng.uniform([0.4, 0.4, 0.0, -0.3, -0.3, -0.3],
                         [0.9, 0.9, 0.0, 0.3, 0.3, 0.3])[None, CROP_COLUMNS]
    analytic = transform_grid_backward(weight[None], grid)

    def losses(probes):
        coords = transform_grid(grid, build_affine_matrix(probes[:, 0]))
        return np.sum((weight * coords).reshape(len(coords), -1), axis=1)

    return _input_error(analytic, losses, params)


def check_nt_xent(seed_seq: np.random.SeedSequence) -> float:
    """Contrastive loss w.r.t. raw (unnormalised) embedding rows."""
    rng = np.random.default_rng(seed_seq)
    num_samples = int(rng.integers(2, 5))
    cfg = LossConfig(temperature=0.1, num_samples=num_samples)
    emb = rng.normal(size=(2 * num_samples, 6))
    return _input_error(nt_xent_backward(emb, cfg), lambda es: nt_xent(es, cfg), emb)


def _encoder_is_smooth(cache, margin: float) -> bool:
    """ReLU pre-activations clear of zero by *margin*, embedding norms above 1e-3."""
    return np.min(np.abs(cache.conv_pre)) > margin and np.min(cache.norm) > 1e-3


def _encoder_instance(rng: np.random.Generator):
    enc = ToyEncoder.initialise(rng, in_channels=2, conv_channels=3, embed_dim=5)
    video = rng.normal(size=(1, 2, 4, 6, 5))
    _, cache = encode(video, enc)
    if _encoder_is_smooth(cache, margin=3e-5):
        return enc, video, cache, rng.normal(size=(1, enc.embed_dim))
    return None


def check_encoder(seed_seq: np.random.SeedSequence) -> float:
    """Encoder embedding w.r.t. all weights and the input clip."""
    enc, video, cache, weight = _screened(seed_seq, _encoder_instance, "encoder")
    grads, grad_video = encode_backward(weight, cache, enc)

    def losses(clips, e):
        # Weight probes are leading axes of one encode, clip probes its rows.
        return np.sum(weight * encode(clips, e)[0], axis=-1).ravel()

    return max(_weights_error(enc, grads, lambda probes: losses(video, probes)),
               _input_error(grad_video, lambda clips: losses(clips[:, 0], enc), video))


def _mlp_instance(rng: np.random.Generator):
    state = CropperState.initialise(rng, noise_dim=5, hidden_dim=7, init_scale=0.1)
    noise = rng.random((1, 5))
    _, cache = mlp_forward(noise, state)
    if np.min(np.abs(cache.hidden_pre)) > 1e-5:
        return state, noise, cache, rng.normal(size=(1, 6))
    return None


def check_generator_mlp(seed_seq: np.random.SeedSequence) -> float:
    """Generator unit-params w.r.t. both weight matrices."""
    state, noise, cache, weight = _screened(seed_seq, _mlp_instance, "generator")

    def losses(probes):
        # The probes are leading weight axes of one batched mlp_forward.
        units = mlp_forward(np.broadcast_to(noise, probes.w1.shape[:1] + noise.shape),
                            probes)[0]
        return units.reshape(len(units), -1) @ weight.ravel()

    return _weights_error(state, mlp_backward(weight, cache, state), losses)


# ---------------------------------------------------------------------------
# Full chain: generator weights -> crop -> encoder -> contrastive loss
# ---------------------------------------------------------------------------


@dataclass
class ChainInstance:
    """A frozen tiny adversarial problem for end-to-end gradient checks."""

    videos: np.ndarray  # (num_samples, C, T, H, W)
    encoder: ToyEncoder
    croppers: CropperState  # the pair, stacked on the branch axis
    noises: np.ndarray  # (2 * num_samples, noise_dim), in 2k + branch order
    bounds: ParamBounds
    crop_grid: np.ndarray
    loss_cfg: LossConfig


def _chain_forward(inst: ChainInstance, croppers, learn: bool):
    """The training step's forward on *inst*: ``(loss, tape, draws, mlp_cache)``.

    *learn* is ``chain_forward``'s: the numerical side of the checks passes
    False, since it never runs a backward.  *croppers* may carry a leading
    probe axis on both fields; the loss then has that leading shape.
    """
    draws, cache = generate(inst.noises, croppers)
    loss, _, tape = chain_forward(
        draws, inst.videos, inst.bounds, inst.crop_grid, inst.encoder,
        inst.loss_cfg, learn,
    )
    return loss, tape, draws, cache


def chain_loss(inst: ChainInstance, croppers=None):
    """The chain's loss, one per probe when *croppers* carry a probe axis."""
    return _chain_forward(inst, croppers or inst.croppers, learn=False)[0]


def chain_cropper_grads(
    inst: ChainInstance, reverse: bool = False
) -> dict[str, np.ndarray]:
    """Analytic loss gradients of the stacked generator pair's weights, field-keyed.

    With ``reverse=True`` the gradient is sign-flipped at the generator
    output exactly as the adversarial training step does.
    """
    _, tape, _, cache = _chain_forward(inst, inst.croppers, learn=True)
    return _cropper_grads(tape, cache, inst.croppers, reverse)


def _cropper_grads(tape, cache, croppers: CropperState, reverse: bool = False):
    """The pair's field-keyed weight gradients of a learning forward's *tape*
    and generator *cache*, reversed at the generator output if *reverse*."""
    _, grad_draws = chain_backward(tape)
    if reverse:
        grad_draws = reverse_gradient(grad_draws)
    return generate_backward(grad_draws, cache, croppers)


def build_chain_instance(
    seed_seq: np.random.SeedSequence,
) -> tuple[ChainInstance, dict[str, np.ndarray]]:
    """``(inst, chain_cropper_grads(inst))`` of a tiny chain, smooth in the weights.

    Generator weights are initialised larger than in training (0.3 rather
    than 0.01), and draws whose weight gradients fall below ~2e-3 are
    re-rolled: the objective is computed to ~1e-15 absolute, so a central
    difference with h = 1e-6 carries ~1e-9 of rounding noise, and only
    instances with healthy gradient magnitude can be compared at 1e-5
    relative tolerance.  Screening re-rolls the dice; it never edits values.
    One learning forward per try serves both the screen and the gradients,
    which are taken from its tape.
    """
    bounds = ParamBounds(
        spatial_scale_range=(0.45, 0.9),
        temporal_scale_range=(0.45, 0.9),
        detach_bound=0.0,
    )
    crop_grid = generate_grid(4, 5, 5)
    loss_cfg = LossConfig(temperature=0.05, num_samples=2)

    def build(rng: np.random.Generator):
        videos = make_synthetic_batch(rng, 2, (2, 8, 10, 10))
        encoder = ToyEncoder.initialise(
            rng, in_channels=2, conv_channels=3, embed_dim=6
        )
        croppers = CropperState.stacked(
            (rng, rng), noise_dim=6, hidden_dim=8, init_scale=0.3
        )
        noises = rng.random((4, 6))
        inst = ChainInstance(
            videos=videos, encoder=encoder, croppers=croppers, noises=noises,
            bounds=bounds, crop_grid=crop_grid, loss_cfg=loss_cfg,
        )
        _, tape, draws, cache = _chain_forward(inst, croppers, learn=True)
        _, grids = crop_grids(draws[:, CROP_COLUMNS], bounds, crop_grid)
        if not (np.all(_grid_safe_mask(grids, videos.shape[2:], margin=1e-5))
                and np.min(np.abs(cache.hidden_pre)) > 1e-5
                and _encoder_is_smooth(tape[-1], margin=1e-5)):
            return None
        # Every branch's own gradient scale of every field must be healthy.
        grads = _cropper_grads(tape, cache, croppers)
        scale = np.min([np.max(np.abs(g), axis=(1, 2)) for g in grads.values()])
        # A non-finite gradient is not small: it goes on to fail the check.
        return None if scale <= 2e-3 else (inst, grads)

    return _screened(seed_seq, build, "chain")


def check_full_chain(seed_seq: np.random.SeedSequence) -> float:
    """End-to-end: generator weights through crop, encoder and loss."""
    inst, grads = build_chain_instance(seed_seq)
    return _weights_error(inst.croppers, grads,
                          lambda croppers: chain_loss(inst, croppers), stacked=True)


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
    num_seeds: int = DEFAULT_NUM_SEEDS,
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
