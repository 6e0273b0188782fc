"""Desk-scale adversarial training simulator and crop-overlap metrics.

One run couples three learners: a toy encoder minimising a contrastive loss
over paired crops, and two crop-parameter generators (one per view branch)
receiving the *reversed* gradient, so they ascend the same loss and actively
push the two views apart.  Baseline strategies replace the generators with
fixed or scheduled crop placements; the encoder trains identically either way.

Geometry metrics are exact interval arithmetic on axis-aligned crop cubes in
the normalised [-1, 1]^3 clip volume.  They are computed from the mapped crop
parameters before any resampling, so they carry no interpolation error.

A training step is batch-first: the N clips of a step are one (N, C, T, H,
W) array, and all 2N crops travel as one leading row axis, row ``2k +
branch`` for view ``branch`` of clip ``k``, from the generator noise through
the (2N, 6) draws and their (2N, 5) crop parameters, the grid transform, the
sampler, the encoder and the loss, and back.  The generator pair is one
stacked ``CropperState``, so one forward and one backward serve both
branches.  That chain is four module
functions, :func:`generate`, :func:`chain_forward`, :func:`chain_backward`
and :func:`generate_backward`, which ``gradcheck``'s full-chain family runs
too; :func:`chain_forward` applies the detach band when the generators learn,
and the step adds the reversal and one
:func:`~paramcrop.paramgen.update_weights` each for the encoder and the pair.
The crop metrics compare the N view-A cubes with the N view-B cubes in one
call.  The sampler hands its coordinate jacobian to the backward, so the
clips are released right after sampling; and when the detach band masks
every parameter of a step, the crop gradient is not computed at all, since
it would be zeroed: the generators receive a zero draw gradient instead.
The chain transforms and samples only the encoder's footprint of the crop
grid, the leading points of each axis that its valid strided convolution
reads (7 x 15 x 15 of the default 8 x 16 x 16), since the other points'
values and gradients would be dropped or exactly zero.

A run logs one row per step into a structured array of
:data:`RECORD_DTYPE`, whose fields are the :data:`CSV_HEADER` columns in
order; :func:`render_csv` and the command-line writers read it by column.

Determinism: a run is a pure function of its config.  All randomness flows
from one seed through a fixed tree of spawned generators, and gradient
accumulation order is fixed, so identical configs give bit-identical metrics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .affine import (
    ParamBounds,
    apply_early_stop,
    build_affine_matrix,
    clamp_params,
    clamp_params_backward,
    generate_grid,
    grid_axis,
    transform_grid,
    transform_grid_backward,
)
from .contrastive import (
    KERNEL,
    LossConfig,
    ToyEncoder,
    encode,
    encode_backward,
    feature_shape,
    footprint,
    nt_xent,
    nt_xent_backward,
)
from .errors import ConfigError, DimensionError, TrainingError
from .paramgen import (
    CropperState,
    MlpCache,
    SgdMomentum,
    mlp_backward,
    mlp_forward,
    reverse_gradient,
    sample_noise,
    update_weights,
)
from .sampler import resample, sample, sample_backward

logger = logging.getLogger(__name__)

STRATEGIES = ("paramcrop", "random", "simple", "hard", "manual")

CSV_HEADER = "step,loss,iou,dist_raw,dist_norm,v_sp,v_st,v_theta,v_dx,v_dy,v_dt"
# A run-log row: the step, its loss, batch-mean crop metrics and unit params.
RECORD_DTYPE = np.dtype([(name, np.int64 if name == "step" else np.float64)
                         for name in CSV_HEADER.split(",")])
# The draw columns a crop reads.  Column 2, the retired rotation angle, is
# still drawn so that every random stream, the generator weights and the
# logged ``v_theta`` keep their bytes; it takes an exact 0 gradient.
CROP_COLUMNS = [0, 1, 3, 4, 5]
# The most 8-byte values one numpy array can hold: its byte size must fit
# a signed index.
_MAX_VALUES = np.iinfo(np.intp).max // 8


# ---------------------------------------------------------------------------
# Crop cubes and overlap metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CropCube:
    """N axis-aligned cubes in the normalised clip volume.

    ``center`` and ``half`` are (N, 3) arrays of (x, y, t); cube ``i`` spans
    ``center[i] - half[i]`` to ``center[i] + half[i]`` per axis.
    """

    center: np.ndarray
    half: np.ndarray

    @property
    def intervals(self) -> np.ndarray:
        """(N, 3, 2) array of per-axis (low, high) bounds."""
        return np.stack([self.center - self.half, self.center + self.half], axis=-1)

    @property
    def volume(self) -> np.ndarray:
        """(N,) cube volumes."""
        return np.prod(2.0 * self.half, axis=-1)


def crop_cube(params: np.ndarray) -> CropCube:
    """Cubes covered by N crops given as (N, 5) params."""
    half, center = build_affine_matrix(params).swapaxes(0, 1)
    return CropCube(center=center, half=half)


def st_iou(a: CropCube, b: CropCube) -> np.ndarray:
    """(N,) intersection-over-union of cube ``a[i]`` with cube ``b[i]``."""
    ia, ib = a.intervals, b.intervals
    overlap = np.minimum(ia[..., 1], ib[..., 1]) - np.maximum(ia[..., 0], ib[..., 0])
    inter = np.prod(np.maximum(overlap, 0.0), axis=-1)
    union = a.volume + b.volume - inter
    return inter / union


def center_manhattan(a: CropCube, b: CropCube) -> tuple[np.ndarray, np.ndarray]:
    """(N,) Manhattan distances between cube centres, raw and normalised.

    The normaliser is the largest Manhattan distance reachable at the cubes'
    own sizes (per axis, each centre can stray at most ``1 - half`` from the
    origin).  When both cubes fill the clip the normaliser is zero and the
    normalised distance is defined as zero.
    """
    raw = np.sum(np.abs(a.center - b.center), axis=-1)
    denom = np.sum((1.0 - a.half) + (1.0 - b.half), axis=-1)
    norm = np.zeros_like(raw)
    np.divide(raw, denom, out=norm, where=denom > 0.0)
    return raw, np.minimum(norm, 1.0)


# ---------------------------------------------------------------------------
# Baseline crop strategies
# ---------------------------------------------------------------------------


def _manual_ramp(step: int, total_steps: int, breakpoint_frac: float) -> float:
    if total_steps <= 1:
        return 0.0
    pos = step / (total_steps - 1)
    if pos <= breakpoint_frac:
        return 0.0
    return (pos - breakpoint_frac) / (1.0 - breakpoint_frac)


def baseline_params(
    strategy: str,
    step: int,
    total_steps: int,
    rng: np.random.Generator,
    count: int,
    jitter: float = 0.0,
    manual_breakpoint: float = 0.0,
) -> np.ndarray:
    """(count, 2, 6) unit params: views A and B of each of *count* samples.

    Strategies
    ----------
    random
        Both views drawn uniformly from [0, 1]^6.
    simple
        Two full-size centred crops (maximal overlap).
    hard
        Minimum-size crops pinned to opposite corners (minimal overlap).
    manual
        Minimum-size crops whose centre separation ramps linearly from 0 to
        the maximum over the run; ``manual_breakpoint`` delays the ramp to
        the late fraction of the run.

    ``jitter`` adds uniform noise of that amplitude to the deterministic
    placements (ignored for ``random``), then clips back to [0, 1].
    """
    if strategy == "random":
        return rng.random((count, 2, 6))
    if strategy == "simple":
        base = [[1.0, 1.0, 0.5, 0.5, 0.5, 0.5]] * 2
    elif strategy == "hard":
        base = [[0.0, 0.0, 0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 1.0, 1.0, 1.0]]
    elif strategy == "manual":
        gap = _manual_ramp(step, total_steps, manual_breakpoint)
        base = [[0.0, 0.0, 0.5] + [0.5 - gap / 2.0] * 3,
                [0.0, 0.0, 0.5] + [0.5 + gap / 2.0] * 3]
    else:
        raise ConfigError(f"unknown crop strategy '{strategy}'")
    units = np.tile(np.array(base), (count, 1, 1))
    if jitter > 0.0:
        units = np.clip(units + rng.uniform(-jitter, jitter, units.shape), 0.0, 1.0)
    return units


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def make_synthetic_batch(
    rng: np.random.Generator, count: int, shape: tuple[int, int, int, int]
) -> np.ndarray:
    """Generate a (count, C, T, H, W) batch of moving Gaussian blobs over noise.

    Each clip gets a random start position, velocity, radius and per-channel
    colour, so position in space *and* time is informative — exactly what a
    crop-placement adversary needs to exploit.  Values are non-negative and
    vary smoothly, which keeps resampling gradients well behaved.

    The blob centre offsets are computed per axis, on (T, 1, W) and (T, H, 1)
    arrays, and only the exp runs over every voxel; the values are those of
    the per-voxel formula, bit for bit.
    """
    if count < 1:
        raise ConfigError(f"batch count must be >= 1, got {count}")
    channels, t_len, h_len, w_len = shape
    # x varies along W only, y along H only and the centres along T only, so
    # the offsets are taken on (T, 1, W) and (T, H, 1) arrays; their sum
    # broadcasts to the full (T, H, W) exp argument.
    x, y = grid_axis(w_len), grid_axis(h_len)[:, None]
    t = grid_axis(t_len)[:, None, None]
    clips = np.empty((count,) + tuple(shape))
    for clip in clips:
        start = rng.uniform(-0.5, 0.5, 2)
        velocity = rng.uniform(-0.5, 0.5, 2)
        radius = rng.uniform(0.2, 0.4)
        colour = rng.uniform(0.5, 1.0, channels)
        noise = rng.random((channels, t_len, h_len, w_len))
        noise *= 0.05
        cx = start[0] + velocity[0] * t
        cy = start[1] + velocity[1] * t
        blob = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * radius**2))
        np.multiply(colour[:, None, None, None], blob, out=clip)
        clip += noise
    return clips


# ---------------------------------------------------------------------------
# Training configuration
# ---------------------------------------------------------------------------


def _parse_shape(text: str, rank: int, field_name: str) -> tuple[int, ...]:
    parts = text.lower().split("x")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{field_name}: expected INTxINT..., got {text!r}") from exc
    if len(dims) != rank:
        raise ConfigError(f"{field_name}: expected {rank} dims, got {len(dims)}")
    return dims


def _parse_bool(text: str, field_name: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{field_name}: expected true/false, got {text!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Full description of one simulator run.  See field names for meaning.

    Shapes are (channels, frames, height, width) for the input clips and
    (frames, height, width) for the crop.  Construction also builds
    ``bounds`` (:class:`~paramcrop.affine.ParamBounds`) and ``loss_cfg``
    (:class:`~paramcrop.contrastive.LossConfig`), which validate the scale,
    detach and temperature fields, so no other site re-checks them.
    """

    steps: int = 2000
    batch_size: int = 8
    input_shape: tuple[int, int, int, int] = (3, 16, 32, 32)
    crop_shape: tuple[int, int, int] = (8, 16, 16)
    strategy: str = "paramcrop"
    seed: int = 0
    temperature: float = 0.1
    encoder_lr: float = 0.05
    # Tuned so the adversarial escape lands inside a 2000-step run: low
    # enough that the first ~10% of steps stay near-identical crops, high
    # enough that the generators saturate their detach band well before the
    # end.
    cropper_lr: float = 0.05
    momentum: float = 0.9
    spatial_scale_min: float = 0.5
    spatial_scale_max: float = 1.0
    temporal_scale_min: float = 0.5
    temporal_scale_max: float = 1.0
    detach_bound: float = 0.2
    noise_dim: int = 16
    hidden_dim: int = 32
    embed_dim: int = 32
    conv_channels: int = 8
    probe_samples: int = 64
    baseline_jitter: float = 0.02
    manual_breakpoint: float = 0.0
    random_flip: bool = False
    pre_crop: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for name in ("steps", "batch_size", "noise_dim", "hidden_dim", "embed_dim",
                     "conv_channels", "probe_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy: unknown value '{self.strategy}' "
                f"(choose from {', '.join(STRATEGIES)})"
            )
        if len(self.input_shape) != 4 or min(self.input_shape) < 1:
            raise ConfigError(f"input_shape: bad dims {self.input_shape}")
        if len(self.crop_shape) != 3 or min(self.crop_shape) < KERNEL:
            raise ConfigError(
                f"crop_shape: every crop axis must be >= {KERNEL} (encoder kernel), "
                f"got {self.crop_shape}"
            )
        if min(self.input_shape[1:]) < 2:
            raise ConfigError(f"input_shape: axes must be >= 2, got {self.input_shape}")
        for axis, (crop_n, full_n) in enumerate(
            zip(self.crop_shape, self.input_shape[1:])
        ):
            if crop_n > full_n:
                raise ConfigError(
                    f"crop_shape: axis {axis} ({crop_n}) exceeds input ({full_n})"
                )
        for names, what, count in self._array_sizes():
            if count > _MAX_VALUES:
                raise ConfigError(
                    f"{', '.join(names)}: the {what} would hold {count} 8-byte "
                    f"values, more than numpy can index ({_MAX_VALUES})"
                )
        object.__setattr__(
            self, "loss_cfg", LossConfig(self.temperature, self.batch_size)
        )
        for name in ("encoder_lr", "cropper_lr"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name}: must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum: must lie in [0, 1), got {self.momentum}")
        object.__setattr__(self, "bounds", ParamBounds(
            spatial_scale_range=(self.spatial_scale_min, self.spatial_scale_max),
            temporal_scale_range=(self.temporal_scale_min, self.temporal_scale_max),
            detach_bound=self.detach_bound,
        ))
        if not 0.0 <= self.baseline_jitter <= 0.5:
            raise ConfigError(
                f"baseline_jitter: must lie in [0, 0.5], got {self.baseline_jitter}"
            )
        if not 0.0 <= self.manual_breakpoint < 1.0:
            raise ConfigError(
                f"manual_breakpoint: must lie in [0, 1), got {self.manual_breakpoint}"
            )

    def _array_sizes(self) -> list[tuple[tuple[str, ...], str, int]]:
        """``(fields, array, count of 8-byte values)`` of the arrays a run allocates.

        Counted for every strategy, with the clips one per crop row and the
        crops and jacobian at the encoder's footprint.
        """
        rows, (channels, *axes) = 2 * self.batch_size, self.input_shape
        clip = math.prod(axes)
        crop = math.prod(footprint(self.crop_shape))
        positions = math.prod(feature_shape(self.crop_shape))
        taps = channels * KERNEL**3
        shape = ("batch_size", "input_shape")
        return [
            (shape, "clips", rows * channels * clip),
            (shape, "pre-crop grids", rows * clip * 3),
            (shape + ("crop_shape",), "sampler jacobian", rows * 3 * channels * crop),
            (shape + ("crop_shape",), "im2col matrix", rows * positions * taps),
            (("batch_size", "crop_shape", "conv_channels"), "conv pre-activations",
             rows * positions * self.conv_channels),
            (("input_shape", "conv_channels"), "conv weights",
             self.conv_channels * taps),
            (("embed_dim", "conv_channels"), "projection weights",
             self.embed_dim * self.conv_channels),
            (("batch_size", "embed_dim"), "embeddings", rows * self.embed_dim),
            (("batch_size",), "loss logits", rows * rows),
            (("batch_size", "noise_dim"), "generator noise", rows * self.noise_dim),
            (("batch_size", "hidden_dim"), "generator hidden layer",
             rows * self.hidden_dim),
            (("noise_dim", "hidden_dim"), "generator weights",
             2 * self.noise_dim * self.hidden_dim),
            (("probe_samples", "noise_dim"), "probe noise",
             2 * self.probe_samples * self.noise_dim),
            (("probe_samples", "hidden_dim"), "probe hidden layer",
             2 * self.probe_samples * self.hidden_dim),
            (("steps",), "run log", self.steps * len(RECORD_DTYPE)),
        ]


def config_to_pairs(cfg: TrainConfig) -> dict[str, str]:
    """Flatten a config to text values in canonical field order.

    A tuple default is written as a shape ``AxB...``, a bool as true/false.
    """
    out: dict[str, str] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(f.default, tuple):
            out[f.name] = "x".join(str(d) for d in value)
        elif isinstance(f.default, bool):
            out[f.name] = "true" if value else "false"
        else:
            out[f.name] = repr(value) if isinstance(value, float) else str(value)
    return out


# Keys of the removed in-plane rotation, accepted at 0 so old manifests replay.
_RETIRED_ANGLE_KEYS = ("angle_min", "angle_max")


def config_from_pairs(
    pairs: dict[str, str], base: TrainConfig | None = None
) -> TrainConfig:
    """Apply text overrides to *base* (default config when omitted).

    Each value is parsed by the type of the field's default, as
    :func:`config_to_pairs` writes it.  Unknown keys and unparsable values
    raise :class:`ConfigError` naming the offending field.  The retired
    rotation keys ``angle_min`` and ``angle_max``, which older manifests hold
    as 0.0, are dropped when they parse to exactly 0 and rejected otherwise.
    """
    base = base if base is not None else TrainConfig()
    defaults = {f.name: f.default for f in fields(base)}
    updates: dict[str, object] = {}
    for key, text in pairs.items():
        if key in _RETIRED_ANGLE_KEYS:
            try:
                if float(text) == 0.0:
                    continue
            except ValueError:
                pass
            raise ConfigError(
                f"angle_range: rotation was removed, so {key} must be 0, got {text!r}"
            )
        if key not in defaults:
            raise ConfigError(f"unknown config key '{key}'")
        default = defaults[key]
        if isinstance(default, tuple):
            updates[key] = _parse_shape(text, len(default), key)
        elif isinstance(default, bool):  # bool("false") would be True
            updates[key] = _parse_bool(text, key)
        elif isinstance(default, str):
            updates[key] = text.strip()
        else:
            caster = type(default)
            try:
                updates[key] = caster(text)
            except ValueError as exc:
                raise ConfigError(
                    f"{key}: cannot parse {text!r} as {caster.__name__}"
                ) from exc
    return replace(base, **updates)


# ---------------------------------------------------------------------------
# Run log
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Canonical CSV float rendering: 9 significant digits."""
    return f"{x:.9g}"


def render_csv(records: np.ndarray) -> str:
    """A run log as CSV: the header, then one row per step, floats to 9 digits."""
    lines = [CSV_HEADER]
    lines.extend(",".join([str(step), *map(format_float, cells)])
                 for step, *cells in records.tolist())
    return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    """Everything a finished run hands back to callers.

    ``records`` is the run log, a (steps,) array of :data:`RECORD_DTYPE`
    whose fields are the :data:`CSV_HEADER` columns, so
    ``records["dist_norm"]`` is the distance trajectory.
    ``cropper_grad_max`` is a (steps,) array of each step's largest absolute
    generator weight-gradient (always 0.0 for baseline strategies) — used to
    verify that a full detach band really silences the adversary.
    ``croppers`` is the trained generator pair as one state stacked on axis 0
    (``croppers.w1[0]`` is view A's), or None for baseline strategies.
    """

    config: TrainConfig
    records: np.ndarray
    probe_iou: float
    probe_dist_norm: float
    cropper_grad_max: np.ndarray
    encoder: ToyEncoder
    croppers: CropperState | None


# ---------------------------------------------------------------------------
# The crop chain: generator noise -> crops -> encoder -> loss, and back
# ---------------------------------------------------------------------------


def generate(noise, croppers: CropperState) -> tuple[np.ndarray, MlpCache]:
    """(..., 2N, 6) draws of (2N, noise_dim) noise, both in 2k + branch order.

    Row ``2k + branch`` is generator ``branch`` on noise row ``2k + branch``.
    *croppers* is the pair stacked on the branch axis; leading probe axes
    ``...`` before it, on both fields (a field that is not probed can be
    broadcast to them), give one generator pair per probe, all on the same
    noise.  The training step passes none.
    """
    lead = croppers.w1.shape[:-3]
    pair_noise = noise.reshape(-1, 2, noise.shape[-1]).swapaxes(0, 1)
    units, cache = mlp_forward(np.broadcast_to(pair_noise, lead + pair_noise.shape),
                               croppers)
    return units.swapaxes(-3, -2).reshape(lead + (-1, 6)), cache


def generate_backward(grad_draws, cache: MlpCache, croppers: CropperState) -> dict:
    """The pair's stacked field-keyed weight gradients of the (2N, 6) draw gradient."""
    return mlp_backward(grad_draws.reshape(-1, 2, 6).swapaxes(0, 1), cache, croppers)


def crop_grids(units: np.ndarray, bounds: ParamBounds, grid: np.ndarray):
    """(R, 5) physical params of (R, 5) unit params, and *grid* moved by each."""
    params = clamp_params(units, bounds)
    return params, transform_grid(grid, build_affine_matrix(params))


def chain_forward(draws: np.ndarray, clips: np.ndarray, bounds: ParamBounds,
                  crop_grid: np.ndarray, encoder: ToyEncoder, loss_cfg: LossConfig,
                  learn: bool):
    """``(loss, params, tape)`` of the crops that (..., 2N, 6) *draws* cut from *clips*.

    The crops read the :data:`CROP_COLUMNS` of the draws, their (..., 2N, 5)
    unit params.  *clips* are N clips (both views of clip ``k`` read clip
    ``k``) or one per row, and are released once sampled.  Only the encoder's
    :func:`~paramcrop.contrastive.footprint` of *crop_grid* is transformed and
    sampled: the crops, and the jacobian, cover the leading points of each
    axis that the encoder reads, and give the loss of the full grid.
    *params* are the (..., 2N, 5) physical params; *tape* is ``(bounds,
    crop_grid, encoder, loss_cfg, units, mask, jacobian, embeddings,
    enc_cache)``, with the (2N, 5) unit params.  Its mask is the detach
    band's if *learn* (the generators learn from this forward), else None;
    its jacobian, which the unit gradient needs, is None unless the mask has
    a live entry.

    Leading probe axes ``...`` on *draws* are probes of the 2N rows against
    the same clips, sampled and encoded as rows of one call each; the loss
    then has the leading shape.  Only a forward that does not learn takes
    them, since :func:`chain_backward` reads (2N, 5) units.
    """
    units = draws[..., CROP_COLUMNS]
    lead = units.shape[:-2]
    if learn and lead:
        raise DimensionError(
            f"a learning forward takes (2N, 6) draws, got shape {draws.shape}"
        )
    mask = apply_early_stop(units, bounds.detach_bound) if learn else None
    # Rows go clip-major, (clip, probe, row of the clip), so that each clip's
    # views are contiguous in the grids without a copy.
    n_clips, probes = len(clips), int(np.prod(lead))
    rows = units.reshape((probes, n_clips, -1, 5)).swapaxes(0, 1).reshape(-1, 5)
    t, h, w = footprint(crop_grid.shape[:-1])
    params, grids = crop_grids(rows, bounds, crop_grid[:t, :h, :w])
    views = grids.reshape((n_clips, -1) + grids.shape[1:])
    del grids
    if mask is not None and mask.any():
        crops, jacobian = sample(clips, views)
    else:
        crops, jacobian = resample(clips, views), None
    del clips, views
    embeddings, enc_cache = encode(crops, encoder)
    # Back to probe-major (..., 2N, D) and (..., 2N, 5) rows.
    embeddings, params = (
        a.reshape((n_clips, probes, -1, a.shape[-1])).swapaxes(0, 1)
        .reshape(lead + (-1, a.shape[-1])) for a in (embeddings, params)
    )
    loss = nt_xent(embeddings, loss_cfg)
    return loss, params, (bounds, crop_grid, encoder, loss_cfg, units, mask,
                          jacobian, embeddings, enc_cache)


def chain_backward(tape):
    """Encoder gradients and the (2N, 6) draw gradient of the loss on *tape*.

    The gradient passes through the tape's detach mask, is not reversed, is
    exactly 0 off the :data:`CROP_COLUMNS`, and is zero everywhere when the
    forward ran without a jacobian.  The coordinate gradient of the sampled
    footprint is placed in a zero gradient over the whole crop grid, so the
    grid reductions of
    :func:`~paramcrop.affine.transform_grid_backward` sum what a full-grid
    chain sums, where the points outside the footprint contribute exact zeros.
    """
    (bounds, crop_grid, encoder, loss_cfg, units, mask, jacobian, embeddings,
     enc_cache) = tape
    grad_rows = nt_xent_backward(embeddings, loss_cfg)
    enc_grads, grad_crops = encode_backward(
        grad_rows, enc_cache, encoder, input_grad=jacobian is not None
    )
    grad_draws = np.zeros((len(units), 6))
    if jacobian is None:
        return enc_grads, grad_draws
    # Zero outside the footprint, laid out axis-major per row as
    # sample_backward's are, so the reductions over the grid read the same
    # strides, and sum the same values in the same order, as on a full crop.
    grad_coords = np.moveaxis(np.zeros((len(units), 3) + crop_grid.shape[:-1]), 1, -1)
    t, h, w = grad_crops.shape[2:]
    grad_coords[:, :t, :h, :w] = sample_backward(grad_crops, jacobian)
    grad_params = transform_grid_backward(grad_coords, crop_grid)
    grad_draws[:, CROP_COLUMNS] = clamp_params_backward(grad_params, units, bounds, mask)
    return enc_grads, grad_draws


def crop_metrics(params: np.ndarray) -> tuple[float, float, float]:
    """Mean IoU, raw and normalised centre distance of (2N, 5) view pairs.

    Raises :class:`TrainingError` if a crop cube reaches outside the clip.
    """
    cube_a, cube_b = crop_cube(params[0::2]), crop_cube(params[1::2])
    for cube in (cube_a, cube_b):
        iv = cube.intervals
        if np.any(iv[..., 0] < -1.0) or np.any(iv[..., 1] > 1.0):
            raise TrainingError(f"crop cube escaped the clip volume: {iv.tolist()}")
    raw, norm = center_manhattan(cube_a, cube_b)
    iou = st_iou(cube_a, cube_b)
    return float(np.mean(iou)), float(np.mean(raw)), float(np.mean(norm))


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------


class _Trainer:
    """Owns all mutable run state; one instance per call to run_training."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        root = np.random.SeedSequence(cfg.seed)
        (
            data_ss, enc_ss, crop_a_ss, crop_b_ss,
            noise_a_ss, noise_b_ss, baseline_ss, probe_ss, flip_ss, precrop_ss,
        ) = root.spawn(10)
        self.data_rng = np.random.default_rng(data_ss)
        self.baseline_rng = np.random.default_rng(baseline_ss)
        self.probe_rng = np.random.default_rng(probe_ss)
        self.flip_rng = np.random.default_rng(flip_ss)
        self.precrop_rng = np.random.default_rng(precrop_ss)
        self.noise_rngs = (
            np.random.default_rng(noise_a_ss),
            np.random.default_rng(noise_b_ss),
        )
        self.encoder = ToyEncoder.initialise(
            np.random.default_rng(enc_ss),
            in_channels=cfg.input_shape[0],
            conv_channels=cfg.conv_channels,
            embed_dim=cfg.embed_dim,
        )
        self.enc_opt = SgdMomentum(cfg.encoder_lr, cfg.momentum)
        self.adversarial = cfg.strategy == "paramcrop"
        self.croppers = self.crop_opt = None
        if self.adversarial:
            self.croppers = CropperState.stacked(
                [np.random.default_rng(ss) for ss in (crop_a_ss, crop_b_ss)],
                noise_dim=cfg.noise_dim, hidden_dim=cfg.hidden_dim,
            )
            self.crop_opt = SgdMomentum(cfg.cropper_lr, cfg.momentum)
        self.crop_grid = generate_grid(*cfg.crop_shape)
        self.input_grid = generate_grid(*cfg.input_shape[1:])

    # -- parameter draws ---------------------------------------------------

    def _baseline(self, step: int, rng: np.random.Generator, count: int) -> np.ndarray:
        """(2 * count, 6) baseline draws in 2k + branch order."""
        cfg = self.cfg
        return baseline_params(
            cfg.strategy, step, cfg.steps, rng, count,
            jitter=cfg.baseline_jitter, manual_breakpoint=cfg.manual_breakpoint,
        ).reshape(-1, 6)

    # -- probe -------------------------------------------------------------

    def probe(self) -> tuple[float, float]:
        """Mean overlap/distance of fresh parameter draws before training."""
        cfg = self.cfg
        count = cfg.probe_samples
        if self.adversarial:
            # One stream for both branches, drawn in 2k + branch order.
            draws, _ = generate(sample_noise(self.probe_rng, 2 * count, cfg.noise_dim),
                                self.croppers)
        else:
            draws = self._baseline(0, self.probe_rng, count)
        iou, _, dist_norm = crop_metrics(clamp_params(draws[:, CROP_COLUMNS], cfg.bounds))
        return iou, dist_norm

    # -- augmentation ------------------------------------------------------

    def _sources(self, batch: np.ndarray) -> np.ndarray:
        """The step's N clips, or one clip per crop row with flips or pre-crops.

        Flips and pre-crops are drawn per row, so then every row of the 2N,
        in 2k + branch order, gets its own copy of its clip.
        """
        cfg = self.cfg
        if not (cfg.random_flip or cfg.pre_crop):
            return batch
        sources = np.repeat(batch, 2, axis=0)
        if cfg.random_flip:
            flip = self.flip_rng.random(len(sources)) < 0.5
            sources[flip] = sources[flip][..., ::-1]
        if cfg.pre_crop:
            draws = self.precrop_rng.random((len(sources), 6))
            _, pre_grids = crop_grids(draws[:, CROP_COLUMNS], cfg.bounds, self.input_grid)
            sources = resample(sources, pre_grids[:, None])
        return sources

    # -- one optimisation step --------------------------------------------

    def step(self, index: int) -> tuple[tuple, float]:
        """Run step *index*; return its run-log row and its generator grad max."""
        cfg = self.cfg
        n_pairs = cfg.batch_size
        if self.adversarial:
            # Each branch's stream, interleaved into 2k + branch order.
            noise = np.stack([sample_noise(rng, n_pairs, cfg.noise_dim)
                              for rng in self.noise_rngs], axis=1)
            draws, cache = generate(noise.reshape(-1, cfg.noise_dim), self.croppers)
        else:
            draws = self._baseline(index, self.baseline_rng, n_pairs)
        # Built in the call, the clips have no other reference and are freed
        # after sampling (star-args would keep one).
        loss, params, tape = chain_forward(
            draws, self._sources(make_synthetic_batch(
                self.data_rng, n_pairs, cfg.input_shape)),
            cfg.bounds, self.crop_grid, self.encoder, cfg.loss_cfg, self.adversarial,
        )
        metrics = crop_metrics(params)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at step {index}; unit params "
                f"mean={draws.mean():.6g} min={draws.min():.6g} "
                f"max={draws.max():.6g}"
            )
        enc_grads, grad_draws = chain_backward(tape)
        self.encoder = update_weights(
            self.encoder, enc_grads, self.enc_opt, step_index=index
        )

        grad_max = 0.0
        if self.adversarial:
            grads = generate_backward(reverse_gradient(grad_draws), cache, self.croppers)
            grad_max = max(float(np.max(np.abs(g))) for g in grads.values())
            self.croppers = update_weights(
                self.croppers, grads, self.crop_opt, step_index=index
            )
        return (index, loss, *metrics, *draws.mean(axis=0)), grad_max


def run_training(cfg: TrainConfig) -> RunResult:
    """Run the full simulation described by *cfg* and return all artefacts."""
    trainer = _Trainer(cfg)
    probe_iou, probe_dist = trainer.probe()
    logger.info(
        "run start: strategy=%s steps=%d probe_iou=%.4f probe_dist=%.4f",
        cfg.strategy, cfg.steps, probe_iou, probe_dist,
    )
    records = np.empty(cfg.steps, dtype=RECORD_DTYPE)
    grad_maxes = np.empty(cfg.steps)
    for index in range(cfg.steps):
        records[index], grad_maxes[index] = trainer.step(index)
        if cfg.steps >= 10 and (index + 1) % max(1, cfg.steps // 10) == 0:
            logger.info(
                "step %d/%d loss=%.4f iou=%.4f dist_norm=%.4f", index + 1, cfg.steps,
                *(records[index][name] for name in ("loss", "iou", "dist_norm")),
            )
    return RunResult(
        config=cfg,
        records=records,
        probe_iou=probe_iou,
        probe_dist_norm=probe_dist,
        cropper_grad_max=grad_maxes,
        encoder=trainer.encoder,
        croppers=trainer.croppers,
    )
