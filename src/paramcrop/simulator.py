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
the (2N, 6) crop parameters, the grid transform, the sampler, the encoder and
the loss, and back; each generator sees its own N rows.  That chain is
four module functions, :func:`generate`, :func:`chain_forward`,
:func:`chain_backward` and :func:`generate_backward`, which ``gradcheck``'s
full-chain family runs too; the step adds the reversal, the detach mask and
the updates, which :func:`~paramcrop.paramgen.update_weights` applies to the
encoder and both generators alike.
The crop metrics compare the N view-A cubes with the N view-B cubes in one
call.  The sampler hands its coordinate jacobian to the backward, so the
clips are released right after sampling; and when the detach band masks
every parameter of a step, the crop gradient is not computed at all, since
it would be zeroed: the generators receive a zero unit gradient instead.

A run logs one row per step into a structured array of
:data:`RECORD_DTYPE`, whose fields are the :data:`CSV_HEADER` columns in
order; :func:`render_csv` and the command-line writers read it by column.

Determinism: a run is a pure function of its config.  All randomness flows
from one seed through a fixed tree of spawned generators, and gradient
accumulation order is fixed, so identical configs give bit-identical metrics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .affine import (
    ANGLE,
    OFFSET_T,
    OFFSET_X,
    OFFSET_Y,
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
from .contrastive import (
    LossConfig,
    ToyEncoder,
    encode,
    encode_backward,
    nt_xent,
    nt_xent_backward,
)
from .errors import ConfigError, TrainingError, UnsupportedMetricError
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
    """Cubes covered by N zero-angle crops given as (N, 6) params.

    Raises
    ------
    UnsupportedMetricError
        If any angle is non-zero: a rotated crop is not axis-aligned, so the
        interval metrics below do not apply.
    """
    params = np.asarray(params, dtype=np.float64)
    angles = params[:, ANGLE]
    if np.any(angles != 0.0):
        raise UnsupportedMetricError(
            f"crop cube is only defined for zero angle, got "
            f"{angles[angles != 0.0][0]}"
        )
    return CropCube(
        center=params[:, [OFFSET_X, OFFSET_Y, OFFSET_T]],
        half=params[:, [SPATIAL_SCALE, SPATIAL_SCALE, TEMPORAL_SCALE]],
    )


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
    """
    if count < 1:
        raise ConfigError(f"batch count must be >= 1, got {count}")
    channels, t_len, h_len, w_len = shape
    grid = generate_grid(t_len, h_len, w_len)
    x, y, t = grid[..., 0], grid[..., 1], grid[..., 2]
    clips = np.empty((count,) + tuple(shape))
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
    angle, detach and temperature fields, so no other site re-checks them.
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
    angle_min: float = 0.0
    angle_max: float = 0.0
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
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy: unknown value '{self.strategy}' "
                f"(choose from {', '.join(STRATEGIES)})"
            )
        if len(self.input_shape) != 4 or min(self.input_shape) < 1:
            raise ConfigError(f"input_shape: bad dims {self.input_shape}")
        if len(self.crop_shape) != 3 or min(self.crop_shape) < 3:
            raise ConfigError(
                f"crop_shape: every crop axis must be >= 3 (encoder kernel), "
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
            angle_range=(self.angle_min, self.angle_max),
            detach_bound=self.detach_bound,
        ))
        for name in ("noise_dim", "hidden_dim", "embed_dim", "conv_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.probe_samples < 1:
            raise ConfigError(
                f"probe_samples: must be >= 1, got {self.probe_samples}"
            )
        if not 0.0 <= self.baseline_jitter <= 0.5:
            raise ConfigError(
                f"baseline_jitter: must lie in [0, 0.5], got {self.baseline_jitter}"
            )
        if not 0.0 <= self.manual_breakpoint < 1.0:
            raise ConfigError(
                f"manual_breakpoint: must lie in [0, 1), got {self.manual_breakpoint}"
            )


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


def config_from_pairs(
    pairs: dict[str, str], base: TrainConfig | None = None
) -> TrainConfig:
    """Apply text overrides to *base* (default config when omitted).

    Each value is parsed by the type of the field's default, as
    :func:`config_to_pairs` writes it.  Unknown keys and unparsable values
    raise :class:`ConfigError` naming the offending field.
    """
    base = base if base is not None else TrainConfig()
    defaults = {f.name: f.default for f in fields(base)}
    updates: dict[str, object] = {}
    for key, text in pairs.items():
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
    """

    config: TrainConfig
    records: np.ndarray
    probe_iou: float
    probe_dist_norm: float
    cropper_grad_max: np.ndarray
    encoder: ToyEncoder
    croppers: tuple[CropperState, CropperState] | None


# ---------------------------------------------------------------------------
# The crop chain: generator noise -> crops -> encoder -> loss, and back
# ---------------------------------------------------------------------------


def generate(noises, croppers) -> tuple[np.ndarray, list[MlpCache]]:
    """(2N, 6) unit params in 2k + branch order from each branch's N noise rows."""
    outs = [mlp_forward(noise, state) for noise, state in zip(noises, croppers)]
    units = np.stack([unit for unit, _ in outs], axis=1).reshape(-1, 6)
    return units, [cache for _, cache in outs]


def generate_backward(grad_units: np.ndarray, caches, croppers) -> list:
    """Each generator's field-keyed weight gradients from the (2N, 6) unit gradient."""
    by_branch = grad_units.reshape(-1, 2, 6)
    return [mlp_backward(by_branch[:, branch], cache, state)
            for branch, (cache, state) in enumerate(zip(caches, croppers))]


def crop_grids(units: np.ndarray, bounds: ParamBounds, grid: np.ndarray):
    """(R, 6) physical params of (R, 6) unit params, and *grid* moved by each."""
    params = clamp_params(units, bounds)
    return params, transform_grid(grid, build_affine_matrix(params))


def chain_forward(units: np.ndarray, clips: np.ndarray, bounds: ParamBounds,
                  crop_grid: np.ndarray, encoder: ToyEncoder, loss_cfg: LossConfig,
                  backward: bool):
    """``(loss, params, tape)`` of the crops that (2N, 6) *units* cut from *clips*.

    *clips* are N clips (both views of clip ``k`` read clip ``k``) or one per
    row, and are released once sampled.  *params* are the (2N, 6) physical
    params; *tape* is ``(units, params, jacobian, embeddings, enc_cache)``,
    and its jacobian, which the unit gradient needs, is None unless *backward*.
    """
    params, grids = crop_grids(units, bounds, crop_grid)
    views = grids.reshape((len(clips), -1) + grids.shape[1:])
    del grids
    if backward:
        crops, jacobian = sample(clips, views)
    else:
        crops, jacobian = resample(clips, views), None
    del clips, views
    embeddings, enc_cache = encode(crops, encoder)
    loss = nt_xent(embeddings, loss_cfg)
    return loss, params, (units, params, jacobian, embeddings, enc_cache)


def chain_backward(tape, mask: np.ndarray | None, bounds: ParamBounds,
                   crop_grid: np.ndarray, encoder: ToyEncoder, loss_cfg: LossConfig):
    """Encoder gradients and the (2N, 6) unit gradient of the loss.

    The unit gradient passes through *mask* (the detach band), is not
    reversed, and is zero when the forward ran without a jacobian.
    """
    units, params, jacobian, embeddings, enc_cache = tape
    grad_rows = nt_xent_backward(embeddings, loss_cfg)
    enc_grads, grad_crops = encode_backward(
        grad_rows, enc_cache, encoder, input_grad=jacobian is not None
    )
    if jacobian is None:
        return enc_grads, np.zeros_like(units)
    grad_params = transform_grid_backward(
        sample_backward(grad_crops, jacobian), crop_grid, params
    )
    return enc_grads, clamp_params_backward(grad_params, units, bounds, mask)


def crop_metrics(params: np.ndarray) -> tuple[float, float, float]:
    """Mean IoU, raw and normalised centre distance of (2N, 6) view pairs.

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
        if self.adversarial:
            self.croppers = [
                CropperState.initialise(
                    np.random.default_rng(ss),
                    noise_dim=cfg.noise_dim,
                    hidden_dim=cfg.hidden_dim,
                )
                for ss in (crop_a_ss, crop_b_ss)
            ]
            self.crop_opts = [
                SgdMomentum(cfg.cropper_lr, cfg.momentum) for _ in range(2)
            ]
        else:
            self.croppers = None
            self.crop_opts = None
        self.crop_grid = generate_grid(*cfg.crop_shape)
        self.input_grid = generate_grid(*cfg.input_shape[1:])
        # Interval metrics assume axis-aligned cubes; a non-zero angle range
        # makes them undefined, so those columns become NaN.
        self.metrics_enabled = cfg.angle_min == 0.0 and cfg.angle_max == 0.0

    # -- parameter draws ---------------------------------------------------

    def _baseline(self, step: int, rng: np.random.Generator, count: int) -> np.ndarray:
        """(2 * count, 6) baseline unit params in 2k + branch order."""
        cfg = self.cfg
        return baseline_params(
            cfg.strategy, step, cfg.steps, rng, count,
            jitter=cfg.baseline_jitter, manual_breakpoint=cfg.manual_breakpoint,
        ).reshape(-1, 6)

    # -- probe -------------------------------------------------------------

    def probe(self) -> tuple[float, float]:
        """Mean overlap/distance of fresh parameter draws before training."""
        if not self.metrics_enabled:
            return float("nan"), float("nan")
        cfg = self.cfg
        count = cfg.probe_samples
        if self.adversarial:
            # One stream for both branches, drawn in 2k + branch order.
            noise = sample_noise(self.probe_rng, 2 * count, cfg.noise_dim)
            units, _ = generate((noise[0::2], noise[1::2]), self.croppers)
        else:
            units = self._baseline(0, self.probe_rng, count)
        iou, _, dist_norm = crop_metrics(clamp_params(units, cfg.bounds))
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
            units = self.precrop_rng.random((len(sources), 6))
            _, pre_grids = crop_grids(units, cfg.bounds, self.input_grid)
            sources = resample(sources, pre_grids[:, None])
        return sources

    # -- one optimisation step --------------------------------------------

    def step(self, index: int) -> tuple[tuple, float]:
        """Run step *index*; return its run-log row and its generator grad max."""
        cfg = self.cfg
        n_pairs = cfg.batch_size
        if self.adversarial:
            units, mlp_caches = generate(
                [sample_noise(rng, n_pairs, cfg.noise_dim) for rng in self.noise_rngs],
                self.croppers,
            )
            masks = apply_early_stop(units, cfg.bounds.detach_bound)
        else:
            units, masks = self._baseline(index, self.baseline_rng, n_pairs), None
        # A detach band that masks every entry zeroes the whole cropper
        # gradient, so then the chain skips the crop gradient and hands back
        # zeros.
        cropper_live = self.adversarial and bool(masks.any())
        # Built in the call, the clips have no other reference and are freed
        # after sampling (star-args would keep one).
        loss, params, tape = chain_forward(
            units, self._sources(make_synthetic_batch(
                self.data_rng, n_pairs, cfg.input_shape)),
            cfg.bounds, self.crop_grid, self.encoder, cfg.loss_cfg, cropper_live,
        )
        metrics = crop_metrics(params) if self.metrics_enabled else (np.nan,) * 3
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at step {index}; unit params "
                f"mean={units.mean():.6g} min={units.min():.6g} "
                f"max={units.max():.6g}"
            )
        enc_grads, grad_units = chain_backward(
            tape, masks, cfg.bounds, self.crop_grid, self.encoder, cfg.loss_cfg
        )
        self.encoder = update_weights(
            self.encoder, enc_grads, self.enc_opt, step_index=index
        )

        grad_max = 0.0
        if self.adversarial:
            crop_grads = generate_backward(
                reverse_gradient(grad_units), mlp_caches, self.croppers
            )
            for branch, grads in enumerate(crop_grads):
                grad_max = max(grad_max, *(
                    float(np.max(np.abs(g), initial=0.0)) for g in grads.values()
                ))
                self.croppers[branch] = update_weights(
                    self.croppers[branch], grads,
                    self.crop_opts[branch], step_index=index,
                )
        return (index, loss, *metrics, *units.mean(axis=0)), grad_max


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
        croppers=tuple(trainer.croppers) if trainer.croppers else None,
    )
