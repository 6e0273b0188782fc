"""paramcrop: differentiable 3D cubic cropping with adversarial dynamics.

The package simulates, at desk scale, a tug-of-war between a contrastive
video encoder and two learned crop-placement generators that receive the
reversed loss gradient.  All gradients are derived by hand and verified
against finite differences; all runs are bit-reproducible from a seed.
"""

from __future__ import annotations

__version__ = "0.1.0"

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
from .errors import (
    ConfigError,
    DimensionError,
    NumericsError,
    ParamCropError,
    TrainingError,
    UnsupportedMetricError,
)
from .gradcheck import CheckResult, render_report, run_all
from .paramgen import (
    CropperState,
    SgdMomentum,
    mlp_backward,
    mlp_forward,
    reverse_gradient,
    sample_noise,
    update_weights,
)
from .sampler import resample, sample, sample_backward
from .simulator import (
    CropCube,
    RunResult,
    TrainConfig,
    baseline_params,
    center_manhattan,
    crop_cube,
    make_synthetic_batch,
    render_csv,
    run_training,
    st_iou,
)

__all__ = [
    "__version__",
    "ParamBounds", "apply_early_stop", "build_affine_matrix",
    "clamp_params", "clamp_params_backward", "generate_grid",
    "transform_grid", "transform_grid_backward",
    "LossConfig", "ToyEncoder", "encode", "encode_backward", "nt_xent",
    "nt_xent_backward",
    "ParamCropError", "ConfigError", "DimensionError", "NumericsError",
    "TrainingError", "UnsupportedMetricError",
    "CheckResult", "render_report", "run_all",
    "CropperState", "SgdMomentum", "mlp_backward", "mlp_forward",
    "reverse_gradient", "sample_noise", "update_weights",
    "resample", "sample", "sample_backward",
    "CropCube", "RunResult", "TrainConfig",
    "baseline_params", "center_manhattan", "crop_cube",
    "make_synthetic_batch", "render_csv", "run_training", "st_iou",
]
