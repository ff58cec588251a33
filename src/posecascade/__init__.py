"""Cascaded coordinate-regression pose estimation.

A pose is predicted holistically by a convolutional regressor from the full
initial box, then refined stage by stage with per-joint regressors that look
at progressively tighter crops. Includes the minimal numpy network engine,
PCP/PDJ evaluation metrics, a manifest-based dataset format, and a synthetic
stick-figure generator for desk-scale experiments.
"""

from . import cascade, data, geometry, metrics, nn
from .cascade import (
    CascadeModel,
    CascadePrediction,
    DisplacementStats,
    StageConfig,
    fit_displacement_stats,
    load_cascade,
    predict,
    sample_displacement,
    save_cascade,
    train_refinement_stage,
    train_stage1,
)
from .data import (
    AnnotatedExample,
    DatasetManifest,
    LoadedExample,
    SynthConfig,
    load_examples,
    load_image,
    load_manifest,
    mirror_example,
    save_image,
    save_manifest,
    synth_generate,
)
from .geometry import (
    BoundingBox,
    PoseTree,
    PoseVector,
    crop_resample,
    denormalize_point,
    full_image_box,
    joint_box,
    normalize_point,
    parse_box,
    pose_diameter,
)
from .metrics import EvalReport, make_report, pcp, pcp_loose, pdj, pdj_curve
from .nn import (
    Network,
    OptimizerState,
    TrainConfig,
    adagrad_step,
    backward,
    forward,
    init_network,
    l2_loss_batch,
    load_network,
    save_network,
    train_epochs,
)

__version__ = "0.1.0"
