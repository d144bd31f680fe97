"""Scale-aware feature correction for multi-scale object detection.

The package trains a small detector whose RoI features pass through
per-scale-partition 1x1 correction sub-networks, and ships the
instruments to measure why: a channel-activation matrix over a scale
sweep and scale-space RMSE with and without correction.
"""

from . import autograd
from .analysis import (
    ApResult,
    CamMatrix,
    Detection,
    RmseRow,
    cam_stability,
    compute_cam,
    evaluate_ap,
    rmse_with_san,
    rmse_without_san,
)
from .autograd import Parameter, Tensor, no_grad, sgd_step
from .backbone import Backbone, Image, RoI, box_array, cam_scale_sweep, extract_reference_feature, roi_pool
from .data import Annotation, DatasetConfig, generate_dataset, load_dataset, make_proposals, scale_statistics
from .errors import CheckpointError, ConfigError, GraphError, RoiError, SanlabError, ShapeError
from .losses import DetectionHead, assign_roi_labels, box_iou
from .san import (
    COCO_SCHEME,
    SCHEME_PRESETS,
    TOY_SCHEME,
    VOC_SCHEME,
    SanModule,
    SanSubNetwork,
    ScalePartitionScheme,
    fuse,
    init_gaussian,
    init_identity,
    partition_index,
    san_forward,
    san_loss_branch,
)
from .training import (
    DetectionModel,
    TrainingConfig,
    TrainResult,
    build_model,
    evaluate_detector,
    load_checkpoint,
    rmse_report,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
