"""Detection head, box-regression parameterization, and the multi-task loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .backbone import RoI, box_area, box_array
from .errors import RoiError, ShapeError
from .rng import STREAM_WEIGHTS, derive

HEAD_INIT_STD = 0.01
# an RoI is foreground when its IoU with some ground truth reaches POS_IOU
POS_IOU = 0.5


@dataclass
class DetectionHead:
    """Two 1x1 conv heads pooled globally: class scores and per-class boxes.

    ``cls_w`` has a row per foreground class plus one for the background
    (class 0), ``reg_w`` four rows per foreground class.
    """

    cls_w: Parameter
    cls_b: Parameter
    reg_w: Parameter
    reg_b: Parameter

    @classmethod
    def create(cls, c_feat: int, num_classes: int, seed: int) -> "DetectionHead":
        if num_classes < 1:
            raise ShapeError(f"need at least one foreground class, got {num_classes}")
        rng = derive(seed, STREAM_WEIGHTS, 2)
        k1 = num_classes + 1
        cls_w = Parameter(rng.normal(0.0, HEAD_INIT_STD, size=(k1, c_feat, 1, 1)).astype(np.float32), name="head.cls.w")
        cls_b = Parameter(np.zeros(k1, dtype=np.float32), name="head.cls.b")
        reg_w = Parameter(
            rng.normal(0.0, HEAD_INIT_STD, size=(4 * num_classes, c_feat, 1, 1)).astype(np.float32), name="head.reg.w"
        )
        reg_b = Parameter(np.zeros(4 * num_classes, dtype=np.float32), name="head.reg.b")
        return cls(cls_w=cls_w, cls_b=cls_b, reg_w=reg_w, reg_b=reg_b)

    def named_parameters(self) -> list[Parameter]:
        return [self.cls_w, self.cls_b, self.reg_w, self.reg_b]

    def forward(self, feats: Tensor) -> tuple[Tensor, Tensor]:
        """Score a batch of pooled RoI features: (N,K+1) logits, (N,4K) deltas."""
        n = feats.shape[0]
        logits = ag.reshape(ag.global_avg_pool(ag.conv2d(feats, self.cls_w, self.cls_b)), (n, self.cls_w.shape[0]))
        deltas = ag.reshape(ag.global_avg_pool(ag.conv2d(feats, self.reg_w, self.reg_b)), (n, self.reg_w.shape[0]))
        return logits, deltas


def encode_boxes(boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """The offsets that map each of (N, 4) boxes onto the ground truth in its
    row of ``gt_boxes``: (N, 4) float64 tx, ty (center shifts relative to
    the box's size) and tw, th (log size ratios), each row in scalar
    arithmetic (`math.log`, which `np.log` may miss by an ulp)."""
    rows = [_box_offsets(box, gt) for box, gt in zip(boxes.tolist(), gt_boxes.tolist())]
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _box_offsets(box, gt) -> tuple[float, float, float, float]:
    x1, y1, x2, y2 = box
    rw, rh = x2 - x1, y2 - y1
    if rw <= 0 or rh <= 0:
        raise RoiError(f"cannot encode against zero-size RoI ({x1},{y1},{x2},{y2})")
    rx, ry = x1 + rw / 2, y1 + rh / 2
    gw, gh = gt[2] - gt[0], gt[3] - gt[1]
    gx, gy = gt[0] + gw / 2, gt[1] + gh / 2
    return (gx - rx) / rw, (gy - ry) / rh, math.log(gw / rw), math.log(gh / rh)


def decode_box(t, box) -> tuple[float, float, float, float]:
    """The x1, y1, x2, y2 that offsets ``t`` (tx, ty, tw, th) map ``box``
    onto: the inverse of `_box_offsets`.  A log-size offset too large
    for `math.exp` gives an infinite side, as an infinite offset does."""
    x1, y1, x2, y2 = box
    rw, rh = x2 - x1, y2 - y1
    cx = x1 + rw / 2 + t[0] * rw
    cy = y1 + rh / 2 + t[1] * rh
    w = rw * _exp(t[2])
    h = rh * _exp(t[3])
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def box_iou(a: RoI, b: RoI) -> float:
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    if inter <= 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def assign_roi_labels(boxes: np.ndarray, gts, pos_iou: float = POS_IOU) -> tuple[np.ndarray, np.ndarray]:
    """Label each of the (P, 4) boxes by its max-IoU ground truth among the
    annotations ``gts`` (`match_boxes`): (P,) int64 classes, 0 for
    background, and (P, 4) float64 regression targets onto that ground
    truth (`encode_boxes`), zero rows on background."""
    gt_boxes = box_array([a.box for a in gts])
    best, positive = match_boxes(boxes, gt_boxes, pos_iou)
    classes = np.zeros(len(boxes), dtype=np.int64)
    classes[positive] = np.array([a.class_id for a in gts], dtype=np.int64)[best[positive]]
    targets = np.zeros((len(boxes), 4))
    targets[positive] = encode_boxes(boxes[positive], gt_boxes[best[positive]])
    return classes, targets


def match_boxes(boxes: np.ndarray, gt_boxes: np.ndarray, pos_iou: float) -> tuple[np.ndarray, np.ndarray]:
    """Each of the (P, 4) boxes' max-IoU ground truth among the (G, 4)
    ``gt_boxes``, and whether that IoU reaches ``pos_iou``: a (P,) index
    (0 without ground truths) and a (P,) positive mask.

    Ties on IoU go to the lowest ground-truth index.  The box x ground-truth
    IoU matrix is ``box_iou``'s float64 formula applied to all pairs at once.
    """
    if not 0 < pos_iou < 1:
        raise ShapeError(f"pos_iou must lie in (0,1), got {pos_iou}")
    if not len(gt_boxes):
        return np.zeros(len(boxes), dtype=np.intp), np.zeros(len(boxes), dtype=bool)
    r, g = boxes[:, None], gt_boxes[None]
    side = np.maximum(0.0, np.minimum(r[..., 2:], g[..., 2:]) - np.maximum(r[..., :2], g[..., :2]))  # (P, G, 2)
    inter = side[..., 0] * side[..., 1]
    iou = np.where(inter > 0, inter / (box_area(boxes)[:, None] + box_area(gt_boxes) - inter), 0.0)
    best = iou.argmax(axis=1)  # first maximum: the lowest index wins a tie
    return best, iou[np.arange(len(boxes)), best] >= pos_iou


@dataclass
class LossParts:
    """Assembled training objective with per-term scalars for the log."""

    total: Tensor
    l_cls: float
    l_reg: float
    l_san: float


def regression_loss(deltas: Tensor, labels, targets: np.ndarray) -> Tensor:
    """Robust-L1 box loss, masked to foreground RoIs' own-class slice.

    Mean over all N rows of [u >= 1] * sum_coord smooth_l1(t^u - v), so
    background rows contribute exactly zero; ``deltas`` is (N, 4K) and
    ``targets`` holds each row's (tx, ty, tw, th), (N, 4), read on
    foreground rows only and in float32 precision.
    """
    n, classes = deltas.shape[0], deltas.shape[1] // 4
    labels, targets = np.asarray(labels, dtype=np.intp), np.asarray(targets)
    if targets.shape != (n, 4):
        raise ShapeError(f"regression_loss needs one (tx, ty, tw, th) target per row of its {n} deltas, got shape {targets.shape}")
    fg = np.flatnonzero(labels >= 1)
    above = labels[fg] > classes
    if above.any():  # the first bad foreground row raises
        row = fg[above.argmax()]
        raise ShapeError(f"foreground RoI at row {row} has label {labels[row]}, above the {classes} classes of its deltas")
    target = np.zeros(deltas.shape, dtype=deltas.data.dtype)
    mask = np.zeros(deltas.shape, dtype=deltas.data.dtype)
    at = fg[:, None], 4 * (labels[fg] - 1)[:, None] + np.arange(4)  # own-class slices
    target[at] = targets[fg].astype(np.float32)
    mask[at] = 1.0
    diff = ag.sub(deltas, Tensor(target))
    masked = ag.mul(ag.smooth_l1(diff), Tensor(mask))
    return ag.scale(ag.sum_all(masked), 1.0 / n)


def multi_task_loss(
    logits: Tensor,
    deltas: Tensor,
    labels,
    targets: np.ndarray,
    san_terms: Tensor | None = None,
    san_loss_weight: float = 1.0,
) -> LossParts:
    """Classification + gated box regression + averaged scale-aware loss.

    ``labels`` holds each row's class (0 for background) and ``targets``
    its (N, 4) regression target (`regression_loss`).

    ``san_terms`` is the (N,) tensor of per-RoI branch losses in sampling
    order; the scale-aware component is their mean, summed left to right,
    or exactly zero when it is None.
    """
    l_cls = ag.softmax_cross_entropy(logits, labels)
    l_reg = regression_loss(deltas, labels, targets)
    total = ag.add(l_cls, l_reg)
    l_san_val = 0.0
    if san_terms is not None:
        l_san = ag.scale(ag.sum_in_order(san_terms), 1.0 / san_terms.shape[0])
        total = ag.add(total, ag.scale(l_san, san_loss_weight))
        l_san_val = l_san.item()
    return LossParts(total=total, l_cls=l_cls.item(), l_reg=l_reg.item(), l_san=l_san_val)
