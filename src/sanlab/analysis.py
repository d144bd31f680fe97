"""Measurement instruments: channel-activation matrix across a scale
sweep, scale-space RMSE with and without feature correction, and a
VOC-style average-precision evaluator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .backbone import RoI
from .errors import SanlabError, ShapeError
from .losses import box_iou
from .san import SanModule, san_forward


@dataclass
class CamMatrix:
    """Activations of the union of per-scale top-k channels.

    Rows follow ``channel_ids`` (first-seen order over the supplied
    scales); columns follow ``scales``.
    """

    scales: list[int]
    channel_ids: list[int]
    values: np.ndarray  # |channel_ids| x |scales|


def _top_k(vec: np.ndarray, k: int) -> list[int]:
    # stable sort on the negated vector: ties resolve to the lower index
    order = np.argsort(-vec, kind="stable")
    return [int(i) for i in order[: min(k, vec.size)]]


CAM_K = 10  # channels kept per scale: compute_cam's default and the cam command's


def compute_cam(vectors: list[tuple[int, np.ndarray]], k: int = CAM_K) -> CamMatrix:
    """Union of each scale's k most-activated channels, with raw values."""
    if not vectors:
        raise SanlabError("compute_cam needs at least one (scale, vector) pair")
    if k < 1:
        raise SanlabError(f"k must be >= 1, got {k}")
    length = vectors[0][1].size
    for s, v in vectors:
        if v.size != length:
            raise ShapeError(f"channel vector at scale {s} has length {v.size}, expected {length}")
    channel_ids: list[int] = []
    seen: set[int] = set()
    for _, vec in vectors:
        for c in _top_k(vec, k):
            if c not in seen:
                seen.add(c)
                channel_ids.append(c)
    values = np.stack([np.asarray(vec, dtype=np.float64)[channel_ids] for _, vec in vectors], axis=1)
    return CamMatrix(scales=[s for s, _ in vectors], channel_ids=channel_ids, values=values)


def cam_stability(cam: CamMatrix, k: int) -> float:
    """Mean pairwise Jaccard similarity of the per-scale top-k channel sets.

    Sets are re-derived from the matrix columns (all true top-k channels
    are present by construction), with the same lower-index tie rule.  A
    single scale has no pair to differ from and is fully stable (1.0).
    """
    n = len(cam.scales)
    sets = [{cam.channel_ids[r] for r in _top_k(cam.values[:, j], k)} for j in range(n)]
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            union = sets[i] | sets[j]
            inter = sets[i] & sets[j]
            total += len(inter) / len(union) if union else 1.0
            pairs += 1
    return total / pairs if pairs else 1.0


def rmse_without_san(z_s: Tensor, z_s0: Tensor) -> float:
    """Root-mean-square channel difference between a scale's feature and
    the reference-scale feature (spatial dims already pooled to 1x1)."""
    if z_s.shape != z_s0.shape:
        raise ShapeError(f"feature shapes differ: {z_s.shape} vs {z_s0.shape}")
    diff = z_s.data.astype(np.float64) - z_s0.data.astype(np.float64)
    n_c = z_s.shape[1]
    return float(math.sqrt(float((diff**2).sum()) / n_c))


def rmse_with_san(z_s: Tensor, z_s0: Tensor, m: SanModule, i: int) -> float:
    """Same measure after the partition's sub-network corrects z_s."""
    with ag.no_grad():
        corrected = san_forward(z_s, i, m)
    return rmse_without_san(corrected, z_s0)


# ---------------------------------------------------------------------------
# detection evaluation


@dataclass(frozen=True)
class Detection:
    image_id: int
    class_id: int
    score: float
    box: RoI


@dataclass
class ApResult:
    per_class: dict[int, float]
    mean_ap: float


def evaluate_ap(detections: list[Detection], gts) -> ApResult:
    """Continuous-interpolation average precision per class, VOC 2010 style.

    ``gts`` are the ground-truth annotations of every image.  Detections
    are ranked by score (ties keep input order); each matches at most one
    unmatched ground truth of its class and image at IoU >= 0.5.
    Classes absent from the ground truth are excluded from the mean.
    """
    gt_by_class: dict[int, list] = {}
    for g in gts:
        gt_by_class.setdefault(g.class_id, []).append(g)
    per_class: dict[int, float] = {}
    for c, class_gts in sorted(gt_by_class.items()):
        dets = [d for d in detections if d.class_id == c]
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        matched: set[int] = set()
        tp = np.zeros(len(dets))
        fp = np.zeros(len(dets))
        for rank, di in enumerate(order):
            d = dets[di]
            best_iou, best_gi = 0.0, -1
            for gi, g in enumerate(class_gts):
                if g.image_id != d.image_id or gi in matched:
                    continue
                iou = box_iou(d.box, g.box)
                if iou > best_iou:
                    best_iou, best_gi = iou, gi
            if best_gi >= 0 and best_iou >= 0.5:
                matched.add(best_gi)
                tp[rank] = 1
            else:
                fp[rank] = 1
        n_gt = len(class_gts)
        if len(dets) == 0:
            per_class[c] = 0.0
            continue
        rec = np.cumsum(tp) / n_gt
        prec = np.cumsum(tp) / (np.cumsum(tp) + np.cumsum(fp))
        mrec = np.concatenate(([0.0], rec, [1.0]))
        mpre = np.concatenate(([0.0], prec, [0.0]))
        for i in range(mpre.size - 1, 0, -1):
            mpre[i - 1] = max(mpre[i - 1], mpre[i])
        idx = np.where(mrec[1:] != mrec[:-1])[0]
        per_class[c] = float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))
    mean_ap = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return ApResult(per_class=per_class, mean_ap=mean_ap)


# ---------------------------------------------------------------------------
# artifact writers


def write_cam_csv(path: Path, cam: CamMatrix) -> None:
    lines = ["channel," + ",".join(str(s) for s in cam.scales)]
    for row, cid in enumerate(cam.channel_ids):
        lines.append(f"{cid}," + ",".join(f"{v:.6g}" for v in cam.values[row]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_cam_pgm(path: Path, cam: CamMatrix) -> None:
    """Min-max normalized P5 heatmap: rows = channels, cols = scales."""
    v = cam.values
    lo, hi = float(v.min()), float(v.max())
    norm = np.zeros_like(v) if hi <= lo else (v - lo) / (hi - lo)
    arr = np.round(norm * 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        f.write(arr.tobytes())


RMSE_CSV_HEADER = "sample_id,class_id,scale,rmse_without,rmse_with"


@dataclass(frozen=True)
class RmseRow:
    sample_id: int
    class_id: int
    scale: int
    rmse_without: float
    rmse_with: float


def write_rmse_csv(path: Path, rows: list[RmseRow]) -> None:
    lines = [RMSE_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.sample_id},{r.class_id},{r.scale},{r.rmse_without:.8g},{r.rmse_with:.8g}")
    Path(path).write_text("\n".join(lines) + "\n")


def rmse_class_summary(rows: list[RmseRow]) -> dict[int, tuple[float, float, float, float]]:
    """Per class: (mean rmse_without, std, mean rmse_with, std)."""
    by_class: dict[int, list[RmseRow]] = {}
    for r in rows:
        by_class.setdefault(r.class_id, []).append(r)
    out = {}
    for c, rs in sorted(by_class.items()):
        wo = np.array([r.rmse_without for r in rs])
        wi = np.array([r.rmse_with for r in rs])
        out[c] = (float(wo.mean()), float(wo.std()), float(wi.mean()), float(wi.std()))
    return out
