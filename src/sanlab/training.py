"""Training loop, model container, checkpointing, and inference.

A training step samples two images, builds jittered proposals with a
1:3 positive:negative cap, takes the reference-scale features of a
fixed-size random subset of the RoIs, runs the backbone (one pass over
images of one size, `step_pixels`) and the RoI heads, and adds the
scale-aware branch for that subset before one SGD update.
Everything is a pure function of (dataset, config), so checkpoints replay
bit-for-bit under a fixed seed.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .analysis import ApResult, Detection, RmseRow, evaluate_ap, rmse_with_san, rmse_without_san
from .autograd import Parameter, Tensor
from .backbone import Backbone, Image, RoI, batched_reference_features, roi_pool, to_pixels
# nothing here calls the alias: perfbench's tracer looks the reference pathway up under both names
from .backbone import extract_reference_feature as reference_feature_for_roi
from .data import Annotation, check_class_ids, check_proposal_source, make_proposals, proposal_rng, read_file
from .errors import CheckpointError, ConfigError, RoiError, SanlabError
from .losses import (
    DetectionHead,
    LossParts,
    RegressionTarget,
    assign_roi_labels,
    box_iou,
    decode_regression,
    multi_task_loss,
)
from .rng import STREAM_STEP, derive
from .san import (
    SanModule,
    ScalePartitionScheme,
    TOY_SCHEME,
    fuse,
    init_gaussian,
    init_identity,
    partition_index,
    san_forward,
    san_loss_branch,
)

SAN_MODES = ("off", "no-loss", "full")
INIT_MODES = ("identity", "gaussian", "identity-zero-fusion")
POOL_MODES = ("avg", "max")
# the TrainingConfig fields that take one of a fixed set of values
FIELD_CHOICES = {"san_mode": SAN_MODES, "init_mode": INIT_MODES, "san_pool": POOL_MODES}

CHECKPOINT_MAGIC = b"SANLAB01"
LOG_HEADER = "iter,l_cls,l_reg,l_san,lr"


@dataclass(frozen=True)
class TrainingConfig:
    iterations: int = 2000
    base_lr: float = 0.02
    lr_decay_step: int = 1500
    lr_decay_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    images_per_step: int = 2
    rois_per_image: int = 32
    pos_fraction: float = 0.25
    pos_iou: float = 0.5
    n_pos_jitter: int = 6
    n_neg: int = 30
    num_classes: int = 3
    san_mode: str = "full"
    init_mode: str = "identity"
    gaussian_std: float = 0.05
    san_pool: str = "avg"
    san_samples: int = 16
    san_loss_weight: float = 1.0
    scheme: ScalePartitionScheme = TOY_SCHEME
    seed: int = 0

    def validate(self) -> None:
        for name, choices in FIELD_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.san_mode == "off" and self.init_mode != "identity":
            raise ConfigError(f"init_mode {self.init_mode!r} has no effect with san_mode 'off'; change one of them")
        if self.san_pool == "max" and self.san_mode != "full":
            raise ConfigError(f"san_pool 'max' has no effect with san_mode {self.san_mode!r}; change one of them")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in (
            "base_lr", "lr_decay_factor", "momentum", "weight_decay", "san_loss_weight", "gaussian_std",
            "iterations", "san_samples", "n_pos_jitter", "n_neg",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        check_proposal_source(self.n_pos_jitter, self.n_neg)
        if not 0 <= self.pos_fraction <= 1:
            raise ConfigError(f"pos_fraction must lie in [0,1], got {self.pos_fraction}")
        for name in ("images_per_step", "rois_per_image", "num_classes", "lr_decay_step"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0 < self.pos_iou < 1:
            raise ConfigError(f"pos_iou must lie in (0,1), got {self.pos_iou}")
        if self.san_samples > self.images_per_step * self.rois_per_image:
            raise ConfigError(
                f"san_samples={self.san_samples} exceeds the mini-batch RoI budget "
                f"{self.images_per_step * self.rois_per_image}"
            )


@dataclass
class DetectionModel:
    backbone: Backbone
    head: DetectionHead
    san: SanModule | None
    config: TrainingConfig  # the one `build_model` was given

    @property
    def scheme(self) -> ScalePartitionScheme:
        return self.config.scheme

    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    def named_parameters(self) -> list[Parameter]:
        params = self.backbone.named_parameters()
        if self.san is not None:
            params += self.san.named_parameters()
        params += self.head.named_parameters()
        return params


def build_model(cfg: TrainingConfig) -> DetectionModel:
    cfg.validate()
    bb = Backbone.small(cfg.seed)
    head = DetectionHead.create(bb.c_feat, cfg.num_classes, cfg.seed)
    san = None
    if cfg.san_mode != "off":
        san = SanModule.create(cfg.scheme, bb.c_feat, zero_fusion=cfg.init_mode == "identity-zero-fusion")
        if cfg.init_mode == "gaussian":
            init_gaussian(san, cfg.gaussian_std, cfg.seed)
        else:
            init_identity(san)
    return DetectionModel(backbone=bb, head=head, san=san, config=cfg)


# ---------------------------------------------------------------------------
# step construction


def sample_san_rois(rois: list, n: int, rng: np.random.Generator) -> list:
    """Uniform subsample without replacement, preserving original order."""
    if n >= len(rois):
        return list(rois)
    if n <= 0:
        return []
    idx = sorted(rng.choice(len(rois), size=n, replace=False).tolist())
    return [rois[i] for i in idx]


@dataclass
class StepBatch:
    """Everything one optimization step consumes, fully sampled up front."""

    images: list[Image]
    rois: list[RoI]
    image_slot: list[int]  # per RoI: index into images
    labels: list[int]
    targets: list[RegressionTarget | None]
    san_indices: list[int]  # indices into rois for the scale-aware branch


def build_step_batch(
    dataset: list[tuple[Image, list[Annotation]]],
    cfg: TrainingConfig,
    step: int,
) -> StepBatch:
    rng = derive(cfg.seed, STREAM_STEP, step)
    n_img = min(cfg.images_per_step, len(dataset))
    picks = rng.choice(len(dataset), size=n_img, replace=False)
    images: list[Image] = []
    rois: list[RoI] = []
    slots: list[int] = []
    labels: list[int] = []
    targets: list[RegressionTarget | None] = []
    for slot, di in enumerate(picks.tolist()):
        img, anns = dataset[di]
        images.append(img)
        props = make_proposals(anns, cfg.n_pos_jitter, cfg.n_neg, rng, (img.width, img.height))
        assigned = assign_roi_labels(props, anns, cfg.pos_iou)
        pos = [i for i, (u, _) in enumerate(assigned) if u >= 1]
        neg = [i for i, (u, _) in enumerate(assigned) if u == 0]
        n_pos = min(len(pos), int(round(cfg.rois_per_image * cfg.pos_fraction)))
        n_neg = min(len(neg), cfg.rois_per_image - n_pos)
        for i in sample_san_rois(pos, n_pos, rng) + sample_san_rois(neg, n_neg, rng):
            rois.append(props[i])
            slots.append(slot)
            labels.append(assigned[i][0])
            targets.append(assigned[i][1])
    if not rois:
        raise RoiError(f"step {step} sampled no RoI from dataset images {picks.tolist()}")
    san_indices = sample_san_rois(list(range(len(rois))), cfg.san_samples, rng)
    return StepBatch(images=images, rois=rois, image_slot=slots, labels=labels, targets=targets, san_indices=san_indices)


# ---------------------------------------------------------------------------
# forward graph


def forward_roi_features(
    model: DetectionModel, feats: list[Tensor], batch_rois: list[RoI], slots: list[int]
) -> tuple[Tensor, Tensor]:
    """Average-pool every RoI (one `roi_pool` node) and fuse in its correction (one `san_forward` node).

    Returns the RoI features and the average-pooled batch they start from
    (the same tensor when the model has no correction module); the
    scale-aware loss branch takes its rows from the latter.
    """
    batch = roi_pool(feats, batch_rois, slots)
    if model.san is None:
        return batch, batch
    parts = [partition_index(r.area, model.scheme) for r in batch_rois]
    return fuse(batch, san_forward(batch, parts, model.san), alpha=model.san.fusion_alpha), batch


def step_pixels(images: list[Image]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The inputs of the step's backbone passes and each image's 1x3xHxW
    pixels, image i at slot i.  The leading run of equal-size images is one
    (n, 3, H, W) input, converted from the levels in one pass, and its
    images' pixels are views of it; every later image is an input of its
    own.

    Only the first input holds several images: backpropagation through the
    `roi_pool` node reaches the maps in list order, and a later pass would
    add its images' summed weight gradients onto the earlier ones
    (`ag.conv2d`), in another order than one pass per image does.
    """
    lead = 1
    while lead < len(images) and images[lead].levels.shape == images[0].levels.shape:
        lead += 1
    first = to_pixels(np.concatenate([img.levels for img in images[:lead]]))
    rest = [to_pixels(img.levels) for img in images[lead:]]
    return [first, *rest], [first[i : i + 1] for i in range(lead)] + rest


def compute_step_losses(model: DetectionModel, batch: StepBatch) -> LossParts:
    """Assemble the full objective graph for one sampled step, as
    ``model.config`` sets it: the step's pixels (`step_pixels`), one
    backbone pass per input of them, one `roi_pool` and one `san_forward`
    node on the RoI features; and, exactly when ``san_mode`` is "full",
    the scale-aware term weighted by ``san_loss_weight``: one
    `san_loss_branch` (a second `san_forward` node) on plain arrays, the
    sampled RoIs' pooled rows, or with ``san_pool="max"`` the forward-only
    max-mode `roi_pool` of the sampled RoIs on the detached maps, against reference features cropped from the step's
    pixels.  Those are taken before the maps, so the reference pass's
    transients are freed before the tape grows; it takes no gradient and no
    weight changes within a step, so no bit moves.  Every loss and gradient
    bit is that of one backbone pass per image."""
    cfg = model.config
    inputs, pixels = step_pixels(batch.images)
    scale_aware = cfg.san_mode == "full" and bool(batch.san_indices)
    if scale_aware:
        rois = [batch.rois[j] for j in batch.san_indices]
        slots = [batch.image_slot[j] for j in batch.san_indices]
        r_tilde = batched_reference_features(
            [(pixels[s], roi) for roi, s in zip(rois, slots)], model.scheme.ref_scale, model.backbone
        )
    feats = [model.backbone.forward(Tensor(x)) for x in inputs]
    roi_feats, batch_pooled = forward_roi_features(model, feats, batch.rois, batch.image_slot)
    logits, deltas = model.head.forward(roi_feats)
    san_terms = None
    if scale_aware:
        # plain arrays: the branch records no tape below its entry
        if cfg.san_pool == "avg":
            pooled = batch_pooled.data[batch.san_indices]
        else:
            maps = [ag.detach(f) for f in feats]
            pooled = roi_pool(maps, rois, slots, mode="max").data
        parts = [partition_index(r.area, model.scheme) for r in rois]
        san_terms = san_loss_branch(Tensor(pooled), parts, model.san, Tensor(r_tilde))
    return multi_task_loss(
        logits, deltas, batch.labels, batch.targets, san_terms=san_terms, san_loss_weight=cfg.san_loss_weight
    )


def fill_missing_grads(params: list[Parameter]) -> None:
    """Zero-fill gradients of parameters the step's loss did not touch
    (the sub-networks of partitions with no RoI this mini-batch)."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


class TrainingDiverged(SanlabError):
    def __init__(self, step: int, parts: LossParts, lr: float):
        self.step = step
        self.diagnostics = {"iter": step, "l_cls": parts.l_cls, "l_reg": parts.l_reg, "l_san": parts.l_san, "lr": lr}
        super().__init__(f"non-finite loss at iteration {step}: {self.diagnostics}")


@dataclass
class TrainResult:
    model: DetectionModel
    log_rows: list[tuple[int, float, float, float, float]]


def learning_rate(cfg: TrainingConfig, step: int) -> float:
    return cfg.base_lr * (cfg.lr_decay_factor if step >= cfg.lr_decay_step else 1.0)


def train(dataset: list[tuple[Image, list[Annotation]]], cfg: TrainingConfig) -> TrainResult:
    """Run the configured number of SGD steps and return model plus log.

    Correction sub-network weights are exempt from weight decay: decay
    pulls them toward zero, i.e. away from the near-identity mapping they
    are initialized to and must stay close to.  Only a sub-network can miss
    a step's gradient (its partition drew no RoI); the backbone and head
    always get one, and `sgd_step` raises `GraphError` if they do not.
    """
    model = build_model(cfg)
    if not dataset:
        raise ConfigError("cannot train on an empty dataset")
    check_class_ids(dataset, cfg.num_classes)
    san_params = model.san.named_parameters() if model.san is not None else []
    decayed = model.backbone.named_parameters() + model.head.named_parameters()
    rows: list[tuple[int, float, float, float, float]] = []
    for step in range(cfg.iterations):
        batch = build_step_batch(dataset, cfg, step)
        parts = compute_step_losses(model, batch)
        lr = learning_rate(cfg, step)
        if not all(math.isfinite(v) for v in (parts.l_cls, parts.l_reg, parts.l_san)):
            raise TrainingDiverged(step, parts, lr)
        parts.total.backward()
        fill_missing_grads(san_params)
        ag.sgd_step(decayed, lr=lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        ag.sgd_step(san_params, lr=lr, momentum=cfg.momentum, weight_decay=0.0)
        rows.append((step, parts.l_cls, parts.l_reg, parts.l_san, lr))
    return TrainResult(model=model, log_rows=rows)


def write_log_csv(path: Path, rows: list[tuple[int, float, float, float, float]]) -> None:
    lines = [LOG_HEADER]
    for it, l_cls, l_reg, l_san, lr in rows:
        lines.append(f"{it},{l_cls:.8g},{l_reg:.8g},{l_san:.8g},{lr:.8g}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoint format: magic, then per parameter (u32 name length, name bytes,
# u32 rank, u32 dims..., float32 little-endian payload).  Scheme and class
# count ride along as reserved "meta.*" entries.


def _checkpoint_entries(model: DetectionModel) -> list[tuple[str, np.ndarray]]:
    entries = [
        ("meta.num_classes", np.array([model.num_classes], dtype=np.float32)),
        ("meta.ref_scale", np.array([model.scheme.ref_scale], dtype=np.float32)),
        ("meta.boundaries", np.asarray(model.scheme.boundaries, dtype=np.float32)),
    ]
    entries += [(p.name, p.data) for p in model.named_parameters()]
    return entries


def save_checkpoint(path: Path, model: DetectionModel) -> None:
    write_checkpoint_entries(path, _checkpoint_entries(model))


def write_checkpoint_entries(path: Path, entries: list[tuple[str, np.ndarray]]) -> None:
    """Write named arrays in the checkpoint format (the inverse of
    `read_checkpoint_entries`); no check that they form a model."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for name, arr in entries:
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_checkpoint_entries(path: Path) -> dict[str, np.ndarray]:
    """The named arrays of a checkpoint file.  Every length a header
    declares is checked against the bytes left before anything of that
    length is read, so a corrupt header cannot ask for a large buffer."""
    raw = memoryview(read_file(path, error=CheckpointError))
    magic = bytes(raw[: len(CHECKPOINT_MAGIC)])
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}; expected {CHECKPOINT_MAGIC!r}")
    pos = len(CHECKPOINT_MAGIC)

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(raw) - pos:
            raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
        pos += n
        return raw[pos - n : pos]

    entries: dict[str, np.ndarray] = {}
    while pos < len(raw):
        if len(raw) - pos < 4:
            raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes after the last entry")
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry name at byte {pos - name_len} is not UTF-8") from None
        if name in entries:
            raise CheckpointError(f"{path}: duplicate entry {name}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        payload = take(4 * math.prod(dims), f"payload of {name}")
        entries[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
    return entries


def _entry(entries: dict[str, np.ndarray], key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The checkpoint entry ``key``, which must have exactly ``shape``."""
    if key not in entries:
        raise CheckpointError(f"checkpoint missing required entry {key}")
    arr = entries[key]
    if arr.shape != shape:
        raise CheckpointError(f"checkpoint entry {key} has shape {arr.shape}, expected {shape}")
    return arr


def _meta_count(entries: dict[str, np.ndarray], key: str) -> int:
    """The positive integer stored in the one-element entry ``key``."""
    value = float(_entry(entries, key, (1,))[0])
    if not (value.is_integer() and value >= 1):
        raise CheckpointError(f"{key} must be a positive integer, got {value}")
    return int(value)


def load_checkpoint(path: Path) -> DetectionModel:
    """Rebuild a model from a checkpoint through `build_model`.

    The entries decide the skeleton: ``meta.*`` the scheme and class count,
    ``san.part0.w`` the correction module, ``san.fusion_alpha`` its gate.
    Every parameter is copied from its entry, of exactly its shape; missing
    and unknown entries are errors.  The head and the last sub-network are
    checked first, so a corrupt ``meta`` entry cannot ask for a huge model.
    """
    entries = read_checkpoint_entries(path)
    if "meta.boundaries" not in entries:
        raise CheckpointError("checkpoint missing required entry meta.boundaries")
    num_classes = _meta_count(entries, "meta.num_classes")
    _entry(entries, "head.cls.w", (num_classes + 1, Backbone.c_feat, 1, 1))
    scheme = ScalePartitionScheme(
        ref_scale=_meta_count(entries, "meta.ref_scale"),
        boundaries=tuple(float(b) for b in entries["meta.boundaries"].reshape(-1)),
    )
    with_san = "san.part0.w" in entries
    if with_san and f"san.part{scheme.num_partitions - 1}.w" not in entries:
        raise CheckpointError(f"checkpoint has fewer sub-networks than the {scheme.num_partitions} its scheme implies")
    model = build_model(
        TrainingConfig(
            num_classes=num_classes,
            scheme=scheme,
            san_mode="full" if with_san else "off",
            init_mode="identity-zero-fusion" if with_san and "san.fusion_alpha" in entries else "identity",
        )
    )
    unknown = sorted(set(entries) - {name for name, _ in _checkpoint_entries(model)})
    if unknown:
        raise CheckpointError(f"checkpoint has entries the model does not: {', '.join(unknown)}")
    for p in model.named_parameters():
        p.data[...] = _entry(entries, p.name, p.data.shape)
    return model


# ---------------------------------------------------------------------------
# inference


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_rois(model: DetectionModel, img: Image, rois: list[RoI]) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities (N, K+1) and box deltas (N, 4K) for proposals."""
    with ag.no_grad():
        feat = model.backbone.forward(img.pixels)
        roi_feats, _ = forward_roi_features(model, [feat], rois, [0] * len(rois))
        logits, deltas = model.head.forward(roi_feats)
    return _softmax(logits.data), deltas.data.copy()


def nms(boxes: list[RoI], scores: list[float], iou_thresh: float) -> list[int]:
    """Greedy non-maximum suppression; returns kept indices (score desc)."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    keep: list[int] = []
    for i in order:
        if all(box_iou(boxes[i], boxes[k]) <= iou_thresh for k in keep):
            keep.append(i)
    return keep


def detect(
    model: DetectionModel,
    img: Image,
    proposals: list[RoI],
    score_thresh: float = 0.05,
    nms_iou: float = 0.3,
) -> list[Detection]:
    """Score proposals and return per-class NMS'd detections."""
    if not proposals:
        return []
    probs, deltas = predict_rois(model, img, proposals)
    out: list[Detection] = []
    for k in range(1, model.num_classes + 1):
        cand_boxes: list[RoI] = []
        cand_scores: list[float] = []
        for j, roi in enumerate(proposals):
            score = float(probs[j, k])
            if score < score_thresh:
                continue
            t = RegressionTarget(*deltas[j, 4 * (k - 1) : 4 * k].tolist())
            box = decode_regression(t, roi)
            x1 = min(max(box.x1, 0.0), img.width - 1.0)
            y1 = min(max(box.y1, 0.0), img.height - 1.0)
            x2 = max(min(box.x2, float(img.width)), x1 + 1.0)
            y2 = max(min(box.y2, float(img.height)), y1 + 1.0)
            cand_boxes.append(RoI(x1=x1, y1=y1, x2=x2, y2=y2, image_id=img.id))
            cand_scores.append(score)
        for i in nms(cand_boxes, cand_scores, nms_iou):
            out.append(Detection(image_id=img.id, class_id=k, score=cand_scores[i], box=cand_boxes[i]))
    out.sort(key=lambda d: -d.score)
    return out


# evaluate_detector's proposals per image, and the eval command's defaults
EVAL_N_POS_JITTER = 8
EVAL_N_NEG = 16


def evaluate_detector(
    model: DetectionModel,
    dataset: list[tuple[Image, list[Annotation]]],
    seed: int,
    n_pos_jitter: int = EVAL_N_POS_JITTER,
    n_neg: int = EVAL_N_NEG,
) -> tuple[ApResult, list[Detection]]:
    """Jittered-proposal evaluation over a dataset; returns (ApResult, detections)."""
    check_proposal_source(n_pos_jitter, n_neg)
    check_class_ids(dataset, model.num_classes)
    detections: list[Detection] = []
    gts: list[Annotation] = []
    for img, anns in dataset:
        gts.extend(anns)
        props = make_proposals(anns, n_pos_jitter, n_neg, proposal_rng(seed, img.id), (img.width, img.height))
        detections.extend(detect(model, img, props))
    return evaluate_ap(detections, gts), detections


def default_rmse_scales(ref_scale: int) -> list[int]:
    """Geometric ladder around the reference scale, excluding it."""
    ladder = [ref_scale // 4, ref_scale // 3, ref_scale // 2, (2 * ref_scale) // 3, (4 * ref_scale) // 3, 2 * ref_scale]
    out: list[int] = []
    for s in ladder:
        if s != ref_scale and s not in out:
            out.append(s)
    return out


def rendered_roi_feature(pixels: np.ndarray, box: RoI, scale: int, bb: Backbone) -> Tensor:
    """Pooled channel feature of the object rendered at the given side length.

    ``pixels`` is the image's 1x3xHxW float array (`to_pixels` of its
    levels).  A context window around the box is resized so the box side
    maps to ``scale``, the backbone runs on that rendering, and the mapped
    box is RoI-pooled and globally averaged -- the same extraction the
    detector applies to proposals.  The margin is sized in rendered units
    (four stride cells) so the box cells' receptive fields see real image
    context at every scale.

    Only the part of the rendering that reaches a pooled cell is made:
    `Backbone.roi_crop` names the rows and columns whose forward pass
    reproduces the cells the box reads on the whole rendering's map, the
    resize renders just that window of it, and the box is pooled shifted
    to the crop.  In exact arithmetic this is the whole rendering's
    feature; in float32 a GEMM may round a cell differently inside a
    smaller matrix (within about 1e-6 relative).
    """
    side = math.sqrt(box.area)
    factor = scale / side
    margin = 4 * bb.total_stride / factor
    wx1 = max(0, math.floor(box.x1 - margin))
    wy1 = max(0, math.floor(box.y1 - margin))
    wx2 = min(pixels.shape[3], math.ceil(box.x2 + margin))
    wy2 = min(pixels.shape[2], math.ceil(box.y2 + margin))
    out_h = max(bb.total_stride, int(round((wy2 - wy1) * factor)))
    out_w = max(bb.total_stride, int(round((wx2 - wx1) * factor)))
    fy = out_h / (wy2 - wy1)
    fx = out_w / (wx2 - wx1)
    x1, x2 = (box.x1 - wx1) * fx, (box.x2 - wx1) * fx
    y1, y2 = (box.y1 - wy1) * fy, (box.y2 - wy1) * fy
    rows = bb.roi_crop(y1, y2, out_h)
    cols = bb.roi_crop(x1, x2, out_w)
    with ag.no_grad():
        context = Tensor(pixels[:, :, wy1:wy2, wx1:wx2])
        feat = bb.forward(ag.bilinear_resize(context, out_h, out_w, window=(rows, cols)))
        # the crop starts on the stride grid, so the shift moves no cell boundary
        mapped = RoI(x1=x1 - cols[0], y1=y1 - rows[0], x2=x2 - cols[0], y2=y2 - rows[0], image_id=box.image_id)
        return ag.global_avg_pool(roi_pool([feat], [mapped], [0]))


def rmse_report(
    model: DetectionModel,
    dataset: list[tuple[Image, list[Annotation]]],
    scales: list[int] | None = None,
) -> list[RmseRow]:
    """Scale-space feature distances for every annotation.

    Per object and rendered scale s: the pooled feature of the object at
    side s is compared against the reference-scale patch feature (the
    scale-invariant target), before and after the partition's correction.
    Scales below the backbone stride are skipped (`Backbone.split_scales`).
    """
    if model.san is None:
        raise SanlabError("this model was trained without the correction module; the rmse report needs one")
    bb = model.backbone
    ref = model.scheme.ref_scale
    if scales is None:
        scales = default_rmse_scales(ref)
    measured, _ = bb.split_scales(scales)
    rows: list[RmseRow] = []
    sample_id = 0
    for img, anns in dataset:
        if not anns:
            continue
        pixels = to_pixels(img.levels)  # once per image: every reference crop and rendering reads it
        refs = batched_reference_features([(pixels, ann.box) for ann in anns], ref, bb)
        for ann, r in zip(anns, refs):
            z0 = Tensor(r[None])
            for s in measured:
                z_s = rendered_roi_feature(pixels, ann.box, s, bb)
                part = partition_index(float(s * s), model.scheme)
                rows.append(
                    RmseRow(
                        sample_id=sample_id,
                        class_id=ann.class_id,
                        scale=s,
                        rmse_without=rmse_without_san(z_s, z0),
                        rmse_with=rmse_with_san(z_s, z0, model.san, part),
                    )
                )
            sample_id += 1
    return rows
