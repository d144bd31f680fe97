"""Training loop, model container, checkpointing, and inference.

A training step samples two images, builds jittered proposals with a
1:3 positive:negative cap, runs the backbone and the RoI heads, and adds
the scale-aware branch for a fixed-size random subset of the RoIs before
one SGD update.  Everything is a pure function of (dataset, config), so
checkpoints replay bit-for-bit under a fixed seed.
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
from .backbone import Backbone, Image, RoI, batched_reference_features, roi_avg_pool, roi_pool
# perfbench's tracer looks the reference pathway up under these two names
from .backbone import extract_reference_feature as reference_feature_for_roi
from .data import Annotation, make_proposals, proposal_rng
from .errors import CheckpointError, ConfigError, GraphError, SanlabError
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
    # debug mode: re-runs every step without the scale-aware term and asserts
    # the backbone gradients are bitwise unchanged (the siamese blocking contract)
    debug_gradient_checks: bool = False

    def validate(self) -> None:
        for name, choices in FIELD_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.san_mode == "off" and self.init_mode == "gaussian":
            raise ConfigError("init_mode 'gaussian' has no effect with san_mode 'off'; change one of them")
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


# The front ends (the `train` command's flags and config keys, SanDetector's
# parameters) take one setting per TrainingConfig field, renamed as in
# FRONT_END_NAMES.  Both spell `scheme` as a preset name plus overrides.
# `debug_gradient_checks` stays library-only: it is a debug hook, and
# bool("0") is True.
FRONT_END_NAMES = {"san_mode": "san", "init_mode": "init"}


def front_end_fields() -> dict[str, dataclasses.Field]:
    """Front-end name -> TrainingConfig field, in field order."""
    return {
        FRONT_END_NAMES.get(f.name, f.name): f
        for f in dataclasses.fields(TrainingConfig)
        if f.name not in ("scheme", "debug_gradient_checks")
    }


def front_end_defaults() -> dict:
    """Every front-end setting with its default (the preset is TrainingConfig's scheme)."""
    return {name: f.default for name, f in front_end_fields().items()} | {"scheme": "toy", "ref_scale": None, "boundaries": None}


def config_from_front_end(values: dict, scheme: ScalePartitionScheme) -> TrainingConfig:
    """The TrainingConfig of front-end values, keyed as by `front_end_fields`."""
    return TrainingConfig(scheme=scheme, **{f.name: values[name] for name, f in front_end_fields().items()})


@dataclass
class DetectionModel:
    backbone: Backbone
    head: DetectionHead
    san: SanModule | None
    scheme: ScalePartitionScheme
    num_classes: int

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
    return DetectionModel(backbone=bb, head=head, san=san, scheme=cfg.scheme, num_classes=cfg.num_classes)


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
        props = make_proposals(anns, cfg.n_pos_jitter, cfg.n_neg, rng, img.width)
        assigned = assign_roi_labels(props, anns, cfg.pos_iou)
        pos = [i for i, (u, _) in enumerate(assigned) if u >= 1]
        neg = [i for i, (u, _) in enumerate(assigned) if u == 0]
        n_pos = min(len(pos), int(round(cfg.rois_per_image * cfg.pos_fraction)))
        n_neg = min(len(neg), cfg.rois_per_image - n_pos)
        keep = []
        if pos:
            keep += sorted(rng.choice(len(pos), size=n_pos, replace=False).tolist()) if n_pos < len(pos) else list(range(len(pos)))
            keep = [pos[i] for i in keep]
        if neg:
            kn = sorted(rng.choice(len(neg), size=n_neg, replace=False).tolist()) if n_neg < len(neg) else list(range(len(neg)))
            keep += [neg[i] for i in kn]
        for i in keep:
            rois.append(props[i])
            slots.append(slot)
            labels.append(assigned[i][0])
            targets.append(assigned[i][1])
    san_indices = sample_san_rois(list(range(len(rois))), cfg.san_samples, rng)
    return StepBatch(images=images, rois=rois, image_slot=slots, labels=labels, targets=targets, san_indices=san_indices)


# ---------------------------------------------------------------------------
# forward graph


def _group_rows(keys: list[int]) -> tuple[list[tuple[int, list[int]]], np.ndarray | None]:
    """Row indices per distinct key, in ascending key order, and the
    permutation that takes the concatenated groups back to row order
    (None when the groups already are in row order)."""
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    ordered = sorted(groups.items())
    order = [i for _, idx in ordered for i in idx]
    if order == list(range(len(keys))):
        return ordered, None
    return ordered, np.argsort(np.asarray(order, dtype=np.intp))


def _merge_rows(parts: list[Tensor], inverse: np.ndarray | None) -> Tensor:
    """Concatenate per-group results and restore row order (see _group_rows)."""
    merged = parts[0] if len(parts) == 1 else ag.concat0(parts)
    return merged if inverse is None else ag.take0(merged, inverse)


def pool_rois(feats: list[Tensor], rois: list[RoI], slots: list[int], stride: int, mode: str = "avg") -> Tensor:
    """Pool every RoI on its image's feature map to (N, C, 7, 7), in RoI order.

    Average pooling is one `roi_avg_pool` per image, max pooling one
    `roi_pool` per RoI.  Row n is bitwise the pooling of rois[n] alone, so
    rows of an average-pooled batch serve any subset of its RoIs (the
    scale-aware loss branch reuses them instead of pooling again).
    """
    by_image, inverse = _group_rows(slots)
    if mode == "avg":
        pooled = [roi_avg_pool(feats[s], [rois[i] for i in idx], out=7, stride=stride) for s, idx in by_image]
    else:
        pooled = [roi_pool(feats[s], rois[i], out=7, mode=mode, stride=stride) for s, idx in by_image for i in idx]
    return _merge_rows(pooled, inverse)


def forward_roi_features(
    model: DetectionModel, feats: list[Tensor], batch_rois: list[RoI], slots: list[int]
) -> tuple[Tensor, Tensor]:
    """Pool every RoI and run the split / correct-per-partition / merge path.

    Returns the RoI features and the average-pooled batch they start from
    (the same tensor when the model has no correction module); the
    scale-aware loss branch takes its rows from the latter.
    """
    batch = pool_rois(feats, batch_rois, slots, model.backbone.total_stride)
    if model.san is None:
        return batch, batch
    by_part, inverse = _group_rows([partition_index(r.area, model.scheme) for r in batch_rois])
    corrected = [
        san_forward(batch if len(idx) == len(batch_rois) else ag.take0(batch, idx), p, model.san)
        for p, idx in by_part
    ]
    return fuse(batch, _merge_rows(corrected, inverse), alpha=model.san.fusion_alpha), batch


def compute_step_losses(
    model: DetectionModel,
    batch: StepBatch,
    cfg: TrainingConfig,
    include_san_loss: bool,
) -> LossParts:
    """Assemble the full objective graph for one sampled step."""
    feats = [model.backbone.forward(img.pixels) for img in batch.images]
    roi_feats, batch_pooled = forward_roi_features(model, feats, batch.rois, batch.image_slot)
    logits, deltas = model.head.forward(roi_feats)
    san_terms = None
    if include_san_loss and model.san is not None and batch.san_indices:
        rois = [batch.rois[j] for j in batch.san_indices]
        slots = [batch.image_slot[j] for j in batch.san_indices]
        r_tilde = batched_reference_features(
            [(batch.images[s], roi) for roi, s in zip(rois, slots)], model.scheme.ref_scale, model.backbone
        )
        # plain arrays: the branch records no tape below its entry
        if cfg.san_pool == "avg":
            pooled = batch_pooled.data[batch.san_indices]
        else:
            pooled = pool_rois([ag.detach(f) for f in feats], rois, slots, model.backbone.total_stride, mode=cfg.san_pool).data
        by_part, inverse = _group_rows([partition_index(r.area, model.scheme) for r in rois])
        terms = [san_loss_branch(Tensor(pooled[idx]), p, model.san, Tensor(r_tilde[idx])) for p, idx in by_part]
        san_terms = _merge_rows(terms, inverse)
    return multi_task_loss(
        logits,
        deltas,
        batch.labels,
        batch.targets,
        model.num_classes,
        san_terms=san_terms,
        san_loss_weight=cfg.san_loss_weight,
    )


def fill_missing_grads(params: list[Parameter]) -> None:
    """Zero-fill gradients of parameters the step's loss did not touch
    (e.g. partitions with no RoIs this mini-batch)."""
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
    config: TrainingConfig


def learning_rate(cfg: TrainingConfig, step: int) -> float:
    return cfg.base_lr * (cfg.lr_decay_factor if step >= cfg.lr_decay_step else 1.0)


def train(dataset: list[tuple[Image, list[Annotation]]], cfg: TrainingConfig) -> TrainResult:
    """Run the configured number of SGD steps and return model plus log.

    Correction sub-network weights are exempt from weight decay: decay
    pulls them toward zero, i.e. away from the near-identity mapping they
    are initialized to and must stay close to.
    """
    cfg.validate()
    if not dataset:
        raise ConfigError("cannot train on an empty dataset")
    model = build_model(cfg)
    san_params = model.san.named_parameters() if model.san is not None else []
    decayed = model.backbone.named_parameters() + model.head.named_parameters()
    all_params = model.named_parameters()
    rows: list[tuple[int, float, float, float, float]] = []
    include_san = cfg.san_mode == "full"
    backbone_params = model.backbone.named_parameters()
    for step in range(cfg.iterations):
        batch = build_step_batch(dataset, cfg, step)
        blocked_reference = None
        if cfg.debug_gradient_checks and include_san:
            compute_step_losses(model, batch, cfg, include_san_loss=False).total.backward()
            blocked_reference = [p.grad.copy() if p.grad is not None else None for p in backbone_params]
            for p in all_params:
                p.grad = None
        parts = compute_step_losses(model, batch, cfg, include_san_loss=include_san)
        lr = learning_rate(cfg, step)
        if not all(math.isfinite(v) for v in (parts.l_cls, parts.l_reg, parts.l_san)):
            raise TrainingDiverged(step, parts, lr)
        parts.total.backward()
        if blocked_reference is not None:
            for p, ref in zip(backbone_params, blocked_reference):
                got = p.grad
                same = (got is None and ref is None) or (got is not None and ref is not None and np.array_equal(got, ref))
                if not same:
                    raise GraphError(
                        f"step {step}: scale-aware loss leaked gradient into backbone parameter {p.name}"
                    )
        fill_missing_grads(all_params)
        ag.sgd_step(decayed, lr=lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        if san_params:
            ag.sgd_step(san_params, lr=lr, momentum=cfg.momentum, weight_decay=0.0)
        rows.append((step, parts.l_cls, parts.l_reg, parts.l_san, lr))
    return TrainResult(model=model, log_rows=rows, config=cfg)


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
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    raw = memoryview(path.read_bytes())
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
            init_mode="identity-zero-fusion" if "san.fusion_alpha" in entries else "identity",
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


def evaluate_detector(
    model: DetectionModel,
    dataset: list[tuple[Image, list[Annotation]]],
    seed: int,
    n_pos_jitter: int = 8,
    n_neg: int = 16,
    iou_thresh: float = 0.5,
    score_thresh: float = 0.05,
    nms_iou: float = 0.3,
) -> tuple[ApResult, list[Detection]]:
    """Jittered-proposal evaluation over a dataset; returns (ApResult, detections)."""
    detections: list[Detection] = []
    gts: list[Annotation] = []
    for img, anns in dataset:
        gts.extend(anns)
        props = make_proposals(anns, n_pos_jitter, n_neg, proposal_rng(seed, img.id), img.width)
        detections.extend(detect(model, img, props, score_thresh=score_thresh, nms_iou=nms_iou))
    return evaluate_ap(detections, gts, iou_thresh=iou_thresh), detections


def default_rmse_scales(ref_scale: int, min_scale: int) -> list[int]:
    """Geometric ladder around the reference scale, excluding it."""
    ladder = [ref_scale // 4, ref_scale // 3, ref_scale // 2, (2 * ref_scale) // 3, (4 * ref_scale) // 3, 2 * ref_scale]
    out: list[int] = []
    for s in ladder:
        if s >= min_scale and s != ref_scale and s not in out:
            out.append(s)
    return out


def rendered_roi_feature(img: Image, box: RoI, scale: int, bb: Backbone) -> Tensor:
    """Pooled channel feature of the object rendered at the given side length.

    A context window around the box is resized so the box side maps to
    ``scale``, the backbone runs on that rendering, and the mapped box is
    RoI-pooled and globally averaged -- the same extraction the detector
    applies to proposals.  The margin is sized in rendered units (four
    stride cells) so the box cells' receptive fields see real image
    context at every scale.
    """
    side = math.sqrt(box.area)
    factor = scale / side
    margin = 4 * bb.total_stride / factor
    wx1 = max(0, math.floor(box.x1 - margin))
    wy1 = max(0, math.floor(box.y1 - margin))
    wx2 = min(img.width, math.ceil(box.x2 + margin))
    wy2 = min(img.height, math.ceil(box.y2 + margin))
    out_h = max(bb.total_stride, int(round((wy2 - wy1) * factor)))
    out_w = max(bb.total_stride, int(round((wx2 - wx1) * factor)))
    fy = out_h / (wy2 - wy1)
    fx = out_w / (wx2 - wx1)
    with ag.no_grad():
        window = Tensor(img.pixels.data[:, :, wy1:wy2, wx1:wx2])
        feat = bb.forward(ag.bilinear_resize(window, out_h, out_w))
        mapped = RoI(
            x1=(box.x1 - wx1) * fx,
            y1=(box.y1 - wy1) * fy,
            x2=(box.x2 - wx1) * fx,
            y2=(box.y2 - wy1) * fy,
            image_id=box.image_id,
        )
        return ag.global_avg_pool(roi_avg_pool(feat, [mapped], out=7, stride=bb.total_stride))


def rmse_report(
    model: DetectionModel,
    dataset: list[tuple[Image, list[Annotation]]],
    scales: list[int] | None = None,
) -> list[RmseRow]:
    """Scale-space feature distances for every annotation.

    Per object and rendered scale s: the pooled feature of the object at
    side s is compared against the reference-scale patch feature (the
    scale-invariant target), before and after the partition's correction.
    """
    if model.san is None:
        raise SanlabError("rmse report needs a model with the correction module")
    bb = model.backbone
    ref = model.scheme.ref_scale
    if scales is None:
        scales = default_rmse_scales(ref, bb.total_stride)
    rows: list[RmseRow] = []
    sample_id = 0
    for img, anns in dataset:
        for ann in anns:
            z0 = reference_feature_for_roi(img, ann.box, ref, bb)
            for s in scales:
                if s < bb.total_stride:
                    continue
                z_s = rendered_roi_feature(img, ann.box, s, bb)
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
