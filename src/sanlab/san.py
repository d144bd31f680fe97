"""Scale-aware feature correction: partitioning, sub-networks, fusion.

RoIs are routed by area to one of several 1x1 channel-mixing sub-networks;
each corrects features toward what the backbone would produce at the
reference scale.  `san_forward` runs every row through its own partition's
sub-network as one tape node.  It serves both roles of the shared weights:
the detection path (corrected features are fused back into the originals)
and the scale-aware loss branch, which sees a detached copy of the
features so its error never reaches the backbone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .errors import ConfigError, ShapeError
from .rng import STREAM_WEIGHTS, derive


@dataclass(frozen=True)
class ScalePartitionScheme:
    """Reference side length plus sorted area thresholds between partitions.

    A threshold belongs to the partition below it: with boundaries
    (160^2, 288^2) an area of exactly 160^2 maps to partition 0.
    """

    ref_scale: int
    boundaries: tuple[float, ...] = ()

    def __post_init__(self):
        if self.ref_scale < 1:
            raise ConfigError(f"ref_scale must be positive, got {self.ref_scale}")
        # rounded to float32, the precision a checkpoint stores them in, so
        # that a scheme reloads equal to the one saved
        with np.errstate(over="ignore"):
            bs = tuple(float(np.float32(b)) for b in self.boundaries)
        if not all(0 < b < math.inf for b in bs):
            raise ConfigError(f"boundaries must be positive and finite in float32, got {tuple(self.boundaries)}")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ConfigError(f"boundaries must be strictly increasing, got {bs}")
        object.__setattr__(self, "boundaries", bs)

    @property
    def num_partitions(self) -> int:
        return len(self.boundaries) + 1


VOC_SCHEME = ScalePartitionScheme(ref_scale=224, boundaries=(160.0**2, 288.0**2))
COCO_SCHEME = ScalePartitionScheme(ref_scale=128, boundaries=(64.0**2, 192.0**2))
TOY_SCHEME = ScalePartitionScheme(ref_scale=48, boundaries=(24.0**2, 48.0**2))

SCHEME_PRESETS = {"voc": VOC_SCHEME, "coco": COCO_SCHEME, "toy": TOY_SCHEME}


def resolve_scheme(preset: str, ref_scale: int | None = None, boundaries=None) -> ScalePartitionScheme:
    """The scheme preset named ``preset``, with ``ref_scale`` and ``boundaries``
    in place of its own where they are given."""
    if preset not in SCHEME_PRESETS:
        raise ConfigError(f"unknown scheme preset {preset!r}; choose from {sorted(SCHEME_PRESETS)}")
    base = SCHEME_PRESETS[preset]
    if ref_scale is None and boundaries is None:
        return base
    return ScalePartitionScheme(
        ref_scale=int(ref_scale) if ref_scale is not None else base.ref_scale,
        boundaries=tuple(boundaries) if boundaries is not None else base.boundaries,
    )


def partition_index(area: float, scheme: ScalePartitionScheme) -> int:
    """Partition of a pixel area (an RoI's `area`); thresholds go to the lower side."""
    return bisect_left(scheme.boundaries, area)


@dataclass
class SanSubNetwork:
    """One per-partition corrector: square 1x1 channel mix plus bias."""

    w: Parameter
    b: Parameter


@dataclass
class SanModule:
    """Per-partition sub-networks; the model's scheme routes RoIs to them.

    ``fusion_alpha`` is normally None (plain element-wise-sum fusion); the
    identity-zero-fusion variant adds a trainable scalar gate initialized
    to zero so the module starts as an exact no-op.
    """

    subnets: list[SanSubNetwork]
    fusion_alpha: Parameter | None = None

    @classmethod
    def create(cls, scheme: ScalePartitionScheme, c_feat: int, zero_fusion: bool = False) -> "SanModule":
        subnets = []
        for i in range(scheme.num_partitions):
            w = Parameter(np.zeros((c_feat, c_feat, 1, 1), dtype=np.float32), name=f"san.part{i}.w")
            b = Parameter(np.zeros(c_feat, dtype=np.float32), name=f"san.part{i}.b")
            subnets.append(SanSubNetwork(w=w, b=b))
        alpha = Parameter(np.zeros((), dtype=np.float32), name="san.fusion_alpha") if zero_fusion else None
        return cls(subnets=subnets, fusion_alpha=alpha)

    @property
    def c_feat(self) -> int:
        return self.subnets[0].w.data.shape[0]

    def named_parameters(self) -> list[Parameter]:
        out = []
        for sn in self.subnets:
            out.extend((sn.w, sn.b))
        if self.fusion_alpha is not None:
            out.append(self.fusion_alpha)
        return out


def init_identity(m: SanModule) -> None:
    """Identity channel mix, zero biases: the module starts transparent."""
    c = m.c_feat
    eye = np.eye(c, dtype=np.float32).reshape(c, c, 1, 1)
    for sn in m.subnets:
        sn.w.data[:] = eye
        sn.b.data[:] = 0.0


def init_gaussian(m: SanModule, std: float, seed: int) -> None:
    """Zero-mean gaussian kernels (ablation baseline), zero biases."""
    if std < 0:
        raise ConfigError(f"std must be non-negative, got {std}")
    rng = derive(seed, STREAM_WEIGHTS, 1)
    for sn in m.subnets:
        sn.w.data[:] = rng.normal(0.0, std, size=sn.w.data.shape).astype(np.float32)
        sn.b.data[:] = 0.0


def san_forward(x: Tensor, parts: int | list[int], m: SanModule) -> Tensor:
    """The correction module's forward: row n through partition parts[n]'s
    corrector, relu(W_p x_n + b_p), as one tape node; an integer ``parts``
    routes every row through that partition.  Per partition, in ascending
    order, its rows (in row order) pass one pointwise conv; the backward
    takes db_p, dW_p and dx with the numpy calls of `conv2d` and `relu`, so
    values and gradients equal take0 / conv2d / relu per partition, merged
    back, bit for bit.
    """
    if x.data.ndim != 4 or x.shape[1] != m.c_feat:
        raise ShapeError(f"san_forward expects NCHW with {m.c_feat} channels, got {x.shape}")
    n, c, h, w = x.shape
    ids = np.full(n, parts) if np.ndim(parts) == 0 else np.asarray(parts)
    if ids.shape != (n,) or (n and ids.dtype.kind not in "iu"):
        raise ShapeError(f"san_forward needs one integer partition id per row, got {ids.shape} {ids.dtype} for {n} rows")
    present = sorted(set(ids.tolist()))
    if present and not 0 <= present[0] <= present[-1] < len(m.subnets):
        raise ShapeError(f"partition ids {present} out of range for {len(m.subnets)} sub-networks")
    out = np.empty_like(x.data)
    groups = []  # (sub-network, its rows, their columns (n_p, C, H*W), relu mask)
    for p in present:
        rows = slice(None) if len(present) == 1 else np.flatnonzero(ids == p)
        sn, cols = m.subnets[p], x.data[rows].reshape(-1, c, h * w)
        y = np.matmul(sn.w.data.reshape(c, c), cols)
        y += sn.b.data.reshape(c, 1)
        out[rows] = np.maximum(y, 0).reshape(-1, c, h, w)
        groups.append((sn, rows, cols, y > 0))

    def backward(grad_out: np.ndarray):
        dx = np.empty_like(x.data)
        for sn, rows, cols, mask in groups:
            g = grad_out[rows].reshape(mask.shape) * mask
            sn.b._accumulate(g.sum(axis=(0, 2)))
            sn.w._accumulate(np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(sn.w.shape))
            if x.requires_grad:
                dx[rows] = np.matmul(sn.w.data.reshape(c, c).T, g).reshape(-1, c, h, w)
        if x.requires_grad:
            x._accumulate(dx)

    return ag._result(out, (x, *(t for sn, *_ in groups for t in (sn.w, sn.b))), backward)


def fuse(original: Tensor, san_out: Tensor, alpha: Parameter | None = None) -> Tensor:
    """Element-wise sum of original and corrected features.

    With an alpha gate, returns original + alpha * san_out instead.
    """
    if original.shape != san_out.shape:
        raise ShapeError(f"fuse shape mismatch: {original.shape} vs {san_out.shape}")
    if alpha is None:
        return ag.add(original, san_out)
    return ag.add(original, ag.scale_by(san_out, alpha))


def san_loss_branch(feat_rois: Tensor, parts: list[int], m: SanModule, r_tilde: Tensor) -> Tensor:
    """Scale-aware loss of N RoIs, row n in partition parts[n]: one term per
    RoI, shape (N,), in row order.

    Each term is the channel-wise robust difference between the corrected
    and the reference-scale activation vectors.  The pooled RoI features
    (N, C, h, w) are detached at entry and collapsed to their channel
    vectors; each row's sub-network routes them toward the reference
    activations r_tilde (N, C, 1, 1).  Only the sub-network weights
    receive gradient; the reference features must already be constant.
    """
    if r_tilde.requires_grad:
        raise ShapeError("reference feature must not carry a gradient")
    if feat_rois.shape[1] != r_tilde.shape[1]:
        raise ShapeError(f"channel mismatch: features {feat_rois.shape[1]} vs reference {r_tilde.shape[1]}")
    z = ag.global_avg_pool(ag.detach(feat_rois))
    return ag.sum_rows(ag.smooth_l1(ag.sub(san_forward(z, parts, m), r_tilde)))
