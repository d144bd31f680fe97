"""Small convolutional backbone and the two feature-extraction pathways.

A feature map for a whole image comes from a stack of strided conv+ReLU
blocks; per-object features come either from RoI pooling on that map or
from the scale-normalized-patch pathway (crop the RoI's cell-aligned
footprint, resize to the reference scale, run the backbone, pool
globally), which `batched_reference_features` alone implements.  The
public `sanlab.extract_reference_feature` is its one-RoI case, so it too
crops the cell-aligned footprint rather than the RoI itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .errors import RoiError, ShapeError
from .rng import STREAM_WEIGHTS, derive


@dataclass
class Image:
    """Input image: pixels as a 1x3xHxW tensor with values in [0, 1]."""

    pixels: Tensor
    id: int = 0

    def __post_init__(self):
        if self.pixels.data.ndim != 4 or self.pixels.shape[0] != 1 or self.pixels.shape[1] != 3:
            raise ShapeError(f"Image pixels must be 1x3xHxW, got {self.pixels.shape}")
        if self.height < 16 or self.width < 16:
            raise ShapeError(f"Image must be at least 16x16, got {self.height}x{self.width}")

    @property
    def height(self) -> int:
        return self.pixels.shape[2]

    @property
    def width(self) -> int:
        return self.pixels.shape[3]


@dataclass(frozen=True)
class RoI:
    """Axis-aligned box in input-image pixel coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float
    image_id: int = 0

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise RoiError(f"RoI must have positive extent, got ({self.x1},{self.y1},{self.x2},{self.y2})")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def intersects_image(self, width: int, height: int) -> bool:
        return self.x1 < width and self.y1 < height and self.x2 > 0 and self.y2 > 0


# Fixed miniature architecture: (out_channels, kernel, stride, pad) per block.
# Three strided 3x3 blocks then a 1x1 feature-extraction layer, all ReLU.
BACKBONE_BLOCKS: tuple[tuple[int, int, int, int], ...] = (
    (16, 3, 2, 1),
    (32, 3, 2, 1),
    (32, 3, 2, 1),
    (32, 1, 1, 0),
)


@dataclass
class Backbone:
    """The conv+ReLU blocks of BACKBONE_BLOCKS, which fix all its geometry."""

    params: list[tuple[Parameter, Parameter]]  # (weights, bias) per block

    total_stride = math.prod(s for _, _, s, _ in BACKBONE_BLOCKS)
    c_feat = BACKBONE_BLOCKS[-1][0]

    @classmethod
    def small(cls, seed: int) -> "Backbone":
        """Miniature backbone (stride 8, 32 feature channels) on RGB input.

        Init is He-scaled with gain 1.5 so features start near their
        trained magnitude; the scale-aware loss then measures a roughly
        stationary feature scale from the first step.
        """
        rng = derive(seed, STREAM_WEIGHTS, 0)
        params = []
        c_in = 3
        for i, (c_out, k, _, _) in enumerate(BACKBONE_BLOCKS):
            std = 1.5 * math.sqrt(2.0 / (c_in * k * k))
            w = Parameter(rng.normal(0.0, std, size=(c_out, c_in, k, k)).astype(np.float32), name=f"backbone.block{i}.w")
            b = Parameter(np.zeros(c_out, dtype=np.float32), name=f"backbone.block{i}.b")
            params.append((w, b))
            c_in = c_out
        return cls(params=params)

    def named_parameters(self) -> list[Parameter]:
        out = []
        for w, b in self.params:
            out.extend((w, b))
        return out

    def forward(self, x: Tensor) -> Tensor:
        """Run the block stack on a 1xCxHxW (or NxCxHxW) tensor.

        Padding replicates edges so constant inputs give scale-invariant
        channel vectors.
        """
        if x.shape[2] < self.total_stride or x.shape[3] < self.total_stride:
            raise ShapeError(
                f"input {x.shape[2]}x{x.shape[3]} smaller than backbone stride {self.total_stride}"
            )
        for (w, b), (_, _, s, p) in zip(self.params, BACKBONE_BLOCKS):
            x = ag.relu(ag.conv2d(x, w, b, stride=s, pad=p))
        return x


def _roi_cell_span(lo: float, hi: float, stride: int, limit: int) -> tuple[int, int]:
    c_lo = max(0, math.floor(lo / stride))
    c_hi = min(limit, math.ceil(hi / stride))
    return c_lo, c_hi


def _roi_cells(feat: Tensor, roi: RoI, stride: int) -> tuple[int, int, int, int]:
    """(y_lo, y_hi, x_lo, x_hi): the feature cells an RoI reads."""
    if feat.data.ndim != 4 or feat.shape[0] != 1:
        raise ShapeError(f"roi_pool expects a 1xCxhxw feature map, got {feat.shape}")
    _, _, fh, fw = feat.shape
    x_lo, x_hi = _roi_cell_span(roi.x1, roi.x2, stride, fw)
    y_lo, y_hi = _roi_cell_span(roi.y1, roi.y2, stride, fh)
    if x_hi <= x_lo or y_hi <= y_lo:
        raise RoiError(
            f"RoI ({roi.x1},{roi.y1},{roi.x2},{roi.y2}) degenerate on {fh}x{fw} map at stride {stride}"
        )
    return y_lo, y_hi, x_lo, x_hi


def roi_pool(feat: Tensor, roi: RoI, out: int = 7, mode: str = "avg", stride: int = 8) -> Tensor:
    """Pool an RoI's feature-map region to a fixed out x out grid.

    Feature-cell mapping: coordinates divided by stride, then floor(x1) /
    ceil(x2), clamped to the map.  Each output bin covers the cells whose
    index range [floor(b*span/out), ceil((b+1)*span/out)) intersects the
    bin's fractional span; bins are never empty.  Average mode is
    `roi_avg_pool` of this one RoI and distributes gradient uniformly over
    a bin's cells; max mode routes it to the first-in-row-major-order
    maximum of each channel.
    """
    if mode not in ("avg", "max"):
        raise ShapeError(f"roi_pool mode must be 'avg' or 'max', got {mode!r}")
    if mode == "avg":
        return roi_avg_pool(feat, [roi], out=out, stride=stride)
    y_lo, y_hi, x_lo, x_hi = _roi_cells(feat, roi, stride)
    c = feat.shape[1]
    w_span = x_hi - x_lo
    h_span = y_hi - y_lo
    cells = feat.data[0, :, y_lo:y_hi, x_lo:x_hi]

    # per-bin arg tracking for winner-only gradients
    out_data = np.empty((1, c, out, out), dtype=feat.dtype)
    spans: list[tuple[int, int, int, int]] = []
    winners: list[np.ndarray] = []
    ch_idx = np.arange(c)
    for by in range(out):
        ys = math.floor(by * h_span / out)
        ye = math.ceil((by + 1) * h_span / out)
        for bx in range(out):
            xs = math.floor(bx * w_span / out)
            xe = math.ceil((bx + 1) * w_span / out)
            bin_cells = cells[:, ys:ye, xs:xe].reshape(c, -1)
            idx = bin_cells.argmax(axis=1)
            winners.append(idx)
            out_data[0, :, by, bx] = bin_cells[ch_idx, idx]
            spans.append((ys, ye, xs, xe))

    def backward(grad_out: np.ndarray):
        g = np.zeros_like(feat.data)
        gout = grad_out[0]
        for i, (ys, ye, xs, xe) in enumerate(spans):
            by, bx = divmod(i, out)
            r, col = np.divmod(winners[i], xe - xs)
            g[0, ch_idx, y_lo + ys + r, x_lo + xs + col] += gout[:, by, bx]
        feat._accumulate(g)

    return ag._result(out_data, (feat,), backward)


def roi_avg_pool(feat: Tensor, rois: Sequence[RoI], out: int = 7, stride: int = 8) -> Tensor:
    """Average-pool many RoIs of one 1xCxhxw feature map: (N, C, out, out).

    Binning as in `roi_pool`.  Bins factor into independent row and column
    spans, so each RoI's grid is two 0/1 matmuls, exact on integer-valued
    data; row n is bitwise the pooling of rois[n] alone.  The batch is one
    tape node, whose backward sums every RoI's bin gradients into a single
    map-sized buffer.
    """
    if not rois:
        raise RoiError("roi_avg_pool needs at least one RoI")
    dtype = feat.data.dtype
    plans = []
    for roi in rois:
        y_lo, y_hi, x_lo, x_hi = _roi_cells(feat, roi, stride)
        rows, row_sizes = _bin_matrix(y_hi - y_lo, out, dtype)
        cols, col_sizes = _bin_matrix(x_hi - x_lo, out, dtype)
        plans.append((y_lo, y_hi, x_lo, x_hi, rows, cols, row_sizes[:, None] * col_sizes[None, :]))
    out_data = np.empty((len(rois), feat.shape[1], out, out), dtype=dtype)
    for n, (y_lo, y_hi, x_lo, x_hi, rows, cols, counts) in enumerate(plans):
        sums = np.matmul(np.matmul(rows, feat.data[0, :, y_lo:y_hi, x_lo:x_hi]), cols.T)
        out_data[n] = sums / counts

    def backward(grad_out: np.ndarray):
        g = np.zeros_like(feat.data)
        for gn, (y_lo, y_hi, x_lo, x_hi, rows, cols, counts) in zip(grad_out, plans):
            g[0, :, y_lo:y_hi, x_lo:x_hi] += np.matmul(rows.T, np.matmul(gn / counts, cols))
        feat._accumulate(g)

    return ag._result(out_data, (feat,), backward)


@functools.lru_cache(maxsize=None)
def _bin_matrix(span: int, out: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """0/1 matrix mapping span cells to out bins by fractional coverage,
    and its row sums (cells per bin).  Cached, so both are read-only."""
    m = np.zeros((out, span), dtype=dtype)
    for b in range(out):
        lo = math.floor(b * span / out)
        hi = math.ceil((b + 1) * span / out)
        m[b, lo:hi] = 1
    sizes = m.sum(axis=1)
    m.flags.writeable = False
    sizes.flags.writeable = False
    return m, sizes


def crop_pixels(img: Image, roi: RoI) -> np.ndarray:
    """Integer-pixel crop of the RoI, clamped to the image (no padding)."""
    x_lo = max(0, math.floor(roi.x1))
    x_hi = min(img.width, math.ceil(roi.x2))
    y_lo = max(0, math.floor(roi.y1))
    y_hi = min(img.height, math.ceil(roi.y2))
    if x_hi <= x_lo or y_hi <= y_lo:
        raise RoiError(f"RoI ({roi.x1},{roi.y1},{roi.x2},{roi.y2}) lies outside the {img.width}x{img.height} image")
    return img.pixels.data[:, :, y_lo:y_hi, x_lo:x_hi]


def cell_aligned_roi(roi: RoI, stride: int, width: int, height: int) -> RoI:
    """The RoI expanded to the feature-cell footprint its pooling reads.

    Reference patches are cropped on this footprint so both siamese
    pathways see the same image region; at stride 8 on small images the
    cell snap would otherwise dominate the scale effect being learned.
    """
    x1 = max(0.0, math.floor(roi.x1 / stride) * stride)
    y1 = max(0.0, math.floor(roi.y1 / stride) * stride)
    x2 = min(float(width), math.ceil(roi.x2 / stride) * stride)
    y2 = min(float(height), math.ceil(roi.y2 / stride) * stride)
    return RoI(x1=x1, y1=y1, x2=x2, y2=y2, image_id=roi.image_id)


def batched_reference_features(pairs: Sequence[tuple[Image, RoI]], ref_scale: int, bb: Backbone) -> np.ndarray:
    """Reference-scale channel features of many RoIs: an (N, C, 1, 1) array.

    Each RoI is snapped to its cell footprint (`cell_aligned_roi`), cropped,
    and resized to ref_scale x ref_scale; the stacked patches make one
    backbone pass, pooled globally, with no tape.  Row n is bitwise the
    result for pairs[n] alone: the batch axis never mixes into a reduction.
    """
    with ag.no_grad():
        patches = []
        for img, roi in pairs:
            snapped = cell_aligned_roi(roi, bb.total_stride, img.width, img.height)
            patches.append(ag.bilinear_resize(Tensor(crop_pixels(img, snapped)), ref_scale, ref_scale).data)
        return ag.global_avg_pool(bb.forward(Tensor(np.concatenate(patches, axis=0)))).data


def extract_reference_feature(img: Image, roi: RoI, ref_scale: int, bb: Backbone) -> Tensor:
    """Channel feature of the RoI's scale-normalized patch (constant target).

    The one-pair case of `batched_reference_features`: the crop is the
    RoI's cell-aligned footprint, not the RoI itself.  Returns a
    (1, C, 1, 1) tensor that carries no gradient.
    """
    return Tensor(batched_reference_features([(img, roi)], ref_scale, bb))


def cam_scale_sweep(
    img: Image,
    bb: Backbone,
    scales: list[int],
    normalize_to: int | None = None,
) -> tuple[list[tuple[int, np.ndarray]], list[int]]:
    """Per-scale channel vectors: resize the image to s x s, forward, pool.

    With ``normalize_to`` set, each rescaled image is scale-normalized back
    to that reference side before feature extraction (the with-normalization
    arm of the channel-activation comparison).  Returns (vectors, skipped)
    where skipped lists scales below the backbone stride.
    """
    vectors: list[tuple[int, np.ndarray]] = []
    skipped: list[int] = []
    with ag.no_grad():
        for s in scales:
            if s < bb.total_stride:
                skipped.append(s)
                continue
            x = ag.bilinear_resize(img.pixels, s, s)
            if normalize_to is not None:
                x = ag.bilinear_resize(x, normalize_to, normalize_to)
            vec = ag.global_avg_pool(bb.forward(x)).data.reshape(bb.c_feat).copy()
            vectors.append((s, vec))
    return vectors, skipped
