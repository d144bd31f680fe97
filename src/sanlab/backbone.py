"""Small convolutional backbone and the two feature-extraction pathways.

A feature map for a whole image comes from a stack of strided conv+ReLU
blocks, and one pass over several images of one size gives an NxCxhxw map
tensor, one map per row.  The blocks fix the geometry: the stride, the
ROI_OUT x ROI_OUT pooling grid and `Backbone.cell_footprint`, the input
pixels of the cells an RoI reads.  Per-object features come either from
RoI pooling on those maps (`roi_pool`: average mode is one tape node for
a step's RoIs over all its images, max mode is forward only) or from the
scale-normalized-patch pathway (crop the RoI's cell footprint, resize to
the reference scale, run the backbone, pool globally), which
`batched_reference_features` alone implements.  The public
`sanlab.extract_reference_feature` is its one-RoI case, so it too crops
the cell footprint rather than the RoI itself.

RoIs reach the pooling as an (N, 4) box array (`box_array` makes one of
`RoI`s), and each call finds every box's map row, cell span, bin sizes and
width group in whole-array passes.  Average RoI pooling stacks the RoIs of
each cell width so that its forward column products are one GEMM per width;
its backward runs on full-map bin matrices, two batched GEMMs per image.  A
product one row or column wide would run as GEMV, whose rounding depends on
its shape, so the backward of RoIs one cell wide or high stays per channel,
and every bit is that of pooling each RoI alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .errors import GraphError, RoiError, ShapeError
from .rng import STREAM_WEIGHTS, derive


MIN_IMAGE_SIDE = 16  # the smallest image height and width the package takes


@dataclass(eq=False)
class Image:
    """Input image: its 8-bit levels, a 1x3xHxW uint8 array, H and W at least 16.

    `pixels` converts the levels to float32 values in [0, 1] on each
    access; a pass that reads an image converts it once (`to_pixels`).
    """

    levels: np.ndarray
    id: int = 0

    def __post_init__(self):
        shape, dtype = np.shape(self.levels), getattr(self.levels, "dtype", None)
        if not (dtype == np.uint8 and len(shape) == 4 and shape[:2] == (1, 3) and min(shape[2:]) >= MIN_IMAGE_SIDE):
            raise ShapeError(f"Image levels must be a 1x3xHxW uint8 array, H and W at least {MIN_IMAGE_SIDE}; got {dtype} {shape}")

    @property
    def pixels(self) -> Tensor:
        return Tensor(to_pixels(self.levels))

    @property
    def height(self) -> int:
        return self.levels.shape[2]

    @property
    def width(self) -> int:
        return self.levels.shape[3]


def to_pixels(levels: np.ndarray) -> np.ndarray:
    """Float32 pixel values in [0, 1] of 8-bit levels (any shape): level / 255
    in float32, divided in place, so the conversion allocates one array."""
    pixels = levels.astype(np.float32)
    pixels /= 255.0
    return pixels


@dataclass(frozen=True)
class RoI:
    """Axis-aligned box in input-image pixel coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

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


def box_array(rois: Sequence[RoI]) -> np.ndarray:
    """The (N, 4) float64 x1, y1, x2, y2 of each RoI, in order."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in rois], dtype=np.float64).reshape(-1, 4)


def box_area(boxes: np.ndarray) -> np.ndarray:
    """The pixel area of each of (N, 4) boxes: `RoI.area`'s float64 product."""
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


# Fixed miniature architecture: (out_channels, kernel, stride, pad) per block.
# Three strided 3x3 blocks then a 1x1 feature-extraction layer, all ReLU.
BACKBONE_BLOCKS: tuple[tuple[int, int, int, int], ...] = (
    (16, 3, 2, 1),
    (32, 3, 2, 1),
    (32, 3, 2, 1),
    (32, 1, 1, 0),
)
# RoI pooling's output grid: every RoI pools to ROI_OUT x ROI_OUT bins.
ROI_OUT = 7


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

    @staticmethod
    def map_size(size: int) -> int:
        """Feature cells along an input axis of ``size`` pixels."""
        for _, k, s, p in BACKBONE_BLOCKS:
            size = ag._conv_out_size(size, k, s, p)
        return size

    @classmethod
    def cell_footprint(cls, lo, hi, size) -> tuple[np.ndarray, np.ndarray]:
        """Input pixels [start, stop) of the cells that RoI pooling of
        [lo, hi) reads on the map of an axis of ``size`` pixels: the span
        snapped out to the stride grid and clamped to the axis.  Scalars or
        arrays of spans, elementwise in one pass (`_roi_cell_span`, whose
        `RoiError` it raises)."""
        # map sides in Python ints, once per distinct size: numpy's integer
        # floor division is code the detection path never runs otherwise, and
        # its first call pages it in (64 KiB resident)
        flat = np.ravel(size).tolist()
        cells = {s: cls.map_size(s) for s in set(flat)}
        c_lo, c_hi = _roi_cell_span(lo, hi, np.reshape([cells[s] for s in flat], np.shape(size)))
        return c_lo * cls.total_stride, np.minimum(size, c_hi * cls.total_stride)

    @classmethod
    def roi_crop(cls, lo, hi, size) -> tuple[np.ndarray, np.ndarray]:
        """Input pixels [start, stop) of an axis of ``size`` whose forward
        pass gives, from cell start / total_stride on, the cells that RoI
        pooling of [lo, hi) reads on the whole input's map, bit for bit in
        exact arithmetic: the cell footprint widened by one cell before it.

        Each 3x3, stride-2, pad-1 block computes output i from inputs
        2i-1 .. 2i+1.  With start on the stride grid, the replicated edge
        of the crop reaches only the first output of each block, so one
        cell of context before the RoI's cells suffices; the crop's
        trailing edge is either on the grid, where the last output reads
        no padding, or the input's own edge.  The 1x1 block reads no
        neighbours.
        """
        start, stop = cls.cell_footprint(lo, hi, size)
        return np.maximum(0, start - cls.total_stride), stop

    @classmethod
    def split_scales(cls, scales: Sequence[int]) -> tuple[list[int], list[int]]:
        """(measured, skipped): the sides, in order, that the backbone can
        run on and those below its stride."""
        return [s for s in scales if s >= cls.total_stride], [s for s in scales if s < cls.total_stride]

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
            x = ag.conv2d(x, w, b, stride=s, pad=p, relu=True)
        return x


def _roi_cell_span(lo, hi, limit) -> tuple[np.ndarray, np.ndarray]:
    """Cells [c_lo, c_hi) of RoI spans [lo, hi) on map axes of ``limit``
    cells, elementwise over scalars or arrays (rows along the first axis):
    floor(lo / stride) and ceil(hi / stride) clamped to the axis, as
    integers.  Raises `RoiError` naming the first row whose span has a
    non-finite bound or reads no cell."""
    stride = Backbone.total_stride
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    c_lo, c_hi = np.maximum(np.floor(lo / stride), 0), np.minimum(np.ceil(hi / stride), limit)
    ok = (c_lo < c_hi) & np.isfinite(lo) & np.isfinite(hi)
    if np.count_nonzero(ok) < ok.size:
        at = np.unravel_index(np.argmin(ok), ok.shape)
        span = f"RoI {at[0]} span" if at else "RoI span"
        if not (np.isfinite(lo[at]) and np.isfinite(hi[at])):
            raise RoiError(f"{span} [{lo[at]}, {hi[at]}) has a non-finite bound")
        limit = np.broadcast_to(limit, ok.shape)[at]
        raise RoiError(f"{span} [{lo[at]}, {hi[at]}) reads no cell of a {limit}-cell map axis at stride {stride}")
    return c_lo.astype(np.intp), c_hi.astype(np.intp)


def roi_pool(maps: Sequence[Tensor], boxes: np.ndarray, slots, mode: str = "avg") -> Tensor:
    """Pool box n on image slots[n] to an out x out grid, out = ROI_OUT: (N, C, out, out).

    ``boxes`` is an (N, 4) array of x1, y1, x2, y2 in input pixels
    (`box_array` makes one of `RoI`s).  Each map is an n_i x C x h x w
    tensor, one backbone pass over n_i images of one size; image slots[n]
    is row slots[n] of the maps' batch axes concatenated in list order, so
    with 1xCxhxw maps a slot is a map's index.  Cells: coordinates divided
    by the backbone stride, floor(x1) / ceil(x2), clamped to the map
    (`_roi_cell_span`, over every box at once).  Bin b covers cells
    [floor(b*span/out), ceil((b+1)*span/out)), so bins are never empty.
    Row n is bitwise box n pooled alone, in the dtype of the maps some box
    reads, which must all have one.  Max mode takes the maxima of each
    column bin, then of each row bin over those; it has no backward, so it
    returns a constant tensor and raises `GraphError` when a map some box
    reads takes a gradient.  Average mode is rows @ cells @ cols.T with 0/1
    bin matrices (exact on integer-valued data) and spreads gradient
    uniformly over a bin.  It is one tape node: its parents are the map
    tensors some box reads, in list order, and its backward sums each
    image's RoI gradients, in RoI order, into one buffer per map tensor.

    In average mode the forward stacks the RoIs of each cell width, so its
    column products are one GEMM per width, (G*C*out, w) @ cols.T; its row
    products are one BLAS call per RoI and channel.  The backward pads each
    RoI's bin matrices to full-map ones, zero off its cells, so per image
    its two products over all RoIs and channels are one batched GEMM each;
    the RoIs' full-map gradients are then added in RoI order.  (Per map
    tensor, their (RoIs, h, C, w) buffers would grow with the images a pass
    holds.)  Each output sums the same out bins in the same order, so on
    finite gradients no bit moves.  The forward's sums run over cells and
    are not padded.  Products one row or column wide run as matrix-vector
    products, whose rounding depends on shape, so RoIs one cell wide or
    high keep a backward of one call per channel.
    """
    if mode not in ("avg", "max"):
        raise ShapeError(f"roi_pool mode must be 'avg' or 'max', got {mode!r}")
    for t in maps:
        if t.data.ndim != 4:
            raise ShapeError(f"roi_pool expects NxCxhxw feature maps, got {t.shape}")
    if not (isinstance(boxes, np.ndarray) and boxes.ndim == 2 and boxes.shape[1] == 4):
        raise ShapeError(f"roi_pool takes an (N, 4) box array (`box_array` makes one of RoIs), got {np.shape(boxes)}")
    if not len(boxes):
        raise RoiError("roi_pool needs at least one RoI")
    images = [(m, r, *t.shape[:1:-1]) for m, t in enumerate(maps) for r in range(t.shape[0])]  # slot -> map, row, w, h
    slots = np.asarray(slots)
    if slots.shape != (len(boxes),) or slots.dtype.kind not in "iu" or not 0 <= min(slots.tolist()) <= max(slots.tolist()) < len(images):
        raise ShapeError(f"roi_pool needs one slot in [0, {len(images)}) per RoI, got {slots.tolist()} for {len(boxes)} RoIs")
    table = np.array(images)[slots]  # per RoI: its map tensor, its row there, the map's width and height
    lo, hi = _roi_cell_span(boxes[:, :2], boxes[:, 2:], table[:, 2:])  # (N, 2): x, then y
    inputs = {m: maps[m] for m in sorted(set(table[:, 0].tolist()))}
    channels = {t.shape[1] for t in inputs.values()}
    if len(channels) > 1:
        raise ShapeError(f"roi_pool maps differ in channel count: {sorted(channels)}")
    if mode == "max" and any(t.requires_grad for t in inputs.values()):
        raise GraphError("max-mode roi_pool has no backward: pool maps that take no gradient")
    dtypes = {t.dtype for t in inputs.values()}
    if len(dtypes) > 1:
        raise ShapeError(f"roi_pool maps differ in dtype: {sorted(d.name for d in dtypes)}")
    out_data = np.empty((len(boxes), channels.pop(), ROI_OUT, ROI_OUT), dtype=dtypes.pop())
    span = hi - lo
    edges = _bin_edges(span)
    regions = np.concatenate([table[:, :2], lo, hi], axis=1).tolist()  # per RoI: map, row, x_lo, y_lo, x_hi, y_hi
    cells = [maps[m].data[r, :, y0:y1, x0:x1] for m, r, x0, y0, x1, y1 in regions]
    if mode == "max":
        _max_pool(cells, out_data, edges)
        return Tensor(out_data)
    backward = _avg_pool(cells, out_data, edges, slots, lo, span, regions, inputs)
    return ag._result(out_data, tuple(inputs.values()), backward)


def _avg_pool(cells, dst, edges, slots, lo, span, regions, inputs):
    """Average-pool each RoI's (C, h, w) cells into dst[n], column products
    grouped by width (see `roi_pool`); return the backward, which sums a
    (N, C, out, out) gradient into one buffer per map tensor, each image's
    RoIs in order into its row.  ``lo``, ``span`` and ``edges`` are each
    RoI's first cell, cell count and `_bin_edges`, x then y."""
    n, c, out, _ = dst.shape
    first, stop = edges
    sizes = stop - first  # (N, 2, out): cells per bin
    counts = (sizes[:, 1, :, None] * sizes[:, 0, None, :]).astype(dst.dtype)[:, None]  # (N, 1, out, out)
    heights, widths = span[:, 1].tolist(), span[:, 0]
    for w in sorted(set(widths.tolist())):
        group = np.flatnonzero(widths == w)
        row_sums = np.empty((group.size, c, out, w), dtype=dst.dtype)
        for k, i in enumerate(group.tolist()):
            np.matmul(_bin_matrix(heights[i], dst.dtype), cells[i], out=row_sums[k])
        dst[group] = (row_sums.reshape(-1, w) @ _bin_matrix(w, dst.dtype).T).reshape(group.size, c, out, out)
    dst /= counts

    def backward(grad_out: np.ndarray):
        grads = {m: np.zeros_like(t.data) for m, t in inputs.items()}
        extent = max(max(g.shape[2:]) for g in grads.values())
        below = np.tri(extent + 1, extent, -1, dst.dtype)  # row a: ones at the cells below a
        bins = below[lo[..., None] + stop] - below[lo[..., None] + first]  # (N, 2, out, extent): full-map bin matrices
        for s in sorted(set(slots.tolist())):
            j = np.flatnonzero(slots == s)
            m, r = regions[j[0]][:2]
            buf = grads[m][r]
            fh, fw = buf.shape[1:]
            scaled = grad_out[j] / counts[j]
            # (j, C, out, out) -> (j, out, C, out), moved in whole bin rows of out values
            bin_row = np.dtype((np.void, out * scaled.itemsize))
            g = np.ascontiguousarray(scaled.view(bin_row).transpose(0, 2, 1, 3)).view(scaled.dtype)
            g = np.matmul(g.reshape(j.size, out * c, out), bins[j, 0, :, :fw]).reshape(j.size, out, c * fw)
            g = np.matmul(bins[j, 1, :, :fh].transpose(0, 2, 1), g).reshape(j.size, fh, c, fw)
            for k in np.flatnonzero(span[j].min(axis=1) == 1).tolist():  # one call per channel
                _, _, x0, y0, x1, y1 = regions[j[k]]
                rows, cols = _bin_matrix(y1 - y0, dst.dtype), _bin_matrix(x1 - x0, dst.dtype)
                g[k] = 0
                g[k, y0:y1, :, x0:x1] = np.matmul(rows.T, np.matmul(scaled[k], cols)).transpose(1, 0, 2)
            buf[...] = np.add.reduce(g, axis=0, initial=0).transpose(1, 0, 2)  # in RoI order
        for m, t in inputs.items():
            if t.requires_grad:
                t._accumulate(grads[m])

    return backward


def _max_pool(cells: list[np.ndarray], dst: np.ndarray, edges: tuple[np.ndarray, np.ndarray]):
    """Max-pool each RoI's (C, h, w) cells into dst[n]: the maxima of each
    column bin, then of each row bin over those (each RoI's `_bin_edges`,
    x then y)."""
    for x, d, (x_first, y_first), (x_stop, y_stop) in zip(cells, dst, *(e.tolist() for e in edges)):
        cols = np.stack([x[:, :, lo:hi].max(axis=2) for lo, hi in zip(x_first, x_stop)], axis=2)
        for b, (lo, hi) in enumerate(zip(y_first, y_stop)):
            d[:, b] = cols[:, lo:hi].max(axis=1)


def _bin_edges(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of ROI_OUT bins' first cell floor(b*span/out) and end
    ceil((b+1)*span/out) over spans of ``span`` cells (see `roi_pool`):
    two integer arrays of shape span.shape + (ROI_OUT,)."""
    ends = span[..., None] * np.arange(ROI_OUT + 1) / ROI_OUT
    return np.floor(ends[..., :-1]).astype(np.intp), np.ceil(ends[..., 1:]).astype(np.intp)


@functools.lru_cache(maxsize=None)
def _bin_matrix(span: int, dtype) -> np.ndarray:
    """0/1 matrix mapping span cells to ROI_OUT bins by fractional coverage
    (`_bin_edges`).  Cached, so read-only."""
    first, stop = (e.tolist() for e in _bin_edges(np.asarray(span)))
    m = np.zeros((ROI_OUT, span), dtype=dtype)
    for b, (lo, hi) in enumerate(zip(first, stop)):
        m[b, lo:hi] = 1
    m.flags.writeable = False
    return m


def batched_reference_features(pairs: Sequence[tuple[np.ndarray, Sequence[float]]], ref_scale: int, bb: Backbone) -> np.ndarray:
    """Reference-scale channel features of many RoIs: an (N, C, 1, 1) array.

    Each pair is an image's 1x3xHxW pixels (`to_pixels` of its levels) and
    a box on it, its x1, y1, x2, y2 (a row of a box array).  The box's cell
    footprint (`Backbone.cell_footprint`, one call for all the boxes) is
    cropped, so both siamese pathways see the pixels of the cells pooling
    reads (at stride 8 on small images the cell snap would otherwise
    dominate the scale effect being learned), and resized to ref_scale x
    ref_scale; the stacked patches make one backbone pass, pooled globally,
    with no tape.  Row n is bitwise the result for pairs[n] alone: the
    batch axis never mixes into a reduction.
    """
    with ag.no_grad():
        boxes = np.array([box for _, box in pairs], dtype=np.float64).reshape(-1, 4)
        sides = np.array([pixels.shape[:1:-1] for pixels, _ in pairs])  # per box: image width, height
        start, stop = bb.cell_footprint(boxes[:, :2], boxes[:, 2:], sides)  # (N, 2): x, then y
        patches = []
        for (pixels, _), (x0, y0), (x1, y1) in zip(pairs, start.tolist(), stop.tolist()):
            crop = Tensor(pixels[:, :, y0:y1, x0:x1])
            patches.append(ag.bilinear_resize(crop, ref_scale, ref_scale).data)
        return ag.global_avg_pool(bb.forward(Tensor(np.concatenate(patches, axis=0)))).data


def extract_reference_feature(img: Image, roi: RoI, ref_scale: int, bb: Backbone) -> Tensor:
    """Channel feature of the RoI's scale-normalized patch (constant target).

    The one-pair case of `batched_reference_features`: the crop is the
    RoI's cell footprint, not the RoI itself.  Returns a
    (1, C, 1, 1) tensor that carries no gradient.
    """
    return Tensor(batched_reference_features([(to_pixels(img.levels), box_array([roi])[0])], ref_scale, bb))


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
    measured, skipped = bb.split_scales(scales)
    pixels = img.pixels
    with ag.no_grad():
        for s in measured:
            x = ag.bilinear_resize(pixels, s, s)
            if normalize_to is not None:
                x = ag.bilinear_resize(x, normalize_to, normalize_to)
            vec = ag.global_avg_pool(bb.forward(x)).data.reshape(bb.c_feat).copy()
            vectors.append((s, vec))
    return vectors, skipped
