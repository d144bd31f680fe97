"""Shared test oracles: finite differences, the nine-slice im2col and
col2im and the copying edge fold, the per-partition correction path, the
per-image and single-RoI RoI pooling, the step graph with one backbone
pass per image, the box-offset codec on `RoI` objects, the scalar proposal
and labelling loops and the per-RoI step sampler built on them, the
whole-window rendering of the RMSE report, the reference crop as a snapped
RoI, the dataset generator's scalar placement loop, and small numeric
utilities; and a model's no-loss view."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from sanlab import autograd as ag
from sanlab import losses, training
from sanlab.autograd import Tensor
from sanlab.backbone import (
    ROI_OUT,
    Backbone,
    Image,
    RoI,
    box_area,
    box_array,
    batched_reference_features,
    roi_pool,
)
from sanlab.data import _COLORS, _SHAPES, MIN_GAP, PLACEMENT_RETRIES, Annotation, DatasetConfig
from sanlab.errors import RoiError
from sanlab.losses import box_iou, multi_task_loss
from sanlab.rng import STREAM_DATA, STREAM_STEP, derive
from sanlab.san import partition_index, san_loss_branch
from sanlab.training import StepBatch, forward_roi_features

FD_STEP = 1e-3
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-7


def numerical_gradient(loss_fn, arr: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. every entry of arr.

    The array is perturbed in place and restored; loss_fn must re-run the
    full forward pass from current values.
    """
    assert arr.dtype == np.float64, "finite differences run in double precision"
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        up = loss_fn()
        flat[i] = old - step
        down = loss_fn()
        flat[i] = old
        gflat[i] = (up - down) / (2 * step)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, context: str = "") -> None:
    """Relative error <= 1e-4, with an absolute floor for near-zero pairs."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a), np.abs(n))
    diff = np.abs(a - n)
    ok = (diff <= FD_REL_TOL * denom) | (diff <= FD_ABS_FLOOR)
    if not ok.all():
        worst = np.unravel_index(np.argmax(diff - FD_REL_TOL * denom), a.shape)
        raise AssertionError(
            f"gradient mismatch {context} at {worst}: analytic={a[worst]!r} numeric={n[worst]!r} "
            f"rel={diff[worst] / max(denom[worst], 1e-300):.3g}"
        )


def check_op_gradients(build_loss, arrays: dict[str, np.ndarray], context: str = "") -> None:
    """Compare the autodiff gradients of a scalar graph to finite differences.

    ``build_loss`` receives {name: Tensor} (requires_grad set) and returns
    the scalar loss tensor; ``arrays`` holds float64 leaf values.
    """
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build_loss(tensors)
    loss.backward()
    for name, t in tensors.items():
        def loss_value():
            fresh = {k: Tensor(arrays[k], requires_grad=False) for k in arrays}
            return build_loss(fresh).item()

        numeric = numerical_gradient(loss_value, arrays[name])
        assert t.grad is not None, f"no gradient for {name} {context}"
        assert_grad_close(t.grad, numeric, context=f"{context}:{name}")


def nine_slice_im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """`autograd._im2col` as the package ran it before it copied one strided
    view: one slice copy per kernel offset into the (n, c, kh, kw, ho, wo)
    buffer."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo)


def nine_slice_col2im(cols: np.ndarray, xp_shape, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """`autograd.conv2d`'s column sum as the package ran it before it added
    by kernel-tap planes: one strided slice add per kernel offset onto a
    zero padded map of shape xp_shape."""
    n, c = xp_shape[:2]
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    xp = np.zeros(xp_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    return xp


def copying_edge_fold(gp: np.ndarray, p: int) -> np.ndarray:
    """`autograd._edge_fold` as the package ran it before it folded in
    place: the interior rows copied out, border rows folded onto them,
    then the interior columns copied out and border columns folded."""
    h = gp.shape[2] - 2 * p
    w = gp.shape[3] - 2 * p
    g = gp[:, :, p : p + h].copy()
    g[:, :, 0] += gp[:, :, :p].sum(axis=2)
    g[:, :, h - 1] += gp[:, :, p + h :].sum(axis=2)
    gx = g[:, :, :, p : p + w].copy()
    gx[:, :, :, 0] += g[:, :, :, :p].sum(axis=3)
    gx[:, :, :, w - 1] += g[:, :, :, p + w :].sum(axis=3)
    return gx


def _row_groups(keys) -> tuple[list[tuple[int, list[int]]], np.ndarray | None]:
    """Rows per key (a partition or an image slot), keys ascending, and the
    permutation from the concatenated groups back to row order (None when
    already in order)."""
    groups: dict[int, list[int]] = {}
    for row, k in enumerate(keys):
        groups.setdefault(int(k), []).append(row)
    ordered = sorted(groups.items())
    order = [row for _, rows in ordered for row in rows]
    return ordered, None if order == list(range(len(keys))) else np.argsort(order)


def _merge(outs: list[Tensor], inverse: np.ndarray | None) -> Tensor:
    merged = outs[0] if len(outs) == 1 else ag.concat0(outs)
    return merged if inverse is None else ag.take0(merged, inverse)


def _corrector(x: Tensor, sn) -> Tensor:
    return ag.relu(ag.conv2d(x, sn.w, sn.b, stride=1, pad=0))


def split_correct_merge(x: Tensor, parts, m) -> Tensor:
    """The correction path composed from engine ops, as the package ran it
    before `san.san_forward` was one node: take0 per partition (skipped
    when one partition holds every row), its 1x1 conv and relu, concat0,
    then the inverse take0."""
    ordered, inverse = _row_groups(parts)
    outs = [_corrector(x if len(rows) == len(parts) else ag.take0(x, rows), m.subnets[p]) for p, rows in ordered]
    return _merge(outs, inverse)


def per_partition_loss_branch(feat: np.ndarray, parts, m, r_tilde: np.ndarray) -> Tensor:
    """The scale-aware loss branch run once per partition on that
    partition's rows, its (n_p,) terms merged back into row order."""
    ordered, inverse = _row_groups(parts)
    terms = []
    for p, rows in ordered:
        r = _corrector(ag.global_avg_pool(Tensor(feat[rows])), m.subnets[p])
        terms.append(ag.sum_rows(ag.smooth_l1(ag.sub(r, Tensor(r_tilde[rows])))))
    return _merge(terms, inverse)


def roi_cells(feat: Tensor, roi: RoI) -> tuple[int, int, int, int]:
    """(y_lo, y_hi, x_lo, x_hi): the cells an RoI reads on an NxCxhxw map,
    by the package's former scalar span rule."""
    stride, (fh, fw) = Backbone.total_stride, feat.shape[2:]
    y_lo, y_hi = max(0, math.floor(roi.y1 / stride)), min(fh, math.ceil(roi.y2 / stride))
    x_lo, x_hi = max(0, math.floor(roi.x1 / stride)), min(fw, math.ceil(roi.x2 / stride))
    if y_hi <= y_lo or x_hi <= x_lo:
        raise RoiError(f"RoI ({roi.x1},{roi.y1},{roi.x2},{roi.y2}) reads no cell of a {fh}x{fw} map")
    return y_lo, y_hi, x_lo, x_hi


def bin_spans(span: int) -> list[tuple[int, int]]:
    """The [lo, hi) cell range of each of ROI_OUT bins over span cells, by
    the package's former scalar rule."""
    return [(math.floor(b * span / ROI_OUT), math.ceil((b + 1) * span / ROI_OUT)) for b in range(ROI_OUT)]


def bin_matrix(span: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """0/1 matrix mapping span cells to ROI_OUT bins (`bin_spans`), and its
    row sums (cells per bin)."""
    m = np.zeros((ROI_OUT, span), dtype=dtype)
    for b, (lo, hi) in enumerate(bin_spans(span)):
        m[b, lo:hi] = 1
    return m, m.sum(axis=1)


def per_image_roi_avg_pool(feat: Tensor, rois) -> Tensor:
    """The package's former one-map RoI average pooling node: each RoI's
    two 0/1 matmuls, and a backward that sums the RoIs' gradients, in RoI
    order, into one map-sized buffer."""
    plans = []
    for roi in rois:
        y_lo, y_hi, x_lo, x_hi = roi_cells(feat, roi)
        rows, row_sizes = bin_matrix(y_hi - y_lo, feat.dtype)
        cols, col_sizes = bin_matrix(x_hi - x_lo, feat.dtype)
        plans.append((y_lo, y_hi, x_lo, x_hi, rows, cols, row_sizes[:, None] * col_sizes[None, :]))
    out_data = np.empty((len(rois), feat.shape[1], ROI_OUT, ROI_OUT), dtype=feat.dtype)
    for n, (y_lo, y_hi, x_lo, x_hi, rows, cols, counts) in enumerate(plans):
        sums = np.matmul(np.matmul(rows, feat.data[0, :, y_lo:y_hi, x_lo:x_hi]), cols.T)
        out_data[n] = sums / counts

    def backward(grad_out: np.ndarray):
        g = np.zeros_like(feat.data)
        for gn, (y_lo, y_hi, x_lo, x_hi, rows, cols, counts) in zip(grad_out, plans):
            g[0, :, y_lo:y_hi, x_lo:x_hi] += np.matmul(rows.T, np.matmul(gn / counts, cols))
        feat._accumulate(g)

    return ag._result(out_data, (feat,), backward)


def per_image_pool_merge(maps: list[Tensor], rois, slots) -> Tensor:
    """RoI pooling as the package ran it before one node served every map:
    one `per_image_roi_avg_pool` per image, images ascending, concat0, then
    the inverse take0 (each skipped when it would change nothing)."""
    ordered, inverse = _row_groups(slots)
    outs = [per_image_roi_avg_pool(maps[s], [rois[i] for i in rows]) for s, rows in ordered]
    return _merge(outs, inverse)


def single_roi_max_pool(feat: Tensor, roi) -> np.ndarray:
    """The package's former single-RoI max pooling, (1, C, ROI_OUT,
    ROI_OUT): each channel's first row-major maximum per bin."""
    y_lo, y_hi, x_lo, x_hi = roi_cells(feat, roi)
    c = feat.shape[1]
    cells = feat.data[0, :, y_lo:y_hi, x_lo:x_hi]
    col_spans = bin_spans(x_hi - x_lo)
    out = np.empty((1, c, ROI_OUT, ROI_OUT), dtype=feat.dtype)
    for by, (ys, ye) in enumerate(bin_spans(y_hi - y_lo)):
        for bx, (xs, xe) in enumerate(col_spans):
            bin_cells = cells[:, ys:ye, xs:xe].reshape(c, -1)
            out[0, :, by, bx] = bin_cells[np.arange(c), bin_cells.argmax(axis=1)]
    return out


def no_loss_view(model):
    """The model's own parameters under ``san_mode="no-loss"``: its step
    without the scale-aware term."""
    return dataclasses.replace(model, config=dataclasses.replace(model.config, san_mode="no-loss"))


def per_image_step_losses(model, batch):
    """`compute_step_losses` as the package ran it before it batched the
    backbone: one pass per image, each pooled as a 1xCxhxw map."""
    cfg = model.config
    feats = [model.backbone.forward(img.pixels) for img in batch.images]
    roi_feats, batch_pooled = forward_roi_features(model, feats, batch.boxes, batch.slots)
    logits, deltas = model.head.forward(roi_feats)
    san_terms = None
    if cfg.san_mode == "full" and len(batch.san_indices):
        boxes, slots = batch.boxes[batch.san_indices], batch.slots[batch.san_indices]
        r_tilde = batched_reference_features(
            [(batch.images[s].pixels.data, box) for box, s in zip(boxes, slots)], model.scheme.ref_scale, model.backbone
        )
        # plain arrays: the branch records no tape below its entry
        if cfg.san_pool == "avg":
            pooled = batch_pooled.data[batch.san_indices]
        else:
            maps = [ag.detach(f) for f in feats]
            pooled = roi_pool(maps, boxes, slots, mode="max").data
        parts = partition_index(box_area(boxes), model.scheme)
        san_terms = san_loss_branch(Tensor(pooled), parts, model.san, Tensor(r_tilde))
    return multi_task_loss(
        logits, deltas, batch.labels, batch.targets, san_terms=san_terms, san_loss_weight=cfg.san_loss_weight
    )


# The box-offset codec and the proposal and labelling loops as the package
# ran them on `RoI` objects before it sampled and decoded on arrays: one
# `uniform` call per value, one clamp per box and one `box_iou` per pair.


@dataclasses.dataclass(frozen=True)
class RegressionTarget:
    """Center/size box offsets: tx, ty are relative shifts, tw, th log-ratios."""

    tx: float
    ty: float
    tw: float
    th: float


def encode_regression(roi: RoI, gt: RoI) -> RegressionTarget:
    """Offsets that map the RoI onto the ground-truth box."""
    rw, rh = roi.width, roi.height
    if rw <= 0 or rh <= 0:
        raise RoiError(f"cannot encode against zero-size RoI ({roi.x1},{roi.y1},{roi.x2},{roi.y2})")
    rx, ry = roi.x1 + rw / 2, roi.y1 + rh / 2
    gw, gh = gt.width, gt.height
    gx, gy = gt.x1 + gw / 2, gt.y1 + gh / 2
    return RegressionTarget(
        tx=(gx - rx) / rw,
        ty=(gy - ry) / rh,
        tw=math.log(gw / rw),
        th=math.log(gh / rh),
    )


def decode_regression(t: RegressionTarget, roi: RoI) -> RoI:
    """Exact inverse of encode_regression."""
    rw, rh = roi.width, roi.height
    cx = roi.x1 + rw / 2 + t.tx * rw
    cy = roi.y1 + rh / 2 + t.ty * rh
    w = rw * math.exp(t.tw)
    h = rh * math.exp(t.th)
    return RoI(x1=cx - w / 2, y1=cy - h / 2, x2=cx + w / 2, y2=cy + h / 2)


def scalar_make_proposals(gts, n_pos_jitter, n_neg, rng, image_size):
    """`make_proposals` on a square image of side ``image_size``, as `RoI`s."""
    jitter = 0.25  # the package's PROPOSAL_JITTER
    out = []
    for gt in gts:
        for _ in range(n_pos_jitter):
            w, h = gt.box.width, gt.box.height
            cx = gt.box.x1 + w / 2 + rng.uniform(-jitter, jitter) * w
            cy = gt.box.y1 + h / 2 + rng.uniform(-jitter, jitter) * h
            nw = w * (1 + rng.uniform(-jitter, jitter))
            nh = h * (1 + rng.uniform(-jitter, jitter))
            out.append(scalar_clamped_roi(cx, cy, nw, nh, image_size))
    for _ in range(n_neg):
        w = rng.uniform(6.0, image_size / 2)
        h = rng.uniform(6.0, image_size / 2)
        cx = rng.uniform(w / 2, image_size - w / 2)
        cy = rng.uniform(h / 2, image_size - h / 2)
        out.append(scalar_clamped_roi(cx, cy, w, h, image_size))
    return out


def scalar_clamped_roi(cx, cy, w, h, image_size):
    x1 = max(0.0, cx - w / 2)
    y1 = max(0.0, cy - h / 2)
    x2 = min(float(image_size), cx + w / 2)
    y2 = min(float(image_size), cy + h / 2)
    if x2 - x1 < 2.0:
        x1, x2 = max(0.0, min(x1, image_size - 2.0)), max(2.0, min(float(image_size), x1 + 2.0))
    if y2 - y1 < 2.0:
        y1, y2 = max(0.0, min(y1, image_size - 2.0)), max(2.0, min(float(image_size), y1 + 2.0))
    return RoI(x1=x1, y1=y1, x2=x2, y2=y2)


def scalar_assign_roi_labels(rois, gts, pos_iou=0.5):
    """(class, `RegressionTarget`) per RoI; (0, None) on background."""
    out = []
    for roi in rois:
        best_iou = 0.0
        best = None
        for gt in gts:
            iou = box_iou(roi, gt.box)
            if iou > best_iou:
                best_iou = iou
                best = gt
        if best is not None and best_iou >= pos_iou:
            out.append((best.class_id, encode_regression(roi, best.box)))
        else:
            out.append((0, None))
    return out


def label_arrays(assigned) -> tuple[np.ndarray, np.ndarray]:
    """`scalar_assign_roi_labels` pairs as `assign_roi_labels` returns them:
    (P,) int64 classes and (P, 4) float64 targets, zero rows for none."""
    classes = np.array([u for u, _ in assigned], dtype=np.int64)
    targets = np.array([(0.0,) * 4 if t is None else dataclasses.astuple(t) for _, t in assigned]).reshape(-1, 4)
    return classes, targets


def per_roi_sample(rois: list, n: int, rng: np.random.Generator) -> list:
    """An ordered uniform subsample as the package drew it before `subsample_index`."""
    if n >= len(rois):
        return list(rois)
    if n <= 0:
        return []
    idx = sorted(rng.choice(len(rois), size=n, replace=False).tolist())
    return [rois[i] for i in idx]


def per_roi_build_step_batch(dataset, cfg, step: int) -> StepBatch:
    """`build_step_batch` as the package ran it before it sampled on
    arrays, on square images: every proposal an `RoI` from
    `scalar_make_proposals`, labelled by `scalar_assign_roi_labels`; its
    RoIs, slots, labels, targets (zero rows for none) and subset end as the
    arrays a `StepBatch` holds."""
    rng = derive(cfg.seed, STREAM_STEP, step)
    n_img = min(cfg.images_per_step, len(dataset))
    picks = rng.choice(len(dataset), size=n_img, replace=False)
    images = []
    rois = []
    slots = []
    kept = []  # the (class, target) pair of each kept RoI
    for slot, di in enumerate(picks.tolist()):
        img, anns = dataset[di]
        assert img.width == img.height, "the scalar proposal loop samples square images"
        images.append(img)
        props = scalar_make_proposals(anns, training.N_POS_JITTER, training.N_NEG, rng, img.width)
        assigned = scalar_assign_roi_labels(props, anns, losses.POS_IOU)
        pos = [i for i, (u, _) in enumerate(assigned) if u >= 1]
        neg = [i for i, (u, _) in enumerate(assigned) if u == 0]
        n_pos = min(len(pos), int(round(cfg.rois_per_image * training.POS_FRACTION)))
        n_neg = min(len(neg), cfg.rois_per_image - n_pos)
        for i in per_roi_sample(pos, n_pos, rng) + per_roi_sample(neg, n_neg, rng):
            rois.append(props[i])
            slots.append(slot)
            kept.append(assigned[i])
    if not rois:
        raise RoiError(f"step {step} sampled no RoI from dataset images {picks.tolist()}")
    san_indices = per_roi_sample(list(range(len(rois))), cfg.san_samples, rng)
    labels, targets = label_arrays(kept)
    return StepBatch(
        images=images,
        boxes=box_array(rois),
        slots=np.array(slots, dtype=np.int64),
        labels=labels,
        targets=targets,
        san_indices=np.array(san_indices, dtype=np.int64),
    )


def full_render_roi_feature(img, box, scale: int, bb) -> Tensor:
    """`rendered_roi_feature` as the package ran it before it rendered only
    the pooled crop: the whole context window is resized, run through the
    backbone and the mapped box pooled on that map."""
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
        )
        return ag.global_avg_pool(roi_pool([feat], box_array([mapped]), [0]))


# The reference crop as the package made it before `Backbone.cell_footprint`:
# crop_pixels(img, cell_aligned_roi(roi, stride, img.width, img.height)).


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
    return RoI(x1=x1, y1=y1, x2=x2, y2=y2)


# The dataset generator as the package ran it before it drew each object's
# placement attempts as one array: one pair of scalar ``integers`` calls and
# one ``box_iou`` test per attempt, and full-grid masks for every fill.


def uncached_class_style(class_id: int) -> tuple[str, np.ndarray, np.ndarray]:
    shape = _SHAPES[(class_id - 1) % len(_SHAPES)]
    c1, c2 = _COLORS[(class_id - 1) % len(_COLORS)]
    # rotate hue deterministically for classes beyond the base palette
    shift = ((class_id - 1) // len(_SHAPES)) % 3
    c1 = np.roll(np.asarray(c1, dtype=np.float32), shift)
    c2 = np.roll(np.asarray(c2, dtype=np.float32), shift)
    return shape, c1, c2


def full_grid_paint_object(px: np.ndarray, x1: int, y1: int, side: int, class_id: int) -> None:
    shape, c1, c2 = uncached_class_style(class_id)
    yy, xx = np.mgrid[0:side, 0:side]
    if shape == "square":
        mask = np.ones((side, side), dtype=bool)
    elif shape == "disk":
        r = side / 2.0
        mask = (yy + 0.5 - r) ** 2 + (xx + 0.5 - r) ** 2 <= r * r
    else:  # triangle: apex at top center, base at the bottom
        frac = (yy + 0.5) / side
        mask = np.abs(xx + 0.5 - side / 2.0) <= frac * side / 2.0
    period = max(2, side // 3)
    stripes = (yy % period) < period // 2
    checker = ((yy % period) < period // 2) ^ ((xx % period) < period // 2)
    pattern = {"disk": np.ones_like(stripes), "square": stripes, "triangle": checker}[shape]
    tile = np.where(pattern[None], c1[:, None, None], c2[:, None, None])
    region = px[:, y1 : y1 + side, x1 : x1 + side]
    region[:, mask] = tile[:, mask]


def scalar_place_objects(cfg: DatasetConfig, rng: np.random.Generator, image_id: int) -> tuple[np.ndarray, list[Annotation], int]:
    size = cfg.image_size
    noise = rng.random((3, size, size), dtype=np.float64)
    px = np.clip(0.5 + cfg.background_amplitude * (noise - 0.5), 0.0, 1.0).astype(np.float32)
    n_obj = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    bands = cfg.band_intervals()
    anns: list[Annotation] = []
    skipped = 0
    for _ in range(n_obj):
        class_id = int(rng.integers(1, cfg.num_classes + 1))
        lo, hi = bands[int(rng.integers(0, len(bands)))]
        side = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        side = max(4, min(side, size))
        placed = False
        for _attempt in range(PLACEMENT_RETRIES):
            x1 = int(rng.integers(0, size - side + 1))
            y1 = int(rng.integers(0, size - side + 1))
            box = RoI(x1=float(x1), y1=float(y1), x2=float(x1 + side), y2=float(y1 + side))
            grown = RoI(x1=box.x1 - MIN_GAP, y1=box.y1 - MIN_GAP, x2=box.x2 + MIN_GAP, y2=box.y2 + MIN_GAP)
            if any(box_iou(grown, a.box) > 0 for a in anns):
                continue
            full_grid_paint_object(px, x1, y1, side, class_id)
            anns.append(Annotation(box=box, class_id=class_id, image_id=image_id))
            placed = True
            break
        if not placed:
            skipped += 1
    # the image is its 8-bit levels, as a PPM file holds them
    return np.round(px * 255.0).astype(np.uint8)[None], anns, skipped


def scalar_dataset_with_stats(cfg: DatasetConfig) -> list[tuple[np.ndarray, list[Annotation], int]]:
    """Each image's (levels, annotations, skipped placements) from
    `scalar_place_objects`, on the generator's per-image streams."""
    return [scalar_place_objects(cfg, derive(cfg.seed, STREAM_DATA, i), i) for i in range(cfg.num_images)]
