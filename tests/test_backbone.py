"""Backbone geometry, RoI pooling vs a brute-force oracle, feature pathways."""

import math

import numpy as np
import pytest

from helpers import (
    cell_aligned_roi,
    check_op_gradients,
    crop_pixels,
    per_image_pool_merge,
    per_image_roi_avg_pool,
    single_roi_max_pool,
)
from hypothesis import given, settings, strategies as st

from sanlab import autograd as ag
from sanlab.autograd import Parameter, Tensor
from sanlab.backbone import (
    BACKBONE_BLOCKS,
    ROI_OUT,
    Backbone,
    Image,
    RoI,
    box_array,
    cam_scale_sweep,
    extract_reference_feature,
    roi_pool,
)
from sanlab.errors import GraphError, RoiError, ShapeError


def make_image(seed=0, size=96):
    r = np.random.default_rng(seed)
    return Image(r.integers(0, 256, size=(1, 3, size, size), dtype=np.uint8), id=seed)


def naive_roi_pool(feat: np.ndarray, roi: RoI, out: int, mode: str, stride: int) -> np.ndarray:
    """Independent double-loop re-implementation of the documented binning.

    Bin means use exact Python summation so the comparison with the
    production path is bitwise on integer-valued inputs.
    """
    _, c, fh, fw = feat.shape
    x_lo = max(0, math.floor(roi.x1 / stride))
    x_hi = min(fw, math.ceil(roi.x2 / stride))
    y_lo = max(0, math.floor(roi.y1 / stride))
    y_hi = min(fh, math.ceil(roi.y2 / stride))
    assert x_hi > x_lo and y_hi > y_lo
    h_span, w_span = y_hi - y_lo, x_hi - x_lo
    result = np.zeros((1, c, out, out), dtype=np.float32)
    for ch in range(c):
        for by in range(out):
            ys = y_lo + math.floor(by * h_span / out)
            ye = y_lo + math.ceil((by + 1) * h_span / out)
            for bx in range(out):
                xs = x_lo + math.floor(bx * w_span / out)
                xe = x_lo + math.ceil((bx + 1) * w_span / out)
                cells = [float(feat[0, ch, y, x]) for y in range(ys, ye) for x in range(xs, xe)]
                if mode == "avg":
                    result[0, ch, by, bx] = np.float32(math.fsum(cells)) / np.float32(len(cells))
                else:
                    result[0, ch, by, bx] = max(cells)
    return result


class TestImage:
    def test_pixels_are_the_levels_over_255_for_every_level(self):
        """Bit for bit the float32 quotient level / 255, as the PPM reader
        and the generator made pixels before images held their levels."""
        levels = np.tile(np.arange(256, dtype=np.uint8), 3).reshape(1, 3, 16, 16)
        px = Image(levels).pixels
        assert px.dtype == np.float32 and px.shape == (1, 3, 16, 16)
        want = np.array([np.float32(k) / np.float32(255) for k in levels.reshape(-1).tolist()], dtype=np.float32)
        assert px.data.reshape(-1).tobytes() == want.tobytes()
        assert np.array_equal(np.round(px.data * 255.0), levels)

    @pytest.mark.parametrize(
        "levels",
        [
            np.zeros((1, 3, 16, 16), dtype=np.float32),
            np.zeros((1, 3, 16, 16), dtype=np.int64),
            np.zeros((3, 16, 16), dtype=np.uint8),
            np.zeros((2, 3, 16, 16), dtype=np.uint8),
            np.zeros((1, 4, 16, 16), dtype=np.uint8),
            np.zeros((1, 3, 15, 16), dtype=np.uint8),
            np.zeros((1, 3, 16, 15), dtype=np.uint8),
            [[[[0] * 16] * 16] * 3],
        ],
        ids=["float32", "int64", "3d", "batch2", "4ch", "short", "narrow", "list"],
    )
    def test_rejects_anything_but_1x3xhxw_uint8_at_least_16(self, levels):
        with pytest.raises(ShapeError, match="1x3xHxW uint8"):
            Image(levels)

    def test_pixels_converts_afresh_on_each_access(self):
        """Each access converts afresh; writing to the result leaves the
        levels alone, and the property cannot be assigned."""
        img = make_image(seed=2, size=16)
        before = img.levels.copy()
        img.pixels.data[...] = 0.0
        assert np.array_equal(img.levels, before)
        with pytest.raises(AttributeError):
            img.pixels = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))


class TestBackboneForward:
    def test_stride_eight_geometry(self):
        bb = Backbone.small(seed=0)
        img = make_image(size=96)
        feat = bb.forward(img.pixels)
        assert feat.shape == (1, 32, 12, 12)
        assert bb.total_stride == 8

    def test_zero_image_zero_biases_zero_features(self):
        bb = Backbone.small(seed=0)
        img = Image(np.zeros((1, 3, 32, 32), dtype=np.uint8), id=0)
        assert np.array_equal(bb.forward(img.pixels).data, np.zeros((1, 32, 4, 4), dtype=np.float32))

    def test_deterministic_replay(self):
        img = make_image(seed=5, size=64)
        a = Backbone.small(seed=9).forward(img.pixels).data
        b = Backbone.small(seed=9).forward(img.pixels).data
        assert np.array_equal(a, b)

    def test_too_small_input_errors(self):
        bb = Backbone.small(seed=0)
        with pytest.raises(ShapeError, match="smaller than"):
            bb.forward(Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32)))

    def test_features_nonnegative(self):
        feat = Backbone.small(seed=1).forward(make_image(seed=3).pixels)
        assert feat.data.min() >= 0


def tape_ops(out: Tensor) -> list[str]:
    """Names of the ops recorded on the tape behind ``out``."""
    ops, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.append(node._backward.__qualname__.split(".")[0])
        stack.extend(node._parents)
    return ops


class TestBackboneTape:
    def test_padding_records_no_replicate_pad_node(self):
        bb = Backbone.small(seed=0)
        ops = tape_ops(bb.forward(make_image(seed=1, size=40).pixels))
        assert "replicate_pad" not in ops
        assert ops.count("conv2d") == len(bb.params)


def integer_backbone(seed: int) -> Backbone:
    """The block table with small integer float64 weights: every forward
    value is an integer far below 2**53, so float64 computes it exactly."""
    r = np.random.default_rng(seed)
    params, c_in = [], 3
    for c_out, k, _, _ in BACKBONE_BLOCKS:
        w = r.integers(-1, 3, size=(c_out, c_in, k, k)).astype(np.float64)
        params.append((Parameter(w), Parameter(r.integers(-3, 4, size=c_out).astype(np.float64))))
        c_in = c_out
    return Backbone(params=params)


class TestRoiCrop:
    """`Backbone.roi_crop`: the crop whose forward pass reproduces the cells
    an RoI reads, checked in exact arithmetic on the real block table."""

    def test_map_size_is_the_forward_map_size(self):
        bb = Backbone.small(seed=0)
        for size in range(8, 100):
            feat = bb.forward(Tensor(np.zeros((1, 3, size, 8), dtype=np.float32)))
            assert feat.shape[2] == Backbone.map_size(size) == math.ceil(size / 8), size

    def spans(self, r, size):
        """Random RoI spans on an axis, plus ones that touch its leading edge,
        end in its (possibly partial) last cell or read one cell."""
        out = [(0.0, 3.5), (size - 2.5, float(size)), (0.0, float(size)), (8.0, 16.0), (9.0, 15.0)]
        for _ in range(4):
            lo, hi = sorted(r.uniform(0, size, size=2))
            out.append((lo, max(hi, lo + 0.5)))
        return [(lo, hi) for lo, hi in out if hi <= size]

    @pytest.mark.parametrize("seed", range(12))
    def test_crop_reproduces_the_cells_exactly(self, seed):
        r = np.random.default_rng(seed)
        bb = integer_backbone(seed)
        h, w = (int(v) for v in r.integers(8, 90, size=2))
        x = r.integers(0, 10, size=(1, 3, h, w)).astype(np.float64)
        full = bb.forward(Tensor(x)).data
        assert np.count_nonzero(full) > full.size // 4
        for (y1, y2), (x1, x2) in zip(self.spans(r, h), self.spans(r, w)):
            (r0, r1), (c0, c1) = Backbone.roi_crop(y1, y2, h), Backbone.roi_crop(x1, x2, w)
            assert r0 % 8 == 0 and c0 % 8 == 0
            crop = bb.forward(Tensor(x[:, :, r0:r1, c0:c1])).data
            ys, xs = [math.floor(y1 / 8), math.ceil(y2 / 8)], [math.floor(x1 / 8), math.ceil(x2 / 8)]
            want = full[:, :, ys[0] : ys[1], xs[0] : xs[1]]
            got = crop[:, :, ys[0] - r0 // 8 : ys[1] - r0 // 8, xs[0] - c0 // 8 : xs[1] - c0 // 8]
            assert np.array_equal(got, want), ((y1, y2, h), (x1, x2, w))

    def test_the_context_cell_is_needed(self):
        """Cropping at the RoI's first cell, without the cell before it,
        changes that cell: the rule is no looser than the blocks need."""
        r = np.random.default_rng(0)
        bb = integer_backbone(0)
        x = r.integers(0, 10, size=(1, 3, 48, 48)).astype(np.float64)
        full = bb.forward(Tensor(x)).data
        assert not np.array_equal(bb.forward(Tensor(x[:, :, 16:, :])).data[:, :, 0], full[:, :, 2])
        assert Backbone.roi_crop(16.0, 24.0, 48) == (8, 24)

    def test_span_outside_the_axis_rejected(self):
        with pytest.raises(RoiError, match="reads no cell"):
            Backbone.roi_crop(40.0, 48.0, 40)


class TestRoiPool:
    def test_exact_region_identity_both_modes(self):
        r = np.random.default_rng(0)
        feat = Tensor(r.normal(size=(1, 4, 16, 16)).astype(np.float32))
        roi = RoI(x1=3 * 8, y1=2 * 8, x2=10 * 8, y2=9 * 8)  # exactly 7x7 cells
        for mode in ("avg", "max"):
            out = roi_pool([feat], box_array([roi]), [0], mode=mode)
            assert np.array_equal(out.data, feat.data[:, :, 2:9, 3:10])

    def test_constant_map_both_modes(self):
        feat = Tensor(np.full((1, 3, 12, 12), 0.73, dtype=np.float32))
        for mode in ("avg", "max"):
            out = roi_pool([feat], box_array([RoI(x1=5.0, y1=9.0, x2=55.0, y2=77.0)]), [0], mode=mode)
            assert np.allclose(out.data, 0.73, atol=1e-6)

    @pytest.mark.parametrize("mode", ["avg", "max"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_oracle_exactly(self, mode, seed):
        r = np.random.default_rng(seed)
        feat_arr = r.integers(0, 256, size=(1, 5, 16, 16)).astype(np.float32)
        x1, y1 = r.uniform(0, 100, 2)
        roi = RoI(x1=x1, y1=y1, x2=x1 + r.uniform(4, 120), y2=y1 + r.uniform(4, 120))
        got = roi_pool([Tensor(feat_arr)], box_array([roi]), [0], mode=mode).data
        expected = naive_roi_pool(feat_arr, roi, out=7, mode=mode, stride=8)
        assert np.array_equal(got, expected)

    def test_gradients_match_fd(self):
        """The RoI reads 8x8 cells, so every bin of the 7x7 grid spans two."""
        r = np.random.default_rng(42)
        roi = RoI(x1=10.3, y1=4.7, x2=70.2, y2=60.1)

        def build(t):
            pooled = roi_pool([t["feat"]], box_array([roi]), [0])
            return ag.sum_all(ag.mul(pooled, pooled))

        feat = r.permutation(np.arange(200, dtype=np.float64) * 0.05 - 5.0).reshape(1, 2, 10, 10)
        check_op_gradients(build, {"feat": feat}, context="roi_pool avg")

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_avg_matches_naive_oracle_per_roi(self, seed):
        """Each row of one batched pool is the oracle's pooling of its RoI,
        for RoIs clamped at the map edges and for a batch of one; on
        real-valued maps each row is bitwise the RoI pooled alone."""
        r = np.random.default_rng(100 + seed)
        rois = []
        for _ in range(6):
            x1, y1 = r.uniform(-20, 110, 2)
            rois.append(RoI(x1=x1, y1=y1, x2=x1 + r.uniform(24, 120), y2=y1 + r.uniform(24, 120)))
        rois.append(RoI(x1=-30.0, y1=100.0, x2=20.0, y2=400.0))  # clamped at two edges
        feat_arr = r.integers(0, 256, size=(1, 5, 16, 16)).astype(np.float32)
        slots = [0] * len(rois)
        batched = roi_pool([Tensor(feat_arr)], box_array(rois), slots).data
        assert batched.shape == (len(rois), 5, 7, 7)
        for n, roi in enumerate(rois):
            assert np.array_equal(batched[n : n + 1], naive_roi_pool(feat_arr, roi, out=7, mode="avg", stride=8))
        real = Tensor(r.normal(size=(1, 5, 16, 16)).astype(np.float32))
        batched = roi_pool([real], box_array(rois), slots).data
        for n, roi in enumerate(rois):
            assert np.array_equal(batched[n : n + 1], roi_pool([real], box_array([roi]), [0]).data)
            assert np.array_equal(batched[n : n + 1], roi_pool([real], box_array([roi]), [0], mode="avg").data)

    def test_batched_avg_gradients_match_fd(self):
        r = np.random.default_rng(43)
        rois = [
            RoI(x1=10.3, y1=4.7, x2=70.2, y2=60.1),
            RoI(x1=0.0, y1=30.0, x2=33.0, y2=80.0),  # overlaps the first
            RoI(x1=-5.0, y1=-5.0, x2=200.0, y2=24.0),  # clamped
        ]
        weights = Tensor(r.normal(size=(3, 2, ROI_OUT, ROI_OUT)))

        def build(t):
            pooled = roi_pool([t["feat"]], box_array(rois), [0, 0, 0])
            return ag.sum_all(ag.mul(ag.mul(pooled, pooled), weights))

        check_op_gradients(build, {"feat": r.normal(size=(1, 2, 10, 10))}, context="roi_pool avg")

    # RoIs over maps of different sizes, slots interleaved; map 1 is read by no RoI
    MULTI_ROIS = [
        RoI(x1=10.3, y1=4.7, x2=70.2, y2=60.1),
        RoI(x1=0.0, y1=30.0, x2=33.0, y2=80.0),
        RoI(x1=-5.0, y1=-5.0, x2=200.0, y2=24.0),  # clamped
        RoI(x1=8.0, y1=8.0, x2=90.0, y2=50.0),
        RoI(x1=20.0, y1=1.0, x2=41.0, y2=47.0),  # overlaps the first
    ]
    MULTI_SLOTS = [0, 2, 0, 2, 0]

    def test_multi_map_gradients_match_fd(self):
        r = np.random.default_rng(44)
        unread = Tensor(r.normal(size=(1, 2, 6, 6)), requires_grad=True)
        weights = Tensor(r.normal(size=(len(self.MULTI_ROIS), 2, ROI_OUT, ROI_OUT)))

        def build(t):
            pooled = roi_pool([t["a"], unread, t["b"]], box_array(self.MULTI_ROIS), self.MULTI_SLOTS)
            return ag.sum_all(ag.mul(ag.mul(pooled, pooled), weights))

        arrays = {"a": r.normal(size=(1, 2, 10, 10)), "b": r.normal(size=(1, 2, 7, 12))}
        check_op_gradients(build, arrays, context="multi-map roi_pool avg")
        assert unread.grad is None
        a, b = Tensor(arrays["a"], requires_grad=True), Tensor(arrays["b"], requires_grad=True)
        node = roi_pool([a, unread, b], box_array(self.MULTI_ROIS), self.MULTI_SLOTS)
        assert len(node._parents) == 2 and node._parents[0] is a and node._parents[1] is b

    @pytest.mark.parametrize(
        "slots",
        [[0, 0, 0, 0, 1, 1, 1, 2, 2, 2], [2, 0, 1, 0, 2, 1, 0, 2, 1, 0], [1, 1, 0, 1, 1, 0, 1, 0, 1, 1], [0] * 10],
        ids=["ordered", "mixed", "two", "one"],
    )
    def test_multi_map_is_bitwise_the_per_image_merge(self, slots):
        """Rows and every map gradient equal those of one pooling node per
        image, concatenated and put back in RoI order: float32, bit for bit.
        Three or more RoIs overlap on each map, so a different summation
        order would show in the last bits."""
        r = np.random.default_rng(45)
        shapes = [(1, 4, 12, 12), (1, 4, 9, 14), (1, 4, 16, 10)]
        arrays = [r.normal(size=shape).astype(np.float32) for shape in shapes]
        rois = [
            RoI(x1=float(x), y1=float(y), x2=float(x + w), y2=float(y + h))
            for x, y, w, h in r.uniform([-10, -10, 50, 50], [30, 30, 100, 100], size=(len(slots), 4))
        ]
        self.assert_bitwise_per_image_merge(arrays, rois, slots, r)

    @staticmethod
    def every_cell_span(dtype):
        """One RoI for every cell height and width from 1 to 15, one cell
        wide or high among them, shuffled over three 32-channel maps, so
        dozens overlap on each map: (arrays, rois, slots, rng)."""
        r = np.random.default_rng(49)
        shapes = [(1, 32, 15, 15), (1, 32, 16, 17), (1, 32, 18, 15)]
        arrays = [r.normal(size=shape).astype(dtype) for shape in shapes]
        rois, slots = [], []
        for h in range(1, 16):
            for w in range(1, 16):
                s = int(r.integers(3))
                y, x = (int(r.integers(0, size - span + 1)) for size, span in zip(shapes[s][2:], (h, w)))
                fx1, fy1, fx2, fy2 = r.uniform(0.0, 3.5, 4)  # inside the cells, positive extent
                rois.append(RoI(x1=8.0 * x + fx1, y1=8.0 * y + fy1, x2=8.0 * (x + w) - fx2, y2=8.0 * (y + h) - fy2))
                slots.append(s)
        order = r.permutation(len(rois))
        return arrays, [rois[i] for i in order], [slots[i] for i in order], r

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_every_cell_span_is_bitwise_the_per_image_merge(self, dtype):
        """Full-map bin matrices against one pooling node per image, on
        every cell span: rows and map gradients are equal bit for bit."""
        self.assert_bitwise_per_image_merge(*self.every_cell_span(dtype))

    @staticmethod
    def assert_bitwise_per_image_merge(arrays, rois, slots, r):
        weights = Tensor(r.normal(size=(len(rois), arrays[0].shape[1], ROI_OUT, ROI_OUT)).astype(arrays[0].dtype))
        results = []
        for pool in (lambda maps: roi_pool(maps, box_array(rois), slots), lambda maps: per_image_pool_merge(maps, rois, slots)):
            maps = [Tensor(a, requires_grad=True) for a in arrays]
            pooled = pool(maps)
            ag.sum_all(ag.mul(pooled, weights)).backward()
            results.append((pooled.data, [m.grad for m in maps]))
        (got, got_grads), (want, want_grads) = results
        assert np.array_equal(got, want)
        for s, (g, w) in enumerate(zip(got_grads, want_grads)):
            assert (g is None) == (w is None) == (s not in slots)
            assert g is None or np.array_equal(g, w)

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_maps_of_two_dtypes_that_rois_read_are_rejected(self, mode):
        """The maps some RoI reads share one dtype, the output's; a map no
        RoI reads may have another."""
        arrays, rois, slots, _ = self.every_cell_span(np.float64)
        arrays[0] = arrays[0].astype(np.float32)
        with pytest.raises(ShapeError, match=r"^roi_pool maps differ in dtype: \['float32', 'float64'\]$"):
            roi_pool([Tensor(a) for a in arrays], box_array(rois), slots, mode=mode)
        only_f32 = [roi for roi, s in zip(rois, slots) if s == 0]
        assert roi_pool([Tensor(a) for a in arrays], box_array(only_f32), [0] * len(only_f32), mode=mode).dtype == np.float32

    # (map, rows) of each one-row map in the batched maps [a, b] + [c] + [d, e, f]
    BATCHED = [(0, [0, 1]), (1, [2]), (2, [3, 4, 5])]

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_batched_maps_are_bitwise_the_one_row_maps(self, mode):
        """Maps of several images each, as one backbone pass gives them:
        slot s is row s of the batch axes concatenated, and the rows and, in
        average mode, each image's map gradient equal those of one 1xCxhxw
        map per image, bit for bit.  An image no RoI reads gets a zero
        gradient row; a map tensor no RoI reads is no parent."""
        r = np.random.default_rng(50)
        sizes = [(12, 12), (12, 12), (9, 14), (16, 10), (16, 10), (16, 10)]
        arrays = [r.normal(size=(1, 4, *size)).astype(np.float32) for size in sizes]
        slots = [0, 3, 1, 0, 5, 3, 1, 0, 3, 5, 0, 3]  # images 2 and 4 unread
        rois = [
            RoI(x1=float(x), y1=float(y), x2=float(x + w), y2=float(y + h))
            for x, y, w, h in r.uniform([-10, -10, 40, 40], [30, 30, 100, 100], size=(len(slots), 4))
        ]
        batched = [np.concatenate([arrays[i] for i in rows]) for _, rows in self.BATCHED]
        want = roi_pool([Tensor(a) for a in arrays], box_array(rois), slots, mode=mode)
        assert np.array_equal(roi_pool([Tensor(a) for a in batched], box_array(rois), slots, mode=mode).data, want.data)
        if mode == "max":
            return
        weights = Tensor(r.normal(size=(len(rois), 4, 7, 7)).astype(np.float32))
        one_row = [Tensor(a, requires_grad=True) for a in arrays]
        ag.sum_all(ag.mul(roi_pool(one_row, box_array(rois), slots), weights)).backward()
        batched = [Tensor(a, requires_grad=True) for a in batched]
        got = roi_pool(batched, box_array(rois), slots)
        assert got._parents == (batched[0], batched[2])
        ag.sum_all(ag.mul(got, weights)).backward()
        assert np.array_equal(got.data, want.data)
        assert batched[1].grad is None
        for m, rows in self.BATCHED:
            for k, i in enumerate(rows):
                if i in slots:
                    assert np.array_equal(batched[m].grad[k : k + 1], one_row[i].grad)
                elif batched[m].grad is not None:
                    assert not batched[m].grad[k].any()

    # (map, x, y, width, height) in cells: 1 cell wide, 1 cell high, 1x1,
    # widths shared across maps, and the whole map
    NARROW_CELLS = [
        (0, 3, 0, 1, 12),
        (1, 7, 2, 1, 9),
        (2, 0, 4, 1, 5),
        (0, 11, 1, 1, 10),
        (1, 0, 5, 12, 1),
        (2, 2, 11, 6, 1),
        (0, 4, 4, 1, 1),
        (1, 1, 1, 5, 8),
        (2, 6, 3, 5, 9),
        (0, 2, 2, 5, 3),
        (2, 0, 0, 12, 12),
        (1, 3, 0, 2, 12),
        (0, 9, 6, 2, 6),
        (2, 10, 1, 1, 7),
    ]

    def test_narrow_rois_are_bitwise_the_per_image_merge(self):
        """RoIs one cell wide or high at the training shapes (32 channels,
        12x12 maps), among RoIs that share a width, over three maps: rows
        and map gradients equal one pooling node per image, bit for bit.
        A product one column wide runs as a matrix-vector product, whose
        rounding depends on how many rows it stacks."""
        r = np.random.default_rng(48)
        arrays = [r.normal(size=(1, 32, 12, 12)).astype(np.float32) for _ in range(3)]
        slots = [s for s, *_ in self.NARROW_CELLS]
        rois = []
        for _, x, y, w, h in self.NARROW_CELLS:
            fx1, fy1, fx2, fy2 = r.uniform(0.0, 3.5, 4)  # inside the cells, positive extent
            rois.append(RoI(x1=8.0 * x + fx1, y1=8.0 * y + fy1, x2=8.0 * (x + w) - fx2, y2=8.0 * (y + h) - fy2))
        self.assert_bitwise_per_image_merge(arrays, rois, slots, r)

    @pytest.mark.parametrize(
        "slots",
        [[0, 0, 0, 0, 1, 1, 1, 2, 2, 2], [2, 0, 1, 0, 2, 1, 0, 2, 1, 0], [1, 1, 0, 1, 1, 0, 1, 0, 1, 1], [0] * 10],
        ids=["ordered", "mixed", "two", "one"],
    )
    def test_max_rows_and_gradients_are_bitwise_the_single_roi_op(self, slots):
        """Each max row equals that of the former single-RoI max node:
        float32, bit for bit.  The maps take few values, so most bins hold
        ties and a different winner would move the row.  Max mode sends no
        gradient: a map some RoI reads that takes one is a GraphError, and
        a map no RoI reads may take one and is given none."""
        r = np.random.default_rng(46)
        shapes = [(1, 4, 12, 12), (1, 4, 9, 14), (1, 4, 16, 10)]
        arrays = [r.integers(0, 6, size=shape).astype(np.float32) for shape in shapes]
        rois = [
            RoI(x1=float(x), y1=float(y), x2=float(x + w), y2=float(y + h))
            for x, y, w, h in r.uniform([-10, -10, 50, 50], [30, 30, 100, 100], size=(len(slots), 4))
        ]
        got = roi_pool([Tensor(a) for a in arrays], box_array(rois), slots, mode="max")
        assert got._parents == () and got._backward is None
        for n, (roi, s) in enumerate(zip(rois, slots)):
            assert np.array_equal(got.data[n : n + 1], single_roi_max_pool(Tensor(arrays[s]), roi))
        for k in range(len(arrays)):
            maps = [Tensor(a, requires_grad=j == k) for j, a in enumerate(arrays)]
            if k in slots:
                with pytest.raises(GraphError, match="max-mode roi_pool has no backward"):
                    roi_pool(maps, box_array(rois), slots, mode="max")
            else:
                assert np.array_equal(roi_pool(maps, box_array(rois), slots, mode="max").data, got.data)
                assert maps[k].grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_max_rows_are_bitwise_the_single_roi_op(self, dtype):
        """Each max row equals that of the former single-RoI max node, each
        bin's first maximum, bit for bit.  Seeded random draws of one-row
        and batched maps, half of them of few values, so most bins hold
        ties, and RoIs of every cell span from one cell wide or high up,
        some clamped at the map edges."""
        r = np.random.default_rng(46)
        for _ in range(40):
            maps = []
            for rows in r.integers(1, 4, size=int(r.integers(1, 4))):
                shape = (rows, 4, *r.integers(1, 17, size=2))
                maps.append(r.integers(0, 4, size=shape) if r.random() < 0.5 else r.normal(size=shape))
            images = [m[k : k + 1] for m in maps for k in range(len(m))]
            rois, slots = [], []
            for s in r.integers(0, len(images), size=int(r.integers(1, 13))).tolist():
                (fh, fw), cells = images[s].shape[2:], []
                for size in (fw, fh):  # x, then y
                    lo = int(r.integers(size))
                    cells += [lo, lo + (1 if r.random() < 0.3 else int(r.integers(1, size - lo + 1)))]
                x0, x1, y0, y1 = cells
                inset = r.uniform(0.0, 3.5, 4) - 8.0 * r.integers(0, 2, size=4)  # < 0: one cell more, or clamped
                rois.append(RoI(x1=8.0 * x0 + inset[0], y1=8.0 * y0 + inset[1], x2=8.0 * x1 - inset[2], y2=8.0 * y1 - inset[3]))
                slots.append(s)
            got = roi_pool([Tensor(m.astype(dtype)) for m in maps], box_array(rois), slots, mode="max").data
            want = [single_roi_max_pool(Tensor(images[s].astype(dtype)), roi) for roi, s in zip(rois, slots)]
            assert got.dtype == dtype
            assert np.array_equal(got, np.concatenate(want))

    def test_max_mode_rejects_maps_that_take_a_gradient(self):
        """Max mode has no backward: a map some RoI reads that takes a
        gradient is a GraphError; a map no RoI reads may take one.  On maps
        that take none the result is a constant tensor, and both RoIs on
        map a pool the cell they share, the map's maximum."""
        r = np.random.default_rng(47)
        rois = [
            RoI(x1=8.0, y1=8.0, x2=48.0, y2=40.0),  # map a, cells y 1-4, x 1-5
            RoI(x1=0.0, y1=30.0, x2=33.0, y2=80.0),  # map b, clamped below
            RoI(x1=24.0, y1=16.0, x2=72.0, y2=64.0),  # map a, cells y 2-7, x 3-8
        ]
        slots = [0, 2, 0]
        a = r.normal(size=(1, 2, 10, 10))
        a[0, :, 4, 4] = [10.0, 11.0]
        b = r.normal(size=(1, 2, 7, 12))
        unread = Tensor(r.normal(size=(1, 2, 6, 6)), requires_grad=True)
        for grad_map in range(2):
            maps = [Tensor(x, requires_grad=k == grad_map) for k, x in enumerate((a, b))]
            with pytest.raises(GraphError, match="max-mode roi_pool has no backward"):
                roi_pool([maps[0], unread, maps[1]], box_array(rois), slots, mode="max")
        pooled = roi_pool([Tensor(a), unread, Tensor(b)], box_array(rois), slots, mode="max")
        assert not pooled.requires_grad and pooled._parents == () and pooled._backward is None
        for n in (0, 2):
            assert np.array_equal(pooled.data[n].max(axis=(1, 2)), a[0, :, 4, 4])

    def test_multi_map_bad_slots_and_maps_rejected(self):
        maps = [Tensor(np.zeros((1, 2, 8, 8))), Tensor(np.zeros((1, 2, 6, 6)))]
        roi = RoI(x1=0, y1=0, x2=16, y2=16)
        for slots in ([0], [0, 1, 0], [2, 0], [-1, 0]):
            with pytest.raises(ShapeError, match="slot"):
                roi_pool(maps, box_array([roi, roi]), slots)
        with pytest.raises(ShapeError, match="channel"):
            roi_pool(maps + [Tensor(np.zeros((1, 3, 8, 8)))], box_array([roi, roi]), [0, 2])
        with pytest.raises(RoiError):
            roi_pool(maps, box_array([]), [])
        two = [Tensor(np.zeros((2, 2, 8, 8))), Tensor(np.zeros((1, 2, 6, 6)))]  # slots 0-2
        roi_pool(two, box_array([roi, roi]), [1, 2])
        with pytest.raises(ShapeError, match=r"slot in \[0, 3\)"):
            roi_pool(two, box_array([roi, roi]), [0, 3])
        with pytest.raises(ShapeError, match="NxCxhxw"):
            roi_pool([Tensor(np.zeros((2, 8, 8)))], box_array([roi]), [0])

    @pytest.mark.parametrize("geometry", [{"out": 0}, {"out": -1}, {"stride": 0}, {"stride": -8}])
    def test_bad_out_or_stride_rejected(self, geometry):
        """The grid and the stride belong to the architecture (ROI_OUT,
        Backbone.total_stride): roi_pool takes neither as an argument."""
        feat = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        for mode in ("avg", "max"):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                roi_pool([feat], box_array([RoI(x1=0, y1=0, x2=16, y2=16)]), [0], mode=mode, **geometry)

    def test_degenerate_roi_errors(self):
        feat = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        with pytest.raises(RoiError):
            roi_pool([feat], box_array([RoI(x1=900.0, y1=900.0, x2=950.0, y2=950.0)]), [0])

    @pytest.mark.parametrize("mode", ["avg", "max"])
    @pytest.mark.parametrize("bad", [(0.0, 0.0, math.inf, 10.0), (-math.inf, 0.0, 16.0, 16.0), (0.0, math.nan, 16.0, 16.0)])
    def test_non_finite_box_is_an_roi_error_naming_its_row(self, mode, bad):
        """An infinite or NaN coordinate is an `RoiError` naming the box, not
        an `OverflowError` from the span rule's rounding."""
        feat = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        boxes = np.array([(0.0, 0.0, 16.0, 16.0), bad])
        with pytest.raises(RoiError, match=r"^RoI 1 span \[.*\) has a non-finite bound$"):
            roi_pool([feat], boxes, [0, 0], mode=mode)

    def test_boxes_must_be_an_array_of_four_columns(self):
        feat = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        roi = RoI(x1=0, y1=0, x2=16, y2=16)
        for boxes in ([roi], np.zeros(4), np.zeros((1, 5))):
            with pytest.raises(ShapeError, match=r"\(N, 4\) box array \(`box_array` makes one of RoIs\)"):
                roi_pool([feat], boxes, [0])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_stacks_are_bitwise_the_per_roi_oracles(self, data):
        """Random stacks of 1-3 map tensors of 1-3 rows, sides 1-14 cells,
        float32 or float64, and random boxes inside them, many one cell
        wide or high: the average rows and map gradients equal one pooling
        node per image, and the max rows the single-RoI max pooling, bit
        for bit."""
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        c = data.draw(st.integers(1, 4))
        side = st.integers(1, 14)
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 3), side, side), min_size=1, max_size=3))
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        arrays = [r.normal(size=(n, c, h, w)).astype(dtype) for n, h, w in shapes]
        images = [(m, k) for m, a in enumerate(arrays) for k in range(len(a))]  # slot -> (map, row)
        rois, slots = [], []
        for _ in range(data.draw(st.integers(1, 12))):
            slot = data.draw(st.integers(0, len(images) - 1))
            m, k = images[slot]
            cells = []
            for size in arrays[m].shape[:1:-1]:  # x, then y
                lo = data.draw(st.integers(0, size - 1))
                cells.append((lo, data.draw(st.one_of(st.just(lo + 1), st.integers(lo + 1, size)))))
            (x0, x1), (y0, y1) = cells
            fx1, fy1, fx2, fy2 = r.uniform(0.0, 3.5, 4)  # inside the cells, positive extent
            rois.append(RoI(x1=8.0 * x0 + fx1, y1=8.0 * y0 + fy1, x2=8.0 * x1 - fx2, y2=8.0 * y1 - fy2))
            slots.append(slot)
        weights = r.normal(size=(len(rois), c, ROI_OUT, ROI_OUT)).astype(dtype)
        maps = [Tensor(a, requires_grad=True) for a in arrays]
        pooled = roi_pool(maps, box_array(rois), slots)
        ag.sum_all(ag.mul(pooled, Tensor(weights))).backward()
        maxed = roi_pool([Tensor(a) for a in arrays], box_array(rois), slots, mode="max").data
        assert pooled.dtype == maxed.dtype == dtype
        for slot, (m, k) in enumerate(images):
            rows = [n for n, s in enumerate(slots) if s == slot]
            if not rows:
                assert maps[m].grad is None or not maps[m].grad[k].any()
                continue
            image = Tensor(arrays[m][k : k + 1], requires_grad=True)
            want = per_image_roi_avg_pool(image, [rois[n] for n in rows])
            ag.sum_all(ag.mul(want, Tensor(weights[rows]))).backward()
            assert np.array_equal(pooled.data[rows], want.data)
            assert np.array_equal(maps[m].grad[k : k + 1], image.grad)
            for n in rows:
                assert np.array_equal(maxed[n : n + 1], single_roi_max_pool(Tensor(arrays[m][k : k + 1]), rois[n]))

    def test_bad_mode_rejected(self):
        feat = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        with pytest.raises(ShapeError, match="mode"):
            roi_pool([feat], box_array([RoI(x1=0, y1=0, x2=8, y2=8)]), [0], mode="median")


class TestReferenceFeature:
    def test_full_image_at_ref_scale_is_plain_forward(self):
        bb = Backbone.small(seed=2)
        img = make_image(seed=7, size=48)
        roi = RoI(x1=0.0, y1=0.0, x2=48.0, y2=48.0)
        ref = extract_reference_feature(img, roi, 48, bb)
        direct = ag.global_avg_pool(bb.forward(img.pixels))
        assert np.array_equal(ref.data, direct.data)
        assert ref.shape == (1, 32, 1, 1)
        assert not ref.requires_grad

    def test_constant_image_crop_invariance(self):
        bb = Backbone.small(seed=2)
        img = Image(np.full((1, 3, 64, 64), 128, dtype=np.uint8), id=0)
        a = extract_reference_feature(img, RoI(x1=0, y1=0, x2=24, y2=24), 32, bb)
        b = extract_reference_feature(img, RoI(x1=30, y1=30, x2=62, y2=62), 32, bb)
        assert np.allclose(a.data, b.data, atol=1e-6)

    def test_replay_identical(self):
        bb = Backbone.small(seed=4)
        img = make_image(seed=8)
        roi = RoI(x1=12.5, y1=20.0, x2=55.0, y2=70.0)
        a = extract_reference_feature(img, roi, 48, bb).data
        b = extract_reference_feature(img, roi, 48, bb).data
        assert np.array_equal(a, b)

    def test_crop_outside_image_errors(self):
        img = make_image(seed=1)
        with pytest.raises(RoiError, match="reads no cell"):
            extract_reference_feature(img, RoI(x1=200.0, y1=200.0, x2=220.0, y2=210.0), 48, Backbone.small(seed=1))

    @pytest.mark.parametrize("roi", [RoI(x1=0.0, y1=0.0, x2=math.inf, y2=10.0), RoI(x1=-math.inf, y1=0.0, x2=10.0, y2=10.0)])
    def test_infinite_coordinate_is_an_roi_error(self, roi):
        with pytest.raises(RoiError, match=r"^RoI 0 span \[.*\) has a non-finite bound$"):
            extract_reference_feature(make_image(seed=1), roi, 48, Backbone.small(seed=1))


class TestCellFootprint:
    """`Backbone.cell_footprint` against the crop the reference pathway made
    before it: the RoI snapped to the stride grid and clamped to the image
    (`cell_aligned_roi`), then cropped (`crop_pixels`)."""

    @staticmethod
    def random_rois(r, h, w, n):
        """RoIs inside, across the edges of and wholly outside an h x w
        image, up to 20 pixels beyond it, some thinner than a pixel."""
        x1 = r.uniform(-20.0, w + 20.0, n)
        y1 = r.uniform(-20.0, h + 20.0, n)
        widths = np.where(r.random(n) < 0.1, r.uniform(0.01, 1.0, n), r.uniform(1.0, w + 20.0, n))
        heights = np.where(r.random(n) < 0.1, r.uniform(0.01, 1.0, n), r.uniform(1.0, h + 20.0, n))
        return [RoI(x1=a, y1=b, x2=a + dw, y2=b + dh) for a, b, dw, dh in zip(x1, y1, widths, heights)]

    @staticmethod
    def footprint(img, roi):
        """(y0, y1, x0, x1) of the RoI's cell footprint on the image."""
        return (*Backbone.cell_footprint(roi.y1, roi.y2, img.height), *Backbone.cell_footprint(roi.x1, roi.x2, img.width))

    @pytest.mark.parametrize("seed", range(6))
    def test_crop_is_the_snapped_roi_crop(self, seed):
        """The snapped RoI's bounds and crop, and RoiError on the same RoIs,
        on image sides that are not multiples of the stride."""
        r = np.random.default_rng(seed)
        stride = Backbone.total_stride
        raised = 0
        for _ in range(8):
            h, w = (int(v) for v in r.choice([s for s in range(16, 130) if s % stride], size=2))
            img = Image((np.arange(3 * h * w) % 256).astype(np.uint8).reshape(1, 3, h, w))
            for roi in self.random_rois(r, h, w, 60):
                try:
                    snapped = cell_aligned_roi(roi, stride, w, h)
                    want = crop_pixels(img, snapped)
                except RoiError:
                    with pytest.raises(RoiError):
                        self.footprint(img, roi)
                    raised += 1
                    continue
                y0, y1, x0, x1 = self.footprint(img, roi)
                assert (y0, y1, x0, x1) == (snapped.y1, snapped.y2, snapped.x1, snapped.x2), (roi, h, w)
                assert np.array_equal(img.pixels.data[:, :, y0:y1, x0:x1], want)
        assert 0 < raised < 8 * 60

    def test_non_finite_bound_is_an_roi_error_naming_its_row(self):
        """A span with an infinite or NaN bound is an `RoiError`, not an
        `OverflowError` from rounding it; in an array, it names the row."""
        for lo, hi in ((0.0, math.inf), (-math.inf, 16.0), (math.nan, 16.0)):
            with pytest.raises(RoiError, match=r"^RoI span \[.*\) has a non-finite bound$"):
                Backbone.cell_footprint(lo, hi, 96)
            with pytest.raises(RoiError, match=r"^RoI 2 span \[.*\) has a non-finite bound$"):
                Backbone.cell_footprint(np.array([0.0, 8.0, lo]), np.array([16.0, 24.0, hi]), 96)

    def test_arrays_of_spans_are_the_scalar_spans(self):
        """One call over an array of spans and sizes gives each span's own
        footprint; the first row that reads no cell is named."""
        r = np.random.default_rng(7)
        sizes = r.integers(16, 130, size=50)
        lo = r.uniform(-20.0, sizes - 8.0)
        hi = lo + r.uniform(20.5, 60.0, size=50)  # past the axis end for some
        start, stop = Backbone.cell_footprint(lo, hi, sizes)
        for n in range(50):
            assert (start[n], stop[n]) == Backbone.cell_footprint(lo[n], hi[n], int(sizes[n]))
        with pytest.raises(RoiError, match=r"^RoI 1 span \[200.0, 210.0\) reads no cell of a 12-cell map axis"):
            Backbone.cell_footprint(np.array([0.0, 200.0, 300.0]), np.array([8.0, 210.0, 310.0]), 96)

    @pytest.mark.parametrize("seed", range(3))
    def test_roi_crop_widens_the_footprint_by_one_stride(self, seed):
        r = np.random.default_rng(100 + seed)
        for size in r.integers(16, 130, size=20).tolist():
            for lo, hi in r.uniform(-20.0, size + 20.0, size=(20, 2)):
                lo, hi = min(lo, hi), max(lo, hi) + 0.5
                try:
                    start, stop = Backbone.cell_footprint(lo, hi, size)
                except RoiError:
                    with pytest.raises(RoiError):
                        Backbone.roi_crop(lo, hi, size)
                    continue
                assert Backbone.roi_crop(lo, hi, size) == (max(0, start - Backbone.total_stride), stop)


class TestCamScaleSweep:
    def test_native_size_matches_direct_forward(self):
        bb = Backbone.small(seed=3)
        img = make_image(seed=11, size=64)
        (entry,), skipped = cam_scale_sweep(img, bb, [64])
        assert skipped == []
        direct = ag.global_avg_pool(bb.forward(img.pixels)).data.reshape(32)
        assert np.allclose(entry[1], direct, atol=1e-6)

    def test_constant_image_identical_vectors(self):
        bb = Backbone.small(seed=3)
        img = Image(np.full((1, 3, 48, 48), 102, dtype=np.uint8), id=0)
        vectors, _ = cam_scale_sweep(img, bb, [16, 24, 48])
        base = vectors[0][1]
        for _, vec in vectors[1:]:
            assert np.allclose(vec, base, atol=1e-5)

    def test_textured_image_vectors_differ(self):
        bb = Backbone.small(seed=3)
        img = make_image(seed=13)
        vectors, _ = cam_scale_sweep(img, bb, [16, 32, 64])
        dists = [
            float(np.linalg.norm(a[1] - b[1]))
            for i, a in enumerate(vectors)
            for b in vectors[i + 1 :]
        ]
        assert max(dists) > 0

    def test_small_scales_skipped_with_record(self):
        bb = Backbone.small(seed=3)
        img = make_image(seed=13)
        vectors, skipped = cam_scale_sweep(img, bb, [4, 16])
        assert skipped == [4]
        assert [s for s, _ in vectors] == [16]
