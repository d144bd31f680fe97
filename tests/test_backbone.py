"""Backbone geometry, RoI pooling vs a brute-force oracle, feature pathways."""

import math

import numpy as np
import pytest

from helpers import check_op_gradients

from sanlab import autograd as ag
from sanlab.autograd import Tensor
from sanlab.backbone import (
    Backbone,
    Image,
    RoI,
    cam_scale_sweep,
    crop_pixels,
    extract_reference_feature,
    roi_avg_pool,
    roi_pool,
)
from sanlab.errors import RoiError, ShapeError


def make_image(seed=0, size=96, amplitude=1.0):
    r = np.random.default_rng(seed)
    px = (amplitude * r.random((1, 3, size, size))).astype(np.float32)
    return Image(pixels=Tensor(px), id=seed)


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


class TestBackboneForward:
    def test_stride_eight_geometry(self):
        bb = Backbone.small(seed=0)
        img = make_image(size=96)
        feat = bb.forward(img.pixels)
        assert feat.shape == (1, 32, 12, 12)
        assert bb.total_stride == 8

    def test_zero_image_zero_biases_zero_features(self):
        bb = Backbone.small(seed=0)
        img = Image(pixels=Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)), id=0)
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


class TestRoiPool:
    def test_exact_region_identity_both_modes(self):
        r = np.random.default_rng(0)
        feat = Tensor(r.normal(size=(1, 4, 16, 16)).astype(np.float32))
        roi = RoI(x1=3 * 8, y1=2 * 8, x2=10 * 8, y2=9 * 8)  # exactly 7x7 cells
        for mode in ("avg", "max"):
            out = roi_pool(feat, roi, out=7, mode=mode, stride=8)
            assert np.array_equal(out.data, feat.data[:, :, 2:9, 3:10])

    def test_constant_map_both_modes(self):
        feat = Tensor(np.full((1, 3, 12, 12), 0.73, dtype=np.float32))
        for mode in ("avg", "max"):
            out = roi_pool(feat, RoI(x1=5.0, y1=9.0, x2=55.0, y2=77.0), out=7, mode=mode, stride=8)
            assert np.allclose(out.data, 0.73, atol=1e-6)

    @pytest.mark.parametrize("mode", ["avg", "max"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_oracle_exactly(self, mode, seed):
        r = np.random.default_rng(seed)
        feat_arr = r.integers(0, 256, size=(1, 5, 16, 16)).astype(np.float32)
        x1, y1 = r.uniform(0, 100, 2)
        roi = RoI(x1=x1, y1=y1, x2=x1 + r.uniform(4, 120), y2=y1 + r.uniform(4, 120))
        got = roi_pool(Tensor(feat_arr), roi, out=7, mode=mode, stride=8).data
        expected = naive_roi_pool(feat_arr, roi, out=7, mode=mode, stride=8)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_gradients_match_fd(self, mode):
        r = np.random.default_rng(42)
        roi = RoI(x1=10.3, y1=4.7, x2=70.2, y2=60.1)

        def build(t):
            pooled = roi_pool(t["feat"], roi, out=3, mode=mode, stride=8)
            return ag.sum_all(ag.mul(pooled, pooled))

        # permuted evenly spaced values: random but far from max-pool ties
        feat = r.permutation(np.arange(200, dtype=np.float64) * 0.05 - 5.0).reshape(1, 2, 10, 10)
        check_op_gradients(build, {"feat": feat}, context=f"roi_pool {mode}")

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
        batched = roi_avg_pool(Tensor(feat_arr), rois, out=7, stride=8).data
        assert batched.shape == (len(rois), 5, 7, 7)
        for n, roi in enumerate(rois):
            assert np.array_equal(batched[n : n + 1], naive_roi_pool(feat_arr, roi, out=7, mode="avg", stride=8))
        real = Tensor(r.normal(size=(1, 5, 16, 16)).astype(np.float32))
        batched = roi_avg_pool(real, rois, out=7, stride=8).data
        for n, roi in enumerate(rois):
            assert np.array_equal(batched[n : n + 1], roi_avg_pool(real, [roi], out=7, stride=8).data)
            assert np.array_equal(batched[n : n + 1], roi_pool(real, roi, out=7, mode="avg", stride=8).data)

    def test_batched_avg_gradients_match_fd(self):
        r = np.random.default_rng(43)
        rois = [
            RoI(x1=10.3, y1=4.7, x2=70.2, y2=60.1),
            RoI(x1=0.0, y1=30.0, x2=33.0, y2=80.0),  # overlaps the first
            RoI(x1=-5.0, y1=-5.0, x2=200.0, y2=24.0),  # clamped
        ]
        weights = Tensor(r.normal(size=(3, 2, 3, 3)))

        def build(t):
            pooled = roi_avg_pool(t["feat"], rois, out=3, stride=8)
            return ag.sum_all(ag.mul(ag.mul(pooled, pooled), weights))

        check_op_gradients(build, {"feat": r.normal(size=(1, 2, 10, 10))}, context="roi_avg_pool")

    def test_degenerate_roi_errors(self):
        feat = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        with pytest.raises(RoiError):
            roi_pool(feat, RoI(x1=900.0, y1=900.0, x2=950.0, y2=950.0), stride=8)

    def test_bad_mode_rejected(self):
        feat = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        with pytest.raises(ShapeError, match="mode"):
            roi_pool(feat, RoI(x1=0, y1=0, x2=8, y2=8), mode="median", stride=8)


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
        px = np.full((1, 3, 64, 64), 0.5, dtype=np.float32)
        img = Image(pixels=Tensor(px), id=0)
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
        with pytest.raises(RoiError):
            crop_pixels(img, RoI(x1=200.0, y1=200.0, x2=220.0, y2=210.0))


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
        img = Image(pixels=Tensor(np.full((1, 3, 48, 48), 0.4, dtype=np.float32)), id=0)
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
