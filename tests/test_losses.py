"""Regression codec, label assignment, detection head, multi-task loss.

The codec on `RoI` objects (`encode_regression`, `decode_regression`) is
the test oracle in `helpers`; the package decodes one row of offsets with
`losses.decode_box` and encodes rows with `losses.encode_boxes`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sanlab import autograd as ag
from helpers import RegressionTarget, decode_regression, encode_regression
from sanlab.autograd import Tensor
from sanlab.backbone import RoI, box_array
from sanlab.data import Annotation
from sanlab.errors import RoiError, ShapeError
from sanlab.losses import (
    DetectionHead,
    assign_roi_labels,
    box_iou,
    decode_box,
    encode_boxes,
    multi_task_loss,
    regression_loss,
)


def boxes_strategy():
    coord = st.floats(min_value=0.0, max_value=500.0)
    size = st.floats(min_value=1.0, max_value=300.0)
    return st.tuples(coord, coord, size, size).map(
        lambda t: RoI(x1=t[0], y1=t[1], x2=t[0] + t[2], y2=t[1] + t[3])
    )


def coords(roi: RoI) -> tuple[float, float, float, float]:
    return roi.x1, roi.y1, roi.x2, roi.y2


def encode(roi: RoI, gt: RoI) -> tuple[float, float, float, float]:
    (t,) = encode_boxes(box_array([roi]), box_array([gt])).tolist()
    return tuple(t)


class TestRegressionCodec:
    def test_identical_boxes_zero_target(self):
        roi = RoI(x1=10, y1=20, x2=50, y2=60)
        assert encode(roi, roi) == (0.0, 0.0, 0.0, 0.0)

    def test_half_width_shift(self):
        roi = RoI(x1=0, y1=0, x2=40, y2=40)
        gt = RoI(x1=20, y1=0, x2=60, y2=40)
        tx, ty, tw, th = encode(roi, gt)
        assert tx == pytest.approx(0.5)
        assert (ty, tw, th) == (0.0, 0.0, 0.0)

    def test_decode_zero_is_identity(self):
        assert decode_box((0.0, 0.0, 0.0, 0.0), (3.0, 4.0, 33.0, 24.0)) == (3, 4, 33, 24)

    def test_log_two_doubles_width_about_center(self):
        x1, _, x2, _ = decode_box((0.0, 0.0, math.log(2), 0.0), (0.0, 0.0, 10.0, 10.0))
        assert x2 - x1 == pytest.approx(20)
        assert (x1 + x2) / 2 == pytest.approx(5)

    @given(roi=boxes_strategy(), gt=boxes_strategy())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, roi, gt):
        decoded = decode_box(encode(roi, gt), coords(roi))
        assert decoded == pytest.approx(coords(gt), abs=1e-5)


def offsets_strategy():
    return st.tuples(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )


class TestDecodeBox:
    """`decode_box` on one row is the oracle `decode_regression`, bit for bit."""

    @given(roi=boxes_strategy(), t=offsets_strategy())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_oracle(self, roi, t):
        got = np.float64(decode_box(t, coords(roi)))
        assert got.tobytes() == np.float64(coords(decode_regression(RegressionTarget(*t), roi))).tobytes()

    @given(roi=boxes_strategy(), gt=boxes_strategy())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_equals_the_oracle(self, roi, gt):
        t = encode_regression(roi, gt)
        got = np.float64(decode_box((t.tx, t.ty, t.tw, t.th), coords(roi)))
        assert got.tobytes() == np.float64(coords(decode_regression(t, roi))).tobytes()

    @pytest.mark.parametrize("tw", [709.8, 1000.0, 1e30, math.inf])
    def test_log_size_offset_past_exp_is_an_infinite_side(self, tw):
        """`math.exp` raises `OverflowError` above about 709.78; such an
        offset decodes as an infinite one."""
        assert decode_box((0.0, 0.0, tw, tw), (10.0, 20.0, 30.0, 60.0)) == (-math.inf, -math.inf, math.inf, math.inf)


class TestAssignLabels:
    def test_exact_match_positive_with_zero_target(self):
        gt = Annotation(box=RoI(x1=5, y1=5, x2=25, y2=25), class_id=2)
        classes, targets = assign_roi_labels(box_array([gt.box]), [gt])
        assert classes.tolist() == [2]
        assert targets.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_disjoint_is_background(self):
        gt = Annotation(box=RoI(x1=0, y1=0, x2=10, y2=10), class_id=1)
        classes, targets = assign_roi_labels(np.array([[50.0, 50.0, 60.0, 60.0]]), [gt])
        assert classes.tolist() == [0] and targets.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_exact_half_iou_is_positive(self):
        # two 10x10 boxes overlapping on a 10x5 strip: IoU = 50/150 = 1/3;
        # instead build IoU exactly 0.5: roi 10x10, gt 10x5 inside it
        roi = RoI(x1=0, y1=0, x2=10, y2=10)
        gt_box = RoI(x1=0, y1=0, x2=10, y2=5)
        inter = 10 * 5
        union = 100 + 50 - inter
        assert inter / union == 0.5  # independent IoU computation
        assert box_iou(roi, gt_box) == pytest.approx(0.5)
        classes, _ = assign_roi_labels(box_array([roi]), [Annotation(box=gt_box, class_id=3)], pos_iou=0.5)
        assert classes.tolist() == [3]

    def test_tie_breaks_to_lowest_gt_index(self):
        roi = RoI(x1=0, y1=0, x2=10, y2=10)
        gts = [
            Annotation(box=RoI(x1=0, y1=0, x2=10, y2=10), class_id=1),
            Annotation(box=RoI(x1=0, y1=0, x2=10, y2=10), class_id=2),
        ]
        classes, _ = assign_roi_labels(box_array([roi]), gts)
        assert classes.tolist() == [1]

    def test_invalid_threshold(self):
        with pytest.raises(ShapeError):
            assign_roi_labels(np.zeros((0, 4)), [], pos_iou=1.5)


class TestDetectionHead:
    def test_output_shapes(self):
        head = DetectionHead.create(c_feat=16, num_classes=3, seed=0)
        feats = Tensor(np.random.default_rng(0).normal(size=(5, 16, 7, 7)).astype(np.float32))
        logits, deltas = head.forward(feats)
        assert logits.shape == (5, 4)
        assert deltas.shape == (5, 12)

    def test_output_shapes_for_no_rois(self):
        """The class count is the row count of the weights, so an empty batch keeps its widths."""
        head = DetectionHead.create(c_feat=16, num_classes=3, seed=0)
        logits, deltas = head.forward(Tensor(np.zeros((0, 16, 7, 7), dtype=np.float32)))
        assert logits.shape == (0, 4)
        assert deltas.shape == (0, 12)

    def test_deterministic_creation(self):
        a = DetectionHead.create(16, 3, seed=4)
        b = DetectionHead.create(16, 3, seed=4)
        assert np.array_equal(a.cls_w.data, b.cls_w.data)
        assert np.array_equal(a.reg_w.data, b.reg_w.data)

    def test_rejects_zero_classes(self):
        with pytest.raises(ShapeError):
            DetectionHead.create(16, 0, seed=0)


class TestMultiTaskLoss:
    def _inputs(self, n, k=2, seed=0):
        r = np.random.default_rng(seed)
        logits = Tensor(r.normal(size=(n, k + 1)).astype(np.float32), requires_grad=True)
        deltas = Tensor(r.normal(size=(n, 4 * k)).astype(np.float32), requires_grad=True)
        return logits, deltas

    def test_background_contributes_no_regression(self):
        logits, deltas = self._inputs(2)
        parts = multi_task_loss(logits, deltas, [0, 0], np.zeros((2, 4)), san_terms=None)
        assert parts.l_reg == 0.0

    def test_background_regression_zero_regardless_of_predictions(self):
        """Background rows read neither their deltas nor their targets."""
        r = np.random.default_rng(1)
        deltas = Tensor((100 * r.normal(size=(3, 8))).astype(np.float32))
        loss = regression_loss(deltas, [0, 0, 0], r.normal(size=(3, 4)))
        assert loss.item() == 0.0

    def test_san_disabled_total_is_cls_plus_reg(self):
        logits, deltas = self._inputs(2)
        targets = np.array([[0.1, 0.2, 0.0, -0.1], [0.0, 0.0, 0.0, 0.0]])
        parts = multi_task_loss(logits, deltas, [1, 0], targets, san_terms=None)
        assert parts.l_san == 0.0
        assert parts.total.item() == pytest.approx(parts.l_cls + parts.l_reg, rel=1e-6)

    def test_perfect_predictions_zero_total(self):
        k = 2
        logits = np.full((1, k + 1), -40.0, dtype=np.float32)
        logits[0, 1] = 40.0
        deltas = np.zeros((1, 4 * k), dtype=np.float32)
        parts = multi_task_loss(
            Tensor(logits), Tensor(deltas), [1], np.zeros((1, 4)),
            san_terms=Tensor(np.zeros(1, dtype=np.float32)),
        )
        assert parts.total.item() == pytest.approx(0.0, abs=1e-6)

    def test_san_terms_averaged(self):
        logits, deltas = self._inputs(1)
        terms = Tensor([1.0, 3.0])
        parts = multi_task_loss(logits, deltas, [0], np.zeros((1, 4)), san_terms=terms)
        assert parts.l_san == pytest.approx(2.0)

    def test_san_weight_scales_total_only(self):
        logits, deltas = self._inputs(1)
        terms = Tensor(np.array([2.0], dtype=np.float32))
        parts = multi_task_loss(
            logits, deltas, [0], np.zeros((1, 4)), san_terms=terms, san_loss_weight=0.5
        )
        assert parts.l_san == pytest.approx(2.0)
        assert parts.total.item() == pytest.approx(parts.l_cls + parts.l_reg + 1.0, rel=1e-6)

    def test_regression_only_own_class_slice(self):
        """Gradient lands on the labeled class's 4 coordinates only."""
        k = 3
        deltas = Tensor(np.zeros((1, 4 * k), dtype=np.float32), requires_grad=True)
        loss = regression_loss(deltas, [2], np.array([[0.3, 0.0, 0.0, 0.0]]))
        loss.backward()
        g = deltas.grad.reshape(k, 4)
        assert np.abs(g[1]).sum() > 0  # class 2 owns slice index 1
        assert np.abs(g[0]).sum() == 0
        assert np.abs(g[2]).sum() == 0

    def test_loss_nonnegative(self):
        r = np.random.default_rng(3)
        for seed in range(5):
            logits, deltas = self._inputs(3, k=2, seed=seed)
            parts = multi_task_loss(
                logits, deltas, [1, 2, 0], r.normal(size=(3, 4)),
                san_terms=Tensor(np.array([abs(r.normal())], dtype=np.float32)),
            )
            assert parts.total.item() >= 0

    def test_label_above_the_class_count_errors(self):
        """Label 3 on deltas of two classes names the row and the label, not
        a numpy broadcast error."""
        deltas = Tensor(np.zeros((2, 8), dtype=np.float32))
        with pytest.raises(ShapeError, match="row 1 has label 3, above the 2 classes"):
            regression_loss(deltas, [2, 3], np.zeros((2, 4)))

    def test_missing_target_for_foreground_errors(self):
        """Every row needs its four target values: targets of any other
        shape are an error, not a broadcast."""
        logits, deltas = self._inputs(1)
        for targets in (np.zeros((1, 3)), np.zeros((0, 4)), np.zeros(4), [None]):
            with pytest.raises(ShapeError, match=r"one \(tx, ty, tw, th\) target per row of its 1 deltas"):
                multi_task_loss(logits, deltas, [1], targets)


def per_row_regression_loss(deltas: Tensor, labels, targets) -> Tensor:
    """`regression_loss` as the package wrote it before it filled its
    target and mask in one indexed assignment: one row at a time."""
    n, classes = deltas.shape[0], deltas.shape[1] // 4
    target = np.zeros(deltas.shape, dtype=deltas.data.dtype)
    mask = np.zeros(deltas.shape, dtype=deltas.data.dtype)
    for row, (u, v) in enumerate(zip(labels, targets)):
        if u >= 1:
            if u > classes:
                raise ShapeError(f"foreground RoI at row {row} has label {u}, above the {classes} classes of its deltas")
            lo = 4 * (u - 1)
            target[row, lo : lo + 4] = np.array(v, dtype=np.float32)
            mask[row, lo : lo + 4] = 1.0
    diff = ag.sub(deltas, Tensor(target))
    masked = ag.mul(ag.smooth_l1(diff), Tensor(mask))
    return ag.scale(ag.sum_all(masked), 1.0 / n)


class TestRegressionLossFill:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradient_bits_match_the_per_row_fill(self, dtype):
        r = np.random.default_rng(8)
        for _ in range(60):
            n, k = int(r.integers(1, 40)), int(r.integers(1, 5))
            labels = r.integers(0, k + 1, size=n).tolist()
            targets = r.normal(size=(n, 4))
            data = r.normal(size=(n, 4 * k)).astype(dtype)
            got_in, want_in = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
            got, want = regression_loss(got_in, labels, targets), per_row_regression_loss(want_in, labels, targets)
            got.backward()
            want.backward()
            assert got.data.tobytes() == want.data.tobytes()
            assert got_in.grad.tobytes() == want_in.grad.tobytes()

    @pytest.mark.parametrize(
        "labels,targets",
        [
            ([1, 2, 3, 5], [True, False, True, True]),  # label above the classes last
            ([1, 5, 2, 3], [True, True, False, True]),  # label above the classes first
            ([0, 4, 1], [False, False, False]),  # background first
        ],
    )
    def test_the_first_bad_foreground_row_raises_the_same_error(self, labels, targets):
        deltas = Tensor(np.zeros((len(labels), 12), dtype=np.float32))
        targets = np.array([(0.1, 0.2, 0.3, 0.4) if t else (0.0,) * 4 for t in targets])
        with pytest.raises(ShapeError) as want:
            per_row_regression_loss(deltas, labels, targets)
        with pytest.raises(ShapeError) as got:
            regression_loss(deltas, labels, targets)
        assert str(got.value) == str(want.value)


class TestBoxIou:
    def test_identical_boxes(self):
        b = RoI(x1=0, y1=0, x2=4, y2=4)
        assert box_iou(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert box_iou(RoI(x1=0, y1=0, x2=4, y2=4), RoI(x1=10, y1=10, x2=14, y2=14)) == 0.0

    @given(a=boxes_strategy(), b=boxes_strategy())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        iou = box_iou(a, b)
        assert 0.0 <= iou <= 1.0 + 1e-12
        assert iou == pytest.approx(box_iou(b, a))

    def test_zero_size_roi_encoding_error(self):
        # RoI construction itself rejects empty boxes
        with pytest.raises(RoiError):
            RoI(x1=5, y1=5, x2=5, y2=10)
