"""Channel-activation matrix, scale-space RMSE, average precision."""

import numpy as np
import pytest

from sanlab.analysis import (
    ApResult,
    CamMatrix,
    Detection,
    cam_stability,
    compute_cam,
    evaluate_ap,
    rmse_class_summary,
    rmse_with_san,
    rmse_without_san,
    write_cam_csv,
    write_cam_pgm,
    write_rmse_csv,
    RmseRow,
    RMSE_CSV_HEADER,
)
from sanlab.autograd import Tensor
from sanlab.backbone import RoI
from sanlab.data import Annotation
from sanlab.errors import SanlabError, ShapeError
from sanlab.san import TOY_SCHEME, SanModule, init_identity, init_gaussian


def brute_force_cam(vectors, k):
    """Independent top-k union: sort by (-value, index) per scale."""
    ids = []
    for _, vec in vectors:
        ranked = sorted(range(len(vec)), key=lambda i: (-vec[i], i))[:k]
        for c in ranked:
            if c not in ids:
                ids.append(c)
    values = np.array([[vec[c] for _, vec in vectors] for c in ids])
    return ids, values


class TestComputeCam:
    def test_single_scale_full_k(self):
        vec = np.array([3.0, 1.0, 2.0])
        cam = compute_cam([(16, vec)], k=3)
        assert cam.channel_ids == [0, 2, 1]
        assert np.array_equal(cam.values[:, 0], [3.0, 2.0, 1.0])

    def test_identical_vectors_give_k_rows_constant(self):
        vec = np.arange(8.0)[::-1].copy()
        cam = compute_cam([(8, vec), (16, vec), (32, vec)], k=4)
        assert len(cam.channel_ids) == 4
        for row in cam.values:
            assert np.all(row == row[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_union(self, seed):
        r = np.random.default_rng(seed)
        vectors = [(s, r.normal(size=8)) for s in (8, 16, 32)]
        cam = compute_cam(vectors, k=2)
        ids, values = brute_force_cam(vectors, 2)
        assert cam.channel_ids == ids
        assert np.array_equal(cam.values, values)

    def test_ties_break_to_lower_index(self):
        vec = np.array([1.0, 5.0, 5.0, 0.0])
        cam = compute_cam([(8, vec)], k=1)
        assert cam.channel_ids == [1]

    def test_scale_order_invariance_of_content(self):
        r = np.random.default_rng(9)
        vecs = {s: r.normal(size=10) for s in (8, 16, 32)}
        a = compute_cam([(s, vecs[s]) for s in (8, 16, 32)], k=3)
        b = compute_cam([(s, vecs[s]) for s in (32, 8, 16)], k=3)
        assert set(a.channel_ids) == set(b.channel_ids)
        for s in (8, 16, 32):
            col_a = {c: a.values[i, a.scales.index(s)] for i, c in enumerate(a.channel_ids)}
            col_b = {c: b.values[i, b.scales.index(s)] for i, c in enumerate(b.channel_ids)}
            for c in col_a:
                assert col_a[c] == col_b[c]

    def test_empty_input_errors(self):
        with pytest.raises(SanlabError):
            compute_cam([], k=3)

    def test_length_mismatch_errors(self):
        with pytest.raises(ShapeError):
            compute_cam([(8, np.zeros(4)), (16, np.zeros(5))], k=2)


class TestCamStability:
    def test_identical_vectors_full_similarity(self):
        vec = np.arange(10.0)
        cam = compute_cam([(8, vec), (16, vec), (32, vec)], k=4)
        assert cam_stability(cam, 4) == pytest.approx(1.0)

    def test_disjoint_top_sets_zero(self):
        a = np.array([9.0, 8.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 9.0, 8.0])
        cam = compute_cam([(8, a), (16, b)], k=2)
        assert cam_stability(cam, 2) == pytest.approx(0.0)

    def test_half_overlap_jaccard(self):
        # top-4 sets {0,1,2,3} and {2,3,4,5}: overlap 2 of union 6 -> 1/3
        a = np.array([8.0, 7.0, 6.0, 5.0, 0.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 6.0, 5.0, 8.0, 7.0, 0.0, 0.0])
        cam = compute_cam([(8, a), (16, b)], k=4)
        assert cam_stability(cam, 4) == pytest.approx(2 / 6)

    def test_needs_two_scales(self):
        """A pair needs two scales; a single scale is fully stable."""
        cam = compute_cam([(8, np.arange(4.0))], k=2)
        assert cam_stability(cam, 2) == 1.0


class TestRmse:
    def _t(self, arr):
        return Tensor(np.asarray(arr, dtype=np.float32).reshape(1, -1, 1, 1))

    def test_identical_features_zero(self):
        z = self._t([1.0, 2.0, 3.0])
        assert rmse_without_san(z, self._t([1.0, 2.0, 3.0])) == 0.0

    def test_unit_difference_every_channel(self):
        n_c = 7
        z = self._t(np.zeros(n_c))
        z0 = self._t(np.ones(n_c))
        assert rmse_without_san(z, z0) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_loop(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=16).astype(np.float32), r.normal(size=16).astype(np.float32)
        got = rmse_without_san(self._t(a), self._t(b))
        acc = 0.0
        for x, y in zip(a, b):
            acc += (float(x) - float(y)) ** 2
        expected = (acc / 16) ** 0.5
        assert got == pytest.approx(expected, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rmse_without_san(self._t([1.0]), self._t([1.0, 2.0]))

    def test_identity_module_equals_plain_rmse_exactly(self):
        m = SanModule.create(TOY_SCHEME, c_feat=8)
        init_identity(m)
        r = np.random.default_rng(3)
        z = self._t(np.abs(r.normal(size=8)))
        z0 = self._t(r.normal(size=8))
        for i in range(3):
            assert rmse_with_san(z, z0, m, i) == rmse_without_san(z, z0)

    def test_zero_weights_zero_reference(self):
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        init_gaussian(m, std=0.0, seed=0)
        z = self._t(np.random.default_rng(4).normal(size=4))
        z0 = self._t(np.zeros(4))
        assert rmse_with_san(z, z0, m, 0) == 0.0

    def test_rmse_nonnegative(self):
        r = np.random.default_rng(5)
        m = SanModule.create(TOY_SCHEME, c_feat=6)
        init_gaussian(m, std=0.3, seed=1)
        for _ in range(10):
            z, z0 = self._t(r.normal(size=6)), self._t(r.normal(size=6))
            assert rmse_with_san(z, z0, m, 1) >= 0.0


def det(image_id, class_id, score, x1, y1, x2, y2):
    return Detection(image_id=image_id, class_id=class_id, score=score, box=RoI(x1=x1, y1=y1, x2=x2, y2=y2))


def gt(image_id, class_id, x1, y1, x2, y2):
    return Annotation(box=RoI(x1=x1, y1=y1, x2=x2, y2=y2), class_id=class_id, image_id=image_id)


class TestEvaluateAp:
    def test_perfect_detections(self):
        gts = [gt(0, 1, 0, 0, 10, 10), gt(0, 2, 20, 20, 40, 40), gt(1, 1, 5, 5, 9, 9)]
        dets = [det(g.image_id, g.class_id, 1.0, g.box.x1, g.box.y1, g.box.x2, g.box.y2) for g in gts]
        result = evaluate_ap(dets, gts)
        assert result.per_class == {1: 1.0, 2: 1.0}
        assert result.mean_ap == pytest.approx(1.0)

    def test_no_detections(self):
        gts = [gt(0, 1, 0, 0, 10, 10)]
        result = evaluate_ap([], gts)
        assert result.per_class[1] == 0.0
        assert result.mean_ap == 0.0

    def test_hand_enumerated_pr_curve(self):
        """Ranked TP, FP, TP over two ground truths: area = 0.5*1 + 0.5*(2/3)."""
        gts = [gt(0, 1, 0, 0, 10, 10), gt(0, 1, 30, 30, 40, 40)]
        dets = [
            det(0, 1, 0.9, 0, 0, 10, 10),      # TP
            det(0, 1, 0.8, 60, 60, 70, 70),    # FP
            det(0, 1, 0.7, 30, 30, 40, 40),    # TP
        ]
        result = evaluate_ap(dets, gts)
        assert result.per_class[1] == pytest.approx(5 / 6)

    def test_duplicate_detection_counts_as_fp(self):
        gts = [gt(0, 1, 0, 0, 10, 10)]
        dets = [det(0, 1, 0.9, 0, 0, 10, 10), det(0, 1, 0.8, 0, 0, 10, 10)]
        result = evaluate_ap(dets, gts)
        assert result.per_class[1] == pytest.approx(1.0)  # recall 1 reached at precision 1

    def test_classes_absent_from_gt_excluded(self):
        gts = [gt(0, 1, 0, 0, 10, 10)]
        dets = [det(0, 5, 0.9, 0, 0, 10, 10)]
        result = evaluate_ap(dets, gts)
        assert 5 not in result.per_class

    def test_permutation_invariance_distinct_scores(self):
        r = np.random.default_rng(8)
        gts = [gt(0, 1, i * 20, 0, i * 20 + 10, 10) for i in range(5)]
        dets = []
        for i in range(5):
            x = i * 20 + r.uniform(-2, 2)
            dets.append(det(0, 1, float(0.5 + 0.1 * i), x, 0, x + 10, 10))
        a = evaluate_ap(dets, gts).per_class[1]
        b = evaluate_ap(dets[::-1], gts).per_class[1]
        assert a == pytest.approx(b)

    def test_image_ids_respected(self):
        """A detection matches only a ground truth whose annotation carries its image id."""
        gts = [gt(0, 1, 0, 0, 10, 10)]
        dets = [det(1, 1, 0.9, 0, 0, 10, 10)]  # right box, wrong image
        assert evaluate_ap(dets, gts).per_class[1] == 0.0
        gts = [gt(0, 1, 0, 0, 10, 10), gt(1, 1, 0, 0, 10, 10)]
        dets = [det(1, 1, 0.9, 0, 0, 10, 10), det(1, 1, 0.8, 0, 0, 10, 10)]  # the second is a duplicate
        assert evaluate_ap(dets, gts).per_class[1] == pytest.approx(0.5)


class TestWriters:
    def test_cam_csv_and_pgm(self, tmp_path):
        cam = CamMatrix(scales=[8, 16], channel_ids=[3, 1], values=np.array([[1.0, 2.0], [0.5, 0.25]]))
        write_cam_csv(tmp_path / "cam.csv", cam)
        lines = (tmp_path / "cam.csv").read_text().splitlines()
        assert lines[0] == "channel,8,16"
        assert lines[1].startswith("3,")
        write_cam_pgm(tmp_path / "cam.pgm", cam)
        raw = (tmp_path / "cam.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert len(raw) == len(b"P5\n2 2\n255\n") + 4

    def test_rmse_csv_schema_and_summary(self, tmp_path):
        rows = [
            RmseRow(sample_id=0, class_id=1, scale=16, rmse_without=0.5, rmse_with=0.25),
            RmseRow(sample_id=0, class_id=1, scale=32, rmse_without=0.3, rmse_with=0.35),
            RmseRow(sample_id=1, class_id=2, scale=16, rmse_without=1.0, rmse_with=0.5),
        ]
        write_rmse_csv(tmp_path / "r.csv", rows)
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == RMSE_CSV_HEADER
        assert len(lines) == 4
        summary = rmse_class_summary(rows)
        assert summary[1][0] == pytest.approx(0.4)
        assert summary[2][2] == pytest.approx(0.5)
