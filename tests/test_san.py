"""Scale partitioning, sub-network behavior, fusion, and gradient blocking."""

import numpy as np
import pytest
from helpers import check_op_gradients, per_partition_loss_branch, split_correct_merge
from hypothesis import given, settings, strategies as st

from sanlab import autograd as ag
from sanlab.autograd import Tensor
from sanlab.backbone import RoI
from sanlab.errors import ConfigError, ShapeError
from sanlab.san import (
    COCO_SCHEME,
    TOY_SCHEME,
    VOC_SCHEME,
    SanModule,
    SanSubNetwork,
    ScalePartitionScheme,
    fuse,
    init_gaussian,
    init_identity,
    partition_index,
    san_forward,
    san_loss_branch,
)


def square_roi(side: float) -> RoI:
    return RoI(x1=0.0, y1=0.0, x2=side, y2=side)


def interval_scan_oracle(area: float, boundaries) -> int:
    """Literal scan of the interval chain with thresholds closed below."""
    for i, b in enumerate(boundaries):
        if area <= b:
            return i
    return len(boundaries)


class TestSchemes:
    def test_presets(self):
        assert VOC_SCHEME.ref_scale == 224 and VOC_SCHEME.boundaries == (160.0**2, 288.0**2)
        assert COCO_SCHEME.ref_scale == 128 and COCO_SCHEME.boundaries == (64.0**2, 192.0**2)
        assert TOY_SCHEME.ref_scale == 48 and TOY_SCHEME.boundaries == (24.0**2, 48.0**2)

    def test_single_partition_degenerate(self):
        scheme = ScalePartitionScheme(ref_scale=100)
        assert scheme.num_partitions == 1
        assert partition_index(square_roi(5).area, scheme) == 0
        assert partition_index(square_roi(5000).area, scheme) == 0

    def test_invalid_boundaries(self):
        with pytest.raises(ConfigError):
            ScalePartitionScheme(ref_scale=10, boundaries=(100.0, 100.0))
        with pytest.raises(ConfigError):
            ScalePartitionScheme(ref_scale=10, boundaries=(-4.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e39, 1e-50])
    def test_boundaries_not_positive_and_finite_in_float32(self, bad):
        with pytest.raises(ConfigError):
            ScalePartitionScheme(ref_scale=10, boundaries=(bad,))

    def test_boundaries_rounded_to_float32(self):
        scheme = ScalePartitionScheme(ref_scale=10, boundaries=(100.3, 2000.7))
        assert scheme.boundaries == (float(np.float32(100.3)), float(np.float32(2000.7)))
        assert scheme == ScalePartitionScheme(ref_scale=10, boundaries=scheme.boundaries)


class TestPartitionIndex:
    @pytest.mark.parametrize(
        "side,expected",
        [(120.0, 0), (160.0, 0), (200.0, 1), (288.0, 1), (300.0, 2)],
    )
    def test_voc_interval_closure(self, side, expected):
        assert partition_index(square_roi(side).area, VOC_SCHEME) == expected

    def test_ten_thousand_random_areas_match_scan_oracle(self):
        r = np.random.default_rng(1234)
        areas = np.exp(r.uniform(np.log(1.0), np.log(600.0**2), size=10_000))
        # sprinkle exact boundary hits into the sample
        areas[:4] = [160.0**2, 288.0**2, 24.0**2, 48.0**2]
        for area in areas:
            for scheme in (VOC_SCHEME, COCO_SCHEME, TOY_SCHEME):
                assert partition_index(float(area), scheme) == interval_scan_oracle(
                    float(area), scheme.boundaries
                )

    @given(
        a1=st.floats(min_value=0.01, max_value=1e6),
        a2=st.floats(min_value=0.01, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_area(self, a1, a2):
        lo, hi = sorted((a1, a2))
        assert partition_index(lo, VOC_SCHEME) <= partition_index(hi, VOC_SCHEME)


class TestInitialization:
    def test_identity_then_forward_is_relu(self):
        m = SanModule.create(TOY_SCHEME, c_feat=8)
        init_identity(m)
        r = np.random.default_rng(0)
        x = Tensor(r.normal(size=(1, 8, 3, 3)).astype(np.float32))
        for i in range(len(m.subnets)):
            out = san_forward(x, i, m)
            assert np.array_equal(out.data, np.maximum(x.data, 0))

    def test_identity_on_nonnegative_is_exact_identity(self):
        m = SanModule.create(TOY_SCHEME, c_feat=8)
        init_identity(m)
        x = Tensor(np.abs(np.random.default_rng(1).normal(size=(1, 8, 4, 4))).astype(np.float32))
        out = san_forward(x, 0, m)
        assert np.array_equal(out.data, x.data)

    def test_identity_fused_doubles_nonnegative(self):
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        init_identity(m)
        x = Tensor(np.abs(np.random.default_rng(2).normal(size=(1, 4, 2, 2))).astype(np.float32))
        fused = fuse(x, san_forward(x, 1, m))
        assert np.array_equal(fused.data, 2 * x.data)

    def test_gaussian_replay(self):
        a = SanModule.create(TOY_SCHEME, c_feat=8)
        b = SanModule.create(TOY_SCHEME, c_feat=8)
        init_gaussian(a, std=0.1, seed=7)
        init_gaussian(b, std=0.1, seed=7)
        for sa, sb in zip(a.subnets, b.subnets):
            assert np.array_equal(sa.w.data, sb.w.data)

    def test_gaussian_zero_std_gives_zero_output(self):
        m = SanModule.create(TOY_SCHEME, c_feat=8)
        init_gaussian(m, std=0.0, seed=3)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 8, 2, 2)).astype(np.float32))
        assert np.array_equal(san_forward(x, 0, m).data, np.zeros((1, 8, 2, 2), dtype=np.float32))

    def test_gaussian_empirical_std(self):
        m = SanModule.create(TOY_SCHEME, c_feat=32)
        init_gaussian(m, std=0.2, seed=11)
        kernels = np.concatenate([sn.w.data.reshape(-1) for sn in m.subnets])
        assert abs(kernels.std() - 0.2) / 0.2 < 0.10


class TestSanForward:
    def test_zero_input_zero_output(self):
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        init_identity(m)
        out = san_forward(Tensor(np.zeros((1, 4, 3, 3), dtype=np.float32)), 0, m)
        assert np.array_equal(out.data, np.zeros((1, 4, 3, 3), dtype=np.float32))

    def test_positionwise_locality(self):
        m = SanModule.create(TOY_SCHEME, c_feat=6)
        init_gaussian(m, std=0.5, seed=5)
        r = np.random.default_rng(6)
        base = r.normal(size=(1, 6, 4, 4)).astype(np.float32)
        out_a = san_forward(Tensor(base), 2, m).data.copy()
        bumped = base.copy()
        bumped[0, :, 1, 2] += 1.0
        out_b = san_forward(Tensor(bumped), 2, m).data
        changed = np.any(out_a != out_b, axis=1)[0]
        assert changed[1, 2]
        changed[1, 2] = False
        assert not changed.any()

    def test_bad_partition_index(self):
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        with pytest.raises(ShapeError):
            san_forward(Tensor(np.zeros((1, 4, 1, 1), dtype=np.float32)), 3, m)

    def test_channel_mismatch(self):
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        with pytest.raises(ShapeError):
            san_forward(Tensor(np.zeros((1, 5, 1, 1), dtype=np.float32)), 0, m)


# rows out of partition order, with one, two and three of TOY_SCHEME's partitions present
PART_CASES = {
    "one": [1, 1, 1, 1, 1],
    "two": [2, 0, 2, 2, 0],
    "three": [2, 0, 1, 2, 0, 1],
}


class TestCorrect:
    @staticmethod
    def module_from(tensors: dict, c: int) -> SanModule:
        """Three-partition module (TOY_SCHEME's) on the given w<p>/b<p> tensors; zero constants elsewhere."""
        zero = dict(w=Tensor(np.zeros((c, c, 1, 1))), b=Tensor(np.zeros(c)))
        subnets = [
            SanSubNetwork(w=tensors.get(f"w{p}", zero["w"]), b=tensors.get(f"b{p}", zero["b"])) for p in range(3)
        ]
        return SanModule(subnets=subnets)

    @pytest.mark.parametrize("parts", PART_CASES.values(), ids=PART_CASES.keys())
    def test_finite_difference_gradients(self, parts):
        r = np.random.default_rng(27)
        n, c = len(parts), 3
        arrays = {"x": r.normal(size=(n, c, 2, 2))}
        for p in sorted(set(parts)):
            arrays[f"w{p}"] = r.normal(size=(c, c, 1, 1))
            arrays[f"b{p}"] = r.normal(size=c)
        upstream = Tensor(r.normal(size=(n, c, 2, 2)))
        # central differences need every pre-activation clear of the relu kink
        for row, p in enumerate(parts):
            pre = np.einsum("kc,chw->khw", arrays[f"w{p}"][:, :, 0, 0], arrays["x"][row]) + arrays[f"b{p}"][:, None, None]
            assert np.abs(pre).min() > 0.01

        def build(t):
            return ag.sum_all(ag.mul(san_forward(t["x"], parts, self.module_from(t, c)), upstream))

        check_op_gradients(build, arrays, context=f"san_forward{parts}")

    def test_san_forward_takes_one_partition_or_one_id_per_row(self):
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        init_gaussian(m, std=0.5, seed=8)
        x = Tensor(np.random.default_rng(9).normal(size=(3, 4, 2, 2)).astype(np.float32))
        per_row = san_forward(x, [2, 2, 2], m).data
        assert np.array_equal(san_forward(x, 2, m).data, per_row)
        assert np.array_equal(san_forward(x, np.int64(2), m).data, per_row)
        rows = [san_forward(Tensor(x.data[n : n + 1]), p, m).data for n, p in enumerate([1, 0, 1])]
        assert np.array_equal(san_forward(x, [1, 0, 1], m).data, np.concatenate(rows))

    @pytest.mark.parametrize(
        "parts", [[0, 1], [0, 1, 2, 0], [0, 3, 1], [0, -1, 1], [0, 1.5, 1]],
        ids=["short", "long", "above-range", "negative", "non-integer"],
    )
    def test_bad_partition_ids(self, parts):
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        with pytest.raises(ShapeError):
            san_forward(Tensor(np.zeros((3, 4, 1, 1), dtype=np.float32)), parts, m)

    @pytest.mark.parametrize("gate", [False, True], ids=["sum", "identity-zero-fusion"])
    @pytest.mark.parametrize("parts", PART_CASES.values(), ids=PART_CASES.keys())
    def test_matches_per_partition_composition_bitwise(self, parts, gate):
        """Detection path and loss branch against the take0 / conv2d / relu /
        concat0 / take0 composition: every value and gradient, float32."""
        r = np.random.default_rng(31)
        parts = parts * 3
        n, c = len(parts), 8
        m = SanModule.create(TOY_SCHEME, c_feat=c, zero_fusion=gate)
        init_gaussian(m, std=0.4, seed=5)
        for sn in m.subnets:
            sn.b.data[:] = r.normal(0.0, 0.1, size=c)
        if gate:
            m.fusion_alpha.data[...] = 0.37  # off its zero start, so gradient reaches the sub-networks
        x_data = r.normal(size=(n, c, 7, 7)).astype(np.float32)
        upstream = Tensor(r.normal(size=(n, c, 7, 7)).astype(np.float32))
        feat = np.abs(r.normal(size=(n, c, 7, 7))).astype(np.float32)
        r_tilde = r.normal(size=(n, c, 1, 1)).astype(np.float32)

        def run(detect, branch):
            x = Tensor(x_data, requires_grad=True)
            fused = fuse(x, detect(x), alpha=m.fusion_alpha)
            terms = branch()
            ag.add(ag.sum_all(ag.mul(fused, upstream)), ag.sum_in_order(terms)).backward()
            grads = [x.grad] + [p.grad for p in m.named_parameters()]
            for p in m.named_parameters():
                p.grad = None
            return [fused.data, terms.data] + grads

        got = run(lambda x: san_forward(x, parts, m), lambda: san_loss_branch(Tensor(feat), parts, m, Tensor(r_tilde)))
        want = run(
            lambda x: split_correct_merge(x, parts, m), lambda: per_partition_loss_branch(feat, parts, m, r_tilde)
        )
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.dtype == w.dtype == np.float32
                assert np.array_equal(g, w)


class TestFuse:
    def test_zero_san_output_is_baseline(self):
        x = Tensor(np.random.default_rng(7).normal(size=(1, 3, 2, 2)).astype(np.float32))
        fused = fuse(x, Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32)))
        assert np.array_equal(fused.data, x.data)

    def test_gradient_flows_to_both_branches(self):
        r = np.random.default_rng(8)
        a = Tensor(r.normal(size=(1, 2, 2, 2)), requires_grad=True)
        b = Tensor(r.normal(size=(1, 2, 2, 2)), requires_grad=True)
        ag.sum_all(fuse(a, b)).backward()
        assert np.array_equal(a.grad, np.ones_like(a.data))
        assert np.array_equal(b.grad, np.ones_like(b.data))

    def test_alpha_fusion_starts_as_identity(self):
        m = SanModule.create(TOY_SCHEME, c_feat=3, zero_fusion=True)
        init_identity(m)
        x = Tensor(np.abs(np.random.default_rng(9).normal(size=(1, 3, 2, 2))).astype(np.float32))
        fused = fuse(x, san_forward(x, 0, m), alpha=m.fusion_alpha)
        assert np.array_equal(fused.data, x.data)

    def test_alpha_receives_gradient(self):
        m = SanModule.create(TOY_SCHEME, c_feat=3, zero_fusion=True)
        init_identity(m)
        x = Tensor(np.abs(np.random.default_rng(10).normal(size=(1, 3, 2, 2))).astype(np.float32) + 0.1)
        fused = fuse(x, san_forward(x, 0, m), alpha=m.fusion_alpha)
        ag.sum_all(fused).backward()
        assert m.fusion_alpha.grad is not None
        assert abs(float(m.fusion_alpha.grad)) > 0


class TestSanLossBranch:
    def make_module(self, c=8):
        m = SanModule.create(TOY_SCHEME, c_feat=c)
        init_identity(m)
        return m

    def test_zero_when_matching_reference(self):
        m = self.make_module()
        feat = Tensor(np.abs(np.random.default_rng(11).normal(size=(1, 8, 7, 7))).astype(np.float32))
        r_tilde = ag.global_avg_pool(Tensor(feat.data))
        loss = san_loss_branch(feat, [0], m, r_tilde)
        assert loss.item() == 0.0

    def test_half_unit_difference_per_channel(self):
        c = 8
        m = self.make_module(c)
        feat = Tensor(np.full((1, c, 7, 7), 2.0, dtype=np.float32))
        r_tilde = Tensor(np.full((1, c, 1, 1), 1.5, dtype=np.float32))
        loss = san_loss_branch(feat, [0], m, r_tilde)
        assert loss.item() == pytest.approx(0.125 * c, abs=1e-6)

    def test_rejects_gradient_carrying_reference(self):
        m = self.make_module()
        feat = Tensor(np.zeros((1, 8, 7, 7), dtype=np.float32))
        bad = Tensor(np.zeros((1, 8, 1, 1), dtype=np.float32), requires_grad=True)
        with pytest.raises(ShapeError, match="gradient"):
            san_loss_branch(feat, [0], m, bad)

    def test_gradient_blocked_below_branch_entry(self):
        """The loss trains sub-network weights but never the feature source."""
        m = self.make_module()
        src = Tensor(np.abs(np.random.default_rng(12).normal(size=(1, 8, 7, 7))).astype(np.float32) + 0.2)
        src.requires_grad = True
        feat = ag.scale(src, 1.0)  # interior node standing in for the backbone
        r_tilde = Tensor(np.random.default_rng(13).normal(size=(1, 8, 1, 1)).astype(np.float32))
        loss = san_loss_branch(feat, [1], m, r_tilde)
        loss.backward()
        assert src.grad is None
        assert m.subnets[1].w.grad is not None
        assert np.abs(m.subnets[1].w.grad).max() > 0

    def test_other_partitions_untouched(self):
        m = self.make_module()
        feat = Tensor(np.abs(np.random.default_rng(14).normal(size=(1, 8, 7, 7))).astype(np.float32) + 0.1)
        r_tilde = Tensor(np.random.default_rng(15).normal(size=(1, 8, 1, 1)).astype(np.float32))
        san_loss_branch(feat, [1], m, r_tilde).backward()
        assert m.subnets[0].w.grad is None
        assert m.subnets[2].w.grad is None


class TestSiameseSharing:
    def test_detection_and_loss_paths_share_parameter_storage(self):
        """One weight tensor serves both paths; one SGD step moves both."""
        m = SanModule.create(TOY_SCHEME, c_feat=4)
        init_identity(m)
        feat = Tensor(np.abs(np.random.default_rng(16).normal(size=(1, 4, 7, 7))).astype(np.float32) + 0.1)
        r_tilde = Tensor(np.random.default_rng(17).normal(size=(1, 4, 1, 1)).astype(np.float32))

        detect_out = san_forward(feat, 0, m)  # detection path
        branch = san_loss_branch(feat, [0], m, r_tilde)  # siamese loss path, one term per RoI
        total = ag.add(ag.sum_all(detect_out), ag.sum_all(branch))
        total.backward()
        sn = m.subnets[0]
        assert sn.w.grad is not None
        w_before = sn.w.data.copy()
        ag.sgd_step([sn.w, sn.b], lr=0.1)
        # both application sites read the same storage, so both moved
        out_after = san_forward(feat, 0, m)
        assert not np.array_equal(out_after.data, detect_out.data)
        assert not np.array_equal(sn.w.data, w_before)
