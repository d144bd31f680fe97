"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  The detection/RMSE criteria use six full
models (three seeds x baseline/corrected) at the toy configuration, from
the session fixture `trained_matrix` (tests/conftest.py); the whole module
takes several minutes on one CPU core.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import check_op_gradients, no_loss_view

from sanlab import autograd as ag
from sanlab.analysis import Detection, cam_stability, compute_cam, evaluate_ap, rmse_with_san, rmse_without_san
from sanlab.autograd import Tensor
from sanlab.backbone import Backbone, RoI, box_array, cam_scale_sweep, roi_pool
from sanlab.cli import main as cli_main
from sanlab.data import Annotation, DatasetConfig, generate_dataset
from sanlab.errors import GraphError
from sanlab.san import (
    TOY_SCHEME,
    VOC_SCHEME,
    SanModule,
    SanSubNetwork,
    init_identity,
    partition_index,
    san_forward,
)
from sanlab.training import (
    TrainingConfig,
    build_model,
    build_step_batch,
    compute_step_losses,
    evaluate_detector,
    reference_feature_for_roi,
    rmse_report,
    train,
)

from test_analysis import brute_force_cam
from test_backbone import naive_roi_pool

TRAIN_SEEDS = (5, 6, 7)
RMSE_SEED = 7  # the seed-fixed run criterion 6 measures


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: gradient suite ------------------------------------------


def san_arrays_away_from_kinks(r, parts, c=3):
    """Rows x (one per entry of parts) and each partition's w/b, redrawn
    until every pre-activation clears the relu kink by 0.01, so central
    differences see one linear piece."""
    while True:
        arrays = {"x": r.normal(size=(len(parts), c, 1, 2))}
        for p in sorted(set(parts)):
            arrays[f"w{p}"], arrays[f"b{p}"] = r.normal(size=(c, c, 1, 1)), r.normal(size=c)
        pre = [
            np.einsum("kc,chw->khw", arrays[f"w{p}"][:, :, 0, 0], arrays["x"][n]) + arrays[f"b{p}"][:, None, None]
            for n, p in enumerate(parts)
        ]
        if min(np.abs(v).min() for v in pre) > 0.01:
            return arrays


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        t0 = time.time()
        n_seeds = 20

        for seed in range(n_seeds):
            r = np.random.default_rng(10_000 + seed)

            check_op_gradients(
                lambda t: ag.sum_all(ag.conv2d(t["x"], t["w"], t["b"], stride=2, pad=1)),
                {"x": r.normal(size=(1, 2, 5, 5)), "w": r.normal(size=(3, 2, 3, 3)), "b": r.normal(size=(3,))},
                context=f"conv2d s{seed}",
            )
            x = r.normal(size=(20,))
            x = np.where(np.abs(x) < 5e-3, x + 0.05, x)
            check_op_gradients(lambda t: ag.sum_all(ag.mul(ag.relu(t["x"]), t["x"])), {"x": x}, context=f"relu s{seed}")
            check_op_gradients(
                lambda t: ag.sum_all(ag.mul(ag.global_avg_pool(t["x"]), ag.global_avg_pool(t["x"]))),
                {"x": r.normal(size=(1, 2, 3, 4))},
                context=f"gap s{seed}",
            )
            check_op_gradients(
                lambda t: ag.sum_all(ag.mul(ag.add(t["a"], t["b"]), ag.sub(t["a"], t["b"]))),
                {"a": r.normal(size=(6,)), "b": r.normal(size=(6,))},
                context=f"add/sub s{seed}",
            )
            check_op_gradients(
                lambda t: ag.sum_all(ag.mul(ag.scale_by(t["x"], t["al"]), ag.scale(t["x"], 0.7))),
                {"x": r.normal(size=(5,)), "al": np.array(r.normal())},
                context=f"scale s{seed}",
            )
            check_op_gradients(
                lambda t: ag.sum_all(
                    ag.mul(ag.replicate_pad(t["x"], 1), ag.replicate_pad(t["x"], 1))
                ),
                {"x": r.normal(size=(1, 2, 3, 3))},
                context=f"pad s{seed}",
            )
            labels = r.integers(0, 3, size=4).tolist()
            check_op_gradients(
                lambda t: ag.softmax_cross_entropy(t["z"], labels),
                {"z": r.normal(size=(4, 3))},
                context=f"ce s{seed}",
            )
            sl = r.normal(size=(12,)) * 2
            sl = sl[np.abs(np.abs(sl) - 1) > 2e-2]
            check_op_gradients(lambda t: ag.sum_all(ag.smooth_l1(t["x"])), {"x": sl}, context=f"sl1 s{seed}")
            # 8 to 10 cells a side, so every bin of the 7x7 grid spans two or three
            roi = RoI(x1=r.uniform(0, 8), y1=r.uniform(0, 8), x2=r.uniform(64, 80), y2=r.uniform(64, 80))
            feat_vals = r.permutation(np.arange(200, dtype=np.float64) * 0.05 - 5.0).reshape(1, 2, 10, 10)
            check_op_gradients(
                lambda t: ag.sum_all(ag.mul(roi_pool([t["f"]], box_array([roi]), [0]), roi_pool([t["f"]], box_array([roi]), [0]))),
                {"f": feat_vals},
                context=f"roi_pool avg s{seed}",
            )
            # max mode has no backward: a map that takes a gradient is refused
            with pytest.raises(GraphError, match="max-mode roi_pool"):
                roi_pool([Tensor(feat_vals, requires_grad=True)], box_array([roi]), [0], mode="max")

            gather = [int(v) for v in r.integers(0, 3, size=4)]
            gather_weights = Tensor(r.normal(size=(28,)))
            check_op_gradients(
                lambda t: ag.sum_all(
                    ag.mul(
                        ag.mul(
                            ag.reshape(ag.concat0([ag.take0(t["x"], gather), t["x"]]), (28,)),
                            ag.reshape(ag.concat0([ag.take0(t["x"], gather), t["x"]]), (28,)),
                        ),
                        gather_weights,
                    )
                ),
                {"x": r.normal(size=(3, 4))},
                context=f"gather s{seed}",
            )
            check_op_gradients(
                lambda t: ag.sum_all(ag.mul(ag.sum_rows(t["x"]), ag.sum_rows(t["x"]))),
                {"x": r.normal(size=(4, 3, 1, 2))},
                context=f"sum_rows s{seed}",
            )
            check_op_gradients(
                lambda t: ag.sum_in_order(ag.mul(t["v"], t["v"])),
                {"v": r.normal(size=(7,))},
                context=f"sum_in_order s{seed}",
            )
            parts = [2, 0, 1, 2, 0]
            san_arrays = san_arrays_away_from_kinks(r, parts)
            upstream = Tensor(r.normal(size=san_arrays["x"].shape))
            check_op_gradients(
                lambda t: ag.sum_all(
                    ag.mul(
                        san_forward(t["x"], parts, SanModule([SanSubNetwork(t[f"w{p}"], t[f"b{p}"]) for p in range(3)])),
                        upstream,
                    )
                ),
                san_arrays,
                context=f"san_forward s{seed}",
            )

        # end-to-end composed loss graph (backbone conv -> pooling -> all losses)
        from test_autograd import composed_arrays_away_from_kinks

        for seed in range(n_seeds):
            arrays = composed_arrays_away_from_kinks(seed)

            def build(t):
                h = ag.relu(ag.conv2d(t["x"], t["w1"], t["b1"], stride=2, pad=1))
                h = ag.relu(ag.conv2d(h, t["w2"], t["b2"]))
                pooled = ag.global_avg_pool(h)
                ce = ag.softmax_cross_entropy(ag.reshape(pooled, (1, 3)), [1])
                reg = ag.sum_all(ag.smooth_l1(ag.scale(ag.reshape(pooled, (3,)), 0.3)))
                return ag.add(ce, ag.scale(reg, 0.5))

            check_op_gradients(build, arrays, context=f"composed s{seed}")

        elapsed = time.time() - t0
        report(
            1,
            elapsed < 60,
            "all op and composed-graph gradients match finite differences and max-mode pooling refuses "
            f"a map that takes a gradient ({elapsed:.1f}s < 60s)",
        )


# -- criterion 2: identity transparency ------------------------------------


class TestCriterion2IdentityTransparency:
    def test_identity_transparency(self, toy_data):
        train_ds, _ = toy_data
        m = SanModule.create(TOY_SCHEME, c_feat=32)
        init_identity(m)
        r = np.random.default_rng(0)

        forward_ok = True
        rmse_ok = True
        for trial in range(20):
            x = Tensor(np.abs(r.normal(size=(1, 32, 7, 7))).astype(np.float32))
            for i in range(3):
                forward_ok &= np.array_equal(san_forward(x, i, m).data, x.data)
            z = Tensor(np.abs(r.normal(size=(1, 32, 1, 1))).astype(np.float32))
            z0 = Tensor(r.normal(size=(1, 32, 1, 1)).astype(np.float32))
            for i in range(3):
                rmse_ok &= rmse_with_san(z, z0, m, i) == rmse_without_san(z, z0)

        # step-0 scale-aware loss equals the raw pooled-vs-reference discrepancy
        cfg = TrainingConfig(iterations=1, san_mode="full", seed=5)
        model = build_model(cfg)
        batch = build_step_batch(train_ds, cfg, step=0)
        parts = compute_step_losses(model, batch)
        feats = [model.backbone.forward(img.pixels) for img in batch.images]
        acc = None
        for j in batch.san_indices:
            roi = RoI(*batch.boxes[j].tolist())
            img = batch.images[batch.slots[j]]
            r_tilde = reference_feature_for_roi(img, roi, model.scheme.ref_scale, model.backbone)
            pooled = ag.global_avg_pool(roi_pool([feats[batch.slots[j]]], box_array([roi]), [0], mode=cfg.san_pool))
            term = ag.sum_all(ag.smooth_l1(ag.sub(pooled, r_tilde)))
            acc = term if acc is None else ag.add(acc, term)
        expected = ag.scale(acc, 1.0 / len(batch.san_indices)).item()
        step0_ok = parts.l_san == expected

        report(
            2,
            forward_ok and rmse_ok and step0_ok,
            f"identity correction exact (forward={forward_ok}, rmse={rmse_ok}, step-0 loss equality={step0_ok})",
        )


# -- criterion 3: gradient blocking ----------------------------------------


class TestCriterion3GradientBlocking:
    STEPS = 10
    TRAINED_STEPS = 100

    @staticmethod
    def step_grads(model, batch) -> tuple[list, list]:
        """The backbone and correction-module gradients of one step, cleared
        from the parameters afterwards."""
        compute_step_losses(model, batch).total.backward()
        grads = (
            [p.grad.copy() for p in model.backbone.named_parameters()],
            [p.grad.copy() if p.grad is not None else None for p in model.san.named_parameters()],
        )
        for p in model.named_parameters():
            p.grad = None
        return grads

    def blocking_counts(self, model, dataset, cfg, first_step: int) -> tuple[int, int]:
        """Over STEPS steps from ``first_step``, compare the full model with
        its no-loss view of the same parameters: the steps whose backbone
        gradients are bitwise equal, and those whose correction-module
        gradients differ."""
        identical_steps = san_differs_steps = 0
        for step in range(first_step, first_step + self.STEPS):
            batch = build_step_batch(dataset, cfg, step)
            full = self.step_grads(model, batch)
            blocked = self.step_grads(no_loss_view(model), batch)
            identical_steps += all(np.array_equal(a, b) for a, b in zip(full[0], blocked[0]))
            san_differs_steps += any(
                (a is None) != (b is None) or (a is not None and not np.array_equal(a, b))
                for a, b in zip(full[1], blocked[1])
            )
        return identical_steps, san_differs_steps

    def test_backbone_gradients_unaffected_by_scale_loss(self, toy_data):
        """At initialization, and again on weights moved by TRAINED_STEPS
        SGD steps."""
        train_ds, _ = toy_data
        cfg = TrainingConfig(iterations=self.TRAINED_STEPS, san_mode="full", seed=5)
        at_init = self.blocking_counts(build_model(cfg), train_ds, cfg, 0)
        trained = self.blocking_counts(train(train_ds, cfg).model, train_ds, cfg, self.TRAINED_STEPS)
        n = self.STEPS
        report(
            3,
            at_init == trained == (n, n),
            f"backbone gradients bitwise identical on {at_init[0]}/{n} steps at initialization and "
            f"{trained[0]}/{n} after {self.TRAINED_STEPS} SGD steps; correction-module gradients differ "
            f"on {at_init[1]}/{n} and {trained[1]}/{n}",
        )


# -- criterion 4: partition correctness -------------------------------------


class TestCriterion4Partitions:
    def test_partition_closure_and_oracle(self):
        pinned = {120.0**2: 0, 160.0**2: 0, 200.0**2: 1, 288.0**2: 1, 300.0**2: 2}
        pinned_ok = all(partition_index(a, VOC_SCHEME) == p for a, p in pinned.items())

        def scan_oracle(area, boundaries):
            for i, b in enumerate(boundaries):
                if area <= b:
                    return i
            return len(boundaries)

        r = np.random.default_rng(4242)
        areas = np.exp(r.uniform(np.log(1.0), np.log(700.0**2), size=10_000))
        oracle_ok = all(
            partition_index(float(a), VOC_SCHEME) == scan_oracle(float(a), VOC_SCHEME.boundaries)
            for a in areas
        )
        report(4, pinned_ok and oracle_ok, f"pinned closure cases ok={pinned_ok}; 10^4 random areas match scan oracle={oracle_ok}")


# -- criterion 5: channel-activation stability contrast ---------------------


class TestCriterion5CamContrast:
    def test_normalized_sweep_more_stable(self):
        scales = [16, 24, 32, 48, 64, 96]
        bb = Backbone.small(seed=0)
        img, _ = generate_dataset(DatasetConfig(num_images=3, seed=42))[2]
        raw, _skipped = cam_scale_sweep(img, bb, scales)
        norm, _skipped = cam_scale_sweep(img, bb, scales, normalize_to=48)
        s_raw = cam_stability(compute_cam(raw, k=10), 10)
        s_norm = cam_stability(compute_cam(norm, k=10), 10)
        gap = s_norm - s_raw
        report(5, gap >= 0.1, f"stability with normalization {s_norm:.3f} vs without {s_raw:.3f} (gap {gap:.3f} >= 0.1)")


# -- criterion 6: scale-space RMSE reduction --------------------------------


def rmse_reduction(model, test_ds) -> tuple[int, int, float, float, float]:
    """Classes whose mean RMSE the correction lowers, the class count, the
    mean RMSE without and with it, and the relative reduction."""
    rows = rmse_report(model, test_ds)
    by_class = {}
    for r in rows:
        by_class.setdefault(r.class_id, []).append(r)
    improved = sum(
        1
        for rs in by_class.values()
        if np.mean([r.rmse_with for r in rs]) < np.mean([r.rmse_without for r in rs])
    )
    wo = float(np.mean([r.rmse_without for r in rows]))
    wi = float(np.mean([r.rmse_with for r in rows]))
    return improved, len(by_class), wo, wi, (wo - wi) / wo


@pytest.mark.slow
class TestCriterion6RmseReduction:
    def test_trained_correction_reduces_rmse(self, toy_data, trained_matrix):
        _, test_ds = toy_data
        # the other training seeds are reported, not gated
        for seed in TRAIN_SEEDS:
            if seed != RMSE_SEED:
                improved, n, wo, wi, reduction = rmse_reduction(trained_matrix[(seed, "full")][0].model, test_ds)
                print(f"\ncriterion 6 at seed {seed}: classes improved {improved}/{n}, mean rmse {wo:.4f} -> {wi:.4f} ({reduction * 100:.1f}%)")
        full, t_full = trained_matrix[(RMSE_SEED, "full")]
        _, t_base = trained_matrix[(RMSE_SEED, "off")]
        improved, n, wo, wi, reduction = rmse_reduction(full.model, test_ds)
        frac = improved / n
        runtime = t_full + t_base
        report(
            6,
            frac >= 0.8 and reduction >= 0.15 and runtime <= 600,
            f"classes improved {improved}/{n} (>=80%), mean rmse {wo:.4f} -> {wi:.4f} "
            f"({reduction * 100:.1f}% >= 15%), training pair took {runtime:.0f}s <= 600s",
        )


# -- criterion 7: detection sanity -------------------------------------------


@pytest.mark.slow
class TestCriterion7Detection:
    def test_detection_not_degraded(self, toy_data, trained_matrix):
        _, test_ds = toy_data
        base, full = [], []
        for seed in TRAIN_SEEDS:
            ap_b, _ = evaluate_detector(trained_matrix[(seed, "off")][0].model, test_ds, seed=99)
            ap_f, _ = evaluate_detector(trained_matrix[(seed, "full")][0].model, test_ds, seed=99)
            base.append(ap_b.mean_ap)
            full.append(ap_f.mean_ap)
        base_ok = all(b >= 0.6 for b in base)
        delta_ok = float(np.mean(full)) >= float(np.mean(base)) - 0.02
        report(
            7,
            base_ok and delta_ok,
            f"baseline mAPs {[round(b, 3) for b in base]} all >= 0.6; corrected mean "
            f"{np.mean(full):.3f} vs baseline mean {np.mean(base):.3f} (within -0.02)",
        )


# -- criterion 8: oracle equivalence -----------------------------------------


class TestCriterion8Oracles:
    def test_brute_force_oracles(self):
        r = np.random.default_rng(777)
        pool_ok = True
        for _ in range(10):
            feat = r.integers(0, 256, size=(1, 4, 16, 16)).astype(np.float32)
            x1, y1 = r.uniform(0, 90, 2)
            roi = RoI(x1=x1, y1=y1, x2=x1 + r.uniform(6, 100), y2=y1 + r.uniform(6, 100))
            for mode in ("avg", "max"):
                got = roi_pool([Tensor(feat)], box_array([roi]), [0], mode=mode).data
                pool_ok &= np.array_equal(got, naive_roi_pool(feat, roi, out=7, mode=mode, stride=8))

        cam_ok = True
        for seed in range(10):
            rr = np.random.default_rng(seed)
            vectors = [(s, rr.normal(size=8)) for s in (8, 16, 32)]
            cam = compute_cam(vectors, k=2)
            ids, values = brute_force_cam(vectors, 2)
            cam_ok &= cam.channel_ids == ids and np.array_equal(cam.values, values)

        rmse_ok = True
        for seed in range(10):
            rr = np.random.default_rng(100 + seed)
            a = rr.normal(size=24).astype(np.float32)
            b = rr.normal(size=24).astype(np.float32)
            got = rmse_without_san(Tensor(a.reshape(1, -1, 1, 1)), Tensor(b.reshape(1, -1, 1, 1)))
            expected = math.sqrt(math.fsum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / 24)
            rmse_ok &= abs(got - expected) < 1e-9

        gts = [
            Annotation(box=RoI(x1=0, y1=0, x2=10, y2=10), class_id=1),
            Annotation(box=RoI(x1=30, y1=30, x2=40, y2=40), class_id=1),
        ]
        dets = [
            Detection(image_id=0, class_id=1, score=0.9, box=RoI(x1=0, y1=0, x2=10, y2=10)),
            Detection(image_id=0, class_id=1, score=0.8, box=RoI(x1=60, y1=60, x2=70, y2=70)),
            Detection(image_id=0, class_id=1, score=0.7, box=RoI(x1=30, y1=30, x2=40, y2=40)),
        ]
        ap_ok = abs(evaluate_ap(dets, gts).per_class[1] - 5 / 6) < 1e-12

        report(
            8,
            pool_ok and cam_ok and rmse_ok and ap_ok,
            f"pooling exact={pool_ok}, channel-matrix exact={cam_ok}, rmse within 1e-9={rmse_ok}, "
            f"hand-enumerated AP={ap_ok}",
        )


# -- criterion 9: pipeline determinism ---------------------------------------


class TestCriterion9Determinism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        def run_pipeline(root: Path) -> dict:
            data = root / "data"
            run = root / "run"
            assert cli_main(["gen-data", "--out-dir", str(data), "--num-images", "12", "--seed", "21"]) == 0
            assert (
                cli_main(
                    [
                        "train",
                        "--out-dir", str(run),
                        "--data-dir", str(data),
                        "--iterations", "40",
                        "--seed", "21",
                        "--rois-per-image", "16",
                        "--san-samples", "8",
                    ]
                )
                == 0
            )
            assert cli_main(["eval", "--out-dir", str(run / "eval"), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san"), "--seed", "21"]) == 0
            assert cli_main(["rmse", "--out-dir", str(run / "rmse"), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san")]) == 0
            digests = {}
            for rel in [
                "run/checkpoint.san",
                "run/train_log.csv",
                "run/eval/metrics.json",
                "run/rmse/rmse.csv",
                "run/rmse/rmse_summary.csv",
                "data/manifest.txt",
                "data/scale_stats.csv",
            ]:
                digests[rel] = hashlib.sha256((root / rel).read_bytes()).hexdigest()
            for ppm in sorted((root / "data").glob("*.ppm")):
                digests[f"data/{ppm.name}"] = hashlib.sha256(ppm.read_bytes()).hexdigest()
            return digests

        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        report(9, a == b, f"two seeded gen->train->eval->rmse pipelines byte-identical across {len(a)} artifacts")
