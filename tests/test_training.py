"""Trainer: step construction, losses, SGD loop, checkpoints, inference."""

import dataclasses
import gc
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import full_render_roi_feature, no_loss_view, per_image_step_losses
from test_backbone import naive_roi_pool

import sanlab
from sanlab import autograd as ag
from sanlab import training
from sanlab.analysis import RmseRow, rmse_with_san, rmse_without_san
from sanlab.autograd import Tensor
from sanlab.backbone import Backbone, Image, RoI, box_area, box_array, extract_reference_feature, roi_pool
from sanlab.data import Annotation, DatasetConfig, generate_dataset, load_dataset, write_dataset
from sanlab.errors import CheckpointError, ConfigError, RoiError
from sanlab.san import TOY_SCHEME, ScalePartitionScheme, partition_index
from sanlab.training import (
    BASE_LR,
    CHECKPOINT_MAGIC,
    LR_DECAY_FACTOR,
    LR_DECAY_STEP,
    POS_FRACTION,
    DetectionModel,
    StepBatch,
    TrainingConfig,
    TrainingDiverged,
    batched_reference_features,
    build_model,
    build_step_batch,
    compute_step_losses,
    detect,
    evaluate_detector,
    fill_missing_grads,
    forward_roi_features,
    learning_rate,
    load_checkpoint,
    nms,
    predict_rois,
    read_checkpoint_entries,
    reference_feature_for_roi,
    rendered_roi_feature,
    rmse_report,
    save_checkpoint,
    step_pixels,
    subsample_index,
    train,
    write_checkpoint_entries,
    write_log_csv,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(DatasetConfig(num_images=12, seed=3))


def tiny_config(**kw):
    base = dict(iterations=4, san_mode="full", rois_per_image=12, san_samples=6, seed=1)
    base.update(kw)
    return TrainingConfig(**base)


class TestConfigValidation:
    def test_bad_san_mode(self):
        with pytest.raises(ConfigError):
            TrainingConfig(san_mode="sometimes").validate()

    def test_bad_init_mode(self):
        with pytest.raises(ConfigError):
            TrainingConfig(init_mode="xavier").validate()

    def test_san_samples_exceeding_budget(self):
        with pytest.raises(ConfigError):
            TrainingConfig(rois_per_image=4, images_per_step=2, san_samples=64).validate()

    @pytest.mark.parametrize("san_mode", ["off", "no-loss"])
    def test_max_pool_without_the_scale_aware_loss_rejected(self, tiny_dataset, san_mode):
        """Max pooling feeds only the scale-aware loss branch."""
        cfg = tiny_config(san_mode=san_mode, san_pool="max")
        with pytest.raises(ConfigError, match="san_pool 'max' has no effect"):
            cfg.validate()
        with pytest.raises(ConfigError, match="san_pool"):
            train(tiny_dataset, cfg)
        tiny_config(san_pool="max").validate()

    def test_gaussian_init_without_san_rejected(self, tiny_dataset):
        cfg = tiny_config(san_mode="off", init_mode="gaussian")
        with pytest.raises(ConfigError, match="gaussian"):
            cfg.validate()
        with pytest.raises(ConfigError, match="gaussian"):
            train(tiny_dataset, cfg)

    def test_zero_fusion_init_without_san_rejected(self, tiny_dataset):
        """Without sub-networks there is no fusion gate to initialize."""
        cfg = tiny_config(san_mode="off", init_mode="identity-zero-fusion")
        with pytest.raises(ConfigError, match="init_mode 'identity-zero-fusion' has no effect"):
            cfg.validate()
        with pytest.raises(ConfigError, match="identity-zero-fusion"):
            train(tiny_dataset, cfg)
        tiny_config(san_mode="off").validate()

    FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainingConfig) if isinstance(f.default, float)]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            TrainingConfig(**{name: value}).validate()

    def test_float_fields_cover_the_hyperparameters(self):
        """The one float setting; the recipe's rates are module constants."""
        assert self.FLOAT_FIELDS == ["san_loss_weight"]

    @pytest.mark.parametrize("san_mode", ["off", "no-loss", "full"])
    def test_ref_scale_below_the_backbone_stride_rejected(self, san_mode):
        """A reference side below the stride has no cell on the backbone's
        map: rmse and cam --normalize-rois would fail on the model later."""
        stride = Backbone.total_stride
        scheme = dataclasses.replace(TOY_SCHEME, ref_scale=stride - 1)
        with pytest.raises(ConfigError, match=f"^ref_scale {stride - 1} is below the backbone stride {stride}$"):
            TrainingConfig(san_mode=san_mode, scheme=scheme).validate()
        TrainingConfig(san_mode=san_mode, scheme=dataclasses.replace(scheme, ref_scale=stride)).validate()

    def test_learning_rate_schedule(self):
        assert learning_rate(0) == learning_rate(LR_DECAY_STEP - 1) == BASE_LR == 0.02
        assert learning_rate(LR_DECAY_STEP) == BASE_LR * LR_DECAY_FACTOR


class TestSampleSanRois:
    """`subsample_index` draws a step's scale-aware RoI subset (and its kept positives and negatives)."""

    def test_all_kept_in_order_when_n_large(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert subsample_index(3, 5, rng).tolist() == [0, 1, 2]
        assert rng.bit_generator.state == state, "keeping all draws nothing"

    def test_zero_disables(self):
        assert subsample_index(1, 0, np.random.default_rng(0)).tolist() == []

    def test_subsample_preserves_relative_order_and_replays(self):
        a = subsample_index(30, 7, np.random.default_rng(42)).tolist()
        b = subsample_index(30, 7, np.random.default_rng(42)).tolist()
        assert a == b
        assert a == sorted(a) and len(set(a)) == 7
        assert all(0 <= i < 30 for i in a)


class TestStepBatch:
    def test_deterministic_for_seed(self, tiny_dataset):
        cfg = tiny_config()
        a = build_step_batch(tiny_dataset, cfg, step=2)
        b = build_step_batch(tiny_dataset, cfg, step=2)
        assert np.array_equal(a.boxes, b.boxes)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.san_indices, b.san_indices)

    def test_respects_roi_budget_and_positive_cap(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(training, "N_POS_JITTER", 12)
        monkeypatch.setattr(training, "N_NEG", 40)
        cfg = tiny_config(rois_per_image=8)
        for step in range(4):
            batch = build_step_batch(tiny_dataset, cfg, step)
            per_image = {}
            for slot, u in zip(batch.slots.tolist(), batch.labels.tolist()):
                per_image.setdefault(slot, []).append(u)
            for labels in per_image.values():
                assert len(labels) <= 8
                assert sum(1 for u in labels if u >= 1) <= round(8 * POS_FRACTION)

    def test_step_without_rois_names_the_step(self, tiny_dataset, monkeypatch):
        """Images without annotations and no negatives leave a step empty."""
        monkeypatch.setattr(training, "N_NEG", 0)
        bare = [(img, []) for img, _ in tiny_dataset]
        cfg = tiny_config()
        with pytest.raises(RoiError, match="step 3 sampled no RoI"):
            build_step_batch(bare, cfg, step=3)
        with pytest.raises(RoiError, match="step 0 sampled no RoI"):
            train(bare, cfg)

    def test_san_indices_point_at_rois(self, tiny_dataset):
        batch = build_step_batch(tiny_dataset, tiny_config(), step=0)
        assert all(0 <= j < len(batch.boxes) for j in batch.san_indices)

    @pytest.mark.parametrize("san_mode, san_pool", [("off", "avg"), ("no-loss", "avg"), ("full", "avg"), ("full", "max")])
    def test_training_makes_no_roi_or_regression_target(self, tiny_dataset, monkeypatch, san_mode, san_pool):
        """A step carries its RoIs as box, slot, label and target arrays from
        sampling through pooling, routing, the reference crops and the
        losses: training constructs no `RoI` (and the package has no
        regression-target object left to construct)."""
        made = []
        post_init = RoI.__post_init__

        def counted_roi(self):
            made.append("RoI")
            post_init(self)

        monkeypatch.setattr(RoI, "__post_init__", counted_roi)
        train(tiny_dataset, tiny_config(iterations=3, san_mode=san_mode, san_pool=san_pool))
        assert made == []
        RoI(x1=0.0, y1=0.0, x2=1.0, y2=1.0)
        assert made == ["RoI"]


class TestCellAlignment:
    def test_snaps_outward_to_stride(self):
        assert Backbone.cell_footprint(10.0, 29.0, 96) == (8, 32)
        assert Backbone.cell_footprint(17.0, 30.0, 96) == (16, 32)

    def test_clamps_to_image(self):
        assert Backbone.cell_footprint(1.0, 95.0, 96) == (0, 96)
        assert Backbone.cell_footprint(-7.5, 93.0, 90) == (0, 90)

    def test_batched_references_match_single(self, tiny_dataset):
        model = build_model(tiny_config())
        pairs = []
        for img, anns in tiny_dataset[:4]:
            for a in anns:
                pairs.append((img, a.box))
        boxes = box_array([roi for _, roi in pairs])
        batched = batched_reference_features([(img.pixels.data, box) for (img, _), box in zip(pairs, boxes)], 48, model.backbone)
        assert batched.shape == (len(pairs), model.backbone.c_feat, 1, 1)
        for n, (img, roi) in enumerate(pairs):
            single = reference_feature_for_roi(img, roi, 48, model.backbone)
            assert np.array_equal(batched[n : n + 1], single.data)

    def test_reference_feature_crops_the_cell_aligned_footprint(self, tiny_dataset):
        bb = build_model(tiny_config()).backbone
        img = tiny_dataset[0][0]
        roi = RoI(x1=10.0, y1=17.0, x2=53.5, y2=61.0)
        (y1, y2), (x1, x2) = bb.cell_footprint(roi.y1, roi.y2, img.height), bb.cell_footprint(roi.x1, roi.x2, img.width)
        snapped = RoI(x1=x1, y1=y1, x2=x2, y2=y2)
        assert (x1, y1, x2, y2) == (8, 16, 56, 64)
        got = extract_reference_feature(img, roi, 48, bb)
        assert np.array_equal(got.data, extract_reference_feature(img, snapped, 48, bb).data)
        assert not got.requires_grad


class TestSplitCorrectMerge:
    def test_batched_path_matches_per_roi_processing_bitwise(self, tiny_dataset):
        """Partition/correct/merge equals processing each RoI individually."""
        from sanlab.san import fuse, san_forward

        cfg = tiny_config()
        model = build_model(cfg)
        batch = build_step_batch(tiny_dataset, cfg, step=1)
        feats = [model.backbone.forward(img.pixels) for img in batch.images]
        merged, _ = forward_roi_features(model, feats, batch.boxes, batch.slots)
        for row, (roi, slot) in enumerate(zip(batch.boxes, batch.slots)):
            pooled = roi_pool([feats[slot]], roi[None], [0], mode="avg")
            part = partition_index(box_area(roi[None])[0], model.scheme)
            single = fuse(pooled, san_forward(pooled, part, model.san), alpha=model.san.fusion_alpha)
            assert np.array_equal(merged.data[row], single.data[0])

    def test_full_step_records_no_row_gather(self, tiny_dataset, monkeypatch):
        """RoI pooling, the correction and its loss branch move rows inside
        one node each: a san=full and a san=off step, forward and backward,
        call neither take0 nor concat0."""
        calls = []

        def counting(name, op):
            def counted(*args, **kwargs):
                calls.append(name)
                return op(*args, **kwargs)

            return counted

        for name in ("take0", "concat0"):
            monkeypatch.setattr(ag, name, counting(name, getattr(ag, name)))
        for san_mode in ("full", "off"):
            cfg = tiny_config(san_mode=san_mode)
            model = build_model(cfg)
            batch = build_step_batch(tiny_dataset, cfg, step=1)
            assert len(set(batch.slots.tolist())) > 1
            assert len(set(partition_index(box_area(batch.boxes), model.scheme).tolist())) > 1
            compute_step_losses(model, batch).total.backward()
        assert calls == []

    def test_pooling_reads_each_rois_own_image_in_any_order(self):
        r = np.random.default_rng(5)
        maps = [r.integers(0, 256, size=(1, 4, 12, 12)).astype(np.float32) for _ in range(2)]
        rois = [
            RoI(x1=3.0, y1=5.0, x2=60.0, y2=41.0),
            RoI(x1=20.5, y1=0.0, x2=96.0, y2=96.0),
            RoI(x1=-8.0, y1=30.0, x2=17.0, y2=90.0),
            RoI(x1=40.0, y1=40.0, x2=57.0, y2=50.0),
            RoI(x1=0.0, y1=0.0, x2=96.0, y2=96.0),
        ]
        slots = [1, 0, 1, 1, 0]
        pooled = roi_pool([Tensor(m) for m in maps], box_array(rois), slots).data
        for n, (roi, s) in enumerate(zip(rois, slots)):
            assert np.array_equal(pooled[n : n + 1], naive_roi_pool(maps[s], roi, out=7, mode="avg", stride=8))

    def test_without_san_is_plain_pooling(self, tiny_dataset):
        cfg = tiny_config(san_mode="off")
        model = build_model(cfg)
        batch = build_step_batch(tiny_dataset, cfg, step=0)
        feats = [model.backbone.forward(img.pixels) for img in batch.images]
        merged, _ = forward_roi_features(model, feats, batch.boxes, batch.slots)
        for row, (roi, slot) in enumerate(zip(batch.boxes, batch.slots)):
            pooled = roi_pool([feats[slot]], roi[None], [0], mode="avg")
            assert np.array_equal(merged.data[row], pooled.data[0])


class TestGradientBlocking:
    def test_backbone_gradients_bitwise_identical_with_and_without_scale_loss(self, tiny_dataset):
        """The full model and its no-loss view of the same parameters."""
        cfg = tiny_config()
        model = build_model(cfg)
        batch = build_step_batch(tiny_dataset, cfg, step=0)
        grads = {}
        for include, view in ((True, model), (False, no_loss_view(model))):
            compute_step_losses(view, batch).total.backward()
            grads[include] = {
                "backbone": [p.grad.copy() for p in model.backbone.named_parameters()],
                "san": [p.grad.copy() if p.grad is not None else None
                        for p in model.san.named_parameters()],
            }
            for p in model.named_parameters():
                p.grad = None
        for a, b in zip(grads[True]["backbone"], grads[False]["backbone"]):
            assert np.array_equal(a, b)
        differs = any(
            (a is None) != (b is None) or (a is not None and not np.array_equal(a, b))
            for a, b in zip(grads[True]["san"], grads[False]["san"])
        )
        assert differs

    def test_step_zero_scale_loss_equals_raw_discrepancy(self, tiny_dataset):
        """Identity-initialized correction is transparent in the loss branch,
        whether its rows come from the detection batch (avg) or are pooled
        again (max)."""
        for san_pool in ("avg", "max"):
            cfg = tiny_config(san_pool=san_pool)
            model = build_model(cfg)
            batch = build_step_batch(tiny_dataset, cfg, step=0)
            parts = compute_step_losses(model, batch)

            feats = [model.backbone.forward(img.pixels) for img in batch.images]
            acc = None
            for j in batch.san_indices:
                roi = RoI(*batch.boxes[j].tolist())
                img = batch.images[batch.slots[j]]
                r_tilde = reference_feature_for_roi(img, roi, model.scheme.ref_scale, model.backbone)
                pooled = ag.global_avg_pool(
                    roi_pool([ag.detach(feats[batch.slots[j]])], box_array([roi]), [0], mode=cfg.san_pool)
                )
                term = ag.sum_all(ag.smooth_l1(ag.sub(pooled, r_tilde)))
                acc = term if acc is None else ag.add(acc, term)
            expected = ag.scale(acc, 1.0 / len(batch.san_indices)).item()
            assert parts.l_san == expected, san_pool


@pytest.fixture(scope="module")
def mixed_size_dataset():
    """96x96 and 64x64 images alternating: image i of the 96x96 set at even
    i, of the 64x64 set at odd i, so the ids 0-11 are distinct."""
    big = generate_dataset(DatasetConfig(num_images=12, seed=21))
    small = generate_dataset(DatasetConfig(num_images=12, image_size=64, scale_range=(8.0, 60.0), seed=22))
    return [(big if i % 2 == 0 else small)[i] for i in range(12)]


class TestBatchedBackbone:
    STEPS = 6

    @staticmethod
    def losses_and_grads(step_losses, cfg, batch):
        model = build_model(cfg)
        parts = step_losses(model, batch)
        parts.total.backward()
        grads = [None if p.grad is None else p.grad.tobytes() for p in model.named_parameters()]
        return (parts.l_cls, parts.l_reg, parts.l_san), grads

    @pytest.mark.parametrize("san_pool", ["avg", "max"])
    @pytest.mark.parametrize("images_per_step", [3, 4])
    def test_mixed_size_steps_are_bitwise_one_pass_per_image(self, mixed_size_dataset, images_per_step, san_pool):
        """The step's backbone passes give the loss terms and every
        parameter gradient of one pass per image, bit for bit, on steps
        that mix 96x96 and 64x64 images.  A pass over several images after
        another pass would add its images' weight gradients as one sum:
        [64, 96, 96] would give g0 + (g1 + g2) where one pass per image
        gives (g0 + g1) + g2."""
        cfg = tiny_config(images_per_step=images_per_step, san_pool=san_pool, seed=2)
        orders = set()
        for step in range(self.STEPS):
            batch = build_step_batch(mixed_size_dataset, cfg, step)
            orders.add(tuple(img.width for img in batch.images))
            got = self.losses_and_grads(compute_step_losses, cfg, batch)
            want = self.losses_and_grads(per_image_step_losses, cfg, batch)
            assert got[0] == want[0], step
            assert got[1] == want[1], step
        # a run of two or more images after another pass, and a mixed step
        assert any(o[0] != o[1] == o[2] for o in orders), orders
        if images_per_step == 3:
            assert (64, 96, 96) in orders, orders

    def test_step_maps_pass_the_leading_run_at_once(self, mixed_size_dataset):
        """Images of one size make one pass; with mixed sizes the leading
        run makes one pass and every later image its own, each map bitwise
        the image's own pass."""
        bb = build_model(tiny_config()).backbone
        big, small = mixed_size_dataset[0][0], mixed_size_dataset[1][0]
        for images, rows in (([big, big, big], [3]), ([big, big, small, small], [2, 1, 1]), ([small, big, big], [1, 1, 1])):
            inputs, pixels = step_pixels(images)
            maps = [bb.forward(Tensor(x)) for x in inputs]
            assert [m.shape[0] for m in maps] == rows
            got = [row for m in maps for row in m.data]
            for img, row, px in zip(images, got, pixels, strict=True):
                assert np.array_equal(row, bb.forward(img.pixels).data[0])
                assert np.array_equal(px, img.pixels.data)

    @pytest.mark.parametrize("san_pool", ["avg", "max"])
    def test_full_step_takes_reference_features_before_the_tape(self, tiny_dataset, monkeypatch, san_pool):
        """A full step runs the reference pathway first: when it is called no
        backbone pass of the step has run and no tape node exists, so its
        transients never coexist with the forward tape."""
        events = []
        result, forward, reference = ag._result, Backbone.forward, sanlab.training.batched_reference_features

        def recording_result(data, parents, backward):
            out = result(data, parents, backward)
            if out._backward is not None:
                events.append("tape")
            return out

        def recording_forward(bb, x):
            events.append("backbone")
            return forward(bb, x)

        def recording_reference(*args, **kwargs):
            events.append(("reference", list(events)))
            return reference(*args, **kwargs)

        monkeypatch.setattr(ag, "_result", recording_result)
        monkeypatch.setattr(Backbone, "forward", recording_forward)
        monkeypatch.setattr(sanlab.training, "batched_reference_features", recording_reference)
        cfg = tiny_config(san_pool=san_pool)
        model = build_model(cfg)
        batch = build_step_batch(tiny_dataset, cfg, step=1)
        compute_step_losses(model, batch).total.backward()
        assert events[0] == ("reference", [])
        assert events.count("backbone") == 2 and "tape" in events


class TestTrainLoop:
    def test_zero_iterations_checkpoint_equals_initialization(self, tiny_dataset, tmp_path):
        cfg = tiny_config(iterations=0)
        result = train(tiny_dataset, cfg)
        fresh = build_model(cfg)
        for a, b in zip(result.model.named_parameters(), fresh.named_parameters()):
            assert a.name == b.name
            assert np.array_equal(a.data, b.data)

    def test_replay_bit_identical_checkpoints(self, tiny_dataset, tmp_path):
        cfg = tiny_config(iterations=6)
        a = train(tiny_dataset, cfg)
        b = train(tiny_dataset, cfg)
        save_checkpoint(tmp_path / "a.san", a.model)
        save_checkpoint(tmp_path / "b.san", b.model)
        assert (tmp_path / "a.san").read_bytes() == (tmp_path / "b.san").read_bytes()

    def test_log_rows_and_csv(self, tiny_dataset, tmp_path):
        cfg = tiny_config(iterations=5)
        result = train(tiny_dataset, cfg)
        assert len(result.log_rows) == 5
        write_log_csv(tmp_path / "log.csv", result.log_rows)
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "iter,l_cls,l_reg,l_san,lr"
        assert len(lines) == 6

    def test_no_loss_mode_logs_zero_san(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=3, san_mode="no-loss"))
        assert all(row[3] == 0.0 for row in result.log_rows)

    def test_full_mode_without_san_samples_logs_zero_san(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=3, san_samples=0))
        assert result.model.san is not None
        assert all(row[3] == 0.0 for row in result.log_rows)

    def test_off_mode_has_no_san_parameters(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=2, san_mode="off"))
        assert result.model.san is None
        assert not any(p.name.startswith("san.") for p in result.model.named_parameters())

    def test_divergence_raises_with_its_diagnostics(self, tiny_dataset):
        """A non-finite loss stops training at the step that produced it.
        The weight is beyond float32's range, so the first update is already
        non-finite; a finite weight stops on the blow-up check first."""
        with np.errstate(over="ignore", invalid="ignore"):  # divergence overflows by design
            with pytest.raises(TrainingDiverged) as exc:
                train(tiny_dataset, tiny_config(iterations=20, san_loss_weight=1e39))
        diverged = exc.value
        assert diverged.step == diverged.diagnostics["iter"]
        assert not all(np.isfinite([diverged.diagnostics[k] for k in ("l_cls", "l_reg", "l_san")]))
        assert str(diverged).startswith(f"non-finite loss at iteration {diverged.step}")

    def test_finite_blow_up_raises(self, tiny_dataset):
        """A classification loss that grows past BLOWUP_FACTOR times its
        step-0 value stops training, though every loss is still finite."""
        cfg = tiny_config(iterations=20, san_loss_weight=1e6)
        first = train(tiny_dataset, dataclasses.replace(cfg, iterations=1)).log_rows[0][1]
        with pytest.raises(TrainingDiverged) as exc:
            train(tiny_dataset, cfg)
        diverged = exc.value
        assert diverged.step == diverged.diagnostics["iter"] == 1
        assert np.all(np.isfinite([diverged.diagnostics[k] for k in ("l_cls", "l_reg", "l_san")]))
        assert diverged.diagnostics["l_cls"] > training.BLOWUP_FACTOR * first
        assert str(diverged).startswith("loss blew up") and "non-finite" not in str(diverged)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train([], tiny_config())

    def test_losses_finite_and_nonnegative(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=6))
        for _, l_cls, l_reg, l_san, _ in result.log_rows:
            assert l_cls >= 0 and l_reg >= 0 and l_san >= 0

    @pytest.mark.slow
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "scale-aware loss halving from first to last decile presumes a "
            "quasi-stationary feature scale (a pretrained backbone); with the "
            "whole network trained from scratch the raw discrepancy scale grows "
            "with the specializing features and the trajectory plateaus instead "
            "(~25 configurations measured, ratio 0.6-3.8; see decisions ledger)"
        ),
    )
    def test_scale_loss_halves_from_first_to_last_decile(self, trained_matrix):
        # the 2000-step seed-7 full run on the 200-image seed-11 set
        result, _ = trained_matrix[(7, "full")]
        lsan = np.array([row[3] for row in result.log_rows])
        first = lsan[:200].mean()
        last = lsan[-200:].mean()
        assert last < 0.5 * first

    @staticmethod
    def _tensors_for_the_cycle_collector(run) -> list[str]:
        """Type names of the Tensors that only the cycle collector would
        free once ``run()`` has returned."""
        gc.collect()
        enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.disable()
        try:
            run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            return [type(o).__name__ for o in gc.garbage[kept:] if isinstance(o, Tensor)]
        finally:
            gc.set_debug(flags)
            del gc.garbage[kept:]
            if enabled:
                gc.enable()

    def test_training_leaves_no_tensor_for_the_cycle_collector(self, tiny_dataset):
        """backward() frees each step's tape, so reference counting reclaims it."""
        leaked = self._tensors_for_the_cycle_collector(lambda: train(tiny_dataset, tiny_config(iterations=3)))
        assert leaked == []

    def test_dropped_graph_leaves_no_tensor_for_the_cycle_collector(self, tiny_dataset):
        """A step's graph dropped without backward() holds no reference
        cycle: no backward closure refers to the tensor it is stored on."""
        cfg = tiny_config()
        model = build_model(cfg)
        batch = build_step_batch(tiny_dataset, cfg, step=0)
        leaked = self._tensors_for_the_cycle_collector(
            lambda: compute_step_losses(model, batch)
        )
        assert leaked == []

    def test_missing_grads_filled_with_zeros(self, tiny_dataset):
        """Without the scale-aware term, filling the correction module's
        gradients leaves no parameter without one: the backbone and head
        always get theirs from the step."""
        cfg = tiny_config()
        model = no_loss_view(build_model(cfg))
        batch = build_step_batch(tiny_dataset, cfg, step=0)
        compute_step_losses(model, batch).total.backward()
        fill_missing_grads(model.san.named_parameters())
        assert all(p.grad is not None for p in model.named_parameters())

    def test_non_square_images_train_and_evaluate(self, tmp_path):
        """Proposals on a 160x48 image are sampled and clamped per axis;
        sampling y against the width put RoIs below the image."""
        dataset = []
        for i in range(8):
            rng = np.random.default_rng(i)
            levels = rng.integers(102, 154, size=(1, 3, 48, 160), dtype=np.uint8)
            side = int(rng.integers(8, 40))
            x, y = int(rng.integers(0, 160 - side)), int(rng.integers(0, 48 - side))
            levels[0, :, y : y + side, x : x + side] = np.uint8([230, 51, 51])[:, None, None]
            box = RoI(x1=x, y1=y, x2=x + side, y2=y + side)
            dataset.append((Image(levels, id=i), [Annotation(box=box, class_id=1 + i % 3, image_id=i)]))
        write_dataset(tmp_path, dataset)
        dataset = load_dataset(tmp_path)
        cfg = TrainingConfig(iterations=30, san_mode="full", seed=1)
        for step in range(cfg.iterations):
            batch = build_step_batch(dataset, cfg, step)
            for (x1, y1, x2, y2), slot in zip(batch.boxes.tolist(), batch.slots.tolist()):
                img = batch.images[slot]
                assert 0 <= x1 < x2 <= img.width and 0 <= y1 < y2 <= img.height
        result = train(dataset, cfg)
        ap, _ = evaluate_detector(result.model, dataset, seed=0)
        assert 0.0 <= ap.mean_ap <= 1.0


# Counts minor page faults per training step in a fresh interpreter: the
# allocator state a test process inherits from earlier tests says nothing.
FAULTS_PER_STEP = """
import resource
from sanlab import data, training

dataset = data.generate_dataset(data.DatasetConfig(num_images=40, seed=11))
marks = []
build = training.build_step_batch

def stamped(*args, **kwargs):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return build(*args, **kwargs)

training.build_step_batch = stamped
training.train(dataset, training.TrainingConfig(iterations=26, san_mode="off", seed=7))
steps = [b - a for a, b in zip(marks[5:], marks[6:])]
print(sum(steps) / len(steps))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting applies to glibc malloc only")
def test_training_steps_do_not_fault_the_heap_back_in():
    """With the heap kept mapped, a step reuses the memory the previous
    step's tape freed instead of faulting it in again (~900 faults per
    96x96 two-image step with glibc's default thresholds)."""
    env = dict(os.environ, PYTHONPATH=str(Path(sanlab.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_STEP], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    assert float(out.stdout) < 50


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tiny_dataset, tmp_path):
        cfg = tiny_config(iterations=4)
        result = train(tiny_dataset, cfg)
        save_checkpoint(tmp_path / "m.san", result.model)
        loaded = load_checkpoint(tmp_path / "m.san")
        img, anns = tiny_dataset[0]
        rois = box_array([a.box for a in anns] or [RoI(x1=8, y1=8, x2=40, y2=40)])
        p_a, d_a = predict_rois(result.model, img, rois)
        p_b, d_b = predict_rois(loaded, img, rois)
        assert np.array_equal(p_a, p_b)
        assert np.array_equal(d_a, d_b)
        assert loaded.scheme == result.model.scheme
        assert loaded.num_classes == result.model.num_classes

    def test_checkpoint_without_san(self, tiny_dataset, tmp_path):
        result = train(tiny_dataset, tiny_config(iterations=2, san_mode="off"))
        save_checkpoint(tmp_path / "m.san", result.model)
        loaded = load_checkpoint(tmp_path / "m.san")
        assert loaded.san is None

    def test_zero_fusion_checkpoint_roundtrip(self, tiny_dataset, tmp_path):
        result = train(tiny_dataset, tiny_config(iterations=2, init_mode="identity-zero-fusion"))
        save_checkpoint(tmp_path / "m.san", result.model)
        loaded = load_checkpoint(tmp_path / "m.san")
        assert loaded.san.fusion_alpha is not None
        assert np.array_equal(loaded.san.fusion_alpha.data, result.model.san.fusion_alpha.data)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.san").write_bytes(b"NOTSAN00" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "bad.san")

    def test_truncated_rejected(self, tiny_dataset, tmp_path):
        result = train(tiny_dataset, tiny_config(iterations=1))
        save_checkpoint(tmp_path / "m.san", result.model)
        raw = (tmp_path / "m.san").read_bytes()
        (tmp_path / "t.san").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "t.san")

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        save_checkpoint(tmp_path / "m.san", build_model(tiny_config()))
        (tmp_path / "t.san").write_bytes((tmp_path / "m.san").read_bytes() + b"\x01" * extra)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(tmp_path / "t.san")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match=r"cannot read .*nope\.san: No such file"):
            load_checkpoint(tmp_path / "nope.san")

    @staticmethod
    def _resaved(tmp_path, **changed):
        """A fresh model's checkpoint with some entries replaced."""
        save_checkpoint(tmp_path / "m.san", build_model(tiny_config()))
        entries = read_checkpoint_entries(tmp_path / "m.san")
        entries.update(changed)
        write_checkpoint_entries(tmp_path / "x.san", list(entries.items()))
        return tmp_path / "x.san"

    def test_broadcastable_san_weight_rejected(self, tmp_path):
        # a (1,1,1,1) kernel would broadcast into every weight of the sub-network
        path = self._resaved(tmp_path, **{"san.part0.w": np.full((1, 1, 1, 1), 0.5, dtype=np.float32)})
        with pytest.raises(CheckpointError, match="san.part0.w"):
            load_checkpoint(path)

    def test_wrong_width_san_weight_rejected(self, tmp_path):
        path = self._resaved(tmp_path, **{"san.part0.w": np.zeros((16, 16, 1, 1), dtype=np.float32)})
        with pytest.raises(CheckpointError, match="san.part0.w"):
            load_checkpoint(path)

    def test_head_must_match_class_count(self, tmp_path):
        path = self._resaved(tmp_path, **{"meta.num_classes": np.array([2.0], dtype=np.float32)})
        with pytest.raises(CheckpointError, match="head.cls.w"):
            load_checkpoint(path)

    def test_stored_ref_scale_below_the_backbone_stride_rejected(self, tmp_path):
        """The model is rebuilt through `build_model`, which validates its config."""
        path = self._resaved(tmp_path, **{"meta.ref_scale": np.array([4.0], dtype=np.float32)})
        with pytest.raises(ConfigError, match="^ref_scale 4 is below the backbone stride 8$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["head.reg.b", "backbone.block1.w", "san.part1.b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, name, value):
        save_checkpoint(tmp_path / "m.san", build_model(tiny_config()))
        entries = read_checkpoint_entries(tmp_path / "m.san")
        entries[name].reshape(-1)[[0, -1]] = value
        write_checkpoint_entries(tmp_path / "x.san", list(entries.items()))
        with pytest.raises(CheckpointError, match=rf"^checkpoint entry {re.escape(name)} holds a non-finite value$"):
            load_checkpoint(tmp_path / "x.san")

    def test_unknown_entry_rejected(self, tmp_path):
        path = self._resaved(tmp_path, **{"head.extra": np.zeros(3, dtype=np.float32)})
        with pytest.raises(CheckpointError, match="head.extra"):
            load_checkpoint(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m.san", build_model(tiny_config()))
        entries = list(read_checkpoint_entries(tmp_path / "m.san").items())
        entries.append(("head.cls.b", np.full(4, 7.0, dtype=np.float32)))
        write_checkpoint_entries(tmp_path / "x.san", entries)
        with pytest.raises(CheckpointError, match="duplicate entry head.cls.b"):
            load_checkpoint(tmp_path / "x.san")

    def test_fusion_gate_without_sub_networks_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m.san", build_model(tiny_config(san_mode="off")))
        entries = read_checkpoint_entries(tmp_path / "m.san")
        entries["san.fusion_alpha"] = np.zeros((), dtype=np.float32)
        write_checkpoint_entries(tmp_path / "x.san", list(entries.items()))
        with pytest.raises(CheckpointError, match="san.fusion_alpha"):
            load_checkpoint(tmp_path / "x.san")

    @pytest.mark.parametrize(
        "changed",
        [
            {"meta.num_classes": np.array([100000.0], dtype=np.float32)},
            {"meta.boundaries": np.arange(1, 5001, dtype=np.float32)},
        ],
        ids=["num_classes", "boundaries"],
    )
    def test_corrupt_meta_rejected_before_building_the_model(self, tmp_path, changed):
        # a model of that size would need hundreds of MB; the checks come first
        path = self._resaved(tmp_path, **changed)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @staticmethod
    def _one_entry_file(tmp_path, name: bytes, dims_header: bytes):
        """A checkpoint of one entry header (no payload) with the given
        name bytes and raw rank-and-dims field."""
        path = tmp_path / "h.san"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(name)) + name + dims_header)
        return path

    @pytest.mark.parametrize(
        "dims_header",
        [struct.pack("<II", 1, 2**24), struct.pack("<I", 2**24)],
        ids=["dims", "rank"],
    )
    def test_declared_length_checked_before_allocating(self, tmp_path, dims_header):
        # 2**24 float32 values, or 2**24 dims, would be a 64 MiB read
        path = self._one_entry_file(tmp_path, b"w", dims_header)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                read_checkpoint_entries(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_element_count_does_not_wrap(self, tmp_path):
        # 65536**4 == 2**64 wraps an int64 product to 0 elements
        path = self._one_entry_file(tmp_path, b"w", struct.pack("<5I", 4, *(65536,) * 4))
        with pytest.raises(CheckpointError, match="payload of w"):
            read_checkpoint_entries(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = self._one_entry_file(tmp_path, b"\xff", struct.pack("<I", 0) + b"\0\0\0\0")
        with pytest.raises(CheckpointError, match="UTF-8"):
            read_checkpoint_entries(path)

    def test_scheme_round_trips_exactly(self, tmp_path):
        scheme = ScalePartitionScheme(ref_scale=40, boundaries=(100.3, 2000.7))
        save_checkpoint(tmp_path / "m.san", build_model(tiny_config(scheme=scheme)))
        assert load_checkpoint(tmp_path / "m.san").scheme == scheme


class TestInference:
    def test_nms_keeps_highest_scored_overlaps(self):
        boxes = [
            RoI(x1=0, y1=0, x2=10, y2=10),
            RoI(x1=1, y1=1, x2=11, y2=11),
            RoI(x1=50, y1=50, x2=60, y2=60),
        ]
        keep = nms(boxes, [0.5, 0.9, 0.3])
        assert keep == [1, 2]

    def test_detect_returns_clipped_sorted_detections(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=1))  # one step leaves foreground scores above DETECT_SCORE_THRESH
        img, anns = tiny_dataset[1]
        props = box_array([a.box for a in anns] + [RoI(x1=4, y1=4, x2=30, y2=30)])
        dets = detect(result.model, img, props)
        assert dets and dets == sorted(dets, key=lambda d: -d.score)
        for d in dets:
            assert 0 <= d.box.x1 < d.box.x2 <= img.width
            assert 0 <= d.box.y1 < d.box.y2 <= img.height
            assert 1 <= d.class_id <= result.model.num_classes

    def test_detect_empty_proposals(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=1))
        assert detect(result.model, tiny_dataset[0][0], np.zeros((0, 4))) == []

    def test_evaluate_detector_runs(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=3))
        ap, dets = evaluate_detector(result.model, tiny_dataset[:4], seed=5)
        assert 0.0 <= ap.mean_ap <= 1.0

    def test_rmse_report_identity_initialization_rows_equal(self, tiny_dataset):
        model = build_model(tiny_config())
        rows = rmse_report(model, tiny_dataset[:4])
        assert rows
        for r in rows:
            assert r.rmse_with == r.rmse_without

    def test_rmse_report_requires_san(self, tiny_dataset):
        model = build_model(tiny_config(san_mode="off"))
        with pytest.raises(Exception, match="correction"):
            rmse_report(model, tiny_dataset[:2])

    def test_rmse_report_reads_each_image_once(self, tiny_dataset, monkeypatch):
        """One level conversion and one reference pass per image, counted
        under both modules' names: a report that took each object's
        reference feature alone converted its image once more per object."""
        calls = {"to_pixels": 0, "batched_reference_features": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for module in (sanlab.training, sanlab.backbone):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        dataset = tiny_dataset[:4]
        assert sum(len(anns) for _, anns in dataset) > len(dataset)
        rows = rmse_report(build_model(tiny_config()), dataset + [(dataset[0][0], [])])
        assert rows
        assert calls == {"to_pixels": len(dataset), "batched_reference_features": len(dataset)}

    def test_rmse_report_rows_match_per_object_references(self):
        """The rows of a 3-object image are, bit for bit, those built with
        each object's own `extract_reference_feature`."""
        dataset = generate_dataset(DatasetConfig(num_images=6, objects_min=3, objects_max=3, seed=5))
        img, anns = next((img, anns) for img, anns in dataset if len(anns) == 3)
        model = build_model(tiny_config(init_mode="gaussian"))
        bb, scheme = model.backbone, model.scheme
        scales = [8, 16, 24, 64]
        want = []
        for sample_id, ann in enumerate(anns):
            z0 = extract_reference_feature(img, ann.box, scheme.ref_scale, bb)
            for s in scales:
                z_s = rendered_roi_feature(img.pixels.data, ann.box, [s], bb)
                part = partition_index(float(s * s), scheme)
                without, with_san = rmse_without_san(z_s, z0), rmse_with_san(z_s, z0, model.san, part)
                want.append(RmseRow(sample_id, ann.class_id, s, without, with_san))
        got = rmse_report(model, [(img, anns)], scales=scales)
        assert repr(got) == repr(want)
        assert any(r.rmse_with != r.rmse_without for r in got)


class TestRenderedRoiFeature:
    """The RMSE report's rendering of the pooled crop against the rendering
    of the whole context window it replaced."""

    CASES = [
        # (image h, w, box): non-square images; a box at the leading corner,
        # one ending in a partial last cell, one inside
        (48, 80, RoI(x1=0, y1=0, x2=12, y2=10)),
        (48, 80, RoI(x1=61, y1=30, x2=80, y2=48)),
        (80, 40, RoI(x1=9.5, y1=23.25, x2=30, y2=51)),
        (64, 64, RoI(x1=20, y1=20, x2=24, y2=24)),
    ]

    @pytest.mark.parametrize("h, w, box", CASES)
    @pytest.mark.parametrize("scale", [8, 12, 16, 24, 32, 64, 96])
    def test_matches_the_whole_window_rendering(self, h, w, box, scale):
        img = Image(np.random.default_rng(h + w).integers(0, 256, size=(1, 3, h, w), dtype=np.uint8))
        bb = Backbone.small(seed=3)
        got = rendered_roi_feature(img.pixels.data, box, [scale], bb).data
        want = full_render_roi_feature(img, box, scale, bb).data
        assert got.shape == want.shape == (1, bb.c_feat, 1, 1)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("h, w, box", CASES)
    def test_scales_rendered_together_are_bitwise_each_alone(self, h, w, box):
        """One call renders every scale, crops every window with one
        `roi_crop` and pools every rendering with one `roi_pool`: row s is,
        bit for bit, scale s rendered alone."""
        img = Image(np.random.default_rng(h + w).integers(0, 256, size=(1, 3, h, w), dtype=np.uint8))
        bb = Backbone.small(seed=3)
        scales = [8, 12, 16, 24, 32, 64, 96]
        got = rendered_roi_feature(img.pixels.data, box, scales, bb).data
        assert got.shape == (len(scales), bb.c_feat, 1, 1)
        for k, scale in enumerate(scales):
            assert np.array_equal(got[k : k + 1], rendered_roi_feature(img.pixels.data, box, [scale], bb).data)

    def test_one_cell_roi_pools_one_cell(self):
        """At scale 8 the 4x4 box renders at factor 2 in the 72-pixel window
        [4, 40), so it maps to [32, 40): cell 4 alone, cropped with cell 3."""
        assert Backbone.roi_crop(32.0, 40.0, 72) == (24, 40)
        img = Image(np.random.default_rng(0).integers(0, 256, size=(1, 3, 64, 64), dtype=np.uint8))
        bb = Backbone.small(seed=3)
        box = RoI(x1=20, y1=20, x2=24, y2=24)
        got = rendered_roi_feature(img.pixels.data, box, [8], bb).data
        want = full_render_roi_feature(img, box, 8, bb).data
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
