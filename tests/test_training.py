"""Trainer: step construction, losses, SGD loop, checkpoints, inference."""

import dataclasses
import gc
import struct
import tracemalloc

import numpy as np
import pytest
from test_backbone import naive_roi_pool

from sanlab import autograd as ag
from sanlab.autograd import Tensor
from sanlab.backbone import RoI, cell_aligned_roi, extract_reference_feature, roi_pool
from sanlab.data import DatasetConfig, generate_dataset
from sanlab.errors import CheckpointError, ConfigError
from sanlab.san import TOY_SCHEME, ScalePartitionScheme, partition_index
from sanlab.training import (
    CHECKPOINT_MAGIC,
    DetectionModel,
    StepBatch,
    TrainingConfig,
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
    pool_rois,
    nms,
    predict_rois,
    read_checkpoint_entries,
    reference_feature_for_roi,
    rmse_report,
    sample_san_rois,
    save_checkpoint,
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

    def test_gaussian_init_without_san_rejected(self, tiny_dataset):
        cfg = tiny_config(san_mode="off", init_mode="gaussian")
        with pytest.raises(ConfigError, match="gaussian"):
            cfg.validate()
        with pytest.raises(ConfigError, match="gaussian"):
            train(tiny_dataset, cfg)

    @pytest.mark.parametrize("value", [-0.25, 1.5, 2.0, float("nan")])
    def test_pos_fraction_outside_unit_interval_rejected(self, value):
        with pytest.raises(ConfigError, match="pos_fraction"):
            TrainingConfig(pos_fraction=value).validate()

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_pos_fraction_endpoints_accepted(self, value):
        TrainingConfig(pos_fraction=value).validate()

    FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainingConfig) if isinstance(f.default, float)]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            TrainingConfig(**{name: value}).validate()

    def test_float_fields_cover_the_hyperparameters(self):
        assert {"base_lr", "momentum", "weight_decay", "gaussian_std", "san_loss_weight"} <= set(self.FLOAT_FIELDS)

    def test_negative_gaussian_std_rejected(self):
        with pytest.raises(ConfigError, match="gaussian_std must be non-negative"):
            TrainingConfig(init_mode="gaussian", gaussian_std=-0.05).validate()

    def test_learning_rate_schedule(self):
        cfg = TrainingConfig(base_lr=0.1, lr_decay_step=10, lr_decay_factor=0.1)
        assert learning_rate(cfg, 0) == pytest.approx(0.1)
        assert learning_rate(cfg, 9) == pytest.approx(0.1)
        assert learning_rate(cfg, 10) == pytest.approx(0.01)


class TestSampleSanRois:
    def test_all_kept_in_order_when_n_large(self):
        rois = ["a", "b", "c"]
        rng = np.random.default_rng(0)
        assert sample_san_rois(rois, 5, rng) == ["a", "b", "c"]

    def test_zero_disables(self):
        assert sample_san_rois(["a"], 0, np.random.default_rng(0)) == []

    def test_subsample_preserves_relative_order_and_replays(self):
        rois = list(range(30))
        a = sample_san_rois(rois, 7, np.random.default_rng(42))
        b = sample_san_rois(rois, 7, np.random.default_rng(42))
        assert a == b
        assert a == sorted(a)
        assert len(a) == 7


class TestStepBatch:
    def test_deterministic_for_seed(self, tiny_dataset):
        cfg = tiny_config()
        a = build_step_batch(tiny_dataset, cfg, step=2)
        b = build_step_batch(tiny_dataset, cfg, step=2)
        assert a.rois == b.rois
        assert a.labels == b.labels
        assert a.san_indices == b.san_indices

    def test_respects_roi_budget_and_positive_cap(self, tiny_dataset):
        cfg = tiny_config(rois_per_image=8, n_pos_jitter=12, n_neg=40)
        for step in range(4):
            batch = build_step_batch(tiny_dataset, cfg, step)
            per_image = {}
            for slot, u in zip(batch.image_slot, batch.labels):
                per_image.setdefault(slot, []).append(u)
            for labels in per_image.values():
                assert len(labels) <= 8
                assert sum(1 for u in labels if u >= 1) <= round(8 * cfg.pos_fraction)

    def test_san_indices_point_at_rois(self, tiny_dataset):
        batch = build_step_batch(tiny_dataset, tiny_config(), step=0)
        assert all(0 <= j < len(batch.rois) for j in batch.san_indices)


class TestCellAlignment:
    def test_snaps_outward_to_stride(self):
        roi = RoI(x1=10.0, y1=17.0, x2=29.0, y2=30.0)
        snapped = cell_aligned_roi(roi, 8, 96, 96)
        assert (snapped.x1, snapped.y1, snapped.x2, snapped.y2) == (8.0, 16.0, 32.0, 32.0)

    def test_clamps_to_image(self):
        roi = RoI(x1=1.0, y1=1.0, x2=95.0, y2=95.0)
        snapped = cell_aligned_roi(roi, 8, 96, 96)
        assert (snapped.x1, snapped.y1, snapped.x2, snapped.y2) == (0.0, 0.0, 96.0, 96.0)

    def test_batched_references_match_single(self, tiny_dataset):
        model = build_model(tiny_config())
        pairs = []
        for img, anns in tiny_dataset[:4]:
            for a in anns:
                pairs.append((img, a.box))
        batched = batched_reference_features(pairs, 48, model.backbone)
        assert batched.shape == (len(pairs), model.backbone.c_feat, 1, 1)
        for n, (img, roi) in enumerate(pairs):
            single = reference_feature_for_roi(img, roi, 48, model.backbone)
            assert np.array_equal(batched[n : n + 1], single.data)

    def test_reference_feature_crops_the_cell_aligned_footprint(self, tiny_dataset):
        bb = build_model(tiny_config()).backbone
        img = tiny_dataset[0][0]
        roi = RoI(x1=10.0, y1=17.0, x2=53.5, y2=61.0)
        snapped = cell_aligned_roi(roi, bb.total_stride, img.width, img.height)
        assert snapped != roi
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
        merged, _ = forward_roi_features(model, feats, batch.rois, batch.image_slot)
        stride = model.backbone.total_stride
        for row, (roi, slot) in enumerate(zip(batch.rois, batch.image_slot)):
            pooled = roi_pool(feats[slot], roi, out=7, mode="avg", stride=stride)
            part = partition_index(roi.area, model.scheme)
            single = fuse(pooled, san_forward(pooled, part, model.san), alpha=model.san.fusion_alpha)
            assert np.array_equal(merged.data[row], single.data[0])

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_pooling_reads_each_rois_own_image_in_any_order(self, mode):
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
        pooled = pool_rois([Tensor(m) for m in maps], rois, slots, stride=8, mode=mode).data
        for n, (roi, s) in enumerate(zip(rois, slots)):
            assert np.array_equal(pooled[n : n + 1], naive_roi_pool(maps[s], roi, out=7, mode=mode, stride=8))

    def test_without_san_is_plain_pooling(self, tiny_dataset):
        cfg = tiny_config(san_mode="off")
        model = build_model(cfg)
        batch = build_step_batch(tiny_dataset, cfg, step=0)
        feats = [model.backbone.forward(img.pixels) for img in batch.images]
        merged, _ = forward_roi_features(model, feats, batch.rois, batch.image_slot)
        stride = model.backbone.total_stride
        for row, (roi, slot) in enumerate(zip(batch.rois, batch.image_slot)):
            pooled = roi_pool(feats[slot], roi, out=7, mode="avg", stride=stride)
            assert np.array_equal(merged.data[row], pooled.data[0])


class TestGradientBlocking:
    def test_backbone_gradients_bitwise_identical_with_and_without_scale_loss(self, tiny_dataset):
        cfg = tiny_config()
        grads = {}
        for include in (True, False):
            model = build_model(cfg)
            batch = build_step_batch(tiny_dataset, cfg, step=0)
            parts = compute_step_losses(model, batch, cfg, include_san_loss=include)
            parts.total.backward()
            grads[include] = {
                "backbone": [p.grad.copy() for p in model.backbone.named_parameters()],
                "san": [p.grad.copy() if p.grad is not None else None
                        for p in model.san.named_parameters()],
            }
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
            parts = compute_step_losses(model, batch, cfg, include_san_loss=True)

            stride = model.backbone.total_stride
            feats = [model.backbone.forward(img.pixels) for img in batch.images]
            acc = None
            for j in batch.san_indices:
                roi = batch.rois[j]
                img = batch.images[batch.image_slot[j]]
                r_tilde = reference_feature_for_roi(img, roi, model.scheme.ref_scale, model.backbone)
                pooled = ag.global_avg_pool(roi_pool(feats[batch.image_slot[j]], roi, out=7, mode=cfg.san_pool, stride=stride))
                term = ag.sum_all(ag.smooth_l1(ag.sub(pooled, r_tilde)))
                acc = term if acc is None else ag.add(acc, term)
            expected = ag.scale(acc, 1.0 / len(batch.san_indices)).item()
            assert parts.l_san == expected, san_pool


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
    def test_scale_loss_halves_from_first_to_last_decile(self):
        dataset = generate_dataset(DatasetConfig(num_images=200, seed=11))
        result = train(dataset, TrainingConfig(iterations=2000, san_mode="full", seed=7))
        lsan = np.array([row[3] for row in result.log_rows])
        first = lsan[:200].mean()
        last = lsan[-200:].mean()
        assert last < 0.5 * first

    def test_debug_gradient_checks_pass_and_replay_identically(self, tiny_dataset, tmp_path):
        """Debug mode asserts the blocking contract per step without changing results."""
        plain = train(tiny_dataset, tiny_config(iterations=4))
        checked = train(tiny_dataset, tiny_config(iterations=4, debug_gradient_checks=True))
        save_checkpoint(tmp_path / "plain.san", plain.model)
        save_checkpoint(tmp_path / "checked.san", checked.model)
        assert (tmp_path / "plain.san").read_bytes() == (tmp_path / "checked.san").read_bytes()

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
            lambda: compute_step_losses(model, batch, cfg, include_san_loss=True)
        )
        assert leaked == []

    def test_missing_grads_filled_with_zeros(self, tiny_dataset):
        cfg = tiny_config()
        model = build_model(cfg)
        params = model.named_parameters()
        batch = build_step_batch(tiny_dataset, cfg, step=0)
        parts = compute_step_losses(model, batch, cfg, include_san_loss=False)
        parts.total.backward()
        fill_missing_grads(params)
        assert all(p.grad is not None for p in params)


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tiny_dataset, tmp_path):
        cfg = tiny_config(iterations=4)
        result = train(tiny_dataset, cfg)
        save_checkpoint(tmp_path / "m.san", result.model)
        loaded = load_checkpoint(tmp_path / "m.san")
        img, anns = tiny_dataset[0]
        rois = [a.box for a in anns] or [RoI(x1=8, y1=8, x2=40, y2=40)]
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
        with pytest.raises(CheckpointError, match="exist"):
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
        keep = nms(boxes, [0.5, 0.9, 0.3], iou_thresh=0.3)
        assert keep == [1, 2]

    def test_detect_returns_clipped_sorted_detections(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=3))
        img, anns = tiny_dataset[1]
        props = [a.box for a in anns] + [RoI(x1=4, y1=4, x2=30, y2=30)]
        dets = detect(result.model, img, props, score_thresh=0.0)
        assert dets == sorted(dets, key=lambda d: -d.score)
        for d in dets:
            assert 0 <= d.box.x1 < d.box.x2 <= img.width
            assert 0 <= d.box.y1 < d.box.y2 <= img.height
            assert 1 <= d.class_id <= result.model.num_classes

    def test_detect_empty_proposals(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config(iterations=1))
        assert detect(result.model, tiny_dataset[0][0], []) == []

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
