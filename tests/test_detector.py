"""Estimator front end: parameter plumbing, fit/predict/score, persistence."""

import dataclasses

import numpy as np
import pytest

from sanlab.backbone import RoI
from sanlab.data import DatasetConfig, generate_dataset
from sanlab.detector import NotFittedError, SanDetector
from sanlab.errors import ConfigError
from sanlab.san import COCO_SCHEME, TOY_SCHEME, VOC_SCHEME, ScalePartitionScheme, resolve_scheme
from sanlab.training import FRONT_END_NAMES, TrainingConfig, config_from_front_end, front_end_from_config


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(DatasetConfig(num_images=10, seed=14))


def tiny_detector(**kw):
    params = dict(iterations=3, rois_per_image=10, san_samples=4, seed=2)
    params.update(kw)
    return SanDetector(**params)


class TestParams:
    def test_get_params_round_trips_constructor(self):
        det = SanDetector(iterations=55, san="no-loss", seed=9)
        params = det.get_params()
        clone = SanDetector(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self_and_updates(self):
        det = SanDetector()
        out = det.set_params(iterations=7, san_pool="max")
        assert out is det
        assert det.iterations == 7 and det.san_pool == "max"

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            SanDetector().set_params(learning_rate=0.1)

    def test_params_cover_every_training_field(self):
        params = SanDetector().get_params()
        for f in dataclasses.fields(TrainingConfig):
            if f.name != "scheme":
                assert params[FRONT_END_NAMES.get(f.name, f.name)] == f.default
        assert {"scheme", "ref_scale", "boundaries"} <= set(params)
        assert SanDetector().training_config() == TrainingConfig()

    def test_front_end_values_of_a_config_map_back_to_it(self):
        cfg = TrainingConfig(iterations=7, san_mode="no-loss", init_mode="gaussian", scheme=VOC_SCHEME)
        assert config_from_front_end(front_end_from_config(cfg)) == cfg

    def test_sampling_params_reach_the_training_config(self):
        cfg = SanDetector(images_per_step=3, pos_fraction=0.5, pos_iou=0.4, n_pos_jitter=4, n_neg=12).training_config()
        assert (cfg.images_per_step, cfg.pos_fraction, cfg.pos_iou, cfg.n_pos_jitter, cfg.n_neg) == (3, 0.5, 0.4, 4, 12)

    def test_constructor_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            SanDetector(learning_rate=0.1)

    def test_params_stored_verbatim(self):
        det = SanDetector(boundaries=(100.0, 400.0), ref_scale=20)
        assert det.boundaries == (100.0, 400.0)
        assert det.ref_scale == 20


class TestResolveScheme:
    def test_presets(self):
        assert resolve_scheme("voc") == VOC_SCHEME
        assert resolve_scheme("coco") == COCO_SCHEME
        assert resolve_scheme("toy") == TOY_SCHEME

    def test_overrides(self):
        scheme = resolve_scheme("toy", ref_scale=64, boundaries=(100.0,))
        assert scheme == ScalePartitionScheme(ref_scale=64, boundaries=(100.0,))

    def test_partial_override_keeps_preset_rest(self):
        scheme = resolve_scheme("toy", ref_scale=64)
        assert scheme.ref_scale == 64
        assert scheme.boundaries == TOY_SCHEME.boundaries

    def test_scheme_object_passthrough(self):
        s = ScalePartitionScheme(ref_scale=10, boundaries=(4.0,))
        assert resolve_scheme(s) is s

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            resolve_scheme("imagenet")


class TestFitPredict:
    def test_predict_before_fit_raises(self, tiny_dataset):
        det = tiny_detector()
        with pytest.raises(NotFittedError):
            det.predict(tiny_dataset[0][0], [RoI(x1=0, y1=0, x2=16, y2=16)])

    def test_fit_returns_self_and_sets_state(self, tiny_dataset):
        det = tiny_detector()
        out = det.fit(tiny_dataset)
        assert out is det
        assert det.model_ is not None
        assert len(det.log_) == det.iterations

    def test_predict_yields_detections(self, tiny_dataset):
        det = tiny_detector().fit(tiny_dataset)
        img, anns = tiny_dataset[0]
        props = [a.box for a in anns] or [RoI(x1=8, y1=8, x2=40, y2=40)]
        dets = det.predict(img, props, score_thresh=0.0)
        for d in dets:
            assert d.image_id == img.id

    def test_score_in_unit_interval(self, tiny_dataset):
        det = tiny_detector().fit(tiny_dataset)
        assert 0.0 <= det.score(tiny_dataset[:4]) <= 1.0

    def test_refit_replaces_model(self, tiny_dataset):
        det = tiny_detector()
        det.fit(tiny_dataset)
        first = det.model_
        det.set_params(seed=3).fit(tiny_dataset)
        assert det.model_ is not first

    def test_gaussian_init_without_san_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError, match="gaussian"):
            tiny_detector(san="off", init="gaussian").fit(tiny_dataset)

    def test_negative_seed_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            tiny_detector(seed=-1).fit(tiny_dataset)

    def test_off_mode_trains_without_correction(self, tiny_dataset):
        det = tiny_detector(san="off").fit(tiny_dataset)
        assert det.model_.san is None


class TestPersistence:
    def test_save_load_preserves_behavior(self, tiny_dataset, tmp_path):
        det = tiny_detector().fit(tiny_dataset)
        det.save(tmp_path / "det.san")
        loaded = SanDetector.load(tmp_path / "det.san")
        img, anns = tiny_dataset[2]
        props = [a.box for a in anns] or [RoI(x1=8, y1=8, x2=40, y2=40)]
        a = det.predict(img, props, score_thresh=0.0)
        b = loaded.predict(img, props, score_thresh=0.0)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.score == db.score
            assert da.box == db.box

    def test_loaded_detector_reports_configuration(self, tiny_dataset, tmp_path):
        det = tiny_detector(san="off").fit(tiny_dataset)
        det.save(tmp_path / "det.san")
        loaded = SanDetector.load(tmp_path / "det.san")
        assert loaded.san == "off"
        assert loaded.num_classes == det.num_classes

    def test_loaded_detector_reports_the_model_it_loaded(self, tiny_dataset, tmp_path):
        """The zero-fusion gate survives save -> load -> get_params -> refit."""
        det = tiny_detector(san="no-loss", init="identity-zero-fusion", iterations=1).fit(tiny_dataset)
        det.save(tmp_path / "det.san")
        loaded = SanDetector.load(tmp_path / "det.san")
        assert loaded.init == "identity-zero-fusion"
        assert loaded.training_config() == loaded.model_.config
        names = [p.name for p in loaded.model_.named_parameters()]
        assert "san.fusion_alpha" in names
        refit = SanDetector(**loaded.get_params()).set_params(iterations=1).fit(tiny_dataset)
        assert [p.name for p in refit.model_.named_parameters()] == names
