"""The detector through its two front ends: the `train` command's settings,
which map onto TrainingConfig, and the function API (train, detect,
evaluate_detector, save_checkpoint, load_checkpoint)."""

import dataclasses
import json

import numpy as np
import pytest

from sanlab import cli
from sanlab.backbone import RoI, box_array
from sanlab.data import DatasetConfig, generate_dataset, write_dataset
from sanlab.errors import CheckpointError, ConfigError
from sanlab.san import COCO_SCHEME, TOY_SCHEME, VOC_SCHEME, ScalePartitionScheme, resolve_scheme
from sanlab.training import TrainingConfig, detect, evaluate_detector, load_checkpoint, save_checkpoint, train


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(DatasetConfig(num_images=10, seed=14))


@pytest.fixture(scope="module")
def tiny_data_dir(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    write_dataset(out, tiny_dataset)
    return out


def tiny_config(**kw) -> TrainingConfig:
    return TrainingConfig(**{"iterations": 3, "rois_per_image": 10, "san_samples": 4, "seed": 2, **kw})


def tiny_model(dataset, **kw):
    return train(dataset, tiny_config(**kw)).model


def proposals_of(anns) -> np.ndarray:
    return box_array([a.box for a in anns] or [RoI(x1=8, y1=8, x2=40, y2=40)])


@pytest.fixture
def train_cli(tiny_data_dir, tmp_path, monkeypatch, capsys):
    """``run(*args)`` runs `sanlab train` on the tiny split and returns the
    exit code, the TrainingConfig it built (None if it built none) and the
    stderr text.  The training it starts takes no step."""
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    built = []

    def no_step_train(dataset, cfg):
        built.append(cfg)
        return train(dataset, dataclasses.replace(cfg, iterations=0))

    monkeypatch.setattr(cli, "train", no_step_train)

    def run(*args):
        built.clear()
        capsys.readouterr()
        out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        rc = cli.main(["train", "--data-dir", str(tiny_data_dir), "--out-dir", str(out), *args])
        return rc, (built[0] if built else None), capsys.readouterr().err

    return run


def config_file(path, values: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestParams:
    def test_get_params_round_trips_constructor(self, train_cli, tmp_path):
        """A config file and the same values as flags build one TrainingConfig."""
        values = {"iterations": 55, "san": "no-loss", "init": "gaussian", "seed": 9,
                  "scheme": "voc", "ref_scale": 32, "boundaries": "300,900"}
        rc_file, from_file, _ = train_cli("--config", str(config_file(tmp_path / "run.cfg", values)))
        rc_flags, from_flags, _ = train_cli(*(f"--{k.replace('_', '-')}={v}" for k, v in values.items()))
        assert rc_file == rc_flags == 0
        assert from_file == from_flags == TrainingConfig(
            iterations=55, san_mode="no-loss", init_mode="gaussian", seed=9,
            scheme=ScalePartitionScheme(ref_scale=32, boundaries=(300.0, 900.0)),
        )

    def test_set_params_returns_self_and_updates(self, train_cli):
        """Flags change their own settings and leave the rest at the defaults."""
        rc, cfg, _ = train_cli("--iterations", "7", "--san-pool", "max")
        assert rc == 0
        assert cfg == TrainingConfig(iterations=7, san_pool="max")

    def test_set_params_rejects_unknown(self, train_cli, tmp_path):
        rc, cfg, err = train_cli("--config", str(config_file(tmp_path / "run.cfg", {"learning_rate": 0.1})))
        assert rc == 2 and cfg is None
        assert "unknown configuration key 'learning_rate'" in err

    def test_params_cover_every_training_field(self, train_cli):
        assert list(cli.SETTINGS["train"]) == [
            "iterations", "images_per_step", "rois_per_image", "num_classes", "san", "init", "san_pool",
            "san_samples", "san_loss_weight", "seed", "scheme", "ref_scale", "boundaries",
        ]
        renamed = {cli.TRAIN_RENAMES.get(f.name, f.name): f.default for f in dataclasses.fields(TrainingConfig) if f.name != "scheme"}
        assert cli.SETTINGS["train"] == renamed | {"scheme": "toy", "ref_scale": None, "boundaries": None}
        rc, cfg, _ = train_cli()
        assert rc == 0
        assert cfg == TrainingConfig()

    def test_front_end_values_of_a_config_map_back_to_it(self, train_cli, tmp_path):
        """The configuration a run records, given back as a config file,
        builds the TrainingConfig of that run."""
        rc, cfg, _ = train_cli("--iterations", "7", "--san", "no-loss", "--init", "gaussian", "--scheme", "voc")
        assert rc == 0 and cfg.scheme == VOC_SCHEME
        (meta,) = tmp_path.glob("run*/run-meta.json")
        recorded = {k: v for k, v in json.loads(meta.read_text())["config"].items() if v is not None}
        rc, again, _ = train_cli("--config", str(config_file(tmp_path / "again.cfg", recorded)))
        assert rc == 0
        assert again == cfg

    def test_sampling_params_reach_the_training_config(self, train_cli):
        rc, cfg, _ = train_cli("--images-per-step", "3", "--rois-per-image", "12", "--san-samples", "5")
        assert rc == 0
        assert (cfg.images_per_step, cfg.rois_per_image, cfg.san_samples) == (3, 12, 5)

    def test_constructor_rejects_unknown(self, train_cli):
        with pytest.raises(SystemExit) as exc:
            train_cli("--learning-rate", "0.1")
        assert exc.value.code == 2

    def test_params_stored_verbatim(self, train_cli, tmp_path):
        """run-meta.json records the scheme settings as given; the config
        holds the scheme they resolve to."""
        rc, cfg, _ = train_cli("--boundaries", "100,400", "--ref-scale", "20")
        assert rc == 0
        (meta,) = tmp_path.glob("run*/run-meta.json")
        recorded = json.loads(meta.read_text())["config"]
        assert (recorded["scheme"], recorded["ref_scale"], recorded["boundaries"]) == ("toy", 20, "100,400")
        assert cfg.scheme == ScalePartitionScheme(ref_scale=20, boundaries=(100.0, 400.0))


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

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            resolve_scheme("imagenet")


class TestFitPredict:
    def test_predict_before_fit_raises(self, tmp_path):
        """A model comes from `train` or from a checkpoint; a checkpoint that
        is not there is an error naming it."""
        with pytest.raises(CheckpointError, match="det.san"):
            load_checkpoint(tmp_path / "det.san")

    def test_fit_returns_self_and_sets_state(self, tiny_dataset):
        result = train(tiny_dataset, tiny_config())
        assert result.model.config == tiny_config()
        assert len(result.log_rows) == 3

    def test_predict_yields_detections(self, tiny_dataset):
        model = tiny_model(tiny_dataset, iterations=1)  # one step leaves foreground scores above DETECT_SCORE_THRESH
        img, anns = tiny_dataset[0]
        dets = detect(model, img, proposals_of(anns))
        assert dets
        for d in dets:
            assert d.image_id == img.id

    def test_score_in_unit_interval(self, tiny_dataset):
        ap, _ = evaluate_detector(tiny_model(tiny_dataset), tiny_dataset[:4], seed=2)
        assert 0.0 <= ap.mean_ap <= 1.0

    def test_refit_replaces_model(self, tiny_dataset):
        """Training again with the seed replays the weights; another seed gives others."""
        first, again, other = (tiny_model(tiny_dataset, seed=s) for s in (2, 2, 3))
        weights = [[p.data for p in m.named_parameters()] for m in (first, again, other)]
        assert all(np.array_equal(a, b) for a, b in zip(weights[0], weights[1]))
        assert not all(np.array_equal(a, b) for a, b in zip(weights[0], weights[2]))

    def test_gaussian_init_without_san_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError, match="gaussian"):
            train(tiny_dataset, tiny_config(san_mode="off", init_mode="gaussian"))

    def test_negative_seed_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            train(tiny_dataset, tiny_config(seed=-1))

    def test_off_mode_trains_without_correction(self, tiny_dataset):
        assert tiny_model(tiny_dataset, san_mode="off").san is None


class TestPersistence:
    def test_save_load_preserves_behavior(self, tiny_dataset, tmp_path):
        model = tiny_model(tiny_dataset, iterations=1)  # one step leaves foreground scores above DETECT_SCORE_THRESH
        save_checkpoint(tmp_path / "det.san", model)
        loaded = load_checkpoint(tmp_path / "det.san")
        img, anns = tiny_dataset[2]
        a = detect(model, img, proposals_of(anns))
        b = detect(loaded, img, proposals_of(anns))
        assert a and len(a) == len(b)
        for da, db in zip(a, b):
            assert da.score == db.score
            assert da.box == db.box

    def test_loaded_detector_reports_configuration(self, tiny_dataset, tmp_path):
        model = tiny_model(tiny_dataset, san_mode="off")
        save_checkpoint(tmp_path / "det.san", model)
        loaded = load_checkpoint(tmp_path / "det.san")
        assert loaded.config.san_mode == "off"
        assert loaded.config.num_classes == model.config.num_classes
        assert loaded.scheme == model.scheme

    def test_loaded_detector_reports_the_model_it_loaded(self, tiny_dataset, tmp_path):
        """The zero-fusion gate survives save -> load -> train on the loaded config."""
        model = tiny_model(tiny_dataset, san_mode="no-loss", init_mode="identity-zero-fusion", iterations=1)
        save_checkpoint(tmp_path / "det.san", model)
        loaded = load_checkpoint(tmp_path / "det.san")
        assert loaded.config.init_mode == "identity-zero-fusion"
        names = [p.name for p in loaded.named_parameters()]
        assert "san.fusion_alpha" in names
        refit = train(tiny_dataset, dataclasses.replace(loaded.config, iterations=1, rois_per_image=10, san_samples=4))
        assert [p.name for p in refit.model.named_parameters()] == names
