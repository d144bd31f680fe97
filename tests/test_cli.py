"""Command-line surface: subcommands, config layering, determinism, errors."""

import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sanlab
from sanlab import cli
from sanlab.analysis import compute_cam
from sanlab.cli import SETTINGS, TRAIN_FIELDS, main, parse_config_file
from sanlab.data import DatasetConfig, load_dataset
from sanlab.san import ScalePartitionScheme
from sanlab.training import (
    TrainingConfig,
    evaluate_detector,
    load_checkpoint,
    read_checkpoint_entries,
    save_checkpoint,
    train,
    write_checkpoint_entries,
)


def tree_digest(root: Path) -> dict:
    """Relative path -> sha256 of every file under root."""
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def relabelled_copy(data: Path, dest: Path, class_id: int) -> Path:
    """A copy of a data split whose first object has class ``class_id``."""
    shutil.copytree(data, dest)
    manifest = dest / "manifest.txt"
    manifest.write_text(re.sub(r"^\d+ ", f"{class_id} ", manifest.read_text(), count=1, flags=re.M))
    return dest


def moved_box_copy(data: Path, dest: Path, x2: str) -> Path:
    """A copy of a data split whose first object's x2 coordinate reads ``x2``."""
    shutil.copytree(data, dest)
    manifest = dest / "manifest.txt"
    manifest.write_text(re.sub(r"^(\d+ \S+ \S+) \S+", rf"\g<1> {x2}", manifest.read_text(), count=1, flags=re.M))
    return dest


# a class id the model cannot have -> what the error names
BAD_CLASS_IDS = {0: ("manifest.txt", "0 is the background label"), 7: ("class 7", "num_classes=3")}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One shared gen-data + short train for the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out-dir", str(data), "--num-images", "8", "--seed", "4"]) == 0
    assert (
        main(
            [
                "train",
                "--out-dir", str(run),
                "--data-dir", str(data),
                "--iterations", "4",
                "--seed", "4",
                "--rois-per-image", "10",
                "--san-samples", "4",
            ]
        )
        == 0
    )
    return data, run


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 9\nsan_loss_weight = 0.5  # trailing\n\niterations=12\n")
        assert parse_config_file(cfg) == {"seed": 9, "san_loss_weight": 0.5, "iterations": 12}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("optimizer = adam\n")
        with pytest.raises(Exception, match="unknown configuration key"):
            parse_config_file(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = abc\n")
        with pytest.raises(Exception, match="bad value"):
            parse_config_file(cfg)

    def test_cli_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("num_images = 3\nseed = 5\n")
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out-dir", str(out), "--num-images", "2"]) == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["config"]["num_images"] == 2
        assert meta["config"]["seed"] == 5

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SANLAB_SEED", "77")
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "1"]) == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["config"]["seed"] == 77

    def test_non_integer_env_seed_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SANLAB_SEED", "abc")
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "1"]) == 2
        assert "error: bad SANLAB_SEED: 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_env_seed_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SANLAB_SEED", "-1")
        assert main(["gen-data", "--out-dir", str(tmp_path / "data"), "--num-images", "1"]) == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SANLAB_SEED", "77")
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "1", "--seed", "3"]) == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["config"]["seed"] == 3

    @pytest.mark.parametrize("command", ["cam", "rmse"])
    def test_commands_without_a_seed_record_none(self, small_run, tmp_path, monkeypatch, command):
        """cam and rmse draw no random number: SANLAB_SEED sets nothing for
        them, and a config file's seed is echoed as other commands' keys are."""
        data, run = small_run
        inputs = {"cam": ["--image", str(sorted(data.glob("*.ppm"))[0]), "--scales", "48"], "rmse": ["--data-dir", str(data)]}
        monkeypatch.setenv("SANLAB_SEED", "77")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        metas = {}
        for tag, extra in {"env": [], "file": ["--config", str(cfg)]}.items():
            out = tmp_path / tag
            assert main([command, "--out-dir", str(out), "--checkpoint", str(run / "checkpoint.san"), *inputs[command], *extra]) == 0
            metas[tag] = json.loads((out / "run-meta.json").read_text())["config"]
        assert "seed" not in metas["env"]
        assert metas["file"]["seed"] == 5


class TestSettingsTables:
    # flags outside the settings tables: the path arguments
    OTHER_FLAGS = {
        "gen-data": [],
        "train": ["--data-dir"],
        "eval": ["--data-dir", "--checkpoint"],
        "cam": ["--checkpoint", "--image"],
        "rmse": ["--data-dir", "--checkpoint"],
    }

    @pytest.mark.parametrize("command", sorted(OTHER_FLAGS))
    def test_each_setting_is_one_flag_and_one_config_key(self, command, capsys, tmp_path):
        table = SETTINGS[command]
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        settings = {"--" + key.replace("_", "-") for key in table}
        assert flags == settings | {"--help", "--config", "--out-dir", *self.OTHER_FLAGS[command]}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {1 if default is None else default}\n" for key, default in table.items()))
        assert set(parse_config_file(cfg)) == set(table)

    def test_gen_data_defaults_are_the_dataset_config_defaults(self):
        assert SETTINGS["gen-data"]["num_images"] == 200
        cfg = DatasetConfig(num_images=200)
        want = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        want["scale_min"], want["scale_max"] = want.pop("scale_range")
        assert SETTINGS["gen-data"] == want

    def test_eval_and_cam_defaults_are_the_library_defaults(self):
        """eval sets only evaluate_detector's seed; its proposal counts are constants."""
        assert list(inspect.signature(evaluate_detector).parameters) == ["model", "dataset", "seed"]
        assert SETTINGS["eval"] == {"seed": 0}
        assert SETTINGS["cam"]["cam_k"] == inspect.signature(compute_cam).parameters["k"].default

    # settings that became module constants: training's recipe and eval's proposal counts
    REMOVED = {
        "train": ["base_lr", "lr_decay_step", "lr_decay_factor", "momentum", "weight_decay",
                  "pos_fraction", "pos_iou", "n_pos_jitter", "n_neg", "gaussian_std"],
        "eval": ["n_pos_jitter", "n_neg"],
    }

    @pytest.mark.parametrize("command, key", [(c, k) for c, keys in REMOVED.items() for k in keys])
    def test_a_removed_setting_is_a_usage_error(self, small_run, tmp_path, capsys, command, key):
        data, run = small_run
        paths = {"train": ["--data-dir", str(data)], "eval": ["--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san")]}
        out = tmp_path / "x"
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([command, "--out-dir", str(out), *paths[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", REMOVED["train"])
    def test_a_removed_setting_in_a_config_file_is_an_error(self, small_run, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0.1\n")
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--data-dir", str(small_run[0])]) == 2
        assert f"error: {cfg}:1: unknown configuration key {key!r}" in capsys.readouterr().err
        assert not out.exists()


class TestGenData:
    def test_zero_images_empty_manifest_exit_zero(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "0"]) == 0
        assert (out / "manifest.txt").read_text() == ""
        stats = (out / "scale_stats.csv").read_text().splitlines()
        assert stats == ["class,median_area,std_area"]

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        assert main(["gen-data", "--out-dir", str(tmp_path / "data"), "--num-images", "1", "--seed", "-1"]) == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_rerun_same_seed_byte_identical_tree(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--out-dir", str(out), "--num-images", "5", "--seed", "8"]) == 0
        da, db = tree_digest(a), tree_digest(b)
        del da["run-meta.json"], db["run-meta.json"]  # echoes the out_dir path
        assert da == db

    def test_statistics_row_per_class(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "12", "--seed", "1"]) == 0
        lines = (out / "scale_stats.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_scale_range_with_equal_ends_writes_boxes_of_that_side(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "4", "--scale-min", "20", "--scale-max", "20"]) == 0
        boxes = [line.split()[1:] for line in (out / "manifest.txt").read_text().splitlines() if len(line.split()) == 5]
        assert boxes and all(float(x2) - float(x1) == 20 == float(y2) - float(y1) for x1, y1, x2, y2 in boxes)

    def test_scale_range_below_the_minimum_object_side_is_an_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["gen-data", "--out-dir", str(out), "--num-images", "3", "--scale-min", "1", "--scale-max", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: scale_range (1.0, 2.0) must lie within [4, 96]")
        assert not out.exists()

    def test_image_size_below_the_minimum_is_an_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["gen-data", "--out-dir", str(out), "--image-size", "8", "--scale-min", "4", "--scale-max", "8"])
        assert rc == 2
        assert "error: image_size must be at least 16, got 8" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_outputs_and_log_rows(self, small_run):
        _, run = small_run
        assert (run / "checkpoint.san").exists()
        log = (run / "train_log.csv").read_text().splitlines()
        assert log[0] == "iter,l_cls,l_reg,l_san,lr"
        assert len(log) == 1 + 4
        meta = json.loads((run / "run-meta.json").read_text())
        assert meta["command"] == "train"

    SAMPLING = {"images_per_step": 3, "rois_per_image": 10, "san_samples": 4}
    BASE = {"iterations": 3, "seed": 4}

    def test_sampling_flags_match_library_training(self, small_run, tmp_path):
        data, _ = small_run
        out = tmp_path / "flags"
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in {**self.BASE, **self.SAMPLING}.items()]
        assert main(["train", "--out-dir", str(out), "--data-dir", str(data)] + flags) == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert {k: meta["config"][k] for k in self.SAMPLING} == self.SAMPLING
        result = train(load_dataset(data), TrainingConfig(**self.BASE, **self.SAMPLING))
        save_checkpoint(tmp_path / "lib.san", result.model)
        assert (out / "checkpoint.san").read_bytes() == (tmp_path / "lib.san").read_bytes()

    def test_sampling_config_keys_match_flags(self, small_run, tmp_path):
        data, _ = small_run
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**self.BASE, **self.SAMPLING}.items()))
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in {**self.BASE, **self.SAMPLING}.items()]
        outs = {"file": ["--config", str(cfg)], "flags": flags}
        for tag, extra in outs.items():
            assert main(["train", "--out-dir", str(tmp_path / tag), "--data-dir", str(data)] + extra) == 0
        metas = [json.loads((tmp_path / tag / "run-meta.json").read_text())["config"] for tag in outs]
        assert metas[0] == metas[1]
        assert {k: metas[0][k] for k in self.SAMPLING} == self.SAMPLING
        assert (tmp_path / "file" / "checkpoint.san").read_bytes() == (tmp_path / "flags" / "checkpoint.san").read_bytes()

    def test_one_flag_per_training_field(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        help_text = capsys.readouterr().out
        for name in TRAIN_FIELDS:
            assert f"--{name.replace('_', '-')}" in help_text

    def test_scheme_preset_with_overrides_reaches_the_checkpoint(self, small_run, tmp_path):
        out = tmp_path / "coco"
        flags = ["--scheme", "coco", "--ref-scale", "32", "--boundaries", "100,400", "--iterations", "1",
                 "--rois-per-image", "10", "--san-samples", "4"]
        assert main(["train", "--out-dir", str(out), "--data-dir", str(small_run[0]), *flags]) == 0
        assert load_checkpoint(out / "checkpoint.san").scheme == ScalePartitionScheme(ref_scale=32, boundaries=(100.0, 400.0))

    def test_unknown_scheme_preset_in_a_config_file_is_an_error(self, small_run, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = imagenet\n")
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out), "--data-dir", str(small_run[0])]) == 2
        assert "unknown scheme preset 'imagenet'" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_switch_combination_rejected(self, small_run, tmp_path):
        data, _ = small_run
        rc = main(
            [
                "train",
                "--out-dir", str(tmp_path / "x"),
                "--data-dir", str(data),
                "--san", "off",
                "--init", "gaussian",
                "--iterations", "1",
            ]
        )
        assert rc == 2

    def test_zero_fusion_init_without_san_rejected(self, small_run, tmp_path, capsys):
        """Without the correction module there is no fusion gate to initialize."""
        data, _ = small_run
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--san", "off", "--init", "identity-zero-fusion",
                   "--iterations", "1"])
        assert rc == 2
        assert re.search(r"^error: init_mode 'identity-zero-fusion' has no effect", capsys.readouterr().err, re.M)
        assert not out.exists()

    def test_diverged_training_is_an_error(self, small_run, tmp_path):
        """A non-finite loss ends the run with exit 2 and an error line (in a
        subprocess: divergence overflows, and the suite makes that an error)."""
        data, _ = small_run
        # a weight beyond float32's range: a finite one stops on the blow-up check first
        argv = ["train", "--out-dir", str(tmp_path / "x"), "--data-dir", str(data), "--san-loss-weight", "1e39", "--iterations", "20",
                "--rois-per-image", "10", "--san-samples", "4"]
        env = dict(os.environ, PYTHONPATH=str(Path(sanlab.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-m", "sanlab", *argv], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2
        assert re.search(r"^error: non-finite loss at iteration", proc.stderr, re.M), proc.stderr
        assert not (tmp_path / "x" / "checkpoint.san").exists()

    def test_finite_blow_up_is_an_error(self, tmp_path, capsys):
        """A loss that grows by orders of magnitude but stays finite ends the
        run with exit 2, an error line saying it blew up, and no checkpoint."""
        data, out = tmp_path / "data", tmp_path / "x"
        assert main(["gen-data", "--out-dir", str(data), "--num-images", "12", "--seed", "3"]) == 0
        capsys.readouterr()
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--iterations", "20", "--rois-per-image", "12",
                   "--san-samples", "6", "--san-loss-weight", "1e6", "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.search(r"^error: loss blew up .* at iteration 1: ", err, re.M) and "non-finite" not in err, err
        assert not (out / "checkpoint.san").exists()

    @pytest.mark.parametrize("san", ["off", "no-loss"])
    def test_max_pool_without_the_scale_aware_loss_rejected(self, small_run, tmp_path, capsys, san):
        data, _ = small_run
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--san", san, "--san-pool", "max", "--iterations", "1"])
        assert rc == 2
        assert re.search(r"^error: san_pool 'max' has no effect", capsys.readouterr().err, re.M)
        assert not (out / "checkpoint.san").exists()

    @pytest.mark.parametrize("san", ["off", "no-loss", "full"])
    def test_ref_scale_below_the_backbone_stride_rejected(self, small_run, tmp_path, capsys, san):
        """Such a checkpoint used to be written, and rmse and cam --normalize-rois then failed on it."""
        data, _ = small_run
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--san", san, "--ref-scale", "4", "--iterations", "1"])
        assert rc == 2
        assert re.search(r"^error: ref_scale 4 is below the backbone stride 8$", capsys.readouterr().err, re.M)
        assert not out.exists()

    def test_non_finite_learning_rate_rejected(self, small_run, tmp_path, capsys):
        """A non-finite float setting ends the run before it trains."""
        data, _ = small_run
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--san-loss-weight", "nan", "--iterations", "1"])
        assert rc == 2
        assert "san_loss_weight must be finite" in capsys.readouterr().err
        assert not (out / "checkpoint.san").exists()

    @pytest.mark.parametrize("text", ["a,b", "1,,2"])
    def test_unparsable_boundaries_rejected(self, small_run, tmp_path, capsys, text):
        data, _ = small_run
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--boundaries", text, "--iterations", "1"])
        assert rc == 2
        assert f"error: bad boundaries: {text!r}" in capsys.readouterr().err
        assert not (out / "checkpoint.san").exists()

    def test_negative_seed_is_an_error(self, small_run, tmp_path, capsys):
        data, _ = small_run
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--seed", "-1", "--iterations", "1"])
        assert rc == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (out / "checkpoint.san").exists()

    @pytest.mark.parametrize("class_id", BAD_CLASS_IDS, ids=["background", "above-num-classes"])
    def test_class_id_the_model_cannot_have_is_an_error(self, small_run, tmp_path, capsys, class_id):
        data = relabelled_copy(small_run[0], tmp_path / "data", class_id)
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--iterations", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and all(part in err for part in BAD_CLASS_IDS[class_id]), err
        assert not (out / "checkpoint.san").exists()

    def test_zero_fusion_equivalence_at_zero_iterations(self, small_run, tmp_path):
        """--san off and --san no-loss --init identity-zero-fusion agree before training."""
        data, _ = small_run
        outs = {}
        for tag, flags in {
            "off": ["--san", "off"],
            "zf": ["--san", "no-loss", "--init", "identity-zero-fusion"],
        }.items():
            out = tmp_path / tag
            rc = main(
                ["train", "--out-dir", str(out), "--data-dir", str(data), "--iterations", "0", "--seed", "6"]
                + flags
            )
            assert rc == 0
            ev = tmp_path / f"eval_{tag}"
            rc = main(
                ["eval", "--out-dir", str(ev), "--data-dir", str(data), "--checkpoint", str(out / "checkpoint.san"), "--seed", "1"]
            )
            assert rc == 0
            outs[tag] = json.loads((ev / "metrics.json").read_text())
        assert outs["off"] == outs["zf"]


class TestEval:
    def test_metrics_schema(self, small_run, tmp_path):
        data, run = small_run
        out = tmp_path / "eval"
        rc = main(["eval", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san")])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"map", "per_class", "num_detections"}
        assert len(metrics["per_class"]) == 3

    def test_empty_split_errors(self, small_run, tmp_path):
        _, run = small_run
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.txt").write_text("")
        rc = main(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(empty), "--checkpoint", str(run / "checkpoint.san")])
        assert rc == 2

    def test_negative_seed_is_an_error(self, small_run, tmp_path, capsys):
        data, run = small_run
        out = tmp_path / "e"
        rc = main(["eval", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san"), "--seed", "-3"])
        assert rc == 2
        assert "error: seed must be a non-negative integer, got -3" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("class_id", BAD_CLASS_IDS, ids=["background", "above-num-classes"])
    def test_class_id_the_model_cannot_have_is_an_error(self, small_run, tmp_path, capsys, class_id):
        data = relabelled_copy(small_run[0], tmp_path / "data", class_id)
        out = tmp_path / "e"
        rc = main(["eval", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(small_run[1] / "checkpoint.san")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and all(part in err for part in BAD_CLASS_IDS[class_id]), err
        assert not (out / "metrics.json").exists()

    def test_bad_checkpoint_errors(self, small_run, tmp_path):
        data, _ = small_run
        bad = tmp_path / "bad.san"
        bad.write_bytes(b"GARBAGE!")
        rc = main(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(data), "--checkpoint", str(bad)])
        assert rc == 2

    def test_non_finite_checkpoint_entry_errors(self, small_run, tmp_path, capsys):
        """A NaN parameter is an error naming its entry, not a failure deep in detection."""
        data, run = small_run
        entries = read_checkpoint_entries(run / "checkpoint.san")
        entries["head.reg.b"][0] = np.nan
        write_checkpoint_entries(tmp_path / "nan.san", list(entries.items()))
        rc = main(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(data), "--checkpoint", str(tmp_path / "nan.san")])
        assert rc == 2
        assert re.search(r"^error: checkpoint entry head\.reg\.b holds a non-finite value$", capsys.readouterr().err, re.M)
        assert not (tmp_path / "e").exists()

    @staticmethod
    def _eval_mangled(small_run, tmp_path, capsys, mangle) -> str:
        """Copy the data split, let `mangle(dir, first_image)` break it, run
        eval, and return its stderr; eval must exit 2 without a traceback."""
        data, run = small_run
        broken = tmp_path / "broken"
        shutil.copytree(data, broken)
        mangle(broken, sorted(broken.glob("*.ppm"))[0])
        capsys.readouterr()
        rc = main(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(broken), "--checkpoint", str(run / "checkpoint.san")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        return err

    def test_truncated_ppm_errors(self, small_run, tmp_path, capsys):
        def mangle(root, img):
            img.write_bytes(img.read_bytes()[:-10])

        assert "truncated" in self._eval_mangled(small_run, tmp_path, capsys, mangle)

    def test_non_integer_ppm_header_errors(self, small_run, tmp_path, capsys):
        def mangle(root, img):
            img.write_bytes(img.read_bytes().replace(b"P6\n96 96\n", b"P6\n96 9x\n", 1))

        assert "header" in self._eval_mangled(small_run, tmp_path, capsys, mangle)

    def test_short_manifest_line_errors(self, small_run, tmp_path, capsys):
        def mangle(root, img):
            manifest = root / "manifest.txt"
            manifest.write_text(manifest.read_text().replace(f"{img.name}\n", f"{img.name}\n1 2 3\n", 1))

        assert "1 2 3" in self._eval_mangled(small_run, tmp_path, capsys, mangle)

    def test_unexpected_image_name_errors(self, small_run, tmp_path, capsys):
        def mangle(root, img):
            manifest = root / "manifest.txt"
            img.rename(root / "picture.ppm")
            manifest.write_text(manifest.read_text().replace(img.name, "picture.ppm", 1))

        assert "picture.ppm" in self._eval_mangled(small_run, tmp_path, capsys, mangle)

    def test_log_size_offset_past_exp_clamps_every_box_to_its_image(self, small_run, tmp_path, monkeypatch):
        """A finite log-size offset above about 709.78 used to make `math.exp`
        raise `OverflowError`, and eval ended in a traceback.  It decodes as
        an infinite side, so every detection box is the whole image."""
        data, run = small_run
        model = load_checkpoint(run / "checkpoint.san")
        model.head.reg_b.data[:] = 1000.0
        save_checkpoint(tmp_path / "wide.san", model)
        found = []

        def recording(*args):
            ap, detections = evaluate_detector(*args)
            found.extend(detections)
            return ap, detections

        monkeypatch.setattr(cli, "evaluate_detector", recording)
        rc = main(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(data), "--checkpoint", str(tmp_path / "wide.san")])
        assert rc == 0 and found
        sides = {img.id: (img.width, img.height) for img, _ in load_dataset(data)}
        assert {(d.box.x1, d.box.y1, d.box.x2, d.box.y2) == (0.0, 0.0, *sides[d.image_id]) for d in found} == {True}


class TestCam:
    def test_single_scale_single_column(self, small_run, tmp_path):
        data, run = small_run
        img = sorted(Path(data).glob("*.ppm"))[0]
        out = tmp_path / "cam"
        rc = main(
            ["cam", "--out-dir", str(out), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img), "--scales", "48"]
        )
        assert rc == 0
        header = (out / "cam.csv").read_text().splitlines()[0]
        assert header == "channel,48"

    def test_outputs_and_stability_recorded(self, small_run, tmp_path):
        data, run = small_run
        img = sorted(Path(data).glob("*.ppm"))[0]
        out = tmp_path / "cam"
        rc = main(["cam", "--out-dir", str(out), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img)])
        assert rc == 0
        assert (out / "cam.pgm").read_bytes().startswith(b"P5\n")
        meta = json.loads((out / "run-meta.json").read_text())
        assert 0.0 <= meta["stability"] <= 1.0

    def test_invalid_scale_list(self, small_run, tmp_path):
        data, run = small_run
        img = sorted(Path(data).glob("*.ppm"))[0]
        rc = main(
            ["cam", "--out-dir", str(tmp_path / "c"), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img), "--scales", "a,b"]
        )
        assert rc == 2

    def test_all_scales_too_small(self, small_run, tmp_path):
        data, run = small_run
        img = sorted(Path(data).glob("*.ppm"))[0]
        rc = main(
            ["cam", "--out-dir", str(tmp_path / "c"), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img), "--scales", "2,4"]
        )
        assert rc == 2

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_ref_scale_is_an_error(self, small_run, tmp_path, capsys, value):
        """cam normalizes to the checkpoint's reference side and takes no
        --ref-scale, so any value, non-positive ones included, is a usage error."""
        data, run = small_run
        img = sorted(Path(data).glob("*.ppm"))[0]
        out = tmp_path / "c"
        with pytest.raises(SystemExit) as exc:
            main(
                ["cam", "--out-dir", str(out), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img),
                 "--normalize-rois", "--ref-scale", value]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --ref-scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, side", [(["--normalize-rois"], 48), ([], None)])
    def test_normalized_run_records_its_reference_side(self, small_run, tmp_path, flags, side):
        """With --normalize-rois the sweep normalizes to the checkpoint's
        reference side (the toy scheme's 48), and run-meta says so."""
        data, run = small_run
        img = sorted(Path(data).glob("*.ppm"))[0]
        out = tmp_path / "c"
        rc = main(["cam", "--out-dir", str(out), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img), *flags])
        assert rc == 0
        assert json.loads((out / "run-meta.json").read_text())["normalize_to"] == side

    @pytest.mark.parametrize("value", ["-1", "7"])
    def test_config_file_switch_must_be_0_or_1(self, small_run, tmp_path, capsys, value):
        data, run = small_run
        img = sorted(Path(data).glob("*.ppm"))[0]
        cfg = tmp_path / "cam.cfg"
        cfg.write_text(f"scales = 48\nnormalize_rois = {value}\n")
        out = tmp_path / "c"
        rc = main(["cam", "--config", str(cfg), "--out-dir", str(out), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img)])
        assert rc == 2
        assert f"error: bad value for normalize_rois at {cfg}:2: {value!r}" in capsys.readouterr().err
        assert not (out / "cam.csv").exists()
        for bit in (0, 1):
            cfg.write_text(f"normalize_rois = {bit}\n")
            assert parse_config_file(cfg) == {"normalize_rois": bit}

    def test_normalized_constant_image_full_stability(self, small_run, tmp_path):
        from sanlab.backbone import Image
        from sanlab.data import write_ppm

        data, run = small_run
        img_path = tmp_path / "flat.ppm"
        write_ppm(img_path, Image(np.full((1, 3, 48, 48), 128, dtype=np.uint8), id=0))
        out = tmp_path / "cam"
        rc = main(["cam", "--out-dir", str(out), "--checkpoint", str(run / "checkpoint.san"), "--image", str(img_path)])
        assert rc == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["stability"] == pytest.approx(1.0)


class TestRmse:
    def test_report_and_summary(self, small_run, tmp_path):
        data, run = small_run
        out = tmp_path / "rmse"
        rc = main(["rmse", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san")])
        assert rc == 0
        lines = (out / "rmse.csv").read_text().splitlines()
        assert lines[0] == "sample_id,class_id,scale,rmse_without,rmse_with"
        assert len(lines) > 1
        summary = (out / "rmse_summary.csv").read_text().splitlines()
        assert summary[0].startswith("class,")

    def test_identity_checkpoint_rows_equal(self, small_run, tmp_path):
        """An untrained identity-initialized model corrects nothing."""
        data, _ = small_run
        run0 = tmp_path / "run0"
        assert main(["train", "--out-dir", str(run0), "--data-dir", str(data), "--iterations", "0", "--seed", "1"]) == 0
        out = tmp_path / "rmse0"
        assert main(["rmse", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run0 / "checkpoint.san")]) == 0
        for line in (out / "rmse.csv").read_text().splitlines()[1:]:
            _, _, _, wo, wi = line.split(",")
            assert wo == wi

    def test_stored_ref_scale_below_the_backbone_stride_is_an_error(self, small_run, tmp_path, capsys):
        """rmse and cam --normalize-rois name the setting, not the 4x4 input it used to make."""
        data, run = small_run
        entries = read_checkpoint_entries(run / "checkpoint.san")
        entries["meta.ref_scale"] = np.array([4.0], dtype=np.float32)
        ckpt = tmp_path / "small_ref.san"
        write_checkpoint_entries(ckpt, list(entries.items()))
        for argv in (
            ["rmse", "--out-dir", str(tmp_path / "r"), "--data-dir", str(data), "--checkpoint", str(ckpt)],
            ["cam", "--out-dir", str(tmp_path / "c"), "--image", str(data / "img_00000.ppm"), "--checkpoint", str(ckpt), "--normalize-rois"],
        ):
            assert main(argv) == 2
            assert re.search(r"^error: ref_scale 4 is below the backbone stride 8$", capsys.readouterr().err, re.M)
            assert not Path(argv[2]).exists()

    @pytest.mark.parametrize("flag", ["--scheme=voc", "--ref-scale=64", "--boundaries=100"])
    def test_scheme_flags_not_accepted(self, small_run, tmp_path, flag):
        """rmse routes with the checkpoint's scheme; it takes no scheme flags."""
        data, run = small_run
        with pytest.raises(SystemExit):
            main(["rmse", "--out-dir", str(tmp_path / "r"), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san"), flag])

    @pytest.mark.parametrize(
        "scales, message",
        [(",", "error: scale list is empty"), ("4", "error: all scales [4] are below the backbone stride 8")],
    )
    def test_nothing_to_measure_is_an_error(self, small_run, tmp_path, capsys, scales, message):
        """As for cam: no report with only a header, and no run-meta.json."""
        data, run = small_run
        out = tmp_path / "r"
        rc = main(["rmse", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san"), "--scales", scales])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (out / "rmse.csv").exists() and not (out / "run-meta.json").exists()

    def test_scales_below_the_stride_are_recorded_as_skipped(self, small_run, tmp_path):
        """As for cam: run-meta lists the scales measured and those skipped."""
        data, run = small_run
        out = tmp_path / "r"
        rc = main(["rmse", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san"), "--scales", "4,16"])
        assert rc == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["scales"] == [16] and meta["skipped_scales"] == [4]
        rows = (out / "rmse.csv").read_text().splitlines()[1:]
        assert rows and {line.split(",")[2] for line in rows} == {"16"}
        assert meta["rows"] == len(rows)

    def test_default_scales_skip_nothing(self, small_run, tmp_path):
        data, run = small_run
        out = tmp_path / "r"
        assert main(["rmse", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san")]) == 0
        assert json.loads((out / "run-meta.json").read_text())["skipped_scales"] == []

    def test_empty_split_errors(self, small_run, tmp_path, capsys):
        """As for eval: no header-only report, and no run-meta.json."""
        _, run = small_run
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.txt").write_text("")
        out = tmp_path / "r"
        rc = main(["rmse", "--out-dir", str(out), "--data-dir", str(empty), "--checkpoint", str(run / "checkpoint.san")])
        assert rc == 2
        assert f"error: no images found under {empty}" in capsys.readouterr().err
        assert not (out / "rmse.csv").exists() and not (out / "run-meta.json").exists()

    def test_missing_checkpoint_errors(self, small_run, tmp_path):
        data, _ = small_run
        rc = main(["rmse", "--out-dir", str(tmp_path / "r"), "--data-dir", str(data), "--checkpoint", str(tmp_path / "no.san")])
        assert rc == 2

    def test_baseline_checkpoint_rejected(self, small_run, tmp_path):
        data, _ = small_run
        off = tmp_path / "off"
        assert main(["train", "--out-dir", str(off), "--data-dir", str(data), "--iterations", "0", "--san", "off"]) == 0
        rc = main(["rmse", "--out-dir", str(tmp_path / "r"), "--data-dir", str(data), "--checkpoint", str(off / "checkpoint.san")])
        assert rc == 2


class TestInputErrors:
    """Inputs the package cannot read end in exit 2 and an `error:` line
    that names them, not in a traceback."""

    @staticmethod
    def _run(argv, capsys) -> str:
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:"), err
        return err

    @pytest.mark.parametrize("x2", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", ["train", "eval", "rmse"])
    def test_non_finite_box_coordinate_is_an_error(self, small_run, tmp_path, capsys, command, x2):
        data = moved_box_copy(small_run[0], tmp_path / "data", x2)
        out = tmp_path / "x"
        extra = ["--iterations", "1"] if command == "train" else ["--checkpoint", str(small_run[1] / "checkpoint.san")]
        err = self._run([command, "--out-dir", str(out), "--data-dir", str(data), *extra], capsys)
        assert "manifest.txt" in err and "must be finite" in err, err
        assert not (out / "run-meta.json").exists()

    @pytest.mark.parametrize("command", ["eval", "cam"])
    def test_image_below_the_minimum_side_is_an_error_naming_it(self, small_run, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        img = data / "img_00000.ppm"
        img.write_bytes(b"P6\n8 8\n255\n" + bytes(8 * 8 * 3))
        (data / "manifest.txt").write_text("img_00000.ppm\n")
        source = ["--data-dir", str(data)] if command == "eval" else ["--image", str(img)]
        ckpt = str(small_run[1] / "checkpoint.san")
        err = self._run([command, "--out-dir", str(tmp_path / "x"), "--checkpoint", ckpt, *source], capsys)
        assert f"error: {img}: " in err and "at least 16" in err, err

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_unreadable_config_file_is_an_error(self, small_run, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "non-utf8":
            cfg.write_bytes(b"iterations = 1\n# \xff\n")
        err = self._run(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "x"), "--data-dir", str(small_run[0])], capsys)
        assert str(cfg) in err, err

    def test_checkpoint_that_is_a_directory_is_an_error(self, small_run, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.san"
        ckpt.mkdir()
        err = self._run(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(small_run[0]), "--checkpoint", str(ckpt)], capsys)
        assert str(ckpt) in err, err

    def test_manifest_listing_an_image_twice_is_an_error(self, small_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(small_run[0], data)
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text() + "img_00001.ppm\n")
        err = self._run(["eval", "--out-dir", str(tmp_path / "x"), "--data-dir", str(data),
                         "--checkpoint", str(small_run[1] / "checkpoint.san")], capsys)
        assert str(manifest) in err and "'img_00001.ppm' lists image 1 a second time" in err, err

    @pytest.mark.parametrize(
        "box, message",
        [
            ("30 30 20 40", "must have positive extent"),
            ("30 30 30 40", "must have positive extent"),
            ("200 200 230 230", "lies wholly outside its 96x96 image"),
            ("-20 10 0 40", "lies wholly outside its 96x96 image"),
            ("10 10 1e200 1e200", "must be finite, and so must their float64 area"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "eval", "rmse"])
    def test_box_the_image_cannot_hold_is_an_error(self, small_run, tmp_path, capsys, command, box, message):
        """An inverted box used to fail without naming the file, and one
        outside the image was evaluated (exit 0) or failed in the RMSE
        report's cell span.  A box whose area overflows float64 used to
        load, and the RMSE report then died in a `ZeroDivisionError`."""
        data = tmp_path / "data"
        shutil.copytree(small_run[0], data)
        manifest = data / "manifest.txt"
        manifest.write_text(re.sub(r"^(\d+) .*$", rf"\g<1> {box}", manifest.read_text(), count=1, flags=re.M))
        out = tmp_path / "x"
        extra = ["--iterations", "1"] if command == "train" else ["--checkpoint", str(small_run[1] / "checkpoint.san")]
        err = self._run([command, "--out-dir", str(out), "--data-dir", str(data), *extra], capsys)
        assert str(manifest) in err and box in err and message in err, err
        assert not (out / "run-meta.json").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_output_directory_that_cannot_be_made_is_an_error(self, small_run, tmp_path, capsys, command, below):
        """An existing file as --out-dir, or as its parent, used to end in a
        FileExistsError or NotADirectoryError traceback and exit 1."""
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / below if below else blocker
        extra = ["--num-images", "1"] if command == "gen-data" else ["--data-dir", str(small_run[0]), "--iterations", "1"]
        err = self._run([command, "--out-dir", str(out), *extra], capsys)
        assert err.startswith(f"error: cannot write {out}: "), err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("name", ["manifest.txt", "run-meta.json"])
    def test_output_file_that_cannot_be_written_is_an_error(self, tmp_path, capsys, name):
        """A directory where gen-data writes a file used to end in an
        IsADirectoryError traceback and exit 1."""
        out = tmp_path / "d"
        (out / name).mkdir(parents=True)
        err = self._run(["gen-data", "--out-dir", str(out), "--num-images", "1"], capsys)
        assert err.startswith(f"error: cannot write {out / name}: "), err
        assert (out / name).is_dir()

    def test_non_utf8_manifest_is_an_error(self, small_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(small_run[0], data)
        manifest = data / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"# \xff\n")
        err = self._run(["train", "--out-dir", str(tmp_path / "x"), "--data-dir", str(data), "--iterations", "1"], capsys)
        assert str(manifest) in err, err


class TestFailedRunOutDir:
    """A failed run removes the output directories it created that are still
    empty, and leaves one that existed before it as it was."""

    def test_rejected_train_configuration_leaves_no_out_dir(self, small_run, tmp_path):
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(small_run[0]), "--san", "off", "--init", "gaussian"])
        assert rc == 2
        assert not out.exists()

    def test_missing_checkpoint_leaves_no_nested_out_dir(self, small_run, tmp_path):
        out = tmp_path / "a" / "b"
        rc = main(["eval", "--out-dir", str(out), "--data-dir", str(small_run[0]), "--checkpoint", str(tmp_path / "missing.san")])
        assert rc == 2
        assert not (tmp_path / "a").exists()

    def test_existing_out_dir_survives_a_failed_run(self, small_run, tmp_path):
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (kept, kept / "new"):
            rc = main(["eval", "--out-dir", str(out), "--data-dir", str(small_run[0]), "--checkpoint", str(tmp_path / "missing.san")])
            assert rc == 2
            assert kept.is_dir() and not any(kept.iterdir())
