"""Command-line surface: subcommands, config layering, determinism, errors."""

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from sanlab.cli import main, parse_config_file
from sanlab.data import load_dataset
from sanlab.training import TrainingConfig, front_end_fields, save_checkpoint, train


def tree_digest(root: Path) -> dict:
    """Relative path -> sha256 of every file under root."""
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


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
        cfg.write_text("# comment\nseed = 9\nbase_lr = 0.5  # trailing\n\niterations=12\n")
        assert parse_config_file(cfg) == {"seed": 9, "base_lr": 0.5, "iterations": 12}

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

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SANLAB_SEED", "77")
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "1", "--seed", "3"]) == 0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["config"]["seed"] == 3


class TestGenData:
    def test_zero_images_empty_manifest_exit_zero(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(out), "--num-images", "0"]) == 0
        assert (out / "manifest.txt").read_text() == ""
        stats = (out / "scale_stats.csv").read_text().splitlines()
        assert stats == ["class,median_area,std_area"]

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


class TestTrain:
    def test_outputs_and_log_rows(self, small_run):
        _, run = small_run
        assert (run / "checkpoint.san").exists()
        log = (run / "train_log.csv").read_text().splitlines()
        assert log[0] == "iter,l_cls,l_reg,l_san,lr"
        assert len(log) == 1 + 4
        meta = json.loads((run / "run-meta.json").read_text())
        assert meta["command"] == "train"

    SAMPLING = {"pos_iou": 0.4, "pos_fraction": 0.5, "images_per_step": 3, "n_pos_jitter": 4, "n_neg": 12}
    BASE = {"iterations": 3, "seed": 4, "rois_per_image": 10, "san_samples": 4}

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
        for name in front_end_fields():
            assert f"--{name.replace('_', '-')}" in help_text
        assert "--debug-gradient-checks" not in help_text

    def test_debug_hook_is_not_a_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("debug_gradient_checks = 0\n")
        with pytest.raises(Exception, match="unknown configuration key"):
            parse_config_file(cfg)

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

    def test_pos_fraction_above_one_rejected(self, small_run, tmp_path, capsys):
        data, _ = small_run
        rc = main(
            [
                "train",
                "--out-dir", str(tmp_path / "x"),
                "--data-dir", str(data),
                "--pos-fraction", "2",
                "--rois-per-image", "4",
                "--san-samples", "2",
                "--iterations", "1",
            ]
        )
        assert rc == 2
        assert "pos_fraction" in capsys.readouterr().err

    def test_non_finite_learning_rate_rejected(self, small_run, tmp_path, capsys):
        data, _ = small_run
        out = tmp_path / "x"
        rc = main(["train", "--out-dir", str(out), "--data-dir", str(data), "--base-lr", "nan", "--iterations", "1"])
        assert rc == 2
        assert "base_lr must be finite" in capsys.readouterr().err
        assert not (out / "checkpoint.san").exists()

    def test_partitions_flag_must_match_boundaries(self, small_run, tmp_path):
        data, _ = small_run
        rc = main(
            [
                "train",
                "--out-dir", str(tmp_path / "x"),
                "--data-dir", str(data),
                "--partitions", "2",
                "--iterations", "1",
            ]
        )
        assert rc == 2

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

    def test_debug_oracle_gives_perfect_map(self, small_run, tmp_path):
        data, run = small_run
        out = tmp_path / "oracle"
        rc = main(
            ["eval", "--out-dir", str(out), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san"), "--debug-oracle"]
        )
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["map"] == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in metrics["per_class"].values())

    def test_empty_split_errors(self, small_run, tmp_path):
        _, run = small_run
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.txt").write_text("")
        rc = main(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(empty), "--checkpoint", str(run / "checkpoint.san")])
        assert rc == 2

    def test_bad_checkpoint_errors(self, small_run, tmp_path):
        data, _ = small_run
        bad = tmp_path / "bad.san"
        bad.write_bytes(b"GARBAGE!")
        rc = main(["eval", "--out-dir", str(tmp_path / "e"), "--data-dir", str(data), "--checkpoint", str(bad)])
        assert rc == 2

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

    def test_normalized_constant_image_full_stability(self, small_run, tmp_path):
        from sanlab.backbone import Image
        from sanlab.autograd import Tensor
        from sanlab.data import write_ppm

        data, run = small_run
        img_path = tmp_path / "flat.ppm"
        write_ppm(img_path, Image(pixels=Tensor(np.full((1, 3, 48, 48), 0.5, dtype=np.float32)), id=0))
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

    @pytest.mark.parametrize("flag", ["--scheme=voc", "--ref-scale=64", "--boundaries=100"])
    def test_scheme_flags_not_accepted(self, small_run, tmp_path, flag):
        """rmse routes with the checkpoint's scheme; it takes no scheme flags."""
        data, run = small_run
        with pytest.raises(SystemExit):
            main(["rmse", "--out-dir", str(tmp_path / "r"), "--data-dir", str(data), "--checkpoint", str(run / "checkpoint.san"), flag])

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
