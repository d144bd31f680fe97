"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They run the workloads in-process at reduced size (short episodes, a small
test set), plus one real command-line run.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import calibration
import run
import tracer
import workloads
from environment import BENCH_DIR, BLAS_THREAD_VARS, REPO_ROOT, BenchSetupError

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def small(name: str):
    if name == "analyze":
        return workloads.AnalyzeWorkload(num_images=20)
    return workloads.TrainWorkload(name.split("-", 1)[1], episode_steps=6, num_images=8)


def test_benchmark_json_lists_what_the_runs_report():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_reports_every_metric_with_its_unit(name, trace):
    record, result = run.measure(name, 11, 0.01, trace, workload=small(name))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert record["environment"]["trace"] is trace
    assert set(record["environment"]["thread_vars"]) == set(BLAS_THREAD_VARS)
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["autograd.conv2d.calls"] > 0
        san_side = [k for k in metrics if k.startswith(("san.", "training.batched_reference_features"))]
        if name == "train-off":
            assert all(metrics[k] == 0 for k in san_side)
        if name == "train-full":
            assert all(metrics[k] > 0 for k in san_side)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_changes_no_output(name):
    untraced, _ = run.measure(name, 5, 0.01, False, workload=small(name))
    traced, result = run.measure(name, 5, 0.01, True, workload=small(name))
    assert result["correct"], traced["problems"]
    assert traced["outputs"] == untraced["outputs"]


def test_tracer_puts_every_attribute_back():
    import sanlab

    modules = [m for n, m in sys.modules.items() if n == "sanlab" or n.startswith("sanlab.")]
    before = [(m, dict(vars(m))) for m in modules]
    roi_pool, conv2d, forward = sanlab.backbone.roi_pool, sanlab.autograd.conv2d, sanlab.backbone.Backbone.forward
    with tracer.Tracer():
        assert sanlab.training.roi_pool is not roi_pool
        assert sanlab.training.roi_pool.__wrapped__ is roi_pool
        assert sanlab.autograd.conv2d.__wrapped__ is conv2d
        assert sanlab.backbone.Backbone.forward.__wrapped__ is forward
    assert all(vars(m)[k] is v for m, snapshot in before for k, v in snapshot.items())
    assert sanlab.backbone.Backbone.forward is forward


def test_self_time_excludes_children():
    from sanlab import autograd as ag
    from sanlab.autograd import Tensor

    t = tracer.Tracer()
    with t:
        x = Tensor(np.ones((1, 3, 16, 16), dtype=np.float32))
        ag.relu(ag.replicate_pad(x, 1))
        ag.mean_all(x)
    summary = t.summary()
    assert summary["autograd.relu"]["calls"] == 1
    assert summary["autograd.sum_all"]["calls"] == 1 and summary["autograd.scale"]["calls"] == 1
    for row in summary.values():
        assert 0 <= row["self_seconds"] <= row["seconds"]


def test_same_seed_repeats_inputs_and_digests_other_seed_changes_them():
    w = small("train-full")
    a, b, c = w.setup(3), w.setup(3), w.setup(4)
    assert all(np.array_equal(x.pixels.data, y.pixels.data) for (x, _), (y, _) in zip(a, b))
    assert not all(np.array_equal(x.pixels.data, y.pixels.data) for (x, _), (y, _) in zip(a, c))
    first, again, other = w.run_unit(a), w.run_unit(b), w.run_unit(c)
    assert first.outputs == again.outputs
    assert first.outputs["checkpoint_sha256"] != other.outputs["checkpoint_sha256"]

    an = small("analyze")
    one, two = an.run_unit(an.setup(3)), an.run_unit(an.setup(4))
    assert one.outputs == an.run_unit(an.setup(3)).outputs
    assert one.outputs["outputs_sha256"] != two.outputs["outputs_sha256"]


def test_episode_is_the_packages_own_training_run():
    from sanlab import training

    w = small("train-full")
    dataset = w.setup(2)
    unit = w.run_unit(dataset)
    direct = training.train(dataset, w.config(w.episode_steps))
    assert unit.outputs["checkpoint_sha256"] == workloads.checkpoint_digest(direct.model)
    assert len(unit.steps) == len(unit.kernel) == w.episode_steps
    assert all(end > start for start, end in unit.steps)


def test_fixture_is_verified_before_loading(tmp_path, monkeypatch):
    manifest = json.loads(workloads.FIXTURE_MANIFEST.read_text())
    shutil.copy(workloads.FIXTURE_MANIFEST.parent / manifest["file"], tmp_path / manifest["file"])
    manifest["sha256"] = "0" * 64
    (tmp_path / "analyze.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(workloads, "FIXTURE_MANIFEST", tmp_path / "analyze.json")
    with pytest.raises(BenchSetupError, match="sha256"):
        workloads.AnalyzeWorkload(num_images=2).setup(0)


def test_gc_monitor_counts_collections():
    monitor = tracer.GcMonitor()
    with monitor:
        gc.collect()
    assert monitor.collections[2] >= 1 and monitor.pause_seconds > 0
    assert monitor._callback not in gc.callbacks


def test_speed_factors_pool_neighbouring_kernel_times():
    factors = calibration.speed_factors([2e-3] * 30 + [4e-3] * 30)
    assert factors[0] == pytest.approx(0.5) and factors[-1] == pytest.approx(0.25)


def test_command_line_run_prints_record_then_result():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "analyze", "--seed", "11", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert result["correct"] and set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert record["outputs"]["map"] >= workloads.MIN_MAP
    assert record["outputs"]["rmse_reduction"] >= workloads.MIN_RMSE_REDUCTION
    for key in ("eval_image_ms_p50", "eval_image_ms_p90", "rmse_rows_per_s", "map", "rmse_reduction"):
        assert key in record["workload_metrics"]


def test_command_line_fails_without_package_sources(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
