"""The sanlab benchmark.

    python3 perfbench/run.py [--seconds N] [--seed N] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Without ``--workload`` every workload runs in its own process, one after
the other, and a table of their metrics is printed.  With ``--workload``
that workload runs in this process; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, and the line before it is ``{"record": ...}``: the
environment, the checked outputs and every workload-specific figure.

``--trace 0`` measures the end-to-end metrics: set-up time, step-time
percentiles (both rescaled to a reference machine speed, see
calibration.py; the raw wall times are in the record) and peak RSS.  A
step is one training step, or the analysis of one test image.
``--trace 1`` runs the same
loop twice, first untraced and then with spans around every call into the
package (see tracer.py), checks that both runs produced identical outputs,
and reports per-layer metrics per step plus the tracing overhead.

The training set is generated from ``--seed`` and the test set from
``--seed + 1``, so the default seed 11 gives the acceptance sets.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import environment

WORKLOAD_NAMES = ("train-full", "train-off", "analyze")
DEFAULT_SEED = 11
DEFAULT_SECONDS = 20
SETUPS_PER_UNIT = 3

OPS = ("conv2d", "replicate_pad", "bilinear_resize", "relu", "global_avg_pool", "concat0", "take0", "add", "smooth_l1")

# (span name, field) reported per step from the traced loop
SPAN_METRICS: tuple[tuple[str, str], ...] = (
    ("training.build_step_batch", "self_ms"),
    ("data.make_proposals", "ms"),
    ("losses.assign_roi_labels", "ms"),
    ("training.forward_roi_features", "ms"),
    ("training.compute_step_losses", "ms"),
    ("training.batched_reference_features", "ms"),
    ("backbone.Backbone.forward", "ms"),
    ("backbone.Backbone.forward", "calls"),
    ("backbone.roi_pool", "self_ms"),
    ("backbone.roi_pool", "calls"),
    ("backbone.cam_scale_sweep", "ms"),
    ("san.san_forward", "ms"),
    ("san.san_forward", "calls"),
    ("san.san_loss_branch", "ms"),
    ("san.san_loss_branch", "calls"),
    ("san.fuse", "ms"),
    ("losses.DetectionHead.forward", "ms"),
    ("losses.multi_task_loss", "self_ms"),
    ("autograd.Tensor.backward", "ms"),
    *((f"autograd.{op}", field) for op in OPS for field in ("self_ms", "calls")),
    ("autograd.sgd_step", "ms"),
    ("training.detect", "self_ms"),
    ("training.predict_rois", "ms"),
    ("training.nms", "ms"),
    ("training.rmse_report", "ms"),
    ("training.rendered_roi_feature", "ms"),
    ("training.reference_feature_for_roi", "ms"),
    ("analysis.evaluate_ap", "ms"),
    ("analysis.rmse_with_san", "ms"),
    ("analysis.rmse_without_san", "ms"),
)
COUNTER_METRICS = (
    ("backbone.Backbone.forward.input_pixels", "pixels/step"),
    ("training.batched_reference_features.patches", "patches/step"),
)
# spans of set-up, reported per set-up of the traced loop
SETUP_SPANS = ("data.generate_dataset", "training.load_checkpoint")
FIELD_UNITS = {"ms": "ms/step", "self_ms": "ms/step", "calls": "calls/step"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.{field}": FIELD_UNITS[field] for name, field in SPAN_METRICS}
    units.update(COUNTER_METRICS)
    units.update({f"{name}.ms": "ms" for name in SETUP_SPANS})
    units.update({f"gc.collections.gen{g}": "count/step" for g in range(3)})
    units["gc.pause_ms"] = "ms/step"
    units["trace.untraced_step_ms"] = "ms/step"
    units["trace.traced_step_ms"] = "ms/step"
    units["trace.overhead_ms"] = "ms/step"
    units["trace.unaccounted_ms"] = "ms/step"
    return units


END_TO_END_UNITS = {"setup_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms", "peak_rss_mb": "MiB"}


@dataclass
class Loop:
    """What one closed loop did: its units, set-ups and failures."""

    units: list = field(default_factory=list)  # workloads.Unit
    setups: list[tuple[float, float]] = field(default_factory=list)  # (wall seconds, kernel seconds)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return sum(len(u.steps) for u in self.units)

    def mean_step_ms(self) -> float:
        """Mean step time, rescaled to the calibration speed."""
        import workloads

        rescaled, _ = workloads.step_report(self.units)
        return 1e3 * statistics.fmean(rescaled)


def run_loop(workload, seed: int, seconds: float, reference: dict | None = None, around_unit=nullcontext) -> Loop:
    """Set up and run units back to back until ``seconds`` are about used up.

    Before every unit the workload is set up SETUPS_PER_UNIT times, each
    timed after a calibration sample; the unit runs on the last.  A
    unit is started only while at least half of it fits in the time left,
    and at least one always runs.  Every unit's outputs must pass the
    workload's checks and equal ``reference`` (default: the first unit's).
    ``around_unit`` gives a context manager entered around each unit only.
    """
    import calibration
    from sanlab.errors import SanlabError

    loop = Loop()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_UNIT):
            state = None
            kernel = calibration.kernel_median()
            s0 = time.perf_counter()
            state = workload.setup(seed)
            loop.setups.append((time.perf_counter() - s0, kernel))
        try:
            with around_unit():
                unit = workload.run_unit(state)
        except SanlabError as exc:
            loop.problems.append(f"{type(exc).__name__}: {exc}")
            loop.attempted += 1
            loop.failed += 1
            return loop
        finally:
            state = None
        loop.attempted += len(unit.steps)
        expected = reference if reference is not None else (loop.units[0].outputs if loop.units else unit.outputs)
        wrong = workload.problems(unit.outputs)
        if unit.outputs != expected:
            wrong.append(f"outputs {unit.outputs} differ from {expected}")
        if wrong:
            loop.failed += len(unit.steps)
            loop.problems.extend(wrong)
        loop.units.append(unit)
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return loop


def measure(name: str, seed: int, seconds: float, trace: bool, workload=None) -> tuple[dict, dict]:
    """Run one workload in this process; returns (record, result).

    Untraced, the loop yields the end-to-end metrics.  Traced, an untraced
    loop (which also counts GC work) is followed by a traced one whose
    outputs must equal the untraced loop's; the metrics are per layer.
    """
    import calibration
    import workloads
    from tracer import GcMonitor, Tracer

    workload = workload or workloads.WORKLOADS[name]()
    workload.warm_up(workload.setup(seed))
    if trace:
        gc_monitor = GcMonitor()
        untraced = run_loop(workload, seed, seconds / 2, around_unit=lambda: gc_monitor)
        with Tracer() as span_tracer:
            traced = run_loop(workload, seed, seconds / 2, untraced.units[0].outputs if untraced.units else None)
        loops = (untraced, traced)
        metrics = trace_metrics(untraced, traced, gc_monitor, span_tracer)
        units_of = per_layer_units()
    else:
        untraced = run_loop(workload, seed, seconds)
        loops = (untraced,)
        metrics = {
            "setup_s": statistics.median(s * calibration.REFERENCE_SECONDS / k for s, k in untraced.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = END_TO_END_UNITS

    report = workload.report(untraced.units) if untraced.units else {}
    if not trace:
        if report:
            metrics["step_ms_p50"] = report["step_ms_p50"][0]
            metrics["step_ms_p90"] = report["step_ms_p90"][0]
        report["setup_s"] = (metrics["setup_s"], "s")
        report["wall_setup_s"] = (statistics.median(s for s, _ in untraced.setups), "s")
        report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MiB")
    failed = sum(loop.failed for loop in loops)
    problems = [p for loop in loops for p in loop.problems]
    record = {
        "environment": environment.environment_record(name, seed, trace),
        "outputs": untraced.units[0].outputs if untraced.units else None,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "units": [len(loop.units) for loop in loops],
        "steps": [loop.steps for loop in loops],
        "setups": [len(loop.setups) for loop in loops],
        "problems": problems,
    }
    result = {
        "correct": all(loop.units for loop in loops) and failed == 0 and not problems,
        "attempted": max(sum(loop.attempted for loop in loops), 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units_of.items() if k in metrics},
    }
    return record, result


def trace_metrics(untraced: Loop, traced: Loop, gc_monitor, span_tracer) -> dict:
    """Per-layer metrics per step of the traced loop; GC per untraced step."""
    steps = max(traced.steps, 1)
    spans = span_tracer.summary()
    out: dict[str, float] = {}
    for name, field_name in SPAN_METRICS:
        row = spans.get(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        value = {"ms": row["seconds"] * 1e3, "self_ms": row["self_seconds"] * 1e3, "calls": row["calls"]}[field_name]
        out[f"{name}.{field_name}"] = value / steps
    for name, _ in COUNTER_METRICS:
        out[name] = span_tracer.counters.get(name, 0) / steps
    for name in SETUP_SPANS:
        out[f"{name}.ms"] = spans.get(name, {"seconds": 0.0})["seconds"] * 1e3 / max(len(traced.setups), 1)
    untraced_steps = max(untraced.steps, 1)
    for g in range(3):
        out[f"gc.collections.gen{g}"] = gc_monitor.collections[g] / untraced_steps
    out["gc.pause_ms"] = gc_monitor.pause_seconds * 1e3 / untraced_steps
    if untraced.units and traced.units:
        out["trace.untraced_step_ms"] = untraced.mean_step_ms()
        out["trace.traced_step_ms"] = traced.mean_step_ms()
        out["trace.overhead_ms"] = out["trace.traced_step_ms"] - out["trace.untraced_step_ms"]
    intervals = [s for u in traced.units for s in u.steps]
    wall = sum(end - start for start, end in intervals)
    out["trace.unaccounted_ms"] = (wall - span_tracer.root_seconds_within(intervals)) * 1e3 / steps
    return out


def run_workload(args) -> int:
    try:
        environment.prepare_process()
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except environment.BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        print(f"== {name}  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        shown = {**record["workload_metrics"], **result["metrics"]}
        for key, m in shown.items():
            print(f"  {key:48s} {m['value']:14.4f} {m['unit']}")
        for key, value in (record["outputs"] or {}).items():
            print(f"  {key:48s} {value}")
        for problem in record["problems"]:
            print(f"  problem: {problem}")
        if not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload is None else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
