"""The benchmark's workloads: set-up, one unit of work, and its checks.

Every workload is a closed loop with one caller: the next training step or
test image starts when the previous one returns.  Work is grouped into
units that always produce the same outputs for the same seed -- a
training episode from a freshly built model, or one analysis pass over
the test set -- so every unit's outputs can be checked against the first.
The calibration kernel (calibration.py) runs just before each step, outside
the step's timed interval.

The package is called only through its module attributes (``training.train``,
``training.detect`` ...), which is where `tracer.Tracer` puts its spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

from sanlab import analysis, backbone, data, training

import calibration
from environment import BENCH_DIR, BenchSetupError

clock = time.perf_counter

# training workloads: the acceptance config (200 images, training seed 7)
TRAIN_IMAGES = 200
TRAINING_SEED = 7
EPISODE_STEPS = 200
LOSS_TAIL_STEPS = 50
WARMUP_STEPS = 10

# analyze workload: evaluate_detector's proposal counts, the CLI's CAM scales.
# Each test image holds one object: the work of a step grows with the
# objects in its image, and a seed's mix of one-, two- and three-object
# images would otherwise move the step-time percentiles by about 20%.
TEST_IMAGES = 200
EVAL_N_POS_JITTER = 8
EVAL_N_NEG = 16
CAM_SCALES = (16, 24, 32, 48, 64, 96)
WARMUP_IMAGES = 3
# thresholds of acceptance criteria 7 (mAP) and 6 (RMSE reduction)
MIN_MAP = 0.6
MIN_RMSE_REDUCTION = 0.15

FIXTURE_MANIFEST = BENCH_DIR / "fixture" / "analyze.json"
WORK_DIR = BENCH_DIR / ".work"


@dataclass
class Unit:
    """One episode or pass.

    ``steps`` holds each step's (start, end); ``kernel`` the calibration
    kernel time measured just before each step; ``timings`` further
    per-step durations (e.g. the `detect` call inside an analysis step).
    """

    steps: list[tuple[float, float]]
    kernel: list[float]
    outputs: dict
    timings: dict[str, list[float]] = field(default_factory=dict)

    @property
    def step_seconds(self) -> list[float]:
        return [end - start for start, end in self.steps]


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def checkpoint_digest(model) -> str:
    """sha256 of the model's checkpoint file as `save_checkpoint` writes it."""
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"checkpoint-{os.getpid()}.san"
    try:
        training.save_checkpoint(path, model)
        return sha256_bytes(path.read_bytes())
    finally:
        path.unlink(missing_ok=True)


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def step_report(units: list[Unit], key: str | None = None) -> tuple[list[float], list[float]]:
    """(rescaled, wall) durations of every step, or of one per-step timing."""
    rescaled, wall = [], []
    for u in units:
        durations = u.step_seconds if key is None else u.timings[key]
        wall += durations
        rescaled += [d * f for d, f in zip(durations, calibration.speed_factors(u.kernel))]
    return rescaled, wall


def latency_metrics(prefix: str, rescaled: list[float], wall: list[float]) -> dict:
    return {
        f"{prefix}_ms_p50": (percentile(rescaled, 50) * 1e3, "ms"),
        f"{prefix}_ms_p90": (percentile(rescaled, 90) * 1e3, "ms"),
        f"wall_{prefix}_ms_p50": (percentile(wall, 50) * 1e3, "ms"),
        f"wall_{prefix}_ms_p90": (percentile(wall, 90) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# training workloads


class TrainWorkload:
    """Training episodes at the acceptance config with one `san` mode.

    An episode is a call of the package's own `train` for EPISODE_STEPS
    steps from a freshly built model.  Step boundaries are stamped at each
    call of `training.build_step_batch`, the first thing a step does.
    """

    def __init__(self, san_mode: str, episode_steps: int = EPISODE_STEPS, num_images: int = TRAIN_IMAGES):
        self.san_mode = san_mode
        self.episode_steps = episode_steps
        self.num_images = num_images

    def config(self, steps: int):
        return training.TrainingConfig(iterations=steps, san_mode=self.san_mode, seed=TRAINING_SEED)

    def setup(self, seed: int):
        dataset = data.generate_dataset(data.DatasetConfig(num_images=self.num_images, seed=seed))
        training.build_model(self.config(self.episode_steps))
        return dataset

    def warm_up(self, dataset) -> None:
        training.train(dataset, self.config(WARMUP_STEPS))

    def run_unit(self, dataset) -> Unit:
        cfg = self.config(self.episode_steps)
        starts: list[float] = []
        ends: list[float] = []
        kernel: list[float] = []
        build = training.build_step_batch

        def stamped(*args, **kwargs):
            if starts:
                ends.append(clock())
            kernel.append(calibration.kernel())
            starts.append(clock())
            return build(*args, **kwargs)

        training.build_step_batch = stamped
        try:
            result = training.train(dataset, cfg)
        finally:
            training.build_step_batch = build
        ends.append(clock())
        losses = [l_cls + l_reg + cfg.san_loss_weight * l_san for _, l_cls, l_reg, l_san, _ in result.log_rows]
        tail = losses[-LOSS_TAIL_STEPS:]
        outputs = {
            "checkpoint_sha256": checkpoint_digest(result.model),
            "loss_tail": sum(tail) / len(tail),
            "losses_finite": all(math.isfinite(v) for v in losses),
        }
        return Unit(steps=list(zip(starts, ends)), kernel=kernel, outputs=outputs)

    def problems(self, outputs: dict) -> list[str]:
        return [] if outputs["losses_finite"] else ["non-finite training loss"]

    def report(self, units: list[Unit]) -> dict:
        return {
            **latency_metrics("step", *step_report(units)),
            "loss_tail": (units[0].outputs["loss_tail"], "loss"),
        }


# ---------------------------------------------------------------------------
# analysis workload


def load_fixture_manifest() -> dict:
    try:
        return json.loads(FIXTURE_MANIFEST.read_text())
    except (OSError, ValueError) as exc:
        raise BenchSetupError(f"cannot read fixture manifest {FIXTURE_MANIFEST}: {exc}") from exc


class AnalyzeWorkload:
    """Detection, scale-space RMSE and a CAM sweep per test image.

    Loads the committed checkpoint after verifying its sha256.  Each step
    analyses one test image the way `evaluate_detector`, `rmse_report` and
    `sanlab cam` do; a pass over the test set ends with `evaluate_ap`.
    """

    def __init__(self, num_images: int = TEST_IMAGES):
        self.num_images = num_images

    def setup(self, seed: int):
        manifest = load_fixture_manifest()
        path = FIXTURE_MANIFEST.parent / manifest["file"]
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise BenchSetupError(f"cannot read fixture checkpoint {path}: {exc}") from exc
        if sha256_bytes(blob) != manifest["sha256"]:
            raise BenchSetupError(f"fixture checkpoint {path} does not match its recorded sha256")
        model = training.load_checkpoint(path)
        test_set = data.generate_dataset(
            data.DatasetConfig(num_images=self.num_images, seed=seed + 1, objects_min=1, objects_max=1)
        )
        return model, test_set, seed

    def warm_up(self, state) -> None:
        model, test_set, seed = state
        self._analyze(model, test_set[:WARMUP_IMAGES], seed)

    def run_unit(self, state) -> Unit:
        model, test_set, seed = state
        return self._analyze(model, test_set, seed)

    def _analyze(self, model, test_set, seed: int) -> Unit:
        steps: list[tuple[float, float]] = []
        kernel: list[float] = []
        timings: dict[str, list[float]] = {"detect": [], "rmse": []}
        detections, gts, rows = [], [], []
        digest = hashlib.sha256()
        for img, anns in test_set:
            kernel.append(calibration.kernel())
            t0 = clock()
            proposals = data.make_proposals(anns, EVAL_N_POS_JITTER, EVAL_N_NEG, data.proposal_rng(seed, img.id), img.width)
            t1 = clock()
            found = training.detect(model, img, proposals)
            t2 = clock()
            img_rows = training.rmse_report(model, [(img, anns)])
            t3 = clock()
            vectors, _ = backbone.cam_scale_sweep(img, model.backbone, list(CAM_SCALES))
            t4 = clock()
            steps.append((t0, t4))
            timings["detect"].append(t2 - t1)
            timings["rmse"].append(t3 - t2)
            gts.extend(anns)
            detections.extend(found)
            rows.extend(img_rows)
            digest.update(repr((found, img_rows)).encode())
            for _, vec in vectors:
                digest.update(vec.tobytes())
        ap = analysis.evaluate_ap(detections, gts)
        without = statistics.fmean(r.rmse_without for r in rows)
        with_san = statistics.fmean(r.rmse_with for r in rows)
        outputs = {
            "outputs_sha256": digest.hexdigest(),
            "map": ap.mean_ap,
            "rmse_reduction": 1.0 - with_san / without,
            "rmse_rows": len(rows),
        }
        return Unit(steps=steps, kernel=kernel, outputs=outputs, timings=timings)

    def problems(self, outputs: dict) -> list[str]:
        out = []
        if not outputs["map"] >= MIN_MAP:
            out.append(f"mAP {outputs['map']:.4f} below {MIN_MAP}")
        if not outputs["rmse_reduction"] >= MIN_RMSE_REDUCTION:
            out.append(f"RMSE reduction {outputs['rmse_reduction']:.4f} below {MIN_RMSE_REDUCTION}")
        return out

    def report(self, units: list[Unit]) -> dict:
        rows = sum(u.outputs["rmse_rows"] for u in units)
        rmse_rescaled, rmse_wall = step_report(units, "rmse")
        return {
            **latency_metrics("step", *step_report(units)),
            **latency_metrics("eval_image", *step_report(units, "detect")),
            "rmse_rows_per_s": (rows / sum(rmse_rescaled), "1/s"),
            "wall_rmse_rows_per_s": (rows / sum(rmse_wall), "1/s"),
            "map": (units[0].outputs["map"], "mAP"),
            "rmse_reduction": (units[0].outputs["rmse_reduction"], "ratio"),
        }


WORKLOADS = {
    "train-full": lambda: TrainWorkload("full"),
    "train-off": lambda: TrainWorkload("off"),
    "analyze": AnalyzeWorkload,
}
