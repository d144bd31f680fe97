"""Outside-in span tracing of the sanlab package.

While a `Tracer` is installed, every module attribute through which a
traced callable is looked up (``sanlab.training.roi_pool``,
``sanlab.autograd.conv2d``, ``Backbone.forward`` ...) is replaced by a
wrapper that records one span per call: name, start, end and parent.  On
exit the original objects are put back, so an untraced run executes the
package exactly as shipped.  Spans stay in memory; `summary` folds them
into per-name call counts, inclusive time and self time (a span's duration
minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from array import array
from bisect import bisect_right
from collections import defaultdict

# (defining module, attribute path).  The span name is the module's last
# component plus the path, e.g. "backbone.roi_pool".
TRACED: tuple[tuple[str, str], ...] = (
    ("sanlab.data", "generate_dataset"),
    ("sanlab.data", "make_proposals"),
    ("sanlab.training", "build_step_batch"),
    ("sanlab.training", "compute_step_losses"),
    ("sanlab.training", "forward_roi_features"),
    ("sanlab.training", "batched_reference_features"),
    ("sanlab.training", "load_checkpoint"),
    ("sanlab.training", "detect"),
    ("sanlab.training", "predict_rois"),
    ("sanlab.training", "nms"),
    ("sanlab.training", "rmse_report"),
    ("sanlab.training", "rendered_roi_feature"),
    ("sanlab.training", "reference_feature_for_roi"),
    ("sanlab.backbone", "Backbone.forward"),
    ("sanlab.backbone", "roi_pool"),
    ("sanlab.backbone", "cam_scale_sweep"),
    ("sanlab.backbone", "extract_reference_feature"),
    ("sanlab.san", "san_forward"),
    ("sanlab.san", "san_loss_branch"),
    ("sanlab.san", "fuse"),
    ("sanlab.losses", "DetectionHead.forward"),
    ("sanlab.losses", "multi_task_loss"),
    ("sanlab.losses", "assign_roi_labels"),
    ("sanlab.analysis", "evaluate_ap"),
    ("sanlab.analysis", "rmse_with_san"),
    ("sanlab.analysis", "rmse_without_san"),
    ("sanlab.autograd", "Tensor.backward"),
    ("sanlab.autograd", "sgd_step"),
    ("sanlab.autograd", "conv2d"),
    ("sanlab.autograd", "relu"),
    ("sanlab.autograd", "global_avg_pool"),
    ("sanlab.autograd", "add"),
    ("sanlab.autograd", "sub"),
    ("sanlab.autograd", "mul"),
    ("sanlab.autograd", "scale"),
    ("sanlab.autograd", "scale_by"),
    ("sanlab.autograd", "sum_all"),
    ("sanlab.autograd", "reshape"),
    ("sanlab.autograd", "concat0"),
    ("sanlab.autograd", "replicate_pad"),
    ("sanlab.autograd", "take0"),
    ("sanlab.autograd", "detach"),
    ("sanlab.autograd", "bilinear_resize"),
    ("sanlab.autograd", "softmax_cross_entropy"),
    ("sanlab.autograd", "smooth_l1"),
)


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


def _count_input_pixels(counters, args, kwargs) -> None:
    x = args[1] if len(args) > 1 else kwargs["x"]
    n, _, h, w = x.shape
    counters["backbone.Backbone.forward.input_pixels"] += n * h * w


def _count_patches(counters, args, kwargs) -> None:
    pairs = args[0] if args else kwargs["pairs"]
    counters["training.batched_reference_features.patches"] += len(pairs)


# counts taken from a call's arguments, at the same boundary as its span
COUNTERS = {
    "backbone.Backbone.forward": _count_input_pixels,
    "training.batched_reference_features": _count_patches,
}


class Tracer:
    """Records spans of calls into the package while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        count = COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if count is not None:
                count(counters, args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def install(self) -> None:
        """Replace every lookup site of each traced callable with a span wrapper."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if (n == "sanlab" or n.startswith("sanlab.")) and m]
        for module_name, path in TRACED:
            owner = sys.modules[module_name]
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                sites = [owner]
            else:
                original = getattr(owner, attr)
                sites = [m for m in modules if any(v is original for v in vars(m).values())]
            wrapper = self._wrap(span_name(module_name, path), original)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._restore.append((site, key, value))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, value in reversed(self._restore):
            setattr(site, key, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def root_seconds_within(self, intervals: list[tuple[float, float]]) -> float:
        """Total duration of parentless spans that start inside one of the
        given (start, end) intervals, which must be sorted and disjoint."""
        starts = [a for a, _ in intervals]
        total = 0.0
        for s, e, p in zip(self.starts, self.ends, self.parents):
            if p >= 0:
                continue
            k = bisect_right(starts, s) - 1
            if k >= 0 and s < intervals[k][1]:
                total += e - s
        return total

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts a span only when no ancestor has the same
        name, so nested calls of one name are not counted twice.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            row["calls"] += 1
            row["self_seconds"] += dur - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                row["seconds"] += dur
        return out


class GcMonitor:
    """Collections per generation and total pause time, via gc.callbacks."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_seconds = 0.0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_seconds += time.perf_counter() - self._t0
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
