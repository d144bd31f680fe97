"""Machine-speed calibration for timings taken on a shared, noisy CPU.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes, as other tenants come and go.  The
benchmark therefore runs a small fixed kernel just before every timed
step and every set-up, and reports each duration rescaled by
``REFERENCE_SECONDS / kernel time`` around it: the time the step would have
taken at the speed where the kernel takes exactly REFERENCE_SECONDS.  The
kernel is benchmark code, so a change to the package moves the rescaled
time exactly as much as the wall time.  Raw wall times are kept in the
result record next to the rescaled ones.

The kernel mixes what a sanlab step does: edge padding, an im2col copy, a
small float32 GEMM, a ReLU and interpreted Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_SECONDS = 1.0e-3
# Steps on each side whose kernel times are averaged into one speed
# estimate.  Contention comes in bursts of a few steps: on a 2-core shared
# VM a window of +-2 steps gave run-to-run p90 spreads of 2-3%, where +-10
# steps (which smooths the bursts away) gave 4-11%.
WINDOW = 2
SETUP_SAMPLES = 9

_rng = np.random.default_rng(0)
_X = _rng.random((1, 16, 48, 48), dtype=np.float32)
_W = _rng.random((32, 144), dtype=np.float32)


def kernel() -> float:
    """Run the fixed calibration kernel once; returns its duration in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(2):
        padded = np.pad(_X, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 144)
        acc += float(np.maximum(cols @ _W.T, 0.0)[0, 0])
        for i in range(150):
            acc += i * 0.5
    return time.perf_counter() - t0


def kernel_median(samples: int = SETUP_SAMPLES) -> float:
    return statistics.median(kernel() for _ in range(samples))


def speed_factors(kernel_seconds: list[float]) -> list[float]:
    """Per step, REFERENCE_SECONDS over the mean kernel time around it.

    ``kernel_seconds[i]`` is the kernel time measured just before step i;
    the estimate for step i averages the kernel times of steps i-WINDOW ..
    i+WINDOW.  Multiplying a duration of step i by its factor rescales it
    to the reference speed.
    """
    return [
        REFERENCE_SECONDS / statistics.fmean(kernel_seconds[max(0, i - WINDOW) : i + WINDOW + 1])
        for i in range(len(kernel_seconds))
    ]
