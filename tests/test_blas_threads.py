"""The suite runs BLAS on one thread: `conftest.py` pins it before numpy loads."""

import ctypes
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import BLAS_THREAD_VARS


def test_the_pinned_variables_are_perfbench_s():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "environment.py"
    spec = importlib.util.spec_from_file_location("perfbench_environment", path)
    environment = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(environment)
    assert BLAS_THREAD_VARS == environment.BLAS_THREAD_VARS


def openblas_threads():
    """The thread count of the OpenBLAS numpy's wheel bundles, or None
    where numpy links another BLAS."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return None


def test_openblas_runs_one_thread():
    value = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    if value != "1":
        pytest.skip(f"the environment sets OPENBLAS_NUM_THREADS={value}")
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS with scipy_openblas_get_num_threads64_")
    assert threads == 1
