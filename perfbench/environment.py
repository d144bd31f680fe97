"""Process set-up and the environment record every benchmark result carries.

BLAS is pinned to one thread before numpy loads: the GEMMs in this package
are tiny, and default threading makes a training step slower, not faster.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchSetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad fixture)."""


def prepare_process() -> None:
    """Pin BLAS threads and put the package sources on the import path.

    Must run before numpy is imported anywhere in the process.
    """
    if "numpy" in sys.modules:
        raise BenchSetupError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC_DIR / "sanlab" / "__init__.py").is_file():
        raise BenchSetupError(f"package sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def git_commit(root: Path = REPO_ROOT) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def blas_build() -> dict:
    """BLAS/LAPACK build information as numpy reports it."""
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        return {"numpy": np.__version__}
    deps = cfg.get("Build Dependencies", {})
    return {
        name: {k: deps[name].get(k) for k in ("name", "version", "openblas configuration") if k in deps[name]}
        for name in ("blas", "lapack")
        if name in deps
    }


def environment_record(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }
