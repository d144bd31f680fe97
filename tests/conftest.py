"""Session fixtures: the acceptance data and the 2000-step acceptance models.

BLAS is pinned to one thread first, before anything imports numpy, as
perfbench pins it (`perfbench/environment.BLAS_THREAD_VARS`): the GEMMs
here are tiny, and a second BLAS thread makes the suite slower, much
slower beside another busy process.  A variable the environment already
sets is left as it is.
"""

import os
import time

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")

# numpy loads from here on
import pytest

from sanlab.data import DatasetConfig, generate_dataset
from sanlab.training import TrainingConfig, train


@pytest.fixture(scope="session")
def toy_data():
    train_ds = generate_dataset(DatasetConfig(num_images=200, seed=11))
    test_ds = generate_dataset(DatasetConfig(num_images=50, seed=12))
    return train_ds, test_ds


class TrainedMatrix(dict):
    """(seed, san_mode) -> (TrainResult, wall seconds) of a 2000-step
    training on the toy training set; each model is trained, and timed,
    on its first lookup and kept for the session."""

    def __init__(self, train_ds):
        super().__init__()
        self.train_ds = train_ds

    def __missing__(self, key):
        seed, mode = key
        t0 = time.time()
        cfg = TrainingConfig(iterations=2000, san_mode=mode, seed=seed)
        self[key] = (train(self.train_ds, cfg), time.time() - t0)
        return self[key]


@pytest.fixture(scope="session")
def trained_matrix(toy_data):
    """Baseline and corrected models, trained on first use."""
    return TrainedMatrix(toy_data[0])
