"""Train the checkpoint the `analyze` workload loads, and record its digest.

    python3 perfbench/make_fixture.py

Runs the package's own `train` and `save_checkpoint` at the acceptance
config (200 images, data seed 11, training seed 7, san=full, 2000 steps;
about 80 s on one core) and writes ``fixture/analyze.san`` and
``fixture/analyze.json`` (sha256, size, config and this command) next to
this file.  Training inside every benchmark run would cost those 80 s each
time, and a short run does not give a model the analysis checks accept.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import environment

FIXTURE_DIR = environment.BENCH_DIR / "fixture"
CHECKPOINT = FIXTURE_DIR / "analyze.san"
MANIFEST = FIXTURE_DIR / "analyze.json"
COMMAND = "python3 perfbench/make_fixture.py"
CONFIG = {"num_images": 200, "data_seed": 11, "training_seed": 7, "san_mode": "full", "iterations": 2000}


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    environment.prepare_process()
    from sanlab.data import DatasetConfig, generate_dataset
    from sanlab.training import TrainingConfig, save_checkpoint, train

    dataset = generate_dataset(DatasetConfig(num_images=CONFIG["num_images"], seed=CONFIG["data_seed"]))
    cfg = TrainingConfig(iterations=CONFIG["iterations"], san_mode=CONFIG["san_mode"], seed=CONFIG["training_seed"])
    t0 = time.perf_counter()
    result = train(dataset, cfg)
    elapsed = time.perf_counter() - t0
    FIXTURE_DIR.mkdir(exist_ok=True)
    save_checkpoint(CHECKPOINT, result.model)
    manifest = {
        "file": CHECKPOINT.name,
        "sha256": sha256_file(CHECKPOINT),
        "bytes": CHECKPOINT.stat().st_size,
        "config": CONFIG,
        "command": COMMAND,
        "environment": environment.environment_record("make-fixture", CONFIG["data_seed"], False),
        "train_seconds": round(elapsed, 1),
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"sha256": manifest["sha256"], "train_seconds": manifest["train_seconds"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
