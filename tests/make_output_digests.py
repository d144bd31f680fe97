"""Write the output digests that `test_output_digests.py` checks.

    PYTHONPATH=src python tests/make_output_digests.py
    PYTHONPATH=src python tests/make_output_digests.py --bit-change "<reason>"

Trains every ``san`` x ``init`` x ``san_pool`` arm that
`TrainingConfig.validate` accepts (10 arms) for STEPS steps on a small
generated dataset and takes the sha256 of the `checkpoint.san` and
`train_log.csv` each run writes.  It also runs the CLI chain of
`chain_digests` (gen-data, train, eval, rmse, cam plain and with
--normalize-rois) and takes the sha256 of every file the chain writes,
plus one digest of the chain model's detections, field by field.
Without a flag the script compares them with ``output_digests.json`` next
to it and exits 1 on any difference; ``--bit-change`` writes the file
anew and records the reason given.

The file also holds the environment fingerprint the digests were taken
under (numpy version, BLAS name and version, the CPU's SIMD extensions,
libc): float rounding may differ under another BLAS build or kernel, so
the test compares digests only where the fingerprint matches.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from sanlab import cli
from sanlab.data import DatasetConfig, generate_dataset, load_dataset
from sanlab.errors import ConfigError
from sanlab.training import (
    FIELD_CHOICES,
    TrainingConfig,
    evaluate_detector,
    load_checkpoint,
    save_checkpoint,
    train,
    write_log_csv,
)

DIGEST_FILE = Path(__file__).with_name("output_digests.json")
STEPS = 30
DATASET = DatasetConfig(num_images=24, seed=11)
TRAINING_SEED = 7
# the CLI chain: each command with its arguments, run in order with paths
# relative to a fresh working directory; the seeds are given, so
# SANLAB_SEED has no say
CHAIN = (
    ("gen-data", "--out-dir", "data", "--num-images", "12", "--seed", "5"),
    ("train", "--data-dir", "data", "--out-dir", "run", "--iterations", "40", "--san", "full", "--seed", "3"),
    ("eval", "--data-dir", "data", "--checkpoint", "run/checkpoint.san", "--out-dir", "eval", "--seed", "0"),
    ("rmse", "--data-dir", "data", "--checkpoint", "run/checkpoint.san", "--out-dir", "rmse"),
    ("cam", "--checkpoint", "run/checkpoint.san", "--image", "data/img_00000.ppm", "--out-dir", "cam"),
    ("cam", "--checkpoint", "run/checkpoint.san", "--image", "data/img_00000.ppm", "--out-dir", "cam_norm", "--normalize-rois"),
)


def fingerprint() -> dict:
    """What the digests' rounding may depend on, besides the package."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "simd": sorted(simd.get("baseline", []) + simd.get("found", [])),
        "libc": " ".join(platform.libc_ver()),
    }


def arms() -> list[TrainingConfig]:
    """Every combination of the choice fields that `validate` accepts."""
    names = list(FIELD_CHOICES)
    configs = []
    for values in itertools.product(*FIELD_CHOICES.values()):
        cfg = TrainingConfig(iterations=STEPS, seed=TRAINING_SEED, **dict(zip(names, values)))
        try:
            cfg.validate()
        except ConfigError:
            continue
        configs.append(cfg)
    return configs


def arm_name(cfg: TrainingConfig) -> str:
    return " ".join(f"{name}={getattr(cfg, name)}" for name in FIELD_CHOICES)


def digests() -> dict[str, dict[str, str]]:
    """Per arm, the sha256 of each file a training run writes."""
    dataset = generate_dataset(DATASET)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint, log = Path(tmp) / "checkpoint.san", Path(tmp) / "train_log.csv"
        for cfg in arms():
            result = train(dataset, cfg)
            save_checkpoint(checkpoint, result.model)
            write_log_csv(log, result.log_rows)
            out[arm_name(cfg)] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (checkpoint, log)}
    return out


def detection_digest(detections) -> str:
    """sha256 over each detection's image id, class, score and box, in
    order, as int64 and float64 bytes: a box that moves without changing
    AP still changes it."""
    h = hashlib.sha256()
    for d in detections:
        h.update(struct.pack("<qqd", d.image_id, d.class_id, d.score))
        h.update(np.array([d.box.x1, d.box.y1, d.box.x2, d.box.y2], dtype="<f8").tobytes())
    return h.hexdigest()


def chain_digests() -> dict:
    """The sha256 of every file the CLI chain writes, by relative path, and
    the `detection_digest` of `evaluate_detector` on the chain's data and
    checkpoint, as the eval command runs it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in CHAIN:
                if cli.main(list(argv)) != 0:
                    raise RuntimeError(f"sanlab {' '.join(argv)} failed")
            _, detections = evaluate_detector(load_checkpoint(Path("run/checkpoint.san")), load_dataset(Path("data")), seed=0)
            files = {
                p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(".").rglob("*")) if p.is_file()
            }
        finally:
            os.chdir(cwd)
    return {"files": files, "detections": detection_digest(detections), "num_detections": len(detections)}


def record(reason: str) -> dict:
    return {
        "reason": reason,
        "steps": STEPS,
        "dataset": dataclasses.asdict(DATASET),
        "training_seed": TRAINING_SEED,
        "fingerprint": fingerprint(),
        "arms": digests(),
        "chain": {"commands": [" ".join(argv) for argv in CHAIN]} | chain_digests(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bit-change", metavar="REASON", help="write the digest file anew, recording why the bits changed")
    args = parser.parse_args(argv)
    if args.bit_change is not None:
        DIGEST_FILE.write_text(json.dumps(record(args.bit_change), indent=2) + "\n")
        print(f"wrote {DIGEST_FILE}")
        return 0
    want = json.loads(DIGEST_FILE.read_text())
    if want["fingerprint"] != fingerprint():
        print(f"environment differs from the recorded one: {fingerprint()} != {want['fingerprint']}")
    got = digests()
    bad = [arm for arm in want["arms"] if got.get(arm) != want["arms"][arm]]
    chain = chain_digests()
    bad += [f"chain {key}" for key in chain if chain[key] != want["chain"][key]]
    for arm in bad:
        print(f"differs: {arm}")
    return 1 if bad or set(got) != set(want["arms"]) else 0


if __name__ == "__main__":
    sys.exit(main())
