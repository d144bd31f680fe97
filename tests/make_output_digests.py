"""Write the training output digests that `test_output_digests.py` checks.

    PYTHONPATH=src python tests/make_output_digests.py
    PYTHONPATH=src python tests/make_output_digests.py --bit-change "<reason>"

Trains every ``san`` x ``init`` x ``san_pool`` arm that
`TrainingConfig.validate` accepts (10 arms) for STEPS steps on a small
generated dataset and takes the sha256 of the `checkpoint.san` and
`train_log.csv` each run writes.  Without a flag the script compares them
with ``output_digests.json`` next to it and exits 1 on any difference;
``--bit-change`` writes the file anew and records the reason given.

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
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from sanlab.data import DatasetConfig, generate_dataset
from sanlab.errors import ConfigError
from sanlab.training import FIELD_CHOICES, TrainingConfig, save_checkpoint, train, write_log_csv

DIGEST_FILE = Path(__file__).with_name("output_digests.json")
STEPS = 30
DATASET = DatasetConfig(num_images=24, seed=11)
TRAINING_SEED = 7


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


def record(reason: str) -> dict:
    return {
        "reason": reason,
        "steps": STEPS,
        "dataset": dataclasses.asdict(DATASET),
        "training_seed": TRAINING_SEED,
        "fingerprint": fingerprint(),
        "arms": digests(),
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
    for arm in bad:
        print(f"differs: {arm}")
    return 1 if bad or set(got) != set(want["arms"]) else 0


if __name__ == "__main__":
    sys.exit(main())
