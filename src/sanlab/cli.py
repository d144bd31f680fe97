"""Command-line surface: data generation, training, evaluation, and the
two analysis instruments (channel-activation matrix, scale-space RMSE).

Each command has one settings table, setting -> default (`SETTINGS`),
filled from what the settings feed: DatasetConfig (gen-data),
TrainingConfig (train), evaluate_detector's and compute_cam's defaults
(eval, cam).  Every entry is both a --kebab-case flag and a key of
flat `key = value` config files (# comments allowed); flags override the
file, and for the commands that take a seed (gen-data, train, eval) it falls
back to SANLAB_SEED.  `rmse` and `cam` take the checkpoint's own scheme.
Every command writes run-meta.json with the fully resolved configuration and
exits 0 only if all outputs were written; a failed run removes the output
directories it created that are still empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .analysis import (
    CAM_K,
    cam_stability,
    compute_cam,
    rmse_class_summary,
    write_cam_csv,
    write_cam_pgm,
    write_rmse_csv,
)
from .backbone import Backbone, cam_scale_sweep
from .data import (
    DatasetConfig,
    generate_dataset_with_stats,
    load_dataset,
    read_file,
    read_image,
    scale_statistics,
    write_dataset,
    write_scale_statistics_csv,
)
from .errors import ConfigError, SanlabError
from .san import SCHEME_PRESETS, resolve_scheme
from .training import (
    EVAL_N_NEG,
    EVAL_N_POS_JITTER,
    FIELD_CHOICES,
    TrainingConfig,
    default_rmse_scales,
    evaluate_detector,
    load_checkpoint,
    rmse_report,
    save_checkpoint,
    train,
    write_log_csv,
)

SEED_ENV_VAR = "SANLAB_SEED"

# gen-data spells DatasetConfig's scale_range as scale_min / scale_max and
# makes 200 images unless told otherwise
_DATASET_FIELDS = {f.name: f.default for f in dataclasses.fields(DatasetConfig) if f.name != "scale_range"}
_SCALE_MIN, _SCALE_MAX = DatasetConfig.scale_range

# train takes one setting per TrainingConfig field, named as the field but
# for these two, and spells the scheme as a preset name plus overrides
TRAIN_RENAMES = {"san_mode": "san", "init_mode": "init"}
TRAIN_FIELDS = {TRAIN_RENAMES.get(f.name, f.name): f for f in dataclasses.fields(TrainingConfig) if f.name != "scheme"}

SETTINGS = {
    "gen-data": _DATASET_FIELDS | {"num_images": 200, "scale_min": _SCALE_MIN, "scale_max": _SCALE_MAX},
    "train": {name: f.default for name, f in TRAIN_FIELDS.items()} | {"scheme": "toy", "ref_scale": None, "boundaries": None},
    "eval": {"seed": 0, "n_pos_jitter": EVAL_N_POS_JITTER, "n_neg": EVAL_N_NEG},
    "cam": {"scales": "16,24,32,48,64,96", "cam_k": CAM_K, "normalize_rois": 0},
    "rmse": {"scales": ""},
}

# A setting's flag parses its value as the default's type, except where this
# says otherwise: a None default, a fixed set of values, a switch for 0/1.
_FLAG_OPTIONS = {
    "ref_scale": {"type": int},
    "boundaries": {"type": str},
    "scheme": {"type": str, "choices": sorted(SCHEME_PRESETS)},
    "normalize_rois": {"action": "store_const", "const": 1},
} | {TRAIN_RENAMES.get(name, name): {"type": str, "choices": c} for name, c in FIELD_CHOICES.items()}


def _flag_options(key: str, default) -> dict:
    return _FLAG_OPTIONS.get(key, {"type": type(default)})


# every key a config file may set, with its parser; a switch's value is its
# index in ("0", "1"), and other text is a ValueError
_CONFIG_KEYS = {k: _flag_options(k, d).get("type", ("0", "1").index) for table in SETTINGS.values() for k, d in table.items()}


def _parse(parse, text: str, what: str):
    """``parse(text)``; text it rejects is a ConfigError that names ``what``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {text!r}") from exc


def parse_config_file(path: Path) -> dict:
    """Flat key = value lines; '#' starts a comment; unknown keys rejected."""
    values: dict = {}
    for lineno, raw in enumerate(read_file(path, text=True).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SanlabError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise SanlabError(f"{path}:{lineno}: unknown configuration key {key!r}")
        values[key] = _parse(_CONFIG_KEYS[key], val, f"value for {key} at {path}:{lineno}")
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Layer the command's defaults <- config file <- CLI flags; a command
    that takes a seed falls back to SANLAB_SEED for it."""
    defaults = SETTINGS[args.command]
    file_vals = parse_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in defaults}
    resolved = defaults | file_vals | {key: val for key, val in flags.items() if val is not None}
    if "seed" in defaults and args.seed is None and "seed" not in file_vals:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            resolved["seed"] = _parse(int, env, SEED_ENV_VAR)
    return resolved


def _parse_scales(text: str) -> list[int]:
    """The comma-separated scales; an empty list, or one whose every scale is
    below the backbone stride, leaves nothing to measure."""
    scales = _parse(lambda t: [int(s) for s in t.split(",") if s.strip()], text, "scale list")
    if not scales:
        raise SanlabError("scale list is empty")
    if not Backbone.split_scales(scales)[0]:
        raise SanlabError(f"all scales {scales} are below the backbone stride {Backbone.total_stride}")
    return scales


def _load_images(data_dir: Path) -> list:
    """The dataset under data_dir; one that holds no image is an error."""
    dataset = load_dataset(Path(data_dir))
    if not dataset:
        raise SanlabError(f"no images found under {data_dir}")
    return dataset


# Each command takes the parsed arguments, the resolved settings and the
# (existing) output directory, and returns the fields it adds to run-meta.json.
def cmd_gen_data(args: argparse.Namespace, settings: dict, out_dir: Path) -> dict:
    cfg = DatasetConfig(
        scale_range=(settings["scale_min"], settings["scale_max"]),
        **{name: settings[name] for name in _DATASET_FIELDS},
    )
    dataset, skips = generate_dataset_with_stats(cfg)
    write_dataset(out_dir, dataset, skips)
    write_scale_statistics_csv(out_dir / "scale_stats.csv", scale_statistics(dataset))
    return {"images": len(dataset), "skipped_objects": int(sum(skips))}


def cmd_train(args: argparse.Namespace, settings: dict, out_dir: Path) -> dict:
    dataset = load_dataset(Path(args.data_dir))
    text = settings["boundaries"]
    boundaries = _parse(lambda t: tuple(float(b) for b in t.split(",")), text, "boundaries") if text else None
    scheme = resolve_scheme(settings["scheme"], settings["ref_scale"], boundaries)
    result = train(dataset, TrainingConfig(scheme=scheme, **{f.name: settings[name] for name, f in TRAIN_FIELDS.items()}))
    save_checkpoint(out_dir / "checkpoint.san", result.model)
    write_log_csv(out_dir / "train_log.csv", result.log_rows)
    return {"data_dir": str(args.data_dir)}


def cmd_eval(args: argparse.Namespace, settings: dict, out_dir: Path) -> dict:
    dataset = _load_images(args.data_dir)
    model = load_checkpoint(Path(args.checkpoint))
    # the eval settings are evaluate_detector's keyword arguments
    ap, detections = evaluate_detector(model, dataset, **{key: settings[key] for key in SETTINGS["eval"]})
    payload = {
        "map": ap.mean_ap,
        "per_class": {str(c): v for c, v in ap.per_class.items()},
        "num_detections": len(detections),
    }
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {"checkpoint": str(args.checkpoint), "data_dir": str(args.data_dir)}


def cmd_cam(args: argparse.Namespace, settings: dict, out_dir: Path) -> dict:
    scales = _parse_scales(settings["scales"])
    model = load_checkpoint(Path(args.checkpoint))
    img = read_image(Path(args.image))
    normalize_to = model.scheme.ref_scale if settings["normalize_rois"] else None
    vectors, skipped = cam_scale_sweep(img, model.backbone, scales, normalize_to=normalize_to)
    cam = compute_cam(vectors, k=settings["cam_k"])
    write_cam_csv(out_dir / "cam.csv", cam)
    write_cam_pgm(out_dir / "cam.pgm", cam)
    stability = cam_stability(cam, settings["cam_k"])
    return {"stability": stability, "skipped_scales": skipped, "normalize_to": normalize_to, "checkpoint": str(args.checkpoint)}


def cmd_rmse(args: argparse.Namespace, settings: dict, out_dir: Path) -> dict:
    dataset = _load_images(args.data_dir)
    model = load_checkpoint(Path(args.checkpoint))
    text = settings["scales"]
    scales = _parse_scales(text) if text else default_rmse_scales(model.scheme.ref_scale)
    scales, skipped = model.backbone.split_scales(scales)
    rows = rmse_report(model, dataset, scales=scales)
    write_rmse_csv(out_dir / "rmse.csv", rows)
    summary = rmse_class_summary(rows)
    lines = ["class,mean_rmse_without,std_rmse_without,mean_rmse_with,std_rmse_with"]
    for c, (mw, sw, mi, si) in summary.items():
        lines.append(f"{c},{mw:.8g},{sw:.8g},{mi:.8g},{si:.8g}")
    (out_dir / "rmse_summary.csv").write_text("\n".join(lines) + "\n")
    return {
        "checkpoint": str(args.checkpoint),
        "data_dir": str(args.data_dir),
        "scales": scales,
        "skipped_scales": skipped,
        "rows": len(rows),
    }


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sanlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *paths, **helps) -> argparse.ArgumentParser:
        """The subcommand `name`: --config, --out-dir, the required path
        arguments, then one flag per entry of its settings table."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", type=Path, help="flat key = value configuration file")
        p.add_argument("--out-dir", type=Path, required=True)
        for path in paths:
            p.add_argument(_flag(path), dest=path, type=Path, required=True, help=helps.get(path))
        helps.setdefault("seed", f"RNG seed (falls back to ${SEED_ENV_VAR})")
        for key, default in SETTINGS[name].items():
            p.add_argument(_flag(key), dest=key, help=helps.get(key), **_flag_options(key, default))
        return p

    command("gen-data", cmd_gen_data, "generate the synthetic multi-scale dataset")
    command("train", cmd_train, "train a detector", "data_dir",
            boundaries="comma-separated area thresholds in pixels^2")
    command("eval", cmd_eval, "evaluate a checkpoint (per-class AP and mAP)", "data_dir", "checkpoint")
    command("cam", cmd_cam, "channel-activation matrix over a scale sweep", "checkpoint", "image",
            image="PPM image to sweep", scales="comma-separated side lengths")
    command("rmse", cmd_rmse, "scale-space RMSE report with/without correction", "data_dir", "checkpoint")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created = [d for d in (args.out_dir, *args.out_dir.parents) if not d.exists()]  # deepest first
    try:
        settings = _resolve(args)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        meta = {"command": args.command, "config": settings} | args.func(args, settings, args.out_dir)
        (args.out_dir / "run-meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")
        return 0
    except SanlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        # inputs are read through data.read_file, so this is an output that could not be written
        print(f"error: cannot write {exc.filename or args.out_dir}: {exc.strerror or exc}", file=sys.stderr)
    for d in created:
        try:
            d.rmdir()  # fails on a directory that is not empty, or was never made
        except OSError:
            break
    return 2


if __name__ == "__main__":
    sys.exit(main())
