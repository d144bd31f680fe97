"""Command-line surface: data generation, training, evaluation, and the
two analysis instruments (channel-activation matrix, scale-space RMSE).

Configuration comes from flat `key = value` files (# comments allowed)
overridden by command-line flags; the seed falls back to the SANLAB_SEED
environment variable.  `train` takes one flag and config key per
TrainingConfig field (see `training.front_end_fields`), plus the scheme
preset and its overrides; `rmse` routes with the checkpoint's own scheme.
Every command writes run-meta.json with the fully resolved configuration
and exits 0 only if all outputs were written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import cam_stability, compute_cam, rmse_class_summary, write_cam_csv, write_cam_pgm, write_rmse_csv
from .autograd import Tensor
from .backbone import Image, cam_scale_sweep
from .data import (
    DatasetConfig,
    generate_dataset_with_stats,
    load_dataset,
    read_ppm,
    scale_statistics,
    write_dataset,
    write_scale_statistics_csv,
)
from .detector import resolve_scheme
from .errors import SanlabError
from .san import SCHEME_PRESETS, ScalePartitionScheme
from .training import (
    FIELD_CHOICES,
    config_from_front_end,
    default_rmse_scales,
    evaluate_detector,
    front_end_defaults,
    front_end_fields,
    load_checkpoint,
    rmse_report,
    save_checkpoint,
    train,
    write_log_csv,
)

SEED_ENV_VAR = "SANLAB_SEED"


def parse_config_file(path: Path) -> dict:
    """Flat key = value lines; '#' starts a comment; unknown keys rejected."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise SanlabError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer defaults <- config file <- CLI flags; resolve the seed chain."""
    file_vals = parse_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = dict(defaults)
    resolved.update(file_vals)
    for key in defaults:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            resolved[key] = cli_val
    if getattr(args, "seed", None) is None and "seed" not in file_vals:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            resolved["seed"] = int(env)
    return resolved


def _write_meta(out_dir: Path, command: str, resolved: dict, extra: dict | None = None) -> None:
    meta = {"command": command, "config": resolved}
    if extra:
        meta.update(extra)
    (Path(out_dir) / "run-meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


def _parse_boundaries(text: str | None) -> tuple[float, ...] | None:
    if text is None or text == "":
        return None
    return tuple(float(b) for b in text.split(","))


def _parse_scales(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise SanlabError(f"bad scale list {text!r}; expected comma-separated integers") from exc


def _scheme_from(resolved: dict) -> "ScalePartitionScheme":
    scheme = resolve_scheme(resolved["scheme"], resolved["ref_scale"], _parse_boundaries(resolved["boundaries"]))
    n = resolved["partitions"]
    if n is not None and n != scheme.num_partitions:
        raise SanlabError(
            f"--partitions {n} contradicts the {scheme.num_partitions}-partition scheme "
            f"(boundaries {scheme.boundaries})"
        )
    return scheme


def _dataset_config(resolved: dict) -> DatasetConfig:
    return DatasetConfig(
        num_images=resolved["num_images"],
        image_size=resolved["image_size"],
        num_classes=resolved["num_classes"],
        scale_range=(resolved["scale_min"], resolved["scale_max"]),
        objects_min=resolved["objects_min"],
        objects_max=resolved["objects_max"],
        background_amplitude=resolved["background_amplitude"],
        seed=resolved["seed"],
    )


_GEN_DEFAULTS = {
    "seed": 0,
    "num_images": 200,
    "image_size": 96,
    "num_classes": 3,
    "scale_min": 8.0,
    "scale_max": 80.0,
    "objects_min": 1,
    "objects_max": 3,
    "background_amplitude": 0.2,
}
_GEN_TYPES = {key: type(value) for key, value in _GEN_DEFAULTS.items()}


def cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _GEN_DEFAULTS)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _dataset_config(resolved)
    dataset, skips = generate_dataset_with_stats(cfg)
    write_dataset(out_dir, dataset, skips)
    if any(anns for _, anns in dataset):
        write_scale_statistics_csv(out_dir / "scale_stats.csv", scale_statistics(dataset))
    else:
        (out_dir / "scale_stats.csv").write_text("class,median_area,std_area\n")
    _write_meta(out_dir, "gen-data", resolved, {"images": len(dataset), "skipped_objects": int(sum(skips))})
    return 0


# one flag and config key per TrainingConfig field, then the scheme preset
# and its overrides
_TRAIN_FIELDS = front_end_fields()
_TRAIN_TYPES = {name: type(f.default) for name, f in _TRAIN_FIELDS.items()}
_TRAIN_CHOICES = {name: FIELD_CHOICES[f.name] for name, f in _TRAIN_FIELDS.items() if f.name in FIELD_CHOICES}
_TRAIN_DEFAULTS = front_end_defaults() | {"partitions": None}

# every key a config file may set, with its parser
_SCHEME_TYPES = {"scheme": str, "ref_scale": int, "partitions": int, "boundaries": str}
_CONFIG_KEYS = _GEN_TYPES | _TRAIN_TYPES | _SCHEME_TYPES | {"scales": str, "cam_k": int, "normalize_rois": int}


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _TRAIN_DEFAULTS)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(Path(args.data_dir))
    result = train(dataset, config_from_front_end(resolved, _scheme_from(resolved)))
    save_checkpoint(out_dir / "checkpoint.san", result.model)
    write_log_csv(out_dir / "train_log.csv", result.log_rows)
    _write_meta(out_dir, "train", resolved, {"data_dir": str(args.data_dir)})
    return 0


_EVAL_DEFAULTS = {"seed": 0, "n_pos_jitter": 8, "n_neg": 16}


def cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _EVAL_DEFAULTS)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(Path(args.data_dir))
    if not dataset:
        raise SanlabError(f"no images found under {args.data_dir}")
    model = load_checkpoint(Path(args.checkpoint))
    if getattr(args, "debug_oracle", False):
        # sanity mode: score the ground truth itself; must give mAP 1.0
        from .analysis import Detection, evaluate_ap

        gts = [a for _, anns in dataset for a in anns]
        detections = [Detection(image_id=g.box.image_id, class_id=g.class_id, score=1.0, box=g.box) for g in gts]
        ap = evaluate_ap(detections, gts)
    else:
        ap, detections = evaluate_detector(
            model,
            dataset,
            seed=resolved["seed"],
            n_pos_jitter=resolved["n_pos_jitter"],
            n_neg=resolved["n_neg"],
        )
    payload = {
        "map": ap.mean_ap,
        "per_class": {str(c): v for c, v in ap.per_class.items()},
        "num_detections": len(detections),
    }
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_meta(out_dir, "eval", resolved, {"checkpoint": str(args.checkpoint), "data_dir": str(args.data_dir)})
    return 0


_CAM_DEFAULTS = {"seed": 0, "scales": "16,24,32,48,64,96", "cam_k": 10, "normalize_rois": 0, "ref_scale": None}


def cmd_cam(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _CAM_DEFAULTS)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scales = _parse_scales(resolved["scales"])
    if not scales:
        raise SanlabError("scale list is empty")
    model = load_checkpoint(Path(args.checkpoint))
    img = Image(pixels=Tensor(read_ppm(Path(args.image))), id=0)
    normalize_to = None
    if resolved["normalize_rois"]:
        normalize_to = resolved["ref_scale"] or model.scheme.ref_scale
    vectors, skipped = cam_scale_sweep(img, model.backbone, scales, normalize_to=normalize_to)
    if not vectors:
        raise SanlabError(f"all scales {scales} are below the backbone stride {model.backbone.total_stride}")
    cam = compute_cam(vectors, k=resolved["cam_k"])
    write_cam_csv(out_dir / "cam.csv", cam)
    write_cam_pgm(out_dir / "cam.pgm", cam)
    stability = cam_stability(cam, resolved["cam_k"]) if len(cam.scales) >= 2 else 1.0
    _write_meta(
        out_dir,
        "cam",
        resolved,
        {"stability": stability, "skipped_scales": skipped, "checkpoint": str(args.checkpoint)},
    )
    return 0


_RMSE_DEFAULTS = {"seed": 0, "scales": ""}


def cmd_rmse(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _RMSE_DEFAULTS)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(Path(args.data_dir))
    model = load_checkpoint(Path(args.checkpoint))
    if model.san is None:
        raise SanlabError("this checkpoint was trained without the correction module; rmse needs one")
    scales = _parse_scales(resolved["scales"]) if resolved["scales"] else None
    rows = rmse_report(model, dataset, scales=scales)
    write_rmse_csv(out_dir / "rmse.csv", rows)
    summary = rmse_class_summary(rows)
    lines = ["class,mean_rmse_without,std_rmse_without,mean_rmse_with,std_rmse_with"]
    for c, (mw, sw, mi, si) in summary.items():
        lines.append(f"{c},{mw:.8g},{sw:.8g},{mi:.8g},{si:.8g}")
    (out_dir / "rmse_summary.csv").write_text("\n".join(lines) + "\n")
    _write_meta(
        out_dir,
        "rmse",
        resolved,
        {
            "checkpoint": str(args.checkpoint),
            "data_dir": str(args.data_dir),
            "scales": scales or default_rmse_scales(model.scheme.ref_scale, model.backbone.total_stride),
            "rows": len(rows),
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sanlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help=f"RNG seed (falls back to ${SEED_ENV_VAR})")
        p.add_argument("--out-dir", type=Path, required=True)

    def add_flags(p, types: dict, choices: dict | None = None):
        """One --kebab-case flag per key except the common seed."""
        for key, parse in types.items():
            if key != "seed":
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, choices=(choices or {}).get(key))

    g = sub.add_parser("gen-data", help="generate the synthetic multi-scale dataset")
    add_common(g)
    add_flags(g, _GEN_TYPES)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a detector")
    add_common(t)
    t.add_argument("--data-dir", type=Path, required=True)
    add_flags(t, _TRAIN_TYPES, _TRAIN_CHOICES)
    t.add_argument("--scheme", choices=sorted(SCHEME_PRESETS))
    t.add_argument("--ref-scale", dest="ref_scale", type=int)
    t.add_argument("--partitions", type=int)
    t.add_argument("--boundaries", type=str, help="comma-separated area thresholds in pixels^2")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint (per-class AP and mAP)")
    add_common(e)
    e.add_argument("--data-dir", type=Path, required=True)
    e.add_argument("--checkpoint", type=Path, required=True)
    e.add_argument("--n-pos-jitter", dest="n_pos_jitter", type=int)
    e.add_argument("--n-neg", dest="n_neg", type=int)
    e.add_argument("--debug-oracle", dest="debug_oracle", action="store_true",
                   help="score the ground truth itself (AP pipeline sanity check)")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("cam", help="channel-activation matrix over a scale sweep")
    add_common(c)
    c.add_argument("--checkpoint", type=Path, required=True)
    c.add_argument("--image", type=Path, required=True, help="PPM image to sweep")
    c.add_argument("--scales", type=str, help="comma-separated side lengths")
    c.add_argument("--cam-k", dest="cam_k", type=int)
    c.add_argument("--normalize-rois", dest="normalize_rois", action="store_const", const=1)
    c.add_argument("--ref-scale", dest="ref_scale", type=int)
    c.set_defaults(func=cmd_cam)

    r = sub.add_parser("rmse", help="scale-space RMSE report with/without correction")
    add_common(r)
    r.add_argument("--data-dir", type=Path, required=True)
    r.add_argument("--checkpoint", type=Path, required=True)
    r.add_argument("--scales", type=str)
    r.set_defaults(func=cmd_rmse)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SanlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
