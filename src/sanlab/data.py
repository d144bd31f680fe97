"""Deterministic synthetic multi-scale detection data.

Images are low-amplitude noise backgrounds with 1-3 non-overlapping
textured shapes whose side lengths are drawn log-uniformly, so objects of
every scale partition occur in quantity.  Each class has a distinct shape
and fill texture (solid square, striped disk, checkered triangle), keeping
classification easy for a tiny backbone.

On-disk layout: binary PPM (P6) images plus a plain-text manifest, one
record per image (the file name line, then one `class x1 y1 x2 y2` line
per object; `#` starts a comment, used to note skipped placements).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import MIN_IMAGE_SIDE, Image, RoI, box_array
from .errors import ConfigError, RoiError, SanlabError, ShapeError
from .rng import STREAM_DATA, STREAM_EVAL, derive
from .san import TOY_SCHEME

PLACEMENT_RETRIES = 100
MIN_GAP = 2.0  # pixels kept clear between placed boxes
MIN_OBJECT_SIDE = 4  # pixels: the lower end of scale_range may not go below it
PROPOSAL_JITTER = 0.25  # a jittered copy's center and size move by up to this share of its box


@dataclass(frozen=True)
class Annotation:
    box: RoI
    class_id: int
    image_id: int = 0


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs for the generator.

    Object side lengths are drawn log-uniformly within a uniformly chosen
    size band (band edges are the toy partition sides), so every scale
    partition receives a sizeable share of objects even after placement
    failures skew against large instances.
    """

    num_images: int
    image_size: int = 96
    num_classes: int = 3
    scale_range: tuple[float, float] = (8.0, 80.0)
    objects_min: int = 1
    objects_max: int = 3
    background_amplitude: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.image_size < MIN_IMAGE_SIDE:
            raise ConfigError(f"image_size must be at least {MIN_IMAGE_SIDE}, got {self.image_size}")
        lo, hi = self.scale_range
        if not (MIN_OBJECT_SIDE <= lo <= hi <= self.image_size):
            raise ConfigError(f"scale_range {self.scale_range} must lie within [{MIN_OBJECT_SIDE}, {self.image_size}]")
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.num_images < 0 or self.objects_min < 1 or self.objects_max < self.objects_min:
            raise ConfigError("num_images must be >= 0 and objects_min/max must satisfy 1 <= min <= max")
        if not 0 <= self.background_amplitude <= 1:
            raise ConfigError(f"background_amplitude must be in [0,1], got {self.background_amplitude}")

    def band_intervals(self) -> list[tuple[float, float]]:
        """Side-length bands clipped to scale_range (empty bands dropped); a
        range with equal ends is one band, of that single side."""
        lo, hi = self.scale_range
        bands = [math.sqrt(b) for b in TOY_SCHEME.boundaries]
        edges = [lo] + [b for b in bands if lo < b < hi] + [hi]
        return [(a, b) for a, b in zip(edges, edges[1:]) if b > a] or [(lo, hi)]


# Class palette: (shape, primary color, secondary color). Shapes cycle for
# num_classes > 3; colors rotate so every class stays distinct.  The solid
# fill goes on the disk: its tight box keeps noisy background corners, so
# even the texture-free class has scale-dependent features.
_SHAPES = ("disk", "square", "triangle")
_COLORS = (
    ((0.95, 0.25, 0.20), (0.95, 0.25, 0.20)),  # solid
    ((0.15, 0.55, 0.95), (0.90, 0.90, 0.30)),  # stripes
    ((0.20, 0.85, 0.35), (0.60, 0.15, 0.80)),  # checker
)


@functools.lru_cache(maxsize=None)
def _class_style(class_id: int) -> tuple[str, np.ndarray, np.ndarray]:
    shape = _SHAPES[(class_id - 1) % len(_SHAPES)]
    c1, c2 = _COLORS[(class_id - 1) % len(_COLORS)]
    # rotate hue deterministically for classes beyond the base palette
    shift = ((class_id - 1) // len(_SHAPES)) % 3
    c1 = np.roll(np.asarray(c1, dtype=np.float32), shift)[:, None, None]
    c2 = np.roll(np.asarray(c2, dtype=np.float32), shift)[:, None, None]
    c1.flags.writeable = c2.flags.writeable = False  # shared by every call
    return shape, c1, c2


def _paint_object(px: np.ndarray, x1: int, y1: int, side: int, class_id: int) -> None:
    """Rasterize one object into a 3xHxW pixel array (values in [0,1]).

    Fill-texture periods scale with the object so an object looks the same
    at every size (the scale-normalized patch of a small instance matches
    that of a large one, as for real-world objects).
    """
    shape, c1, c2 = _class_style(class_id)
    xx = np.arange(side)
    yy = xx[:, None]
    region = px[:, y1 : y1 + side, x1 : x1 + side]
    period = max(2, side // 3)
    stripes = (yy % period) < period // 2
    if shape == "disk":  # solid fill
        r = side / 2.0
        np.copyto(region, c1, where=(yy + 0.5 - r) ** 2 + (xx + 0.5 - r) ** 2 <= r * r)
    elif shape == "square":  # stripes
        np.copyto(region, np.where(stripes, c1, c2))
    else:  # triangle, apex at top center and base at the bottom, checker fill
        mask = np.abs(xx + 0.5 - side / 2.0) <= (yy + 0.5) / side * side / 2.0
        np.copyto(region, np.where(stripes ^ ((xx % period) < period // 2), c1, c2), where=mask)


def _place_objects(cfg: DatasetConfig, rng: np.random.Generator, image_id: int) -> tuple[np.ndarray, list[Annotation], int]:
    """One image's 8-bit levels, its annotations and its skipped placements.

    An object tries up to PLACEMENT_RETRIES top-left corners, each drawn
    as two scalar ``integers`` calls (x1, then y1), and takes the first
    that keeps MIN_GAP pixels clear of every box already placed.  The
    attempts are drawn as one (PLACEMENT_RETRIES, 2) array, which consumes
    the stream as the scalar calls would, and tested at once.  The stream
    state saved before that draw is then restored and only the values up
    to the first free attempt (all of them when none is free) are drawn
    again, so the stream goes on exactly where the scalar loop left it.
    """
    size = cfg.image_size
    px = rng.random((3, size, size), dtype=np.float64)
    # 0.5 + amplitude * (noise - 0.5), clipped, without temporaries
    px -= 0.5
    px *= cfg.background_amplitude
    px += 0.5
    px = np.clip(px, 0.0, 1.0, out=px).astype(np.float32)
    n_obj = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    bands = cfg.band_intervals()
    anns: list[Annotation] = []
    placed = np.empty((0, 4))  # x1, y1, x2, y2 of every box placed so far
    skipped = 0
    for _ in range(n_obj):
        class_id = int(rng.integers(1, cfg.num_classes + 1))
        lo, hi = bands[int(rng.integers(0, len(bands)))]
        # scale_range lies within [MIN_OBJECT_SIDE, size], so the rounded side does too
        side = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        state = rng.bit_generator.state
        xy = rng.integers(0, size - side + 1, size=(PLACEMENT_RETRIES, 2)).astype(np.float64)
        # box_iou(box grown by MIN_GAP, placed box) > 0, exact on these integer-valued floats
        hits = (xy[:, None] - MIN_GAP < placed[:, 2:]) & (placed[:, :2] < xy[:, None] + (side + MIN_GAP))
        free = ~(hits[..., 0] & hits[..., 1]).any(axis=1)
        k = int(free.argmax()) if free.any() else PLACEMENT_RETRIES - 1
        rng.bit_generator.state = state
        rng.integers(0, size - side + 1, size=2 * (k + 1))
        if not free[k]:
            skipped += 1
            continue
        x1, y1 = int(xy[k, 0]), int(xy[k, 1])
        _paint_object(px, x1, y1, side, class_id)
        box = (float(x1), float(y1), float(x1 + side), float(y1 + side))
        anns.append(Annotation(box=RoI(*box), class_id=class_id, image_id=image_id))
        placed = np.vstack([placed, box])
    # the image is its 8-bit levels, as a PPM file holds them
    px *= 255.0
    return np.round(px, out=px).astype(np.uint8)[None], anns, skipped


def generate_dataset_with_stats(cfg: DatasetConfig) -> tuple[list[tuple[Image, list[Annotation]]], list[int]]:
    """Generate all images; also report skipped placements per image."""
    samples: list[tuple[Image, list[Annotation]]] = []
    skips: list[int] = []
    for i in range(cfg.num_images):
        rng = derive(cfg.seed, STREAM_DATA, i)
        levels, anns, skipped = _place_objects(cfg, rng, i)
        samples.append((Image(levels, id=i), anns))
        skips.append(skipped)
    return samples, skips


def generate_dataset(cfg: DatasetConfig) -> list[tuple[Image, list[Annotation]]]:
    """Deterministic dataset: a pure function of the config (incl. its seed)."""
    return generate_dataset_with_stats(cfg)[0]


def check_class_ids(dataset: list[tuple[Image, list[Annotation]]], num_classes: int) -> None:
    """Reject an object class the model cannot score: classes run from 1 to
    num_classes, and 0 is the background label."""
    bad = sorted({a.class_id for _, anns in dataset for a in anns} - set(range(1, num_classes + 1)))
    if bad:
        raise ConfigError(f"object class {bad[-1]} is outside the model's classes 1..{num_classes} (num_classes={num_classes})")


def make_proposals(
    gts: list[Annotation],
    n_pos_jitter: int,
    n_neg: int,
    rng: np.random.Generator,
    image_size: int | tuple[int, int],
) -> np.ndarray:
    """Candidate boxes as (P, 4) float64 x1, y1, x2, y2: the
    ``n_pos_jitter`` jittered copies of each ground truth in turn, then
    ``n_neg`` random negatives.

    A copy's center and size move by up to +/-PROPOSAL_JITTER of its box;
    negatives are sampled uniformly.  ``image_size`` is the side of a
    square image or its ``(width, height)``; every proposal is clamped
    inside the image, each axis by its own extent.

    All draws for an image are taken as arrays, in the order of one
    scalar ``uniform`` call per value (per jittered copy: x shift, y shift,
    width and height factors; per negative: width, height, center x,
    center y), and each box is the float64 result of those scalar formulas.
    """
    if n_pos_jitter < 0 or n_neg < 0:
        raise ConfigError(f"proposal counts must be non-negative, got n_pos_jitter={n_pos_jitter}, n_neg={n_neg}")
    extent = np.array(image_size if isinstance(image_size, tuple) else (image_size, image_size), dtype=np.float64)
    g = np.repeat(box_array([a.box for a in gts]), n_pos_jitter, axis=0)
    u = rng.uniform(-PROPOSAL_JITTER, PROPOSAL_JITTER, size=(len(g), 4))
    size = g[:, 2:] - g[:, :2]  # columns x, y: width, height
    center = g[:, :2] + size / 2 + u[:, :2] * size
    jittered = size * (1 + u[:, 2:])
    # a negative's center range depends on its own size draw, so the raw
    # doubles are drawn here and mapped by uniform's low + (high - low) * u
    r = rng.random((n_neg, 4))
    neg_size = 6.0 + (extent / 2 - 6.0) * r[:, :2]
    lo = neg_size / 2
    neg_center = lo + ((extent - lo) - lo) * r[:, 2:]
    lo, hi = _clamp_axes(np.concatenate([center, neg_center]), np.concatenate([jittered, neg_size]), extent)
    return np.concatenate([lo, hi], axis=1)


def _clamp_axes(c: np.ndarray, size: np.ndarray, extent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per axis (column), the interval of length ``size`` centred on ``c``,
    clamped to [0, extent]; one narrower than 2 px becomes the 2-px
    interval at its clamped start (kept inside the image)."""
    lo = np.maximum(0.0, c - size / 2)
    hi = np.minimum(extent, c + size / 2)
    thin = hi - lo < 2.0
    return (
        np.where(thin, np.maximum(0.0, np.minimum(lo, extent - 2.0)), lo),
        np.where(thin, np.maximum(2.0, np.minimum(extent, lo + 2.0)), hi),
    )


def proposal_rng(seed: int, image_id: int) -> np.random.Generator:
    """Evaluation-time proposal stream for one image."""
    return derive(seed, STREAM_EVAL, image_id)


def scale_statistics(dataset: list[tuple[Image, list[Annotation]]]) -> dict[int, tuple[float, float]]:
    """Per-class (median, population stddev) of annotation areas ({} with no objects)."""
    areas: dict[int, list[float]] = {}
    for _, anns in dataset:
        for a in anns:
            areas.setdefault(a.class_id, []).append(a.box.area)
    return {c: (float(np.median(v)), float(np.std(v))) for c, v in sorted(areas.items())}


# ---------------------------------------------------------------------------
# on-disk format


def read_file(path: Path, text: bool = False, error: type[SanlabError] = SanlabError) -> bytes | str:
    """The bytes of ``path``, or with ``text`` its UTF-8 text.  A file that
    cannot be read or decoded raises ``error``, naming the path."""
    try:
        raw = Path(path).read_bytes()
        return raw.decode("utf-8") if text else raw
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def write_ppm(path: Path, img: Image) -> None:
    arr = img.levels[0].transpose(1, 2, 0)  # HxWx3
    with open(path, "wb") as f:
        f.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        f.write(arr.tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Read a binary PPM into its 1x3xHxW uint8 levels."""
    raw = read_file(path)
    if not (raw.startswith(b"P6") and raw[2:3].isspace()):
        raise SanlabError(f"{path} is not a binary PPM file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if not all(f.isdigit() for f in fields):
        raise SanlabError(f"{path}: PPM header fields must be non-negative integers, got {fields}")
    w, h, maxval = (int(x) for x in fields)
    if maxval != 255:
        raise SanlabError(f"{path}: only maxval 255 supported, got {maxval}")
    if len(raw) - pos < w * h * 3:
        raise SanlabError(f"{path}: truncated PPM, {w}x{h} needs {w * h * 3} bytes of pixels, found {max(0, len(raw) - pos)}")
    arr = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3, offset=pos).reshape(h, w, 3)
    return np.ascontiguousarray(arr.transpose(2, 0, 1)[None])


def read_image(path: Path, image_id: int = 0) -> Image:
    """The Image of a binary PPM; levels that `Image` rejects are an error
    naming the file."""
    try:
        return Image(read_ppm(path), id=image_id)
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from exc


_IMAGE_NAME = re.compile(r"img_(\d+)\.ppm")


def image_file_name(image_id: int) -> str:
    return f"img_{image_id:05d}.ppm"


def write_dataset(out_dir: Path, dataset: list[tuple[Image, list[Annotation]]], skips: list[int] | None = None) -> Path:
    """Write PPM files plus the manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.txt"
    lines: list[str] = []
    for idx, (img, anns) in enumerate(dataset):
        name = image_file_name(img.id)
        write_ppm(out_dir / name, img)
        lines.append(name)
        for a in anns:
            b = a.box
            lines.append(f"{a.class_id} {b.x1:g} {b.y1:g} {b.x2:g} {b.y2:g}")
        if skips and skips[idx]:
            lines.append(f"# skipped {skips[idx]}")
    manifest.write_text("\n".join(lines) + ("\n" if lines else ""))
    return manifest


def load_dataset(data_dir: Path) -> list[tuple[Image, list[Annotation]]]:
    """Read a manifest + PPM tree back into memory.  An image listed twice,
    or a box that is not finite (its coordinates or its float64 area), has
    no positive extent or lies wholly outside its image, is an error naming
    the manifest and the line."""
    data_dir = Path(data_dir)
    manifest = data_dir / "manifest.txt"
    dataset: list[tuple[Image, list[Annotation]]] = []
    current: list[Annotation] | None = None
    image_id = -1
    seen: set[int] = set()
    for line in read_file(manifest, text=True).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            name = _IMAGE_NAME.fullmatch(parts[0])
            if name is None:
                raise SanlabError(f"{manifest}: image name {parts[0]!r} does not match img_NNNNN.ppm")
            image_id = int(name.group(1))
            if image_id in seen:
                raise SanlabError(f"{manifest}: image line {line!r} lists image {image_id} a second time")
            seen.add(image_id)
            current = []
            image = read_image(data_dir / parts[0], image_id)
            dataset.append((image, current))
        else:
            if current is None:
                raise SanlabError(f"{manifest}: annotation {line!r} before any image line")
            if len(parts) != 5:
                raise SanlabError(f"{manifest}: expected 'class x1 y1 x2 y2', got {line!r}")
            try:
                class_id, coords = int(parts[0]), [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise SanlabError(f"{manifest}: bad annotation {line!r}: {exc}") from exc
            if class_id < 1:
                raise SanlabError(f"{manifest}: class id in {line!r} must be at least 1; 0 is the background label")
            # any infinite or NaN coordinate makes the float64 area non-finite too
            if not math.isfinite((coords[2] - coords[0]) * (coords[3] - coords[1])):
                raise SanlabError(f"{manifest}: box coordinates in {line!r} must be finite, and so must their float64 area")
            try:
                box = RoI(*coords)
            except RoiError as exc:
                raise SanlabError(f"{manifest}: box in {line!r}: {exc}") from exc
            if box.x2 <= 0 or box.y2 <= 0 or box.x1 >= image.width or box.y1 >= image.height:
                raise SanlabError(f"{manifest}: box in {line!r} lies wholly outside its {image.width}x{image.height} image")
            current.append(Annotation(box=box, class_id=class_id, image_id=image_id))
    return dataset


def write_scale_statistics_csv(path: Path, stats: dict[int, tuple[float, float]]) -> None:
    lines = ["class,median_area,std_area"]
    for c, (med, std) in stats.items():
        lines.append(f"{c},{med:.6g},{std:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")
