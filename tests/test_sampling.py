"""Array-form proposal sampling and labelling against their scalar loops.

`make_proposals` and `assign_roi_labels` evaluate whole images at once.
The scalar loops below are the reference they replaced: one `uniform`
call per value, one clamp and one `box_iou` per pair.  On square images
both must give the same boxes, labels and targets, bit for bit, and leave
the generator in the same state.

`build_step_batch` samples, labels and subsamples a step's proposals on
arrays and makes objects only of the RoIs it keeps; the per-RoI sampler
it replaced (`helpers.per_roi_build_step_batch`) is its reference, field
by field and bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import per_roi_build_step_batch
from sanlab.backbone import RoI
from sanlab.data import Annotation, DatasetConfig, generate_dataset, make_proposals
from sanlab.errors import RoiError
from sanlab.losses import assign_roi_labels, box_iou, encode_regression
from sanlab.rng import derive
from sanlab import training
from sanlab.training import TrainingConfig, build_step_batch


def scalar_make_proposals(gts, n_pos_jitter, n_neg, rng, image_size):
    jitter = 0.25  # the package's PROPOSAL_JITTER
    out = []
    for gt in gts:
        for _ in range(n_pos_jitter):
            w, h = gt.box.width, gt.box.height
            cx = gt.box.x1 + w / 2 + rng.uniform(-jitter, jitter) * w
            cy = gt.box.y1 + h / 2 + rng.uniform(-jitter, jitter) * h
            nw = w * (1 + rng.uniform(-jitter, jitter))
            nh = h * (1 + rng.uniform(-jitter, jitter))
            out.append(scalar_clamped_roi(cx, cy, nw, nh, image_size))
    for _ in range(n_neg):
        w = rng.uniform(6.0, image_size / 2)
        h = rng.uniform(6.0, image_size / 2)
        cx = rng.uniform(w / 2, image_size - w / 2)
        cy = rng.uniform(h / 2, image_size - h / 2)
        out.append(scalar_clamped_roi(cx, cy, w, h, image_size))
    return out


def scalar_clamped_roi(cx, cy, w, h, image_size):
    x1 = max(0.0, cx - w / 2)
    y1 = max(0.0, cy - h / 2)
    x2 = min(float(image_size), cx + w / 2)
    y2 = min(float(image_size), cy + h / 2)
    if x2 - x1 < 2.0:
        x1, x2 = max(0.0, min(x1, image_size - 2.0)), max(2.0, min(float(image_size), x1 + 2.0))
    if y2 - y1 < 2.0:
        y1, y2 = max(0.0, min(y1, image_size - 2.0)), max(2.0, min(float(image_size), y1 + 2.0))
    return RoI(x1=x1, y1=y1, x2=x2, y2=y2)


def scalar_assign_roi_labels(rois, gts, pos_iou=0.5):
    out = []
    for roi in rois:
        best_iou = 0.0
        best = None
        for gt in gts:
            iou = box_iou(roi, gt.box)
            if iou > best_iou:
                best_iou = iou
                best = gt
        if best is not None and best_iou >= pos_iou:
            out.append((best.class_id, encode_regression(roi, best.box)))
        else:
            out.append((0, None))
    return out


def bits(rois):
    """Every coordinate as its float64 bit pattern, so -0.0 != 0.0."""
    return [np.float64([r.x1, r.y1, r.x2, r.y2]).tobytes() for r in rois]


def assert_same_sampling(gts, n_pos_jitter, n_neg, seed, size, pos_iou=0.5):
    rng_a, rng_b = derive(seed, 9), derive(seed, 9)
    got = make_proposals(gts, n_pos_jitter, n_neg, rng_a, size)
    want = scalar_make_proposals(gts, n_pos_jitter, n_neg, rng_b, size)
    assert bits(got) == bits(want)
    assert rng_a.random() == rng_b.random()
    assert assign_roi_labels(got, gts, pos_iou) == scalar_assign_roi_labels(want, gts, pos_iou)


@pytest.fixture(scope="module")
def images():
    return generate_dataset(DatasetConfig(num_images=160, seed=5))


@pytest.mark.parametrize("n_pos_jitter,n_neg", [(6, 30), (8, 16)])
def test_matches_scalar_loops_on_generated_images(images, n_pos_jitter, n_neg):
    """160 images x 2 seeds per count pair: 640 (seed, image) draws."""
    for seed in (0, 1):
        for img, anns in images:
            assert_same_sampling(anns, n_pos_jitter, n_neg, seed * 1000 + img.id, img.width)


GT_A = Annotation(box=RoI(x1=10.0, y1=12.0, x2=40.0, y2=44.0), class_id=1)
GT_B = Annotation(box=RoI(x1=30.0, y1=8.0, x2=70.0, y2=50.0), class_id=2)


@pytest.mark.parametrize(
    "gts,n_pos_jitter,n_neg",
    [
        ([GT_A, GT_B], 4, 5),
        ([GT_A, GT_B], 0, 7),
        ([GT_A, GT_B], 5, 0),
        ([], 3, 9),
        ([], 0, 0),
    ],
)
def test_matches_scalar_loops_at_degenerate_counts(gts, n_pos_jitter, n_neg):
    for seed in range(10):
        assert_same_sampling(gts, n_pos_jitter, n_neg, seed, 96)


@pytest.mark.parametrize(
    "box",
    [
        RoI(x1=0.0, y1=40.0, x2=1.5, y2=41.0),  # left border
        RoI(x1=94.5, y1=40.0, x2=96.0, y2=41.0),  # right border
        RoI(x1=40.0, y1=0.0, x2=41.0, y2=1.5),  # top border
        RoI(x1=40.0, y1=94.5, x2=41.0, y2=96.0),  # bottom border
        RoI(x1=0.0, y1=0.0, x2=0.5, y2=0.5),  # corner
        RoI(x1=95.25, y1=95.25, x2=96.0, y2=96.0),  # far corner
    ],
)
def test_matches_scalar_loops_for_sub_two_pixel_boxes(box):
    gts = [Annotation(box=box, class_id=1)]
    for seed in range(20):
        assert_same_sampling(gts, 6, 4, seed, 96)


def test_sub_two_pixel_boxes_reach_the_two_pixel_rule():
    """The border cases above do take the narrow-box branch."""
    gts = [Annotation(box=RoI(x1=94.5, y1=0.0, x2=96.0, y2=1.5), class_id=1)]
    props = make_proposals(gts, 6, 0, derive(0, 9), 96)
    assert all(p.x1 == 94.0 and p.x2 == 96.0 for p in props)
    assert all(p.height == pytest.approx(2.0) for p in props)


def test_labels_match_for_ties_and_zero_iou():
    twin = [
        Annotation(box=RoI(x1=0.0, y1=0.0, x2=10.0, y2=10.0), class_id=2),
        Annotation(box=RoI(x1=0.0, y1=0.0, x2=10.0, y2=10.0), class_id=1),
        Annotation(box=RoI(x1=20.0, y1=0.0, x2=30.0, y2=10.0), class_id=3),
        Annotation(box=RoI(x1=40.0, y1=0.0, x2=50.0, y2=10.0), class_id=1),
    ]
    rois = [
        RoI(x1=0.0, y1=0.0, x2=10.0, y2=10.0),  # tie between the twins
        RoI(x1=1.0, y1=0.0, x2=11.0, y2=10.0),
        RoI(x1=25.0, y1=0.0, x2=45.0, y2=10.0),  # tie between gts 2 and 3
        RoI(x1=30.0, y1=0.0, x2=40.0, y2=10.0),  # touches two gts: zero IoU
        RoI(x1=60.0, y1=60.0, x2=70.0, y2=70.0),  # far from all
    ]
    want = scalar_assign_roi_labels(rois, twin, 0.15)
    assert assign_roi_labels(rois, twin, 0.15) == want
    assert [u for u, _ in want] == [2, 2, 3, 0, 0]
    assert assign_roi_labels(rois, [], 0.5) == [(0, None)] * len(rois)
    assert assign_roi_labels([], twin, 0.5) == []


def test_labels_match_at_the_positive_threshold():
    """RoIs whose IoU with their ground truth is pos_iou up to rounding.

    A box shifted by a third of its width along one axis overlaps the
    original with IoU 0.5 in exact arithmetic; in float64 it lands on
    either side, so the label depends on the last bit of the IoU.  The
    first pair's IoU is 0.49999999999999994 by `box_iou`, but
    0.5000000000000001 with the denominator reassociated as
    ``area_r - inter + area_g``.
    """
    pairs = [
        (
            RoI(x1=30.285270888375134, y1=24.80853808061511, x2=70.11364857161148, y2=63.0215667034369),
            RoI(x1=17.00914499396302, y1=24.80853808061511, x2=56.83752267719937, y2=63.0215667034369),
        )
    ]
    rng = np.random.default_rng(0)
    for _ in range(400):
        x1, y1 = rng.uniform(20.0, 40.0, 2)
        w, h = rng.uniform(10.0, 50.0, 2)
        roi = RoI(x1=x1, y1=y1, x2=x1 + w, y2=y1 + h)
        pairs.append((roi, RoI(x1=x1 - w / 3, y1=y1, x2=x1 - w / 3 + w, y2=y1 + h)))
    ious = [box_iou(roi, gt) for roi, gt in pairs]
    assert ious[0] < 0.5
    assert min(ious) < 0.5 <= max(ious) and max(abs(v - 0.5) for v in ious) < 1e-15
    for roi, gt in pairs:
        gts = [Annotation(box=gt, class_id=1)]
        assert assign_roi_labels([roi], gts, 0.5) == scalar_assign_roi_labels([roi], gts, 0.5)


def test_non_square_proposals_stay_inside_their_image():
    """Each axis is sampled and clamped by its own extent."""
    width, height = 160, 48
    gts = [
        Annotation(box=RoI(x1=120.0, y1=30.0, x2=158.0, y2=47.0), class_id=1),
        Annotation(box=RoI(x1=2.0, y1=1.0, x2=20.0, y2=19.0), class_id=2),
    ]
    rng = derive(3, 9)
    props = [p for _ in range(200) for p in make_proposals(gts, 6, 30, rng, (width, height))]
    assert all(0.0 <= p.x1 < p.x2 <= width and 0.0 <= p.y1 < p.y2 <= height for p in props)
    assert max(p.x2 for p in props) > 2 * height, "negatives should span the wider axis"


def batch_bits(batch):
    """Every `StepBatch` field, arrays as their dtype, shape and bytes."""
    arrays = {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch) if f.name != "images"}
    return {
        "image_ids": [(img.id, id(img)) for img in batch.images],
        **{name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()},
    }


@pytest.fixture(scope="module")
def step_datasets(images):
    """The generated images; the same with every third image's objects
    dropped from its annotations; and 96x96 and 64x64 images alternating."""
    small = generate_dataset(DatasetConfig(num_images=40, image_size=64, scale_range=(8.0, 60.0), seed=6))
    return {
        "plain": images,
        "object-free": [(img, [] if i % 3 == 0 else anns) for i, (img, anns) in enumerate(images)],
        "mixed-size": [pair for pairs in zip(images[:40], small) for pair in pairs],
    }


# name -> dataset, TrainingConfig fields, `training` constants
STEP_CONFIGS = {
    "default": ("plain", {}, {}),
    "object-free images": ("object-free", {}, {}),
    "no jittered copies": ("plain", {}, {"N_POS_JITTER": 0}),
    "no negatives": ("plain", {}, {"N_NEG": 0}),
    "no positives wanted": ("plain", {}, {"POS_FRACTION": 0.0}),
    "only positives wanted": ("plain", {}, {"POS_FRACTION": 1.0}),
    "no scale-aware subset": ("plain", {"san_samples": 0}, {}),
    "three mixed-size images": ("mixed-size", {"images_per_step": 3}, {}),
}


@pytest.mark.parametrize("name", list(STEP_CONFIGS))
def test_step_batches_match_the_per_roi_sampler(step_datasets, monkeypatch, name):
    """300 steps per config: every field of every step is the old sampler's."""
    data, overrides, constants = STEP_CONFIGS[name]
    for constant, value in constants.items():
        monkeypatch.setattr(training, constant, value)
    dataset = step_datasets[data]
    cfg = TrainingConfig(seed=4, **overrides)
    for step in range(300):
        assert batch_bits(build_step_batch(dataset, cfg, step)) == batch_bits(
            per_roi_build_step_batch(dataset, cfg, step)
        ), f"step {step}"


def test_a_step_without_rois_fails_as_the_per_roi_sampler_does(step_datasets, monkeypatch):
    monkeypatch.setattr(training, "N_NEG", 0)
    bare = [(img, []) for img, _ in step_datasets["plain"][:4]]
    cfg = TrainingConfig()
    with pytest.raises(RoiError) as got:
        build_step_batch(bare, cfg, 3)
    with pytest.raises(RoiError) as want:
        per_roi_build_step_batch(bare, cfg, 3)
    assert str(got.value) == str(want.value)
