"""Array-form proposal sampling and labelling against their scalar loops.

`make_proposals` and `assign_roi_labels` evaluate whole images at once.
The scalar loops in `helpers` are the reference they replaced: one
`uniform` call per value, one clamp and one `box_iou` per pair, on `RoI`
objects.  On square images both must give the same boxes, labels and
targets, bit for bit, and leave the generator in the same state.

`build_step_batch` samples, labels and subsamples a step's proposals on
arrays through those two functions; the per-RoI sampler it replaced
(`helpers.per_roi_build_step_batch`, on the scalar loops) is its
reference, field by field and bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import label_arrays, per_roi_build_step_batch, scalar_assign_roi_labels, scalar_make_proposals
from sanlab.backbone import RoI, box_array
from sanlab.data import Annotation, DatasetConfig, generate_dataset, make_proposals
from sanlab.errors import RoiError
from sanlab.losses import assign_roi_labels, box_iou
from sanlab.rng import derive
from sanlab import training
from sanlab.training import TrainingConfig, build_step_batch


def assert_same_labels(boxes, gts, pos_iou):
    """`assign_roi_labels` on the (P, 4) boxes gives the scalar loop's
    classes and targets, bit for bit."""
    classes, targets = assign_roi_labels(boxes, gts, pos_iou)
    want_classes, want_targets = label_arrays(scalar_assign_roi_labels([RoI(*b) for b in boxes.tolist()], gts, pos_iou))
    assert classes.dtype == np.int64 and classes.tobytes() == want_classes.tobytes()
    assert targets.dtype == np.float64 and targets.shape == (len(boxes), 4)
    assert targets.tobytes() == want_targets.tobytes()


def assert_same_sampling(gts, n_pos_jitter, n_neg, seed, size, pos_iou=0.5):
    rng_a, rng_b = derive(seed, 9), derive(seed, 9)
    got = make_proposals(gts, n_pos_jitter, n_neg, rng_a, size)
    want = scalar_make_proposals(gts, n_pos_jitter, n_neg, rng_b, size)
    assert got.dtype == np.float64 and got.shape == (len(want), 4)
    assert got.tobytes() == box_array(want).tobytes()  # bit patterns, so -0.0 != 0.0
    assert rng_a.random() == rng_b.random()
    assert_same_labels(got, gts, pos_iou)


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
    assert (props[:, 0] == 94.0).all() and (props[:, 2] == 96.0).all()
    assert props[:, 3] - props[:, 1] == pytest.approx(2.0)


def test_labels_match_for_ties_and_zero_iou():
    twin = [
        Annotation(box=RoI(x1=0.0, y1=0.0, x2=10.0, y2=10.0), class_id=2),
        Annotation(box=RoI(x1=0.0, y1=0.0, x2=10.0, y2=10.0), class_id=1),
        Annotation(box=RoI(x1=20.0, y1=0.0, x2=30.0, y2=10.0), class_id=3),
        Annotation(box=RoI(x1=40.0, y1=0.0, x2=50.0, y2=10.0), class_id=1),
    ]
    boxes = np.array(
        [
            (0.0, 0.0, 10.0, 10.0),  # tie between the twins
            (1.0, 0.0, 11.0, 10.0),
            (25.0, 0.0, 45.0, 10.0),  # tie between gts 2 and 3
            (30.0, 0.0, 40.0, 10.0),  # touches two gts: zero IoU
            (60.0, 60.0, 70.0, 70.0),  # far from all
        ]
    )
    assert_same_labels(boxes, twin, 0.15)
    assert assign_roi_labels(boxes, twin, 0.15)[0].tolist() == [2, 2, 3, 0, 0]
    classes, targets = assign_roi_labels(boxes, [], 0.5)
    assert classes.tolist() == [0] * len(boxes) and targets.tobytes() == np.zeros((len(boxes), 4)).tobytes()
    classes, targets = assign_roi_labels(np.zeros((0, 4)), twin, 0.5)
    assert classes.shape == (0,) and targets.shape == (0, 4)


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
        assert_same_labels(box_array([roi]), [Annotation(box=gt, class_id=1)], 0.5)


def test_non_square_proposals_stay_inside_their_image():
    """Each axis is sampled and clamped by its own extent."""
    width, height = 160, 48
    gts = [
        Annotation(box=RoI(x1=120.0, y1=30.0, x2=158.0, y2=47.0), class_id=1),
        Annotation(box=RoI(x1=2.0, y1=1.0, x2=20.0, y2=19.0), class_id=2),
    ]
    rng = derive(3, 9)
    x1, y1, x2, y2 = np.concatenate([make_proposals(gts, 6, 30, rng, (width, height)) for _ in range(200)]).T
    assert (0.0 <= x1).all() and (x1 < x2).all() and (x2 <= width).all()
    assert (0.0 <= y1).all() and (y1 < y2).all() and (y2 <= height).all()
    assert x2.max() > 2 * height, "negatives should span the wider axis"


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
