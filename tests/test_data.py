"""Synthetic data generation, proposals, statistics, on-disk formats."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import scalar_dataset_with_stats

from sanlab.backbone import MIN_IMAGE_SIDE, Image, RoI
from sanlab.data import (
    Annotation,
    DatasetConfig,
    MIN_OBJECT_SIDE,
    generate_dataset,
    generate_dataset_with_stats,
    load_dataset,
    make_proposals,
    read_ppm,
    scale_statistics,
    write_dataset,
    write_ppm,
    write_scale_statistics_csv,
)
from sanlab.errors import ConfigError, SanlabError
from sanlab.rng import derive
from sanlab.san import TOY_SCHEME, partition_index


class TestDatasetConfig:
    def test_rejects_bad_scale_range(self):
        with pytest.raises(ConfigError):
            DatasetConfig(num_images=1, scale_range=(0.0, 50.0))
        with pytest.raises(ConfigError):
            DatasetConfig(num_images=1, scale_range=(8.0, 500.0))

    def test_rejects_a_scale_range_below_the_minimum_object_side_naming_it(self):
        """Sides below 4 px were silently drawn as 4 px boxes."""
        with pytest.raises(ConfigError, match=r"scale_range \(1.0, 2.0\) must lie within \[4, 96\]"):
            DatasetConfig(num_images=1, scale_range=(1.0, 2.0))
        with pytest.raises(ConfigError, match="scale_range"):
            DatasetConfig(num_images=1, scale_range=(MIN_OBJECT_SIDE - 0.5, 8.0))
        DatasetConfig(num_images=1, scale_range=(MIN_OBJECT_SIDE, MIN_OBJECT_SIDE))

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            DatasetConfig(num_images=1, num_classes=1)

    def test_rejects_image_size_below_the_minimum_naming_it(self):
        with pytest.raises(ConfigError, match=f"image_size must be at least {MIN_IMAGE_SIDE}, got 8"):
            DatasetConfig(num_images=1, image_size=8, scale_range=(4.0, 8.0))
        DatasetConfig(num_images=1, image_size=MIN_IMAGE_SIDE, scale_range=(4.0, 8.0))


# The scalar placement loop's matrix: seeds at the defaults, one object per
# image (the analysis workload's test set), many classes and objects on a
# small image, crowded images with no background noise (most skips), and
# objects as large as the image, whose attempt range of 1 draws nothing.
SCALAR_LOOP_CONFIGS = [
    *(DatasetConfig(num_images=30, seed=s) for s in range(5)),
    DatasetConfig(num_images=40, seed=12, objects_min=1, objects_max=1),
    DatasetConfig(num_images=40, seed=2, num_classes=7, image_size=64, scale_range=(8.0, 60.0), objects_max=6),
    DatasetConfig(
        num_images=40, seed=3, image_size=40, scale_range=(8.0, 40.0), objects_min=3, objects_max=5, background_amplitude=0.0
    ),
    DatasetConfig(num_images=20, seed=4, image_size=20, scale_range=(19.6, 20.0)),
]


class TestGeneration:
    def test_zero_images(self):
        assert generate_dataset(DatasetConfig(num_images=0)) == []

    @pytest.mark.parametrize("cfg", SCALAR_LOOP_CONFIGS, ids=lambda c: f"{c.image_size}px-seed{c.seed}")
    def test_same_bytes_as_the_scalar_placement_loop(self, cfg):
        samples, skips = generate_dataset_with_stats(cfg)
        want = scalar_dataset_with_stats(cfg)
        assert len(samples) == len(want) == cfg.num_images
        for (img, anns), skipped, (levels, want_anns, want_skipped) in zip(samples, skips, want):
            assert img.levels.shape == levels.shape and img.levels.tobytes() == levels.tobytes()
            assert anns == want_anns
            assert skipped == want_skipped

    def test_scalar_loop_matrix_covers_skips_and_whole_image_objects(self):
        crowded, whole = SCALAR_LOOP_CONFIGS[-2:]
        assert sum(generate_dataset_with_stats(crowded)[1]) > 0
        dataset, skips = generate_dataset_with_stats(whole)
        assert sum(skips) > 0
        assert {a.box.width for _, anns in dataset for a in anns} == {float(whole.image_size)}

    def test_scale_range_with_equal_ends_gives_every_object_that_side(self):
        cfg = DatasetConfig(num_images=6, seed=3, scale_range=(20.0, 20.0))
        dataset = generate_dataset(cfg)
        boxes = [a.box for _, anns in dataset for a in anns]
        assert len(boxes) >= cfg.num_images
        assert {(b.width, b.height) for b in boxes} == {(20.0, 20.0)}

    def test_same_seed_byte_identical(self):
        cfg = DatasetConfig(num_images=5, seed=33)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        for (img_a, anns_a), (img_b, anns_b) in zip(a, b):
            assert np.array_equal(img_a.pixels.data, img_b.pixels.data)
            assert anns_a == anns_b

    def test_different_seeds_differ(self):
        a = generate_dataset(DatasetConfig(num_images=2, seed=1))
        b = generate_dataset(DatasetConfig(num_images=2, seed=2))
        assert not np.array_equal(a[0][0].pixels.data, b[0][0].pixels.data)

    def test_annotations_inside_image_and_classes_valid(self):
        cfg = DatasetConfig(num_images=30, seed=5)
        for img, anns in generate_dataset(cfg):
            for a in anns:
                assert 0 <= a.box.x1 < a.box.x2 <= cfg.image_size
                assert 0 <= a.box.y1 < a.box.y2 <= cfg.image_size
                assert 1 <= a.class_id <= cfg.num_classes

    def test_objects_do_not_overlap(self):
        from sanlab.losses import box_iou

        for img, anns in generate_dataset(DatasetConfig(num_images=20, seed=6)):
            for i, a in enumerate(anns):
                for b in anns[i + 1 :]:
                    assert box_iou(a.box, b.box) == 0.0

    def test_pixels_match_ppm_roundtrip_exactly(self, tmp_path):
        (img, _), = generate_dataset(DatasetConfig(num_images=1, seed=9))
        write_ppm(tmp_path / "x.ppm", img)
        back = read_ppm(tmp_path / "x.ppm")
        assert back.dtype == np.uint8 and np.array_equal(back, img.levels)
        assert np.array_equal(Image(back).pixels.data, img.pixels.data)

    def test_generated_images_hold_their_8_bit_levels(self):
        cfg = DatasetConfig(num_images=3, seed=9, image_size=40, scale_range=(8.0, 30.0))
        for img, _ in generate_dataset(cfg):
            assert img.levels.dtype == np.uint8
            assert img.levels.shape == (1, 3, 40, 40)
            assert img.levels.nbytes == 3 * 40 * 40

    def test_every_partition_gets_at_least_twenty_percent(self):
        """Toy scheme coverage over the 200-image default-seed dataset."""
        dataset = generate_dataset(DatasetConfig(num_images=200, seed=0))
        counts = [0, 0, 0]
        for _, anns in dataset:
            for a in anns:
                counts[partition_index(a.box.area, TOY_SCHEME)] += 1
        total = sum(counts)
        assert total > 0
        for i, c in enumerate(counts):
            assert c / total >= 0.20, f"partition {i} got {c}/{total}"


class TestProposals:
    def test_empty_inputs(self):
        rng = derive(0, 9)
        assert make_proposals([], 0, 0, rng, 96).shape == (0, 4)

    def test_zero_counts_yield_nothing(self):
        gt = Annotation(box=RoI(x1=10, y1=12, x2=40, y2=44), class_id=1)
        props = make_proposals([gt], 0, 0, derive(1, 9), 96)
        assert props.shape == (0, 4)

    def test_proposals_satisfy_roi_invariants(self):
        rng = derive(2, 9)
        gts = [
            Annotation(box=RoI(x1=2, y1=2, x2=30, y2=28), class_id=1),
            Annotation(box=RoI(x1=50, y1=50, x2=90, y2=94), class_id=2),
        ]
        for _ in range(50):
            for x1, y1, x2, y2 in make_proposals(gts, 4, 6, rng, 96).tolist():
                assert x2 > x1 and y2 > y1
                assert 0 <= x1 and x2 <= 96 and 0 <= y1 and y2 <= 96

    def test_deterministic_under_seed(self):
        gt = Annotation(box=RoI(x1=10, y1=10, x2=50, y2=50), class_id=1)
        a = make_proposals([gt], 3, 5, derive(7, 9), 96)
        b = make_proposals([gt], 3, 5, derive(7, 9), 96)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_pos_jitter, n_neg", [(-2, 5), (3, -1)])
    def test_negative_counts_rejected(self, n_pos_jitter, n_neg):
        gt = Annotation(box=RoI(x1=10, y1=10, x2=50, y2=50), class_id=1)
        with pytest.raises(ConfigError, match="proposal counts must be non-negative"):
            make_proposals([gt], n_pos_jitter, n_neg, derive(7, 9), 96)


class TestDerive:
    def test_negative_seed_is_a_config_error_naming_it(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            derive(-1, 9)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -5"):
            generate_dataset(DatasetConfig(num_images=1, seed=-5))


class TestScaleStatistics:
    def test_single_object(self):
        img, _ = generate_dataset(DatasetConfig(num_images=1, seed=3))[0]
        ann = Annotation(box=RoI(x1=0, y1=0, x2=5, y2=5), class_id=1)
        stats = scale_statistics([(img, [ann])])
        assert stats[1] == (25.0, 0.0)

    def test_two_objects_median_and_population_std(self):
        img, _ = generate_dataset(DatasetConfig(num_images=1, seed=3))[0]
        anns = [
            Annotation(box=RoI(x1=0, y1=0, x2=2, y2=2), class_id=1),  # area 4
            Annotation(box=RoI(x1=0, y1=0, x2=4, y2=4), class_id=1),  # area 16
        ]
        stats = scale_statistics([(img, anns)])
        assert stats[1][0] == pytest.approx(10.0)
        assert stats[1][1] == pytest.approx(6.0)

    def test_matches_sort_based_recomputation(self):
        r = np.random.default_rng(77)
        img, _ = generate_dataset(DatasetConfig(num_images=1, seed=3))[0]
        anns = []
        for _ in range(1000):
            w, h = r.uniform(1, 40, 2)
            x, y = r.uniform(0, 50, 2)
            anns.append(Annotation(box=RoI(x1=x, y1=y, x2=x + w, y2=y + h), class_id=int(r.integers(1, 4))))
        stats = scale_statistics([(img, anns)])
        for c in (1, 2, 3):
            areas = sorted(a.box.area for a in anns if a.class_id == c)
            n = len(areas)
            median = areas[n // 2] if n % 2 else (areas[n // 2 - 1] + areas[n // 2]) / 2
            mean = math.fsum(areas) / n
            std = math.sqrt(math.fsum((a - mean) ** 2 for a in areas) / n)
            assert stats[c][0] == pytest.approx(median, rel=1e-12)
            assert stats[c][1] == pytest.approx(std, rel=1e-9)

    def test_dataset_with_no_objects_has_no_statistics(self, tmp_path):
        assert scale_statistics([]) == {}
        img = Image(np.zeros((1, 3, 16, 16), dtype=np.uint8))
        assert scale_statistics([(img, [])]) == {}
        write_scale_statistics_csv(tmp_path / "s.csv", {})
        assert (tmp_path / "s.csv").read_bytes() == b"class,median_area,std_area\n"


class TestDiskFormat:
    def test_write_load_roundtrip(self, tmp_path):
        dataset, skips = generate_dataset_with_stats(DatasetConfig(num_images=4, seed=21))
        write_dataset(tmp_path, dataset, skips)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 4
        for (img_a, anns_a), (img_b, anns_b) in zip(dataset, loaded):
            assert img_a.id == img_b.id
            assert np.array_equal(img_a.pixels.data, img_b.pixels.data)
            assert len(anns_a) == len(anns_b)
            for a, b in zip(anns_a, anns_b):
                assert a.class_id == b.class_id
                assert a.box == b.box

    def test_annotations_carry_their_image_id(self, tmp_path):
        """Generated and loaded annotations hold the id of their image, not its list position."""
        dataset = generate_dataset(DatasetConfig(num_images=6, seed=21))
        write_dataset(tmp_path, dataset[3:])
        for data in (dataset, load_dataset(tmp_path)):
            assert sum(len(anns) for _, anns in data) > len(data)
            for img, anns in data:
                assert all(a.image_id == img.id for a in anns)
        assert [img.id for img, _ in load_dataset(tmp_path)] == [3, 4, 5]

    def test_manifest_format(self, tmp_path):
        dataset = generate_dataset(DatasetConfig(num_images=2, seed=22))
        write_dataset(tmp_path, dataset)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert lines[0] == "img_00000.ppm"
        for line in lines:
            if line.startswith("#") or line.endswith(".ppm"):
                continue
            parts = line.split()
            assert len(parts) == 5
            int(parts[0])
            [float(v) for v in parts[1:]]

    def test_missing_manifest_errors(self, tmp_path):
        with pytest.raises(SanlabError, match="manifest"):
            load_dataset(tmp_path)

    def test_statistics_csv_schema(self, tmp_path):
        dataset = generate_dataset(DatasetConfig(num_images=10, seed=23))
        write_scale_statistics_csv(tmp_path / "s.csv", scale_statistics(dataset))
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "class,median_area,std_area"
        assert len(lines) == 1 + 3

    def test_loaded_images_hold_their_8_bit_levels(self, tmp_path):
        dataset = generate_dataset(DatasetConfig(num_images=3, seed=24))
        write_dataset(tmp_path, dataset)
        for (img, _), (back, _) in zip(dataset, load_dataset(tmp_path), strict=True):
            assert back.levels.dtype == np.uint8 and back.levels.nbytes == 3 * back.height * back.width
            assert back.levels.flags.c_contiguous
            assert np.array_equal(back.levels, img.levels)

    def test_ppm_round_trip_is_exact_on_every_level(self, tmp_path):
        """Each of the 256 levels in every channel and position class is
        written as its own byte and read back as itself; the writer that
        rounded pixels * 255 wrote the same bytes."""
        levels = np.roll(np.arange(3 * 16 * 20) % 256, 7).astype(np.uint8).reshape(1, 3, 16, 20)
        img = Image(levels)
        write_ppm(tmp_path / "x.ppm", img)
        raw = (tmp_path / "x.ppm").read_bytes()
        assert raw == b"P6\n20 16\n255\n" + np.round(img.pixels.data[0] * 255.0).astype(np.uint8).transpose(1, 2, 0).tobytes()
        assert np.array_equal(read_ppm(tmp_path / "x.ppm"), levels)

    def test_manifest_listing_an_image_twice_is_an_error(self, tmp_path):
        """A repeated image line names the manifest and the line; it used to
        load as an extra, object-less copy of the image."""
        write_dataset(tmp_path, generate_dataset(DatasetConfig(num_images=3, seed=25)))
        manifest = tmp_path / "manifest.txt"
        lines = manifest.read_text().splitlines()
        second = lines.index("img_00001.ppm")
        manifest.write_text("\n".join(lines[: second + 1] + lines) + "\n")
        with pytest.raises(SanlabError, match=r"manifest\.txt: image line 'img_00000\.ppm' lists image 0 a second time"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "box, message",
        [
            ("40 10 30 20", "must have positive extent"),
            ("10 20 30 20", "must have positive extent"),
            ("200 200 230 230", "lies wholly outside its 96x96 image"),
            ("10 96 30 120", "lies wholly outside its 96x96 image"),
            ("-30 -30 0 10", "lies wholly outside its 96x96 image"),
        ],
    )
    def test_box_the_image_cannot_hold_is_an_error(self, tmp_path, box, message):
        """A box with no positive extent, or wholly outside its image, names
        the manifest and the line."""
        write_dataset(tmp_path, generate_dataset(DatasetConfig(num_images=2, seed=26)))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("img_00001.ppm\n", f"img_00001.ppm\n1 {box}\n", 1))
        with pytest.raises(SanlabError, match=re.escape(f"{manifest}: box in '1 {box}'") + ".*" + message):
            load_dataset(tmp_path)

    def test_box_partly_outside_its_image_loads(self, tmp_path):
        write_dataset(tmp_path, generate_dataset(DatasetConfig(num_images=1, seed=26)))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "2 -5 90 4 120\n")
        assert load_dataset(tmp_path)[0][1][-1] == Annotation(box=RoI(-5.0, 90.0, 4.0, 120.0), class_id=2, image_id=0)

    def test_ppm_header_comments_are_skipped(self, tmp_path):
        """Comments after the magic, between width and height and before
        maxval leave the levels as the plain header gives them."""
        pixels = np.arange(3 * 4 * 5, dtype=np.uint8).tobytes()
        (tmp_path / "plain.ppm").write_bytes(b"P6\n5 4\n255\n" + pixels)
        (tmp_path / "noted.ppm").write_bytes(b"P6\n# made by hand\n5 # width\n# height next\n4\n# maxval\n255\n" + pixels)
        assert np.array_equal(read_ppm(tmp_path / "noted.ppm"), read_ppm(tmp_path / "plain.ppm"))

    def test_ppm_magic_needs_whitespace_after_it(self, tmp_path):
        """'P616 16 255' used to load as a 16x16 image."""
        (tmp_path / "glued.ppm").write_bytes(b"P616 16 255\n" + bytes(16 * 16 * 3))
        with pytest.raises(SanlabError, match="not a binary PPM"):
            read_ppm(tmp_path / "glued.ppm")

    def test_read_ppm_rejects_other_formats(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(SanlabError):
            read_ppm(tmp_path / "bad.ppm")
