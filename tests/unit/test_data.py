"""Tests for the data substrate: geometry, images, datasets, generators, catalogs."""

import numpy as np
import pytest

from repro.data.catalogs import DATASET_PROFILES, load_dataset
from repro.data.dataset import CategoryInfo, ImageDataset
from repro.data.generators import CategorySpec, DatasetProfile, SceneGenerator
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage, count_category_images
from repro.exceptions import DatasetError


class TestBoundingBox:
    def test_area_and_edges(self):
        box = BoundingBox(10, 20, 30, 40)
        assert box.area == 1200
        assert box.x2 == 40
        assert box.y2 == 60
        assert box.center == (25, 40)

    def test_invalid_size(self):
        with pytest.raises(DatasetError):
            BoundingBox(0, 0, 0, 10)

    def test_intersection_and_iou(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 10, 10)
        assert a.intersection(b) == 25
        assert a.iou(b) == pytest.approx(25 / 175)

    def test_disjoint_boxes(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(20, 20, 5, 5)
        assert a.intersection(b) == 0
        assert not a.overlaps(b)

    def test_overlap_fraction(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(0, 0, 5, 10)
        assert b.overlap_fraction(a) == pytest.approx(1.0)
        assert a.overlap_fraction(b) == pytest.approx(0.5)

    def test_contains_point(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains_point(5, 5)
        assert not box.contains_point(15, 5)

    def test_clipped_to(self):
        box = BoundingBox(-5, -5, 20, 20)
        clipped = box.clipped_to(10, 10)
        assert clipped.x == 0 and clipped.y == 0
        assert clipped.width == 10 and clipped.height == 10

    def test_clipped_outside_raises(self):
        with pytest.raises(DatasetError):
            BoundingBox(100, 100, 5, 5).clipped_to(10, 10)

    def test_full_image(self):
        box = BoundingBox.full_image(640, 480)
        assert box.area == 640 * 480


class TestSyntheticImage:
    def test_categories_and_lookup(self, simple_image):
        assert simple_image.categories == {"dog", "chair"}
        assert simple_image.contains_category("dog")
        assert len(simple_image.instances_of("dog")) == 1

    def test_object_outside_image_rejected(self):
        with pytest.raises(DatasetError):
            SyntheticImage(
                image_id=0,
                width=100,
                height=100,
                context="x",
                objects=(ObjectInstance("dog", BoundingBox(90, 90, 50, 50)),),
            )

    def test_objects_in_region(self, simple_image):
        region = BoundingBox(0, 0, 300, 300)
        hits = simple_image.objects_in_region(region)
        assert [instance.category for instance, _ in hits] == ["dog"]
        assert hits[0][1] == pytest.approx(1.0)

    def test_ground_truth_boxes(self, simple_image):
        boxes = simple_image.ground_truth_boxes("chair")
        assert len(boxes) == 1 and boxes[0].width == 150

    def test_count_category_images(self, simple_image):
        assert count_category_images([simple_image], "dog") == 1
        assert count_category_images([simple_image], "zebra") == 0

    def test_invalid_distinctiveness(self):
        with pytest.raises(DatasetError):
            ObjectInstance("dog", BoundingBox(0, 0, 10, 10), distinctiveness=0.0)


class TestImageDataset:
    def test_positive_lookup(self, tiny_dataset):
        category = tiny_dataset.category_names[0]
        positives = tiny_dataset.positive_image_ids(category)
        for image_id in positives:
            assert tiny_dataset.image(image_id).contains_category(category)

    def test_unknown_category_raises(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.positive_image_ids("does-not-exist")

    def test_unknown_image_raises(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.image(10**9)

    def test_statistics(self, tiny_dataset):
        stats = tiny_dataset.statistics()
        assert stats.image_count == len(tiny_dataset)
        assert stats.object_count > 0
        assert set(stats.positives_per_category) == set(tiny_dataset.category_names)

    def test_subset(self, tiny_dataset):
        ids = [image.image_id for image in list(tiny_dataset)[:10]]
        subset = tiny_dataset.subset(ids)
        assert len(subset) == 10

    def test_searchable_categories_respect_minimum(self, tiny_dataset):
        names = tiny_dataset.searchable_categories(min_positives=3)
        for name in names:
            assert tiny_dataset.positive_count(name) >= 3

    def test_duplicate_category_rejected(self, simple_image):
        info = CategoryInfo(name="dog", prompt="a dog")
        chair = CategoryInfo(name="chair", prompt="a chair")
        with pytest.raises(DatasetError):
            ImageDataset("dup", [simple_image], [info, info, chair])

    def test_derive_matches_a_fresh_dataset(self, tiny_dataset):
        images = list(tiny_dataset)
        category = tiny_dataset.category_names[0]
        replacement = SyntheticImage(
            image_id=images[3].image_id,
            width=640,
            height=480,
            context="indoor",
            objects=(ObjectInstance(category=category, box=BoundingBox(0, 0, 50, 50)),),
        )
        fresh = SyntheticImage(
            image_id=10**6, width=640, height=480, context="indoor", objects=()
        )
        removed = [images[3].image_id, images[7].image_id]
        derived = tiny_dataset.derive(removed, [replacement, fresh])
        survivors = [image for image in images if image.image_id not in removed]
        expected = ImageDataset(
            tiny_dataset.name,
            survivors + [replacement, fresh],
            tiny_dataset.categories,
            tiny_dataset.description,
        )
        assert derived.images == expected.images
        assert derived.category_names == expected.category_names
        for name in expected.category_names:
            assert derived.positive_image_ids(name) == expected.positive_image_ids(name)
        assert images[7].image_id not in derived and 10**6 in derived
        assert len(tiny_dataset) == len(images)  # the parent is untouched

    def test_derive_validates_touched_images(self, tiny_dataset):
        image = next(iter(tiny_dataset))
        with pytest.raises(DatasetError, match="duplicate"):
            tiny_dataset.derive([], [image])
        with pytest.raises(DatasetError, match="Unknown image id"):
            tiny_dataset.derive([10**9], [])
        stranger = SyntheticImage(
            image_id=10**6,
            width=640,
            height=480,
            context="indoor",
            objects=(ObjectInstance(category="unicorn", box=BoundingBox(0, 0, 5, 5)),),
        )
        with pytest.raises(DatasetError, match="unknown category"):
            tiny_dataset.derive([], [stranger])
        with pytest.raises(DatasetError, match="no images"):
            tiny_dataset.derive([image.image_id for image in tiny_dataset], [])


class TestSceneGenerator:
    def test_min_positives_enforced(self, tiny_dataset):
        for name in tiny_dataset.category_names:
            assert tiny_dataset.positive_count(name) >= 3

    def test_determinism(self):
        profile = DATASET_PROFILES["coco"]
        small = DatasetProfile(
            name="coco",
            description="d",
            image_count=40,
            category_count=8,
            image_sizes=profile.image_sizes,
            contexts=profile.contexts,
            objects_per_image=(1, 3),
            object_scale_range=profile.object_scale_range,
            frequency_range=profile.frequency_range,
            rare_fraction=profile.rare_fraction,
            easy_query_fraction=profile.easy_query_fraction,
            hard_deficit_range=profile.hard_deficit_range,
        )
        first = SceneGenerator(small, seed=3).generate()
        second = SceneGenerator(small, seed=3).generate()
        assert [img.categories for img in first] == [img.categories for img in second]

    def test_named_categories_present(self):
        dataset = load_dataset("bdd", seed=0, size_scale=0.08)
        assert "wheelchair" in dataset.category_names
        assert "car" in dataset.category_names

    def test_invalid_profile(self):
        with pytest.raises(DatasetError):
            DatasetProfile(
                name="bad",
                description="",
                image_count=0,
                category_count=5,
                image_sizes=((100, 100),),
                contexts=("a",),
                objects_per_image=(1, 2),
                object_scale_range=(0.1, 0.5),
                frequency_range=(0.1, 0.2),
                rare_fraction=0.1,
                easy_query_fraction=0.5,
                hard_deficit_range=(0.5, 1.0),
            )


class TestCatalogs:
    @pytest.mark.parametrize("name", sorted(DATASET_PROFILES))
    def test_all_profiles_load(self, name):
        dataset = load_dataset(name, seed=1, size_scale=0.05)
        assert len(dataset) >= 20
        assert dataset.name == name

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("imagenet")

    def test_objectnet_images_are_fixed_size(self):
        dataset = load_dataset("objectnet", seed=0, size_scale=0.05)
        assert all(image.width == 224 and image.height == 224 for image in dataset)

    def test_bdd_images_are_large(self):
        dataset = load_dataset("bdd", seed=0, size_scale=0.05)
        assert all(image.width == 1280 for image in dataset)

    def test_size_scale_changes_image_count(self):
        small = load_dataset("coco", seed=0, size_scale=0.05)
        smaller_than_full = DATASET_PROFILES["coco"].image_count
        assert len(small) < smaller_than_full

    def test_category_deficits_have_long_tail(self):
        dataset = load_dataset("lvis", seed=0, size_scale=0.2)
        deficits = np.array(
            [dataset.category(name).alignment_deficit for name in dataset.category_names]
        )
        assert (deficits < 0.2).any(), "some queries should be easy"
        assert (deficits > 0.8).any(), "some queries should be hard"
