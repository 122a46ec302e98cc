"""Dataset container: images, category metadata, and derived statistics."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.data.image import SyntheticImage
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class CategoryInfo:
    """Metadata about one searchable category in a dataset.

    ``alignment_deficit`` is the angular offset (radians) between the CLIP
    text embedding of the category name and the category's latent concept
    direction.  It is part of the dataset definition (not the embedding)
    because the paper's observation is that difficulty is a property of a
    *query on a dataset*; it lets us construct the long tail of hard queries
    that Figure 1 documents.
    """

    name: str
    prompt: str
    alignment_deficit: float = 0.0
    locality_noise: float = 0.03
    frequency: float = 0.1

    def __post_init__(self) -> None:
        if not self.name:
            raise DatasetError("CategoryInfo.name must be non-empty")
        if self.alignment_deficit < 0:
            raise DatasetError("alignment_deficit must be >= 0")
        if self.locality_noise < 0:
            raise DatasetError("locality_noise must be >= 0")
        if not 0.0 < self.frequency <= 1.0:
            raise DatasetError("frequency must be in (0, 1]")


@dataclass(frozen=True)
class DatasetStatistics:
    """Summary statistics used in reports and latency experiments."""

    name: str
    image_count: int
    category_count: int
    object_count: int
    mean_objects_per_image: float
    mean_image_pixels: float
    positives_per_category: Mapping[str, int]

    def rare_categories(self, max_positives: int) -> list[str]:
        """Categories with at most ``max_positives`` positive images."""
        return sorted(
            name
            for name, count in self.positives_per_category.items()
            if count <= max_positives
        )


@dataclass
class ImageDataset:
    """A searchable synthetic image dataset.

    The dataset is immutable in practice: images and categories are provided
    at construction time and only derived lookups are computed afterwards.
    """

    name: str
    images: Sequence[SyntheticImage]
    categories: Sequence[CategoryInfo]
    description: str = ""
    _category_index: dict[str, CategoryInfo] = field(init=False, repr=False)
    _image_index: dict[int, SyntheticImage] = field(init=False, repr=False)
    _positives: dict[str, frozenset[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.images:
            raise DatasetError(f"Dataset '{self.name}' has no images")
        if not self.categories:
            raise DatasetError(f"Dataset '{self.name}' has no categories")
        self.images = tuple(self.images)
        self.categories = tuple(self.categories)
        self._category_index = {info.name: info for info in self.categories}
        if len(self._category_index) != len(self.categories):
            raise DatasetError(f"Dataset '{self.name}' has duplicate category names")
        self._image_index = {image.image_id: image for image in self.images}
        if len(self._image_index) != len(self.images):
            raise DatasetError(f"Dataset '{self.name}' has duplicate image ids")
        known = set(self._category_index)
        positives: dict[str, set[int]] = {name: set() for name in known}
        for image in self.images:
            for category in image.categories:
                if category not in known:
                    raise DatasetError(
                        f"Image {image.image_id} uses unknown category '{category}'"
                    )
                positives[category].add(image.image_id)
        self._positives = {
            name: frozenset(ids) for name, ids in positives.items()
        }

    def derive(
        self,
        removed_image_ids: "Iterable[int]",
        added: "Sequence[SyntheticImage]",
    ) -> "ImageDataset":
        """This dataset with some images dropped and new images appended.

        ``removed_image_ids`` (deleted or replaced images) leave the image
        order; ``added`` go to the end, in order.  Only the touched images
        are validated and only the touched categories' positive sets are
        rebuilt; the rest is shared with this dataset or copied at C speed
        (the id index and the image tuple), with no per-image Python work.
        """
        removed = frozenset(int(image_id) for image_id in removed_image_ids)
        # ``_image_index`` is kept in image order (removals pop, additions
        # append), so the new image tuple is one C-level pass over it.
        image_index = dict(self._image_index)
        touched: "set[str]" = set()
        for image_id in removed:
            try:
                touched |= image_index.pop(image_id).categories
            except KeyError as exc:
                raise DatasetError(
                    f"Unknown image id {image_id} in dataset '{self.name}'"
                ) from exc
        for image in added:
            if image.image_id in image_index:
                raise DatasetError(f"Dataset '{self.name}' has duplicate image ids")
            for category in image.categories:
                if category not in self._category_index:
                    raise DatasetError(
                        f"Image {image.image_id} uses unknown category '{category}'"
                    )
            image_index[image.image_id] = image
            touched |= image.categories
        if not image_index:
            raise DatasetError(f"Dataset '{self.name}' has no images")
        positives = dict(self._positives)
        for category in touched:
            positives[category] = (positives[category] - removed) | frozenset(
                image.image_id for image in added if category in image.categories
            )
        derived = copy.copy(self)
        derived.images = tuple(image_index.values())
        derived._image_index = image_index
        derived._positives = positives
        return derived

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self) -> Iterator[SyntheticImage]:
        return iter(self.images)

    def __contains__(self, image_id: object) -> bool:
        """True when an image with this id is in the dataset."""
        return image_id in self._image_index

    @property
    def category_names(self) -> tuple[str, ...]:
        """All category names, in catalog order."""
        return tuple(info.name for info in self.categories)

    def category(self, name: str) -> CategoryInfo:
        """Look up category metadata by name."""
        try:
            return self._category_index[name]
        except KeyError as exc:
            raise DatasetError(
                f"Unknown category '{name}' in dataset '{self.name}'"
            ) from exc

    def image(self, image_id: int) -> SyntheticImage:
        """Look up an image by id."""
        try:
            return self._image_index[image_id]
        except KeyError as exc:
            raise DatasetError(
                f"Unknown image id {image_id} in dataset '{self.name}'"
            ) from exc

    def positive_image_ids(self, category: str) -> frozenset[int]:
        """Ids of images containing ``category`` (ground-truth relevance)."""
        self.category(category)
        return self._positives[category]

    def positive_count(self, category: str) -> int:
        """Number of images containing ``category``."""
        return len(self.positive_image_ids(category))

    def is_relevant(self, image_id: int, category: str) -> bool:
        """Ground-truth relevance judgement used by the oracle and metrics."""
        return image_id in self.positive_image_ids(category)

    def searchable_categories(self, min_positives: int = 1) -> tuple[str, ...]:
        """Categories with at least ``min_positives`` positive images."""
        return tuple(
            name
            for name in self.category_names
            if self.positive_count(name) >= min_positives
        )

    def statistics(self) -> DatasetStatistics:
        """Compute summary statistics for reporting."""
        object_count = sum(len(image.objects) for image in self.images)
        mean_pixels = sum(
            float(image.width * image.height) for image in self.images
        ) / len(self.images)
        return DatasetStatistics(
            name=self.name,
            image_count=len(self.images),
            category_count=len(self.categories),
            object_count=object_count,
            mean_objects_per_image=object_count / len(self.images),
            mean_image_pixels=mean_pixels,
            positives_per_category={
                name: self.positive_count(name) for name in self.category_names
            },
        )

    def subset(self, image_ids: Iterable[int], name: "str | None" = None) -> "ImageDataset":
        """A new dataset restricted to ``image_ids`` (categories unchanged)."""
        wanted = set(image_ids)
        images = [image for image in self.images if image.image_id in wanted]
        return ImageDataset(
            name=name or f"{self.name}-subset",
            images=images,
            categories=self.categories,
            description=self.description,
        )
