"""User feedback: box annotations and their conversion to patch labels.

The user marks relevant regions with boxes (or marks a whole image as not
relevant).  Patch vectors whose pre-indexed box overlaps a feedback box are
treated as positive examples for the next alignment round; patches of the
same image with no overlap are negatives, and every patch of an image marked
not-relevant is a negative (§4.3).

The patch training set is columnar and append-only per session.  A
:class:`FeedbackMap` keeps the rows it has already built (vector ids,
labels, weights, feature rows) in capacity-doubling buffers, and each
``to_patch_labels`` call appends only the images recorded since the previous
call, in recording order, with box overlap computed vectorized against the
store's ``boxes`` column.  A round therefore costs work proportional to the
new feedback, not to the session's history.  The rows and their order are
exactly those a from-scratch build over every recorded image produces.  The
buffers are rebuilt from scratch when an already-recorded image's feedback is
overwritten, or when a different index (or ``min_box_overlap``) is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from repro.data.geometry import BoundingBox
from repro.exceptions import SessionError

if TYPE_CHECKING:  # pragma: no cover - import only used for type checking
    from repro.core.indexing import SeeSawIndex


@dataclass(frozen=True)
class BoxFeedback:
    """Feedback for one image: relevant region boxes, or a negative judgement."""

    image_id: int
    relevant: bool
    boxes: tuple[BoundingBox, ...] = ()

    def __post_init__(self) -> None:
        if self.relevant and not self.boxes:
            raise SessionError(
                f"Image {self.image_id} marked relevant requires at least one box"
            )
        if not self.relevant and self.boxes:
            raise SessionError(
                f"Image {self.image_id} marked not relevant must not carry boxes"
            )

    @staticmethod
    def positive(image_id: int, boxes: Iterable[BoundingBox]) -> "BoxFeedback":
        """Feedback marking ``image_id`` relevant with the given region boxes."""
        return BoxFeedback(image_id=image_id, relevant=True, boxes=tuple(boxes))

    @staticmethod
    def negative(image_id: int) -> "BoxFeedback":
        """Feedback marking ``image_id`` not relevant."""
        return BoxFeedback(image_id=image_id, relevant=False)


class _TrainingSet:
    """The append-only patch training set of one feedback map over one index.

    Rows live in capacity-doubling buffers; :meth:`extend` appends the rows of
    newly recorded images and :meth:`arrays` hands out read-only views of the
    filled prefix.  Appending never writes into rows already handed out, so a
    view taken in an earlier round stays valid.
    """

    def __init__(self, index: "SeeSawIndex", min_box_overlap: float) -> None:
        self.index = index
        self.store = index.store
        self.min_box_overlap = min_box_overlap
        self.images = 0
        """How many of the map's recorded images the rows already cover."""
        self.size = 0
        self._ids = np.zeros(0, dtype=np.int64)
        self._labels = np.zeros(0)
        self._weights = np.zeros(0)
        self._vectors = np.zeros((0, self.store.dim), dtype=self.store.compute_dtype)

    def serves(self, index: "SeeSawIndex", min_box_overlap: float) -> bool:
        """True when these rows are valid for ``index`` at this overlap threshold.

        The store is compared too: ``SeeSawIndex.replace_store`` can swap in
        another tier (possibly another dtype) under the same index.
        """
        return (
            index is self.index
            and index.store is self.store
            and min_box_overlap == self.min_box_overlap
        )

    def extend(self, feedbacks: "list[BoxFeedback]") -> None:
        """Append the patch rows of ``feedbacks``, in order."""
        segments = self.index.segments
        chunks = [
            segments.vector_ids_for_row(segments.row_for_image(feedback.image_id))
            for feedback in feedbacks
        ]
        ids = np.concatenate(chunks)
        labels = np.zeros(ids.size)
        boxes = self.store.take_boxes(ids)
        start = 0
        for feedback, chunk in zip(feedbacks, chunks):
            stop = start + chunk.size
            if feedback.relevant:
                labels[start:stop] = _overlaps(
                    boxes[start:stop], feedback.boxes, self.min_box_overlap
                )
            start = stop
        weights = 1.0 / segments.counts[segments.vector_image_rows[ids]]
        self._reserve(self.size + ids.size)
        rows = slice(self.size, self.size + ids.size)
        self._ids[rows] = ids
        self._labels[rows] = labels
        self._weights[rows] = weights
        self._vectors[rows] = self.store.take_rows(ids)
        self.size = rows.stop
        self.images += len(feedbacks)

    def _reserve(self, needed: int) -> None:
        capacity = self._ids.shape[0]
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity)
        for name in ("_ids", "_labels", "_weights", "_vectors"):
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)

    def arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Read-only ``(vectors, labels, weights, vector_ids)`` views of the rows."""
        if not self.size:
            return (
                np.zeros((0, self.store.dim)),
                np.zeros(0),
                np.zeros(0),
                np.zeros(0, dtype=np.int64),
            )
        views = []
        for column in (self._vectors, self._labels, self._weights, self._ids):
            view = column[: self.size]
            view.setflags(write=False)
            views.append(view)
        return tuple(views)  # type: ignore[return-value]


def _overlaps(
    patch_boxes: np.ndarray, boxes: "tuple[BoundingBox, ...]", min_box_overlap: float
) -> np.ndarray:
    """1.0 for patch rows ``(x, y, x2, y2)`` overlapping any box by more than the threshold.

    Per element, the same operations as :meth:`BoundingBox.intersection`.
    """
    x, y, x2, y2 = patch_boxes.T
    hit = np.zeros(patch_boxes.shape[0], dtype=bool)
    for box in boxes:
        overlap_w = np.minimum(x2, box.x2) - np.maximum(x, box.x)
        overlap_h = np.minimum(y2, box.y2) - np.maximum(y, box.y)
        area = np.where((overlap_w <= 0) | (overlap_h <= 0), 0.0, overlap_w * overlap_h)
        hit |= area > min_box_overlap
    return hit.astype(np.float64)


@dataclass
class FeedbackMap:
    """Accumulated feedback across a search session (Listing 1, line 6)."""

    _items: "dict[int, BoxFeedback]" = field(default_factory=dict)
    _trainset: "_TrainingSet | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, image_id: int) -> bool:
        return image_id in self._items

    def __iter__(self) -> Iterator[BoxFeedback]:
        return iter(self._items.values())

    def update(self, feedback: BoxFeedback) -> None:
        """Record (or overwrite) the feedback for one image."""
        if feedback.image_id in self._items:
            # An overwrite changes rows already built (the image keeps its
            # position in the map), so the training set is rebuilt.
            self._trainset = None
        self._items[feedback.image_id] = feedback

    def get(self, image_id: int) -> "BoxFeedback | None":
        """The feedback recorded for ``image_id``, if any."""
        return self._items.get(image_id)

    @property
    def image_ids(self) -> frozenset[int]:
        """Every image that has received feedback."""
        return frozenset(self._items)

    @property
    def positive_count(self) -> int:
        """Number of images marked relevant."""
        return sum(1 for feedback in self._items.values() if feedback.relevant)

    @property
    def negative_count(self) -> int:
        """Number of images marked not relevant."""
        return len(self._items) - self.positive_count

    def as_mapping(self) -> Mapping[int, BoxFeedback]:
        """Read-only view of the feedback by image id."""
        return dict(self._items)

    # ------------------------------------------------------------------
    # training-set construction
    # ------------------------------------------------------------------
    def _training_set(
        self, index: "SeeSawIndex", min_box_overlap: float
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        trainset = self._trainset
        if trainset is None or not trainset.serves(index, min_box_overlap):
            trainset = self._trainset = _TrainingSet(index, min_box_overlap)
        if trainset.images < len(self._items):
            trainset.extend(list(islice(self._items.values(), trainset.images, None)))
        return trainset.arrays()

    def to_patch_labels(
        self, index: "SeeSawIndex", min_box_overlap: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Convert feedback into a patch-level training set.

        Returns ``(vectors, labels, vector_ids)`` where each row of ``vectors``
        is a stored patch vector of an image with feedback, and ``labels`` is 1
        for patches overlapping a positive feedback box and 0 otherwise.  Rows
        follow the order feedback was recorded in, each image's patches in
        segment order.  The arrays are read-only views.
        """
        vectors, labels, _, vector_ids = self._training_set(index, min_box_overlap)
        return vectors, labels, vector_ids

    def to_weighted_patch_labels(
        self, index: "SeeSawIndex", min_box_overlap: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Patch training set plus per-example weights of 1 / (patches per image).

        With the multiscale representation a single image contributes an order
        of magnitude more labelled vectors than a coarse index does; these
        weights keep each *image* contributing one unit to the data term, so
        the loss weights behave the same in both regimes.
        """
        return self._training_set(index, min_box_overlap)

    def to_image_labels(self) -> "dict[int, float]":
        """Image-level labels (1 relevant / 0 not), used by coarse-only methods."""
        return {
            feedback.image_id: 1.0 if feedback.relevant else 0.0
            for feedback in self._items.values()
        }
