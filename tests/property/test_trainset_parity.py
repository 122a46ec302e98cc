"""Parity of the incremental patch training set against the per-record builder.

``FeedbackMap.to_patch_labels`` / ``to_weighted_patch_labels`` keep an
append-only, columnar training set per session.  The builder they replaced
walked every recorded image on every call, looked up each patch's record and
intersected its ``BoundingBox`` with every feedback box.  That builder is kept
here, verbatim in behaviour, as the oracle: over arbitrary feedback sequences
the incremental arrays must equal its arrays bit for bit (vectors, labels,
weights, ids, dtypes and row order), on every store tier, and whole sessions
of every feedback-driven method must show the same images and end on the same
query vector.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import EnsMethod, FewShotClipMethod, PropagationMethod, RocchioMethod
from repro.config import SeeSawConfig
from repro.core.feedback import BoxFeedback, FeedbackMap
from repro.core.indexing import SeeSawIndex
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.live import DeltaVectorStore
from repro.server.service import SeeSawService
from repro.vectorstore import ShardedVectorStore


# ---------------------------------------------------------------------------
# the oracle: the per-record builder the incremental training set replaced
# ---------------------------------------------------------------------------
def legacy_patch_labels(feedback: FeedbackMap, index: SeeSawIndex, min_box_overlap=0.0):
    vector_ids: "list[int]" = []
    labels: "list[float]" = []
    for item in feedback:
        for vector_id in index.vector_ids_for_image(item.image_id):
            record = index.store.record(vector_id)
            if item.relevant:
                overlap = any(
                    record.box.intersection(box) > min_box_overlap for box in item.boxes
                )
                labels.append(1.0 if overlap else 0.0)
            else:
                labels.append(0.0)
            vector_ids.append(vector_id)
    if not vector_ids:
        dim = index.store.dim
        return np.zeros((0, dim)), np.zeros(0), np.zeros(0, dtype=np.int64)
    ids = np.asarray(vector_ids, dtype=np.int64)
    vectors = np.asarray(index.store.vectors[ids])
    return vectors, np.asarray(labels, dtype=np.float64), ids


def legacy_weighted_patch_labels(
    feedback: FeedbackMap, index: SeeSawIndex, min_box_overlap=0.0
):
    vectors, labels, vector_ids = legacy_patch_labels(feedback, index, min_box_overlap)
    if vector_ids.size == 0:
        return vectors, labels, np.zeros(0), vector_ids
    segments = index.segments
    weights = 1.0 / segments.counts[segments.vector_image_rows[vector_ids]]
    return vectors, labels, weights, vector_ids


def assert_bit_identical(actual, expected) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# indexes: one per store tier, all over the same handcrafted dataset
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def float32_index(tiny_dataset, tiny_clip) -> SeeSawIndex:
    config = SeeSawConfig(embedding_dim=64, seed=7, compute_dtype="float32")
    return SeeSawIndex.build(tiny_dataset, tiny_clip, config, build_graph=False)


@pytest.fixture(scope="module")
def sharded_index(tiny_dataset, tiny_clip) -> SeeSawIndex:
    config = SeeSawConfig(embedding_dim=64, seed=7)
    index = SeeSawIndex.build(tiny_dataset, tiny_clip, config, build_graph=False)
    index.replace_store(ShardedVectorStore.wrap(index.store, 3))
    return index


def _fresh_image(image_id: int, category: str) -> SyntheticImage:
    rng = np.random.default_rng(image_id)
    box = BoundingBox(float(rng.integers(0, 300)), float(rng.integers(0, 200)), 200.0, 180.0)
    return SyntheticImage(
        image_id=image_id,
        width=640,
        height=480,
        context="indoor",
        objects=(ObjectInstance(category=category, box=box),),
    )


@pytest.fixture(scope="module")
def live_index(tiny_dataset, tiny_clip):
    """A live view with delta rows (two fresh images, one replaced) and tombstones."""
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7, live_datasets=True))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    category = tiny_dataset.categories[0].name
    images = tiny_dataset.images
    service.live.upsert_images(
        "tiny", [_fresh_image(900, category), _fresh_image(901, category)]
    )
    service.live.upsert_images("tiny", [_fresh_image(images[1].image_id, category)])
    service.live.delete_images("tiny", [images[3].image_id])
    index = service.index_for("tiny", multiscale=True)
    assert isinstance(index.store, DeltaVectorStore)
    assert index.store.delta_rows and index.store.tombstone_count
    yield index
    service.live.close()


@pytest.fixture(params=["exact", "float32", "sharded", "live"])
def index_pair(request, tiny_index, float32_index, sharded_index, live_index):
    """``(primary, other)``: feedback is built against both, alternately."""
    if request.param == "live":
        return live_index, live_index
    other = {"exact": float32_index, "float32": tiny_index, "sharded": tiny_index}
    primary = {"exact": tiny_index, "float32": float32_index, "sharded": sharded_index}
    return primary[request.param], other[request.param]


# ---------------------------------------------------------------------------
# feedback sequences
# ---------------------------------------------------------------------------
# Patch edges of a 640x480 image: boxes snapped to them touch patches along
# an edge only (zero-area overlap), the case a ``>`` vs ``>=`` slip breaks.
_EDGES_X = (0.0, 120.0, 240.0, 360.0, 400.0, 480.0, 600.0)
_EDGES_Y = (0.0, 120.0, 240.0, 360.0)

_coordinate_x = st.sampled_from(_EDGES_X) | st.floats(0.0, 620.0, allow_nan=False)
_coordinate_y = st.sampled_from(_EDGES_Y) | st.floats(0.0, 460.0, allow_nan=False)
_extent = st.sampled_from((120.0, 240.0)) | st.floats(0.5, 400.0, allow_nan=False)
_boxes = st.lists(
    st.builds(BoundingBox, _coordinate_x, _coordinate_y, _extent, _extent),
    min_size=1,
    max_size=3,
)
_steps = st.lists(
    st.tuples(
        st.integers(0, 11),  # which pool image (repeats overwrite)
        st.booleans(),  # relevant
        _boxes,
        st.booleans(),  # build the training set after this step
        st.booleans(),  # ... against the other index
    ),
    max_size=14,
)
_overlaps = st.sampled_from((0.0, 0.0, 1.0, 2000.0)) | st.floats(0.0, 60000.0)


def _pool(index: SeeSawIndex) -> "list[int]":
    """Twelve images, including the live view's delta images at its tail."""
    ids = list(index.image_ids)
    return ids[:8] + ids[-4:]


class TestTrainingSetParity:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(steps=_steps, min_box_overlap=_overlaps)
    @example(steps=[], min_box_overlap=0.0)
    def test_bit_identical_to_per_record_builder(self, index_pair, steps, min_box_overlap):
        primary, other = index_pair
        pool = _pool(primary)
        feedback = FeedbackMap()
        for position, relevant, boxes, build, switch in steps:
            image_id = pool[position]
            feedback.update(
                BoxFeedback.positive(image_id, boxes)
                if relevant
                else BoxFeedback.negative(image_id)
            )
            if build:
                index = other if switch else primary
                assert_bit_identical(
                    feedback.to_weighted_patch_labels(index, min_box_overlap),
                    legacy_weighted_patch_labels(feedback, index, min_box_overlap),
                )
        assert_bit_identical(
            feedback.to_patch_labels(primary, min_box_overlap),
            legacy_patch_labels(feedback, primary, min_box_overlap),
        )

    def test_earlier_views_survive_appends(self, tiny_index):
        pool = _pool(tiny_index)
        feedback = FeedbackMap()
        feedback.update(BoxFeedback.negative(pool[0]))
        before = [array.copy() for array in feedback.to_weighted_patch_labels(tiny_index)]
        held = feedback.to_weighted_patch_labels(tiny_index)
        for image_id in pool[1:]:
            feedback.update(BoxFeedback.negative(image_id))
            feedback.to_weighted_patch_labels(tiny_index)
        assert_bit_identical(held, before)
        assert not held[0].flags.writeable


# ---------------------------------------------------------------------------
# whole sessions: same shown sequence and final query vector per method
# ---------------------------------------------------------------------------
METHODS = {
    "seesaw": lambda: SeeSawSearchMethod(SeeSawConfig(embedding_dim=64, seed=7)),
    "few_shot": FewShotClipMethod,
    "rocchio": RocchioMethod,
    "ens": lambda: EnsMethod(horizon=30),
    "propagation": PropagationMethod,
}


def run_session(index: SeeSawIndex, method_name: str, category: str, rounds: int = 6):
    session = SearchSession(
        index=index,
        method=METHODS[method_name](),
        text_query=index.dataset.category(category).prompt,
        batch_size=3,
    )
    for _ in range(rounds):
        batch = session.next_batch()
        if not batch:
            break
        for result in batch:
            boxes = index.dataset.image(result.image_id).ground_truth_boxes(category)
            session.give_feedback(result.image_id, bool(boxes), boxes)
    shown = [(step.result.image_id, step.result.score) for step in session.history]
    query = session.method.query_vector
    return shown, None if query is None else query.tobytes()


@pytest.mark.parametrize("method_name", sorted(METHODS))
@pytest.mark.parametrize("category", ["cat_easy", "cat_hard"])
def test_sessions_identical_to_per_record_builder(
    tiny_index, method_name, category, monkeypatch
):
    incremental = run_session(tiny_index, method_name, category)
    monkeypatch.setattr(FeedbackMap, "to_patch_labels", legacy_patch_labels)
    monkeypatch.setattr(
        FeedbackMap, "to_weighted_patch_labels", legacy_weighted_patch_labels
    )
    legacy = run_session(tiny_index, method_name, category)
    assert incremental == legacy
