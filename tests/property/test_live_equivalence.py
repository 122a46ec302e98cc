"""Bit-identity of the live (delta-over-base) view against rebuilds.

The mutable tier's core contract: after any sequence of upserts and
deletes, a session served by the delta view returns *exactly* — bit for
bit, through score ties — what a session over a from-scratch index of the
same logical corpus returns, on every exhaustive tier composition; and
after a merge, the sealed generation is exactly a cold build of the merged
corpus on every tier, including the candidate tiers (quantized, graph-ANN)
whose pre-merge delta path is exact-over-delta but approximate-over-base.

Plus the zero-downtime property: concurrent readers across a background
merge swap observe no errors and no stale-generation leaks.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SeeSawConfig
from repro.core.indexing import SeeSawIndex
from repro.core.multiscale import generate_patches
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.data.dataset import ImageDataset
from repro.data.generators import DatasetProfile, SceneGenerator
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.embedding.synthetic_clip import SyntheticClip
from repro.live import DeltaVectorStore
from repro.server.api import FeedbackRequest, StartSessionRequest
from repro.server.service import SeeSawService
from repro.vectorstore.base import VectorRecord

TIERS = {
    "flat": {},
    "sharded": {"n_shards": 3},
    "quantized": {"quantized_store": True},
    "graph": {"ann_search": True, "ann_graph_degree": 8, "ann_ef": 48},
}
EXHAUSTIVE_TIERS = ("flat", "sharded")


def build_corpus(seed: int = 23, image_count: int = 14):
    profile = DatasetProfile(
        name="live",
        description="live-equivalence corpus",
        image_count=image_count,
        category_count=4,
        image_sizes=((640, 480),),
        contexts=("indoor", "outdoor"),
        objects_per_image=(1, 2),
        object_scale_range=(0.2, 0.5),
        frequency_range=(0.1, 0.4),
        rare_fraction=0.2,
        easy_query_fraction=0.5,
        hard_deficit_range=(0.9, 1.2),
        min_positives=2,
    )
    dataset = SceneGenerator(profile, seed=seed).generate()
    clip = SyntheticClip.for_dataset(dataset, dim=32, seed=seed)
    return dataset, clip


def make_service(tier: str) -> "tuple[SeeSawService, object, object]":
    config = SeeSawConfig(
        embedding_dim=32, seed=23, live_datasets=True, **TIERS[tier]
    )
    dataset, clip = build_corpus()
    service = SeeSawService(config)
    service.register_dataset(dataset, clip, preprocess=True)
    return service, dataset, clip


def added_image(image_id: int, category: str) -> SyntheticImage:
    rng = np.random.default_rng(image_id)
    return SyntheticImage(
        image_id=image_id,
        width=640,
        height=480,
        context="indoor",
        objects=(
            ObjectInstance(
                category=category,
                box=BoundingBox(
                    float(rng.integers(0, 300)),
                    float(rng.integers(0, 200)),
                    200.0,
                    180.0,
                ),
            ),
        ),
    )


def mutate(service: SeeSawService, dataset) -> None:
    """A fixed mutation script: add two, replace one, delete one."""
    categories = [info.name for info in dataset.categories]
    service.live.upsert_images(
        "live",
        [added_image(800, categories[0]), added_image(801, categories[1])],
    )
    service.live.upsert_images(
        "live", [added_image(dataset.images[2].image_id, categories[0])]
    )
    service.live.delete_images("live", [dataset.images[5].image_id])


def run_session(index: SeeSawIndex, config: SeeSawConfig, query: str, rounds: int = 4):
    """Drive a fixed-feedback session; returns the exact (id, score) trace."""
    session = SearchSession(
        index=index,
        method=SeeSawSearchMethod(config),
        text_query=query,
        batch_size=3,
    )
    trace = []
    positives = {
        image.image_id
        for image in index.dataset.images
        if query.split()[-1] in image.categories
    }
    for _ in range(rounds):
        batch = session.next_batch()
        if not batch:
            break
        for result in batch:
            trace.append((result.image_id, result.score))
            session.give_feedback(result.image_id, result.image_id in positives)
    return trace


def rebuild_like_live(service, clip, full: bool):
    """A from-scratch index of the current logical corpus, same tier stack.

    ``full=False`` mirrors the delta view's degraded artifacts (no kNN
    graph, no DB-alignment matrix); ``full=True`` mirrors a sealed merge
    generation (everything a cold build gets).
    """
    state = service.live.state_for("live")
    merged = state.merged_dataset()
    rebuilt = SeeSawIndex.build(
        merged,
        clip,
        state.config,
        compute_db_alignment=full,
        build_graph=full,
    )
    service._apply_store_tiers(rebuilt)
    return rebuilt


class TestMutationEquivalence:
    @pytest.mark.parametrize("tier", EXHAUSTIVE_TIERS)
    def test_pre_merge_sessions_bit_identical_to_rebuild(self, tier):
        service, dataset, clip = make_service(tier)
        try:
            mutate(service, dataset)
            live_index = service.index_for("live", multiscale=True)
            assert isinstance(live_index.store, DeltaVectorStore)
            rebuilt = rebuild_like_live(service, clip, full=False)
            for category in [info.name for info in dataset.categories[:2]]:
                query = f"a {category}"
                live_trace = run_session(live_index, service.config, query)
                rebuilt_trace = run_session(rebuilt, service.config, query)
                assert live_trace == rebuilt_trace  # ids AND score bits
        finally:
            service.live.close()

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_post_merge_sessions_bit_identical_to_cold_build(self, tier):
        service, dataset, clip = make_service(tier)
        try:
            mutate(service, dataset)
            service.live.force_merge("live")
            sealed = service.index_for("live", multiscale=True)
            assert not isinstance(sealed.store, DeltaVectorStore)
            rebuilt = rebuild_like_live(service, clip, full=True)
            for category in [info.name for info in dataset.categories[:2]]:
                query = f"a {category}"
                sealed_trace = run_session(sealed, service.config, query)
                rebuilt_trace = run_session(rebuilt, service.config, query)
                assert sealed_trace == rebuilt_trace
        finally:
            service.live.close()

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_candidate_tiers_serve_delta_rows_exactly(self, tier):
        """Even approximate bases must surface fresh delta rows (exact scan)."""
        service, dataset, clip = make_service(tier)
        try:
            category = dataset.categories[0].name
            service.live.upsert_images("live", [added_image(850, category)])
            index = service.index_for("live", multiscale=True)
            store = index.store
            vector_ids = index.vector_ids_for_image(850)
            query = store.vector(vector_ids[0])
            ids, scores = store.search_arrays(query, 5)
            assert vector_ids[0] in ids
            assert scores[list(ids).index(vector_ids[0])] == pytest.approx(1.0)
        finally:
            service.live.close()

    def test_interleaved_merge_and_mutations_converge(self):
        """Ops landing after a merge snapshot replay onto the new base."""
        service, dataset, clip = make_service("flat")
        try:
            categories = [info.name for info in dataset.categories]
            mutate(service, dataset)
            service.live.force_merge("live")
            service.live.upsert_images("live", [added_image(860, categories[0])])
            service.live.delete_images("live", [800])
            service.live.force_merge("live")
            sealed = service.index_for("live", multiscale=True)
            rebuilt = rebuild_like_live(service, clip, full=True)
            assert sealed.image_ids == rebuilt.image_ids
            trace = run_session(sealed, service.config, f"a {categories[0]}")
            assert trace == run_session(rebuilt, service.config, f"a {categories[0]}")
            assert 860 in sealed.image_ids and 800 not in sealed.image_ids
        finally:
            service.live.close()


class TestConcurrentSwap:
    def test_queries_see_no_errors_across_merge_swaps(self):
        """Zero-downtime: readers race mutations + merges without failures."""
        service, dataset, clip = make_service("flat")
        try:
            category = dataset.categories[0].name
            errors: "list[BaseException]" = []
            stop = threading.Event()

            def reader() -> None:
                while not stop.is_set():
                    try:
                        info = service.start_session(
                            StartSessionRequest(
                                dataset="live", text_query=f"a {category}"
                            )
                        )
                        response = service.next_results(info.session_id)
                        for item in response.items:
                            service.give_feedback(
                                FeedbackRequest(
                                    session_id=info.session_id,
                                    image_id=item.image_id,
                                    relevant=False,
                                )
                            )
                        service.next_results(info.session_id)
                        service.close_session(info.session_id)
                    except BaseException as exc:  # noqa: BLE001 - recorded
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for step in range(6):
                    service.live.upsert_images(
                        "live", [added_image(900 + step, category)]
                    )
                    service.live.force_merge("live")
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert errors == []
            manifest = service.live.describe("live")
            assert manifest["merges_completed"] == 6
            assert manifest["delta_rows"] == 0
            # No stale-generation leak: the serving index is the newest one.
            state = service.live.state_for("live")
            assert service.index_for("live", multiscale=True) is state.current
        finally:
            service.live.close()

    def test_background_merge_trigger_is_transparent_to_readers(self):
        service, dataset, clip = make_service("flat")
        # Re-register with an aggressive ratio so every upsert triggers.
        config = SeeSawConfig(
            embedding_dim=32, seed=23, live_datasets=True, merge_trigger_ratio=0.01
        )
        service = SeeSawService(config)
        service.register_dataset(dataset, clip, preprocess=True)
        try:
            category = dataset.categories[0].name
            for step in range(3):
                service.live.upsert_images(
                    "live", [added_image(930 + step, category)]
                )
                info = service.start_session(
                    StartSessionRequest(dataset="live", text_query=f"a {category}")
                )
                assert service.next_results(info.session_id).items
            service.live.merger.join()
            manifest = service.live.describe("live")
            assert manifest["merges_completed"] >= 1
            index = service.index_for("live", multiscale=True)
            assert {930, 931, 932} <= set(index.image_ids)
        finally:
            service.live.close()


# ---------------------------------------------------------------------------
# derived views against the whole-corpus rebuild they replaced
# ---------------------------------------------------------------------------
class FullRebuildOracle:
    """The whole-corpus rebuild the registry once ran on every publish.

    It mirrors the corpus in ordered maps (images, image -> vector ids) and
    a list of every delta row, and rebuilds the live view from all of them:
    a stacked delta matrix, a fresh tombstone column, a segment layout from
    the full mapping and a dataset revalidating every image.  A derived
    view must equal it field for field.
    """

    def __init__(self, base: SeeSawIndex) -> None:
        self.base = base
        self.images = {image.image_id: image for image in base.dataset.images}
        self.image_vector_ids = {
            image_id: base.vector_ids_for_image(image_id) for image_id in base.image_ids
        }
        self.delta_vectors: "list[np.ndarray]" = []
        self.delta_records: "list[VectorRecord]" = []
        self.tombstoned: "set[int]" = set()

    def upsert(self, images) -> None:
        n_base = len(self.base.store)
        for image in images:
            old = self.image_vector_ids.pop(image.image_id, None)
            if old is not None:
                self.tombstoned.update(old)
                self.images.pop(image.image_id)
            ids = []
            for box, scale_level in generate_patches(
                image.width, image.height, self.base.config.multiscale
            ):
                vector_id = n_base + len(self.delta_records)
                self.delta_vectors.append(self.base.embedding.embed_region(image, box))
                self.delta_records.append(
                    VectorRecord(vector_id, image.image_id, box, scale_level)
                )
                ids.append(vector_id)
            self.images[image.image_id] = image
            self.image_vector_ids[image.image_id] = tuple(ids)

    def delete(self, image_ids) -> None:
        for image_id in image_ids:
            self.tombstoned.update(self.image_vector_ids.pop(image_id))
            self.images.pop(image_id)

    def build(self) -> SeeSawIndex:
        base = self.base
        if not self.delta_records and not self.tombstoned:
            return base
        total = len(base.store) + len(self.delta_records)
        tombstones = np.zeros(total, dtype=bool)
        tombstones[sorted(self.tombstoned)] = True
        matrix = (
            np.stack(self.delta_vectors)
            if self.delta_vectors
            else np.zeros((0, base.store.dim))
        )
        store = DeltaVectorStore(base.store, matrix, list(self.delta_records), tombstones)
        dataset = ImageDataset(
            name=base.dataset.name,
            images=list(self.images.values()),
            categories=base.dataset.categories,
            description=base.dataset.description,
        )
        return SeeSawIndex(
            dataset=dataset,
            embedding=base.embedding,
            store=store,
            image_vector_ids=dict(self.image_vector_ids),
            knn_graph=None,
            db_matrix=None,
            config=base.config,
            build_report=None,
        )


def assert_same_view(derived: SeeSawIndex, oracle: SeeSawIndex) -> None:
    """Delta rows, tombstones, segment arrays, image order and positives."""
    assert isinstance(derived.store, DeltaVectorStore) == isinstance(
        oracle.store, DeltaVectorStore
    )
    if isinstance(oracle.store, DeltaVectorStore):
        assert derived.store.base is oracle.store.base
        n_base, total = len(oracle.store.base), len(oracle.store)
        assert len(derived.store) == total
        rows = np.arange(n_base, total)
        assert derived.store.take_rows(rows).tobytes() == oracle.store.take_rows(rows).tobytes()
        assert np.array_equal(derived.store.take_boxes(rows), oracle.store.take_boxes(rows))
        assert np.array_equal(derived.store.tombstones, oracle.store.tombstones)
        assert np.array_equal(derived.store.scale_levels, oracle.store.scale_levels)
        assert derived.store.records == oracle.store.records
    else:
        assert derived.store is oracle.store
    for column in ("image_ids", "order", "offsets", "vector_image_rows"):
        assert np.array_equal(
            getattr(derived.segments, column), getattr(oracle.segments, column)
        ), column
    assert derived.image_ids == oracle.image_ids
    assert derived.dataset.images == oracle.dataset.images
    for name in oracle.dataset.category_names:
        assert derived.dataset.positive_image_ids(name) == oracle.dataset.positive_image_ids(
            name
        )


# One step of a mutation stream: a fresh upsert, a replacing upsert, a
# delete (both pick among the current images by position), a merge, or a
# merge with a fresh upsert landing while the sealed build runs (replayed
# onto the new base at swap time).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("new"), st.integers(1, 2)),
        st.tuples(st.just("replace"), st.integers(0, 10_000)),
        st.tuples(st.just("delete"), st.integers(0, 10_000)),
        st.tuples(st.just("merge"), st.just(0)),
        st.tuples(st.just("merge_during_upsert"), st.just(0)),
    ),
    min_size=1,
    max_size=8,
)


class TestDerivedViewsMatchFullRebuild:
    @settings(max_examples=20, deadline=None)
    @given(steps=_steps)
    def test_every_version_equals_the_rebuild_oracle(self, steps):
        service, dataset, clip = make_service("flat")
        registry = service.live
        state = registry.state_for("live")
        category = dataset.categories[0].name
        fresh_ids = iter(range(2000, 3000))
        try:
            oracle = FullRebuildOracle(service.index_for("live", multiscale=True))
            for op, argument in steps:
                current = list(state.dataset.images)
                if op == "new":
                    images = [added_image(next(fresh_ids), category) for _ in range(argument)]
                    registry.upsert_images("live", images)
                    oracle.upsert(images)
                elif op == "replace":
                    target = current[argument % len(current)].image_id
                    images = [added_image(target, category)]
                    registry.upsert_images("live", images)
                    oracle.upsert(images)
                elif op == "delete":
                    if len(current) < 2:
                        continue
                    target = current[argument % len(current)].image_id
                    registry.delete_images("live", [target])
                    oracle.delete([target])
                else:
                    landed = []
                    if op == "merge_during_upsert":
                        build = registry.merger._build_sealed

                        def build_with_upsert(*args):
                            sealed = build(*args)
                            landed.append(added_image(next(fresh_ids), category))
                            registry.upsert_images("live", landed)
                            return sealed

                        registry.merger._build_sealed = build_with_upsert
                    try:
                        registry.force_merge("live")
                    finally:
                        registry.merger.__dict__.pop("_build_sealed", None)
                    oracle = FullRebuildOracle(state.base_index)
                    oracle.upsert(landed)
                assert_same_view(state.current, oracle.build())
                assert service.index_for("live", multiscale=True) is state.current
        finally:
            registry.close()


class TestPinnedVersionStability:
    def test_pinned_version_survives_buffer_reallocation(self):
        service, dataset, clip = make_service("flat")
        registry = service.live
        try:
            category = dataset.categories[0].name
            registry.upsert_images("live", [added_image(3000, category)])
            pinned = registry.index_for_version("live", 2)
            store = pinned.store
            queries = [store.vector(0), store.vector(len(store) - 1), clip.embed_text("a cat")]
            before = [
                (store.score_all(q).tobytes(), store.search_arrays(q, 12)) for q in queries
            ]
            log = store.log
            first_buffer = log._rows
            for step in range(12):
                registry.upsert_images("live", [added_image(3001 + step, category)])
                registry.delete_images("live", [3001 + step])
            assert log._rows is not first_buffer  # the shared buffer reallocated
            assert registry.state_for("live").delta.log is log
            for query, (scores, (ids, top)) in zip(queries, before):
                assert store.score_all(query).tobytes() == scores
                again_ids, again_top = store.search_arrays(query, 12)
                assert again_ids.tobytes() == ids.tobytes()
                assert again_top.tobytes() == top.tobytes()
        finally:
            registry.close()

    def test_readers_of_a_pinned_version_race_appends(self):
        """Readers scoring a pinned view never see the writer's appends."""
        service, dataset, clip = make_service("flat")
        registry = service.live
        category = dataset.categories[0].name
        registry.upsert_images("live", [added_image(3100, category)])
        store = registry.index_for_version("live", 2).store
        query = store.vector(len(store) - 1)
        expected = store.score_all(query).tobytes()
        mismatches: "list[int]" = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                if store.score_all(query).tobytes() != expected:
                    mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for step in range(12):
                registry.upsert_images("live", [added_image(3101 + step, category)])
                registry.delete_images("live", [3101 + step])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            registry.close()
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(store) == len(expected) // store.compute_dtype.itemsize
