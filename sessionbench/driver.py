"""Closed-loop SeeSaw session driver shared by the benchmark and its server.

One client thread makes one call at a time with zero think time.  A *round*
is one batch's feedback calls plus the next ``next_results`` call: what a
user waits for after labelling a batch.  The first ``next_results`` of a
session has no feedback before it; it is timed as the session's first
batch, not as a round.  Oracle judgements and the output checks run between
calls, outside the timed regions.

Every run is fixed work: a seeded schedule of whole passes over the query
pool.  The seed shuffles the query order of each pass (and with it the
order of the live write stream); what each session searches, and so every
session's AP, does not depend on it.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.bench.simulate import OracleUser
from repro.bench.tasks import BenchmarkQuery, queries_for_dataset
from repro.config import SeeSawConfig
from repro.core.multiscale import generate_patches
from repro.data import load_dataset
from repro.data.dataset import ImageDataset
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.embedding import SyntheticClip
from repro.exceptions import ReproError
from repro.metrics import average_precision_at_cutoff
from repro.server import (
    BoxPayload,
    FeedbackRequest,
    SeeSawService,
    StartSessionRequest,
)

DATASET = "bdd"
BATCH = 10
TARGET = 10
"""Paper task (§5.1): find 10 relevant images ..."""
BUDGET = 60
"""... within 60 shown."""
LONG_ROUNDS = 24
PAPER_ROUNDS = BUDGET // BATCH - 1
"""Rounds a paper-task session may take after its first batch (6 batches)."""

OPERATIONS = ("start", "next", "feedback", "close", "upsert", "delete", "merge")

FRESH_ID_BASE = 1_000_000
FRESH_CONTEXTS = ("highway", "city_street", "residential", "night_street")


def load_corpus() -> ImageDataset:
    """The full-size bdd profile (1000 images, seed 0)."""
    return load_dataset(DATASET, seed=0, size_scale=1.0)


def build_service(dataset: ImageDataset, live: bool) -> SeeSawService:
    """A service on the default config with the corpus indexed and warm."""
    config = SeeSawConfig(live_datasets=live)
    embedding = SyntheticClip.for_dataset(dataset, dim=config.embedding_dim, seed=0)
    service = SeeSawService(config)
    service.register_dataset(dataset, embedding, preprocess=True)
    return service


def query_pool(dataset: ImageDataset) -> "list[BenchmarkQuery]":
    return queries_for_dataset(dataset, min_positives=2)


def schedule(pool_size: int, seed: int, passes: int) -> "list[list[int]]":
    """``passes`` seeded permutations of the query pool (pass 0 is warm-up)."""
    rng = random.Random(seed)
    orders = []
    for _ in range(passes):
        order = list(range(pool_size))
        rng.shuffle(order)
        orders.append(order)
    return orders


_SCAN = np.random.default_rng(0).standard_normal((2000, 128))
_QUERY = np.ones(128)
REFERENCE_KERNEL_MS = 1.0
"""The reference speed: a core on which :func:`reference_kernel_ms` takes
1 ms.  Timings are reported as they would read at this speed."""


def reference_kernel_ms() -> float:
    """CPU time of one run of a fixed reference kernel, in milliseconds.

    Shaped like the session path: a pure-Python loop (the feedback and
    bookkeeping code) and matrix-vector scans over a 2 MB matrix (the
    lookup), about half the time each.  The two states of a shared host's
    core slow the interpreter by about 1.45x and the scan by about 1.2x,
    and the sessions by 1.25-1.3x, close to the kernel's 1.3x.  It is this
    thread's CPU time: time spent descheduled, or waiting for the GIL or
    for the program's other threads, does not count, so the program cannot
    change it.
    """
    start = time.thread_time()
    total = 0
    for index in range(10_000):
        total += index
    for _ in range(8):
        _SCAN @ _QUERY
    return (time.thread_time() - start) * 1000.0


def mean_speed(samples: "list[float]") -> float:
    """Core speed relative to the reference, averaged over evenly spaced samples."""
    return statistics.fmean(REFERENCE_KERNEL_MS / sample for sample in samples)


class SpeedSampler:
    """Samples :func:`reference_kernel_ms` on a thread while set-up runs."""

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        self.samples: "list[float]" = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler")

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            self.samples.append(reference_kernel_ms())

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()


class Checks:
    """Counts output checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.messages: "list[str]" = []

    def expect(self, condition: bool, message: str) -> None:
        self.checked += 1
        if not condition:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class SessionAborted(Exception):
    """A call of the session failed with a typed error (already counted)."""


@dataclass
class Window:
    """What one stretch of the schedule measured (warm-up, measured, traced)."""

    rounds: "list[tuple[int, float]]" = field(default_factory=list)
    """(round index, seconds) of every round; round 1 follows the first batch."""
    first_batches: "list[float]" = field(default_factory=list)
    """Seconds of each session's first ``next_results``."""
    round_call_seconds: float = 0.0
    round_calls: int = 0
    system_seconds: float = 0.0
    """Every client call of the window: rounds, start, close and writes."""
    scaled_rounds: "list[float]" = field(default_factory=list)
    """Each round's seconds at the reference core speed."""
    scaled_system_seconds: float = 0.0
    """``system_seconds`` at the reference core speed."""
    speed: float = 1.0
    """The core speed sampled last, relative to the reference."""
    op_seconds: "dict[str, list[float]]" = field(default_factory=dict)
    aps: "list[float]" = field(default_factory=list)
    positives: int = 0
    """Relevant images among the batches the rounds returned."""
    kernel_ms: "list[float]" = field(default_factory=list)
    """Reference-kernel times: one at the start, then one after each
    ``next_results``.  Each call and round is scaled by the sample before it."""
    in_round: bool = False

    def sample_speed(self) -> None:
        kernel_ms = reference_kernel_ms()
        self.kernel_ms.append(kernel_ms)
        self.speed = REFERENCE_KERNEL_MS / kernel_ms

    def record_call(self, op: str, seconds: float) -> None:
        self.system_seconds += seconds
        self.scaled_system_seconds += seconds * self.speed
        self.op_seconds.setdefault(op, []).append(seconds)
        if self.in_round:
            self.round_calls += 1
            self.round_call_seconds += seconds

    @property
    def round_seconds(self) -> float:
        return math.fsum(seconds for _, seconds in self.rounds)



class Calls:
    """Makes client calls, counting attempts and typed failures per operation."""

    def __init__(self) -> None:
        self.attempted: "Counter[str]" = Counter()
        self.failed: "Counter[str]" = Counter()
        self.window: "Window | None" = None

    def __call__(self, op: str, fn, *args):
        self.attempted[op] += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except ReproError as exc:
            self.failed[op] += 1
            raise SessionAborted(f"{op}: {type(exc).__name__}: {exc}") from exc
        finally:
            if self.window is not None:
                self.window.record_call(op, time.perf_counter() - start)


def run_session(
    client,
    calls: Calls,
    window: Window,
    query: BenchmarkQuery,
    judge_dataset: ImageDataset,
    corpus_ids: "set[int] | frozenset[int]",
    deleted_ids: "set[int]",
    max_rounds: int,
    paper_task: bool,
    checks: Checks,
    tracer=None,
) -> "list[int]":
    """Drive one session through the client; returns the images it showed.

    Every batch is checked on the way, and the session's AP is appended to
    ``window.aps``.
    """
    oracle = OracleUser(judge_dataset, query.category)
    info = calls(
        "start",
        client.start_session,
        StartSessionRequest(dataset=DATASET, text_query=query.prompt, batch_size=BATCH),
    )
    session_id = info.session_id
    label = f"{query.category}/{session_id}"
    shown: "list[int]" = []
    shown_set: "set[int]" = set()
    relevance: "list[bool]" = []
    feedback: "list[FeedbackRequest]" = []
    found = 0
    try:
        for round_index in range(max_rounds + 1):
            in_round = round_index > 0
            window.in_round = in_round
            if tracer is not None and in_round:
                tracer.phase = "round"
            start = time.perf_counter()
            for request in feedback:
                calls("feedback", client.give_feedback, request)
            response = calls("next", client.next_results, session_id)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.phase = None
            window.in_round = False
            if in_round:
                window.rounds.append((round_index, elapsed))
                window.scaled_rounds.append(elapsed * window.speed)
            else:
                window.first_batches.append(elapsed)
            window.sample_speed()

            batch = [item.image_id for item in response.items]
            checks.expect(
                len(batch) == BATCH, f"{label}: batch of {len(batch)}, want {BATCH}"
            )
            for image_id in batch:
                checks.expect(
                    image_id in corpus_ids,
                    f"{label}: image {image_id} is not in the session's corpus",
                )
                checks.expect(
                    image_id not in deleted_ids,
                    f"{label}: image {image_id} shown after its delete",
                )
                checks.expect(
                    image_id not in shown_set,
                    f"{label}: image {image_id} shown twice",
                )
                shown_set.add(image_id)
            shown.extend(batch)
            checks.expect(
                response.total_shown == len(shown),
                f"{label}: total_shown {response.total_shown}, oracle {len(shown)}",
            )
            checks.expect(
                response.positives_found == found,
                f"{label}: positives_found {response.positives_found}, oracle {found}",
            )
            judgements = [oracle.judge(image_id) for image_id in batch]
            batch_found = sum(1 for judgement in judgements if judgement.relevant)
            found += batch_found
            if in_round:
                window.positives += batch_found
            relevance.extend(judgement.relevant for judgement in judgements)
            feedback = [
                FeedbackRequest(
                    session_id=session_id,
                    image_id=judgement.image_id,
                    relevant=judgement.relevant,
                    boxes=tuple(
                        BoxPayload(box.x, box.y, box.width, box.height)
                        for box in judgement.boxes
                    ),
                )
                for judgement in judgements
            ]
            if paper_task and (found >= TARGET or len(shown) >= BUDGET):
                break
    finally:
        window.in_round = False
        if tracer is not None:
            tracer.phase = None
        try:
            calls("close", client.close_session, session_id)
        except SessionAborted:
            pass
    window.aps.append(
        average_precision_at_cutoff(
            relevance, oracle.total_relevant, target_results=TARGET, max_images=BUDGET
        )
    )
    return shown


def fresh_rows_per_image() -> int:
    """Vectors one fresh 1280x720 image adds to the delta segment."""
    return len(generate_patches(1280, 720, SeeSawConfig().multiscale))


def fresh_image(
    slot: int, query: BenchmarkQuery, pool: "list[BenchmarkQuery]"
) -> SyntheticImage:
    """A new image for one live session, carrying query-pool objects.

    Its content and id depend only on ``slot`` (the session's query and pass
    position in the schedule), never on the run seed, so the logical corpus
    each live session searches is the same in every run.
    """
    rng = random.Random(slot)
    categories = (query.category, pool[rng.randrange(len(pool))].category)
    objects = []
    for instance_id, category in enumerate(categories):
        width = rng.uniform(0.1, 0.25) * 1280
        height = rng.uniform(0.1, 0.25) * 720
        objects.append(
            ObjectInstance(
                category=category,
                box=BoundingBox(
                    rng.uniform(0, 1280 - width),
                    rng.uniform(0, 720 - height),
                    width,
                    height,
                ),
                instance_id=instance_id,
            )
        )
    return SyntheticImage(
        image_id=FRESH_ID_BASE + slot,
        width=1280,
        height=720,
        context=FRESH_CONTEXTS[rng.randrange(len(FRESH_CONTEXTS))],
        objects=tuple(objects),
    )
