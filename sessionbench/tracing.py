"""Layer attribution for the traced run, installed at run time.

The program is not changed: :meth:`Tracer.install` replaces public layer
functions with timing wrappers for the life of the process.  Spans nest on
a per-thread stack, so each layer's *self* time is its span minus the spans
of other layers it called.  A span is kept only while a phase is set: the
driver sets ``"round"`` around each timed round and ``"upsert"`` around
each live upsert, so set-up, merges and session start/close add nothing.

Layers, outermost first: ``app`` (``SeeSawApp.handle_request``, in the
server process), ``manager`` (``SessionManager`` round calls), ``lookup``
(``SeeSawSearchMethod.next_images``) over ``engine``
(``QueryEngine.top_unseen_arrays``) over ``vectorstore`` (every store's
``score_all``/``search_arrays``), and ``update``
(``SeeSawSearchMethod.observe``) over ``trainset``
(``FeedbackMap.to_weighted_patch_labels``) and ``lbfgs``
(``lbfgs_minimize`` as the aligner calls it).  ``embed``
(``SyntheticClip.embed_region``) is kept for upserts.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import defaultdict


class Tracer:
    """Span totals per (phase, layer), plus one record per traced update."""

    def __init__(self) -> None:
        self.phase: "str | None" = None
        self._local = threading.local()
        # (phase, layer) -> [inclusive seconds, self seconds, spans]
        self.totals: "dict[tuple[str, str], list[float]]" = defaultdict(
            lambda: [0.0, 0.0, 0]
        )
        self.updates: "list[dict[str, float]]" = []
        self._update: "dict[str, float] | None" = None
        self._observed: "weakref.WeakKeyDictionary[object, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._restore: "list[tuple[object, str, object]]" = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, layer: str, fn, args, kwargs):
        """Call ``fn`` inside a span; returns ``(result, seconds)``."""
        stack = self._stack()
        frame = [layer, 0.0]  # layer, time spent in other layers' spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                # A layer calling itself (a delta store scoring its base):
                # the outer span already covers this one.
                parent[1] += frame[1]
            else:
                if parent is not None:
                    parent[1] += elapsed
                if self.phase is not None:
                    entry = self.totals[(self.phase, layer)]
                    entry[0] += elapsed
                    entry[1] += elapsed - frame[1]
                    entry[2] += 1
        return result, elapsed

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: object, name: str, make) -> None:
        original = getattr(owner, name)
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, make(original))

    def _span(self, owner: object, name: str, layer: str) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if tracer.phase is None:
                    return original(*args, **kwargs)
                return tracer._run(layer, original, args, kwargs)[0]

            return wrapper

        self._patch(owner, name, make)

    def install(self, server_side: bool = False) -> None:
        """Wrap the layer functions (``server_side`` adds the app layer)."""
        from repro.core import aligner
        from repro.core.feedback import FeedbackMap
        from repro.core.seesaw_method import SeeSawSearchMethod
        from repro.embedding.synthetic_clip import SyntheticClip
        from repro.engine.engine import QueryEngine
        from repro.live.delta import DeltaVectorStore
        from repro.server import SeeSawApp, SessionManager
        from repro.vectorstore.base import VectorStore
        from repro.vectorstore.exact import ExactVectorStore
        from repro.vectorstore.forest import RandomProjectionForest
        from repro.vectorstore.graph import GraphANNVectorStore
        from repro.vectorstore.quantized import QuantizedVectorStore
        from repro.vectorstore.sharded import ShardedVectorStore

        tracer = self
        if server_side:
            # A round is a batch's feedback plus the next /next; a session's
            # first /next (no feedback before it) is not part of a round.
            labelled: "set[str]" = set()

            def make_app(original):
                def handle_request(app, request):
                    path = request.target.split("?", 1)[0]
                    session_id = path.rsplit("/", 2)[-2] if path.count("/") >= 2 else ""
                    if path.endswith("/feedback"):
                        labelled.add(session_id)
                    elif not (path.endswith("/next") and session_id in labelled):
                        return original(app, request)
                    tracer.phase = "round"
                    try:
                        return tracer._run("app", original, (app, request), {})[0]
                    finally:
                        tracer.phase = None

                return handle_request

            self._patch(SeeSawApp, "handle_request", make_app)
        for name in ("next_results", "give_feedback"):
            self._span(SessionManager, name, "manager")
        self._span(SeeSawSearchMethod, "next_images", "lookup")
        self._span(QueryEngine, "top_unseen_arrays", "engine")
        for store in (
            VectorStore,
            ExactVectorStore,
            DeltaVectorStore,
            ShardedVectorStore,
            QuantizedVectorStore,
            GraphANNVectorStore,
            RandomProjectionForest,
        ):
            for name in ("score_all", "search_arrays"):
                if name in store.__dict__:
                    self._span(store, name, "vectorstore")
        self._span(SyntheticClip, "embed_region", "embed")

        def make_observe(original):
            def observe(method, feedback):
                if tracer.phase is None:
                    return original(method, feedback)
                round_index = tracer._observed.get(method, 0) + 1
                tracer._observed[method] = round_index
                record = {"round": round_index}
                tracer._update = record
                try:
                    result, seconds = tracer._run(
                        "update", original, (method, feedback), {}
                    )
                finally:
                    tracer._update = None
                record["seconds"] = seconds
                tracer.updates.append(record)
                return result

            return observe

        def make_trainset(original):
            def to_weighted_patch_labels(*args, **kwargs):
                if tracer.phase is None:
                    return original(*args, **kwargs)
                result, seconds = tracer._run("trainset", original, args, kwargs)
                if tracer._update is not None:
                    tracer._update["trainset_seconds"] = seconds
                    tracer._update["rows"] = int(result[0].shape[0])
                return result

            return to_weighted_patch_labels

        def make_lbfgs(original):
            def lbfgs_minimize(*args, **kwargs):
                if tracer.phase is None:
                    return original(*args, **kwargs)
                result, seconds = tracer._run("lbfgs", original, args, kwargs)
                if tracer._update is not None:
                    tracer._update["lbfgs_seconds"] = seconds
                    tracer._update["iterations"] = result.iterations
                    tracer._update["evaluations"] = result.function_evaluations
                    tracer._update["converged"] = float(result.converged)
                return result

            return lbfgs_minimize

        self._patch(SeeSawSearchMethod, "observe", make_observe)
        self._patch(FeedbackMap, "to_weighted_patch_labels", make_trainset)
        self._patch(aligner, "lbfgs_minimize", make_lbfgs)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self) -> "dict[str, object]":
        """JSON-safe totals (crosses the server-process pipe as is)."""
        return {
            "totals": {
                f"{phase}:{layer}": list(entry)
                for (phase, layer), entry in self.totals.items()
            },
            "updates": self.updates,
        }


def _total(summary: "dict[str, object]", phase: str, layer: str, column: int) -> float:
    entry = summary["totals"].get(f"{phase}:{layer}")  # type: ignore[union-attr]
    return float(entry[column]) if entry else 0.0


def _mean(values: "list[float]") -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    summary: "dict[str, object]",
    rounds: int,
    round_seconds: float,
    round_call_seconds: float,
    round_calls: int,
    upserts: int,
) -> "dict[str, float]":
    """Per-layer metrics of one traced window, per round where so named.

    ``transport`` is client call time minus the outermost server-side span
    (``app`` over HTTP, ``manager`` in process).  ``transport`` +
    ``app.self`` + ``manager.self`` + ``lookup`` + ``update`` is then the
    client's call time; what the round took beyond its calls (the driver
    loop itself) is ``trace.unattributed``.
    """

    def per_round(layer: str, column: int = 0) -> float:
        return _total(summary, "round", layer, column) * 1000.0 / rounds

    app = _total(summary, "round", "app", 0)
    server = app if app else _total(summary, "round", "manager", 0)
    updates = summary["updates"]  # type: ignore[assignment]

    def at_round(index: int, key: str, scale: float) -> float:
        return _mean([u[key] * scale for u in updates if u["round"] == index])

    def per_update(key: str, scale: float = 1.0) -> float:
        return sum(u.get(key, 0.0) for u in updates) * scale / rounds

    return {
        "update.ms_per_round": per_round("update"),
        "update.ms_round1": at_round(1, "seconds", 1000.0),
        "update.ms_round24": at_round(24, "seconds", 1000.0),
        "update.trainset_ms_per_round": per_round("trainset"),
        "update.trainset_rows_round24": at_round(24, "rows", 1.0),
        "update.lbfgs_ms_per_round": per_round("lbfgs"),
        "update.lbfgs_iters_per_round": per_update("iterations"),
        "update.lbfgs_fevals_per_round": per_update("evaluations"),
        "update.lbfgs_converged_ratio": _mean([u.get("converged", 0.0) for u in updates]),
        "transport.ms_per_round": (round_call_seconds - server) * 1000.0 / rounds,
        "transport.calls_per_round": round_calls / rounds,
        "app.self_ms_per_round": per_round("app", 1),
        "manager.self_ms_per_round": per_round("manager", 1),
        "lookup.ms_per_round": per_round("lookup"),
        "engine.self_ms_per_round": per_round("engine", 1),
        "vectorstore.ms_per_round": per_round("vectorstore"),
        "live.embed_ms_per_upsert": (
            _total(summary, "upsert", "embed", 0) * 1000.0 / upserts if upserts else 0.0
        ),
        "trace.unattributed_ms_per_round": (
            (round_seconds - round_call_seconds) * 1000.0 / rounds
        ),
    }
