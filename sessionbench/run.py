"""SeeSaw session benchmark: whole sessions through the public client surface.

Usage (from the repository root)::

    python3 sessionbench/run.py --workload long_session --seed 1 --seconds 10 --trace 0

Every run does fixed work: set-up, one discarded warm-up pass of
paper-task sessions over the query pool, then the workload's measured
blocks of whole passes.  ``--seconds`` is recorded but does not bound the
run; the blocks are sized to take about that long.  With ``--trace 1`` one
more block runs traced, and the run reports per-layer metrics instead of
end-to-end ones.  The last line of stdout is the result object; the line
before it holds the details (call counts, checks, environment).  See
README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import setup_env  # noqa: E402  (first: pins BLAS threads before NumPy loads)

import numpy as np  # noqa: E402

import driver  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    http: bool
    live: bool
    max_rounds: int
    paper_task: bool
    passes: int
    """Passes over the query pool per measured block."""
    blocks: int
    """Measured blocks; each end-to-end metric is the median over blocks."""


WORKLOADS = {
    "long_session": Workload(
        http=False, live=False, max_rounds=driver.LONG_ROUNDS, paper_task=False,
        passes=1, blocks=3,
    ),
    "http_session": Workload(
        http=True, live=False, max_rounds=driver.PAPER_ROUNDS, paper_task=True,
        passes=10, blocks=3,
    ),
    "live_ingest": Workload(
        http=False, live=True, max_rounds=driver.PAPER_ROUNDS, paper_task=True,
        passes=12, blocks=1,
    ),
}


class Bench:
    """Runs the seeded schedule of one workload against one client."""

    def __init__(self, workload: Workload, client, dataset, seed: int) -> None:
        self.workload = workload
        self.client = client
        self.dataset = dataset
        self.pool = driver.query_pool(dataset)
        self.orders = driver.schedule(
            len(self.pool), seed, 1 + (workload.blocks + 1) * workload.passes
        )
        self.next_pass = 1
        self.calls = driver.Calls()
        self.checks = driver.Checks()
        self.base_images = list(dataset.images)
        self.base_ids = frozenset(image.image_id for image in self.base_images)
        self.deleted: "set[int]" = set()
        self.shown: "dict[str, list[int]]" = {}
        self.live_expected = {"version": 1, "merges": 0, "delta_rows": 0, "tombstones": 0}
        self.rows_per_image = driver.fresh_rows_per_image()
        self.merge_seconds = 0.0

    def warm_up(self) -> None:
        """Pass 0: paper-task sessions over the whole pool, not measured."""
        self._run_pass(0, driver.Window(), driver.PAPER_ROUNDS, True, None)

    def measure(self, tracer: "Tracer | None" = None) -> driver.Window:
        """One measured block: the workload's passes, in one window.

        A live workload first compacts what the writes before it left in
        the delta with one synchronous merge, outside the measured window,
        so every measured schedule starts from the same empty delta.
        """
        window = driver.Window()
        if self.workload.live:
            self.calls.window = None
            start = time.perf_counter()
            try:
                self.calls("merge", self.client.merge_dataset, driver.DATASET)
            except driver.SessionAborted as exc:
                self.checks.expect(False, str(exc))
            self.merge_seconds = time.perf_counter() - start
            self.live_expected.update(
                merges=self.live_expected["merges"] + 1, delta_rows=0, tombstones=0
            )
        window.sample_speed()
        for _ in range(self.workload.passes):
            self._run_pass(
                self.next_pass, window, self.workload.max_rounds,
                self.workload.paper_task, tracer,
            )
            self.next_pass += 1
        return window

    def _run_pass(self, pass_index, window, max_rounds, paper_task, tracer) -> None:
        self.calls.window = window
        for query_index in self.orders[pass_index]:
            query = self.pool[query_index]
            try:
                self._session(pass_index, query_index, window, max_rounds, paper_task, tracer)
            except driver.SessionAborted as exc:
                self.checks.expect(False, f"{query.category}: {exc}")

    def _session(self, pass_index, query_index, window, max_rounds, paper_task, tracer):
        """One session; on live_ingest with its fresh image written around it."""
        query = self.pool[query_index]
        judge, corpus, fresh = self.dataset, self.base_ids, []
        if self.workload.live:
            slot = pass_index * len(self.pool) + query_index
            fresh = [driver.fresh_image(slot, query, self.pool)]
            judge, corpus = self._upsert(fresh, tracer)
        shown = driver.run_session(
            self.client, self.calls, window, query, judge, corpus,
            self.deleted, max_rounds, paper_task, self.checks, tracer,
        )
        if fresh:
            self._delete([image.image_id for image in fresh])
        elif paper_task:
            first = self.shown.setdefault(query.category, shown)
            self.checks.expect(
                first == shown,
                f"{query.category}: pass {pass_index} showed another sequence",
            )

    def _upsert(self, fresh, tracer):
        if tracer is not None:
            tracer.phase = "upsert"
        try:
            self.calls("upsert", self.client.upsert_images, driver.DATASET, fresh)
        finally:
            if tracer is not None:
                tracer.phase = None
        rows = self.rows_per_image * len(fresh)
        self.live_expected["version"] += 1
        self.live_expected["delta_rows"] += rows
        judge = driver.ImageDataset(
            name=self.dataset.name,
            images=self.base_images + fresh,
            categories=self.dataset.categories,
        )
        return judge, self.base_ids | {image.image_id for image in fresh}

    def _delete(self, image_ids):
        self.calls("delete", self.client.delete_images, driver.DATASET, image_ids)
        self.deleted.update(image_ids)
        self.live_expected["version"] += 1
        self.live_expected["tombstones"] += self.rows_per_image * len(image_ids)

    def check_live_guard(self) -> "dict[str, object]":
        """The dataset manifest must match what the schedule predicts."""
        self.calls.window = None
        manifest = self.client.describe_dataset(driver.DATASET)
        expected = self.live_expected
        observed = {
            "version": manifest["version"],
            "merges": manifest["merges_completed"],
            "delta_rows": manifest["delta_rows"],
            "tombstones": manifest["tombstones"],
        }
        for key, value in expected.items():
            self.checks.expect(
                observed[key] == value,
                f"live guard: {key} is {observed[key]}, schedule predicts {value}",
            )
        return observed


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(
    blocks: "list[driver.Window]", setup_s: float, setup_speed: float, rss_mb: float
) -> "dict[str, tuple[float, str]]":
    """End-to-end metrics, with timings as they read at the reference speed.

    A shared host can run a core at two speeds for seconds to minutes at a
    time (about 1.3x apart for these sessions on a 2-vCPU x86-64 VM).  Each call and round is therefore scaled by the core's speed just
    before it: the reference kernel, timed on the one CPU the benchmark is
    pinned to at the start of a block and after every ``next_results``.
    Set-up is scaled by the mean speed a thread sampled every 50 ms through
    it.  Round statistics are computed per block, each block holding at
    least 100 rounds, and the run reports the median over blocks, so one
    disturbed block does not move the result.  ``ap.mean`` pools every
    measured session.  The raw figures are in the details line.
    """

    def over_blocks(statistic) -> float:
        return float(np.median([statistic(window) for window in blocks]))

    def round_ms(window: driver.Window, q: float) -> float:
        return percentile(window.scaled_rounds, q) * 1000.0

    def rounds_per_s(window: driver.Window) -> float:
        return len(window.rounds) / window.scaled_system_seconds

    aps = [ap for window in blocks for ap in window.aps]
    return {
        "round_ms.p50": (over_blocks(lambda w: round_ms(w, 50)), "ms"),
        "round_ms.p90": (over_blocks(lambda w: round_ms(w, 90)), "ms"),
        "rounds_per_s": (over_blocks(rounds_per_s), "1/s"),
        # fsum is exactly rounded, so the mean does not depend on the order
        # the seeded schedule ran the sessions in.
        "ap.mean": (math.fsum(aps) / len(aps), "ratio"),
        "setup_s": (setup_s * setup_speed, "s"),
        "rss_mb": (rss_mb, "MiB"),
    }


PER_LAYER_UNITS = {
    "update.ms_per_round": "ms",
    "update.ms_round1": "ms",
    "update.ms_round24": "ms",
    "update.trainset_ms_per_round": "ms",
    "update.trainset_rows_round24": "count",
    "update.lbfgs_ms_per_round": "ms",
    "update.lbfgs_iters_per_round": "count",
    "update.lbfgs_fevals_per_round": "count",
    "update.lbfgs_converged_ratio": "ratio",
    "transport.ms_per_round": "ms",
    "transport.calls_per_round": "count",
    "app.self_ms_per_round": "ms",
    "manager.self_ms_per_round": "ms",
    "lookup.ms_per_round": "ms",
    "engine.self_ms_per_round": "ms",
    "vectorstore.ms_per_round": "ms",
    "session.positives_per_round": "count",
    "live.upsert_ms": "ms",
    "live.embed_ms_per_upsert": "ms",
    "live.delta_rows_end": "count",
    "live.tombstones_end": "count",
    "live.merge_s": "s",
    "live.merge.embed_s": "s",
    "live.merge.graph_s": "s",
    "setup.embed_s": "s",
    "setup.graph_s": "s",
    "setup.store_s": "s",
    "trace.unattributed_ms_per_round": "ms",
    "trace.overhead_pct": "%",
}
"""Every per-layer metric a traced run reports, with its unit.  A layer the
workload does not exercise (the live tier outside live_ingest, the app
layer in process) reads 0."""


def per_layer(
    traced: driver.Window,
    blocks: "list[driver.Window]",
    summary: "dict[str, object]",
    build: "dict[str, float]",
    live: "dict[str, float]",
) -> "dict[str, tuple[float, str]]":
    """Per-layer metrics of the traced block.

    ``trace.overhead_pct`` compares its round time with the median round
    time of the untraced blocks, which ran the same amount of work, both at
    the reference core speed.  The other timings are raw.
    """
    rounds = len(traced.rounds)
    upserts = traced.op_seconds.get("upsert", [])
    layers = layer_metrics(
        summary, rounds, traced.round_seconds, traced.round_call_seconds,
        traced.round_calls, len(upserts),
    )

    def scaled(window: driver.Window) -> float:
        return math.fsum(window.scaled_rounds)

    untraced = float(np.median([scaled(window) for window in blocks]))
    layers.update(
        {
            "session.positives_per_round": traced.positives / rounds,
            "live.upsert_ms": percentile(upserts, 50) * 1000.0 if upserts else 0.0,
            "live.delta_rows_end": live.get("delta_rows", 0.0),
            "live.tombstones_end": live.get("tombstones", 0.0),
            "live.merge_s": live.get("merge_s", 0.0),
            "live.merge.embed_s": live.get("merge_embed_s", 0.0),
            "live.merge.graph_s": live.get("merge_graph_s", 0.0),
            "setup.embed_s": build["embed_s"],
            "setup.graph_s": build["graph_s"],
            "setup.store_s": build["store_s"],
            "trace.overhead_pct": (scaled(traced) / untraced - 1.0) * 100.0,
        }
    )
    return {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def build_report(index) -> "dict[str, float]":
    report = index.build_report
    return {
        "embed_s": report.embedding_seconds,
        "graph_s": report.graph_seconds,
        "store_s": report.store_seconds,
    }


def run_in_process(workload: Workload, seed: int, trace: bool):
    from repro.server import InProcessClient, SessionManager

    with driver.SpeedSampler() as sampler:
        dataset = driver.load_corpus()
        service = driver.build_service(dataset, workload.live)
        setup_s = time.perf_counter() - PROCESS_START
    setup_speed = driver.mean_speed(sampler.samples)
    build = build_report(service.index_for(driver.DATASET))
    bench = Bench(workload, InProcessClient(SessionManager(service)), dataset, seed)
    bench.warm_up()
    blocks = [bench.measure() for _ in range(workload.blocks)]
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = bench.measure(tracer)
        finally:
            tracer.uninstall()
    live: "dict[str, float]" = {}
    details: "dict[str, object]" = {"setup": {"seconds": setup_s, "speed": setup_speed}}
    if workload.live:
        manifest = details["live_guard"] = bench.check_live_guard()
        merged = build_report(service.live.state_for(driver.DATASET).base_index)
        live = {
            "delta_rows": float(manifest["delta_rows"]),
            "tombstones": float(manifest["tombstones"]),
            "merge_s": bench.merge_seconds,
            "merge_embed_s": merged["embed_s"],
            "merge_graph_s": merged["graph_s"],
        }
        service.live.close()
    if trace:
        metrics = per_layer(traced, blocks, tracer.summary(), build, live)
    else:
        metrics = end_to_end(blocks, setup_s, setup_speed, setup_env.peak_rss_mb())
    return bench, blocks, metrics, details


class ServerProcess:
    """The http_session server, in its own process, driven over pipes."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def read(self) -> "dict[str, object]":
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited ({self.proc.wait()})")
        return json.loads(line)

    def command(self, **payload) -> "dict[str, object]":
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "stop"}) + "\n")
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def run_http(workload: Workload, seed: int, trace: bool):
    from repro.server import HTTPClient

    dataset = driver.load_corpus()
    start = time.perf_counter()
    server = ServerProcess()
    try:
        with driver.SpeedSampler() as sampler:
            ready = server.read()
            setup_s = time.perf_counter() - start
        setup_speed = driver.mean_speed(sampler.samples)
        bench = Bench(workload, HTTPClient(ready["url"]), dataset, seed)
        bench.warm_up()
        blocks = [bench.measure() for _ in range(workload.blocks)]
        if trace:
            server.command(op="trace")
            traced = bench.measure()
        dump = server.command(op="dump")
        if trace:
            metrics = per_layer(traced, blocks, dump["trace"], ready["build"], {})
        else:
            metrics = end_to_end(blocks, setup_s, setup_speed, dump["rss_mb"])
        replay = server.command(op="replay", categories=sorted(bench.shown))
    finally:
        server.close()
    bench.checks.expect(
        replay["failed_checks"] == 0,
        f"in-process replay failed checks: {replay['messages']}",
    )
    for category, shown in bench.shown.items():
        bench.checks.expect(
            replay["shown"].get(category) == shown,
            f"{category}: in-process replay showed another sequence than HTTP",
        )
    details = {
        "setup": {"seconds": setup_s, "speed": setup_speed},
        "replayed_sessions": len(replay["shown"]),
    }
    return bench, blocks, metrics, details


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    environment = setup_env.environment()
    setup_env.pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    run = run_http if workload.http else run_in_process
    bench, blocks, metrics, details = run(workload, args.seed, bool(args.trace))
    if args.trace:
        # The layers that partition a round's call time; the largest is where
        # an optimisation of this workload should start.
        partition = [
            "transport.ms_per_round", "app.self_ms_per_round",
            "manager.self_ms_per_round", "lookup.ms_per_round", "update.ms_per_round",
        ]
        details["largest_layer"] = max(partition, key=lambda name: metrics[name][0])

    calls = bench.calls
    attempted = sum(calls.attempted.values())
    failed = sum(calls.failed.values())
    by_index: "dict[int, list[float]]" = {}
    for window in blocks:
        for index, seconds in window.rounds:
            by_index.setdefault(index, []).append(seconds * 1000.0)
    details.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds_arg": args.seconds,
            "environment": environment,
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "warm_up": "one discarded pass of paper-task sessions over the pool",
            "blocks": [
                {
                    "passes": workload.passes,
                    "sessions": len(window.aps),
                    "rounds": len(window.rounds),
                    "system_s": window.system_seconds,
                    "round_ms_p50_raw": percentile([s for _, s in window.rounds], 50) * 1000.0,
                    "first_batch_ms_p50": percentile(window.first_batches, 50) * 1000.0,
                    "core_speed": driver.mean_speed(window.kernel_ms),
                    "op_s": {op: math.fsum(v) for op, v in window.op_seconds.items()},
                }
                for window in blocks
            ],
            "calls": {
                op: {"attempted": calls.attempted[op], "failed": calls.failed[op]}
                for op in driver.OPERATIONS
            },
            "checks": {
                "checked": bench.checks.checked,
                "failed": bench.checks.failed,
                "messages": bench.checks.messages,
            },
            "round_ms_by_index": {
                index: round(sum(values) / len(values), 3)
                for index, values in sorted(by_index.items())
            },
        }
    )
    print(json.dumps(details))
    result = {
        "correct": bench.checks.failed == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
