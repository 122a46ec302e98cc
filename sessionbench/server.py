"""The http_session workload's server process.

Started by ``run.py``; builds the bdd service, serves it over loopback on an
ephemeral port and prints one ready line (JSON: url, build report).  It then
answers JSON commands read from stdin, one reply line each on stdout:

* ``{"op": "trace"}`` installs the layer tracer (server side, app layer
  included) and replies ``{}``;
* ``{"op": "dump"}`` replies the tracer summary and this process's peak RSS;
* ``{"op": "replay", "categories": [...]}`` runs those queries as
  in-process sessions on the same service and replies their shown image
  sequences, for the HTTP-vs-in-process parity check;
* ``{"op": "stop"}`` or end of input stops the server and exits.
"""

from __future__ import annotations

import json
import sys

import setup_env  # noqa: F401  (pins BLAS threads, puts the program on sys.path)

import driver
from tracing import Tracer


def _reply(payload: object) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _replay(service, dataset, categories: "list[str]") -> "dict[str, object]":
    from repro.server import InProcessClient, SessionManager

    pool = {query.category: query for query in driver.query_pool(dataset)}
    client = InProcessClient(SessionManager(service))
    calls = driver.Calls()
    checks = driver.Checks()
    window = driver.Window()
    corpus = frozenset(image.image_id for image in dataset.images)
    shown: "dict[str, list[int]]" = {}
    for category in categories:
        try:
            shown[category] = driver.run_session(
                client, calls, window, pool[category], dataset, corpus, set(),
                driver.PAPER_ROUNDS, True, checks,
            )
        except driver.SessionAborted as exc:
            checks.expect(False, f"replay {category}: {exc}")
    return {"shown": shown, "failed_checks": checks.failed, "messages": checks.messages}


def main() -> int:
    from repro.server import SeeSawApp, SessionManager, serve_in_background

    dataset = driver.load_corpus()
    service = driver.build_service(dataset, live=False)
    report = service.index_for(driver.DATASET).build_report
    server = serve_in_background(SeeSawApp(SessionManager(service))).start()
    tracer: "Tracer | None" = None
    try:
        _reply(
            {
                "url": server.url,
                "build": {
                    "embed_s": report.embedding_seconds,
                    "graph_s": report.graph_seconds,
                    "store_s": report.store_seconds,
                },
            }
        )
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            if op == "trace":
                tracer = Tracer()
                tracer.install(server_side=True)
                _reply({})
            elif op == "dump":
                _reply(
                    {
                        "trace": tracer.summary() if tracer else None,
                        "rss_mb": setup_env.peak_rss_mb(),
                    }
                )
            elif op == "replay":
                if tracer is not None:
                    tracer.uninstall()
                _reply(_replay(service, dataset, command["categories"]))
            elif op == "stop":
                break
            else:
                raise ValueError(f"unknown command {op!r}")
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
