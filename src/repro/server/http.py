"""Stdlib HTTP transport for the SeeSaw service.

A thin socket layer over :class:`~repro.server.app.SeeSawApp`:
``ThreadingHTTPServer`` gives us one thread per in-flight request (the
concurrency the :class:`~repro.server.manager.SessionManager` is built to
absorb), and the handler does nothing but read the body, delegate to the
app, and write the JSON response.

Typical embedded use::

    service = SeeSawService(config)
    service.register_dataset(dataset, embedding, cache_dir="...")
    with serve_in_background(SeeSawApp(SessionManager(service))) as server:
        client = ServiceClient(server.url)
        ...
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.server.app import SeeSawApp
from repro.server.middleware import Request


class SeeSawRequestHandler(BaseHTTPRequestHandler):
    """Reads one request, hands it to the app, writes the JSON response.

    Single-shot responses go out with a ``Content-Length``; streaming
    (NDJSON) responses are written with chunked transfer encoding, one chunk
    per record, flushed as produced so a client renders the first record
    before the last one is on the wire.
    """

    server: "SeeSawHTTPServer"
    server_version = "SeeSawHTTP/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms per
    # kept-alive request).  TCP_NODELAY sends each write at once.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else None
        response = self.server.app.handle_request(
            Request(
                method=method,
                target=self.path,
                body=body,
                headers={key: value for key, value in self.headers.items()},
                client=self.client_address[0],
            )
        )
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        for name, value in response.headers.items():
            self.send_header(name, value)
        if response.stream is not None:
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            # Once the 200 + chunked header are on the wire the response
            # cannot be rewritten.  If the producer raises (or the client
            # disconnects) mid-stream the body is truncated without its
            # terminal chunk, and the connection MUST NOT be reused: the
            # next keep-alive request on this socket would be parsed
            # against the half-written chunked body.  Clients detect the
            # truncation through the missing terminal NDJSON 'end' record.
            try:
                for record in response.stream:
                    self._write_chunk(json.dumps(record).encode("utf-8") + b"\n")
                self.wfile.write(b"0\r\n\r\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                # The client went away mid-stream; nothing left to tell it,
                # and a stack trace per closed browser tab is just noise.
                self.close_connection = True
            except Exception as exc:
                self.close_connection = True
                self.log_error("aborted NDJSON stream for %s: %r", self.path, exc)
            return
        if response.text is not None:
            encoded = response.text.encode("utf-8")
        else:
            encoded = json.dumps(response.payload).encode("utf-8")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()

    def log_message(self, format: str, *args: object) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)


class SeeSawHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SeeSawApp`."""

    daemon_threads = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients (the load profile the coalescing scheduler exists for) would
    # get connection resets before a worker thread ever saw them.
    request_queue_size = 128

    def __init__(
        self,
        app: SeeSawApp,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        super().__init__((host, port), SeeSawRequestHandler)
        self.app = app
        self.quiet = quiet

    @property
    def url(self) -> str:
        """The server's base URL (resolved port included)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class BackgroundServer:
    """A :class:`SeeSawHTTPServer` running on a daemon thread.

    Usable as a context manager; ``port=0`` (the default) binds an ephemeral
    port, read back through :attr:`url` once started.
    """

    def __init__(
        self, app: SeeSawApp, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
    ) -> None:
        self.server = SeeSawHTTPServer(app, host=host, port=port, quiet=quiet)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="seesaw-http", daemon=True
        )
        self._started = False

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return self.server.url

    def start(self) -> "BackgroundServer":
        """Start serving requests (idempotent)."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def stop(self) -> None:
        """Stop the server and release the socket."""
        if self._started:
            self.server.shutdown()
            self._thread.join(timeout=5.0)
            self._started = False
        self.server.server_close()

    def drain(self, timeout_s: "float | None" = None) -> bool:
        """Gracefully drain, then stop.

        Drain order matters: ``/healthz`` flips to ``draining`` and new
        sessions start failing with the typed 503 *first* (so load
        balancers and clients route away), in-flight requests get up to
        ``timeout_s`` (``config.drain_timeout_s`` by default) to finish,
        and only then does the listener close.  Returns what
        :meth:`SessionManager.drain` returned: ``True`` when nothing was
        cut off.
        """
        drained = self.server.app.manager.drain(timeout_s)
        self.stop()
        return drained

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(
    app: SeeSawApp, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> BackgroundServer:
    """Start ``app`` on a daemon thread; returns the (startable) server handle."""
    return BackgroundServer(app, host=host, port=port, quiet=quiet)


def serve_forever(
    app: SeeSawApp, host: str = "127.0.0.1", port: int = 8000, quiet: bool = False
) -> None:
    """Serve ``app`` on the calling thread until interrupted.

    SIGTERM (the orchestrator's stop signal) triggers a graceful drain:
    ``/healthz`` flips to ``draining``, new sessions are rejected with the
    typed 503, in-flight requests get ``config.drain_timeout_s`` to finish,
    then the listener closes.  Ctrl-C (SIGINT/KeyboardInterrupt) stays an
    immediate stop — interactive use should not wait out a drain window.
    """
    server = SeeSawHTTPServer(app, host=host, port=port, quiet=quiet)

    def _drain_and_stop() -> None:
        app.manager.drain()
        server.shutdown()

    previous_handler = None

    def _on_sigterm(signum: object, frame: object) -> None:  # pragma: no cover
        # serve_forever blocks this (main) thread, and server.shutdown()
        # deadlocks when called from the serving thread — so the drain runs
        # on its own thread and the handler returns immediately.
        threading.Thread(
            target=_drain_and_stop, name="seesaw-drain", daemon=True
        ).start()

    if threading.current_thread() is threading.main_thread():
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
