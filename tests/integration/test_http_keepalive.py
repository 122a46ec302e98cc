"""Keep-alive hygiene when an NDJSON stream dies mid-body.

Once the 200 and the ``Transfer-Encoding: chunked`` header are on the wire,
a producer crash can only truncate the body.  The regression these tests
pin down: the handler used to let the exception unwind into socketserver —
a full traceback on stderr — and, worse, a swallowed error would have left
the connection open for reuse, so the next keep-alive request on the same
socket would be parsed against the half-written chunked body.  The fixed
handler closes the connection (no desync possible), stays quiet, and keeps
serving fresh connections.
"""

from __future__ import annotations

import http.client
import socket
import struct
import time

import pytest

from repro.server.http import serve_in_background
from repro.server.middleware import Request, Response


class StubStreamApp:
    """A minimal app: one healthy stream, one poisoned, one plain route."""

    def handle_request(self, request: Request) -> Response:
        if request.target == "/stream/ok":
            return Response(status=200, stream=self._healthy())
        if request.target == "/stream/poison":
            return Response(status=200, stream=self._poisoned())
        if request.target == "/stream/slow":
            return Response(status=200, stream=self._slow())
        return Response(status=200, payload={"route": request.target})

    @staticmethod
    def _healthy():
        yield {"kind": "meta", "item_count": 1}
        yield {"kind": "item", "index": 0}
        yield {"kind": "end"}

    @staticmethod
    def _poisoned():
        yield {"kind": "meta", "item_count": 3}
        yield {"kind": "item", "index": 0}
        raise RuntimeError("producer exploded mid-stream")

    @staticmethod
    def _slow():
        for index in range(200):
            yield {"kind": "item", "index": index}
            time.sleep(0.01)
        yield {"kind": "end"}


@pytest.fixture()
def stub_server():
    with serve_in_background(StubStreamApp()) as server:
        yield server


def _connection(server) -> http.client.HTTPConnection:
    host, port = server.server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10.0)


class TestPoisonedStream:
    def test_truncates_body_and_closes_the_connection(self, stub_server, capfd):
        conn = _connection(stub_server)
        try:
            conn.request(
                "GET", "/stream/poison", headers={"Accept": "application/x-ndjson"}
            )
            response = conn.getresponse()
            # The status line went out before the producer died; the only
            # honest signal left is a body with no terminal chunk.
            assert response.status == 200
            with pytest.raises(http.client.IncompleteRead) as excinfo:
                response.read()
            delivered = excinfo.value.partial
            assert b'"meta"' in delivered
            assert b'"end"' not in delivered

            # Second request on the SAME connection: the server closed the
            # socket, so this fails cleanly — it can never be answered from
            # the half-written chunked body.
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                conn.request("GET", "/after-poison")
                conn.getresponse()
        finally:
            conn.close()

        # The crash stayed inside the handler: no socketserver traceback.
        captured = capfd.readouterr()
        assert "Traceback" not in captured.err
        assert "exploded" not in captured.err

        # And the server itself is still healthy on a fresh connection.
        fresh = _connection(stub_server)
        try:
            fresh.request("GET", "/healthz")
            assert fresh.getresponse().status == 200
        finally:
            fresh.close()

    def test_client_disconnect_mid_stream_is_quiet(self, stub_server, capfd):
        host, port = stub_server.server.server_address[:2]
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(
                f"GET /stream/slow HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
            )
            assert sock.recv(4096)  # headers plus the first chunks
        finally:
            # RST on close, so the server's next chunk write fails right
            # away instead of filling socket buffers.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        time.sleep(0.2)  # let the writer thread hit the dead socket
        captured = capfd.readouterr()
        assert "Traceback" not in captured.err

        fresh = _connection(stub_server)
        try:
            fresh.request("GET", "/healthz")
            assert fresh.getresponse().status == 200
        finally:
            fresh.close()


class TestHealthyStreamKeepAlive:
    def test_completed_stream_keeps_the_connection_reusable(self, stub_server):
        conn = _connection(stub_server)
        try:
            conn.request(
                "GET", "/stream/ok", headers={"Accept": "application/x-ndjson"}
            )
            response = conn.getresponse()
            body = response.read()  # consumes the terminal chunk
            assert b'"end"' in body
            assert not response.will_close
            sock_before = conn.sock

            # Same socket, next request: chunked framing left the stream
            # exactly at a request boundary.
            conn.request("GET", "/second")
            second = conn.getresponse()
            assert second.status == 200
            assert conn.sock is sock_before
            assert b"/second" in second.read()
        finally:
            conn.close()


class TestKeepAliveLatency:
    def test_sequential_keep_alive_requests_do_not_stall(self, stub_server):
        """No Nagle/delayed-ACK stall between a response's header and body.

        With Nagle on, the body segment waits for the client's delayed ACK
        of the header segment, about 40 ms per request on Linux loopback.
        """
        conn = _connection(stub_server)
        try:
            conn.request("GET", "/warm")
            conn.getresponse().read()
            sock = conn.sock
            started = time.perf_counter()
            for index in range(20):
                conn.request("GET", f"/ping/{index}")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - started
            assert conn.sock is sock  # one kept-alive connection throughout
            assert elapsed < 0.2, f"20 keep-alive requests took {elapsed * 1000:.0f} ms"
        finally:
            conn.close()
