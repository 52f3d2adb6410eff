"""Socket layer: the app served over stdlib ``http.server``.

:class:`OperationsHttpServer` is a **threaded single process**.  All
handler threads share one :class:`~repro.service.http.app.OperationsApp`,
so it supports ingest (one database, one gateway lock) and live replay
(the engine is shared with the service's subscribers).  Start/stop it
programmatically from tests or run it from ``repro serve-http``.

A connection that fails outside the app — a client that resets
mid-request, or hangs up before its response is written — is counted
as ``server.connection_errors`` on ``/metrics`` and dropped; the
accept loop lives on.

Chaos: when the app carries a :class:`~repro.chaos.ChaosInjector`, the
handler consults :meth:`~repro.chaos.ChaosInjector.on_http_request`
once per request *before* dispatch — ``"error"`` short-circuits into a
structured 500 (``chaos_injected``), ``"reset"`` tears the TCP
connection down mid-request with no response at all.  Both follow the
injector's seeded schedule, so fault drills are replayable.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.http.app import OperationsApp
from repro.service.http.protocol import ApiError, dumps

#: Request bodies beyond this are refused with 413 before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _OperationsHandler(BaseHTTPRequestHandler):
    """Adapts one HTTP exchange onto :meth:`OperationsApp.handle`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-ops"

    # The accept loop must never die on a handler bug, and clients
    # must never see a traceback: everything funnels through the
    # app's no-raise ``handle`` or the structured-error writer here.

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._serve("POST")

    def _serve(self, method: str) -> None:
        app: OperationsApp = self.server.app  # type: ignore[attr-defined]
        if app.chaos is not None:
            action = app.chaos.on_http_request(app.next_request_index())
            if action == "reset":
                # Hard reset: RST instead of FIN so clients observe a
                # genuine connection failure, not an empty response.
                self.connection.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                self.close_connection = True
                return
            if action == "error":
                self._respond(
                    500,
                    ApiError(
                        500, "chaos_injected", "injected fault (chaos drill)"
                    ).payload(),
                    {},
                )
                return
        try:
            body = self._read_body() if method == "POST" else None
        except ApiError as exc:
            self._respond(exc.status, exc.payload(), exc.headers)
            return
        split = urlsplit(self.path)
        params = {
            key: values[-1]
            for key, values in parse_qs(
                split.query, keep_blank_values=True
            ).items()
        }
        status, payload, extra = app.handle(
            method, split.path, params, body, dict(self.headers.items())
        )
        self._respond(status, payload, extra)

    def _read_body(self) -> Dict:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise ApiError(
                411, "length_required", "POST requires Content-Length"
            ) from None
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413,
                "payload_too_large",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, "bad_json", f"body is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise ApiError(400, "bad_json", "body must be a JSON object")
        return body

    def _respond(self, status: int, payload: Dict, extra: Dict[str, str]) -> None:
        app: OperationsApp = self.server.app  # type: ignore[attr-defined]
        try:
            encoded = dumps(payload)
        except (TypeError, ValueError) as exc:
            # The encoder's tripwire (a NaN, or a type JSON lacks)
            # caught a protocol bug after the app counted the request:
            # answer the structured 500 and count the request as that.
            app.recount_as_server_error(status)
            status, extra = 500, {}
            encoded = dumps(
                ApiError(500, "internal", f"{type(exc).__name__}: {exc}").payload()
            )
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            for key, value in extra.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response: count it, drop the
            # connection, and keep serving.
            app.counters.add(connection_errors=1)
            self.close_connection = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter; /metrics has counters."""


class _ThreadingHTTPServer(socketserver.ThreadingMixIn, HTTPServer):
    daemon_threads = True
    # Restarts and tests rebind the same port in quick succession.
    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        """Count a connection that failed outside the app; the accept
        loop must live."""
        self.app.counters.add(connection_errors=1)  # type: ignore[attr-defined]


class OperationsHttpServer:
    """The threaded single-process server around one app.

    Args:
        app: The shared application (query + optional ingest tiers).
        host: Bind address; loopback by default.
        port: TCP port; 0 picks a free one (read it back from
            :attr:`address`).
    """

    def __init__(
        self, app: OperationsApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self._httpd = _ThreadingHTTPServer((host, port), _OperationsHandler)
        self._httpd.app = app  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "OperationsHttpServer":
        """Run the accept loop on a daemon thread; returns self."""
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (CLI mode)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def stop(self) -> None:
        """Stop accepting, join the loop thread, close the socket."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "OperationsHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
