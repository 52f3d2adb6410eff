"""Socket layer: the app served over stdlib ``http.server``.

Two serving modes, one app:

* :class:`OperationsHttpServer` — a **threaded single process**.  All
  handler threads share one :class:`~repro.service.http.app.OperationsApp`,
  so this is the mode that supports ingest (one database, one gateway
  lock) and live replay (the engine is shared with the service's
  subscribers).  Start/stop it programmatically from tests or run it
  from ``repro serve-http``.

* :func:`serve_prefork` — a **pre-forked worker pool** for read-only
  query serving.  The parent builds one read-only app and binds the
  listening socket, then forks ``workers`` children.  Each child
  serves the app it inherited — database, rollups and query engine
  are shared copy-on-write with the parent, nothing is reopened or
  pickled — and runs its own accept loop on the inherited socket, so
  the kernel load-balances connections across processes and read
  throughput scales with cores instead of queueing behind one GIL.

Chaos: when the app carries a :class:`~repro.chaos.ChaosInjector`, the
handler consults :meth:`~repro.chaos.ChaosInjector.on_http_request`
once per request *before* dispatch — ``"error"`` short-circuits into a
structured 500 (``chaos_injected``), ``"reset"`` tears the TCP
connection down mid-request with no response at all.  Both follow the
injector's seeded schedule, so fault drills are replayable.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import struct
import threading
import time
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
        encoded = dumps(payload)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            for key, value in extra.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response; the serving thread
            # shrugs and moves on.
            self.close_connection = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter; /metrics has counters."""


class _ThreadingHTTPServer(socketserver.ThreadingMixIn, HTTPServer):
    daemon_threads = True
    # Restarts and tests rebind the same port in quick succession.
    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        """Swallow per-connection errors; the accept loop must live."""


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


class _WorkerHTTPServer(_ThreadingHTTPServer):
    """A child's server over the socket inherited from the parent."""

    def __init__(self, inherited: socket.socket, app: OperationsApp) -> None:
        host, port = inherited.getsockname()[:2]
        # Adopt the parent's bound+listening socket instead of binding:
        # every worker accepts from the same kernel queue.
        super().__init__((host, port), _OperationsHandler, bind_and_activate=False)
        self.socket.close()
        self.socket = inherited
        self.app = app  # type: ignore[attr-defined]


def bind_listening_socket(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """Bind + listen, ready to share with forked workers."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


def serve_prefork(
    app: OperationsApp,
    workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    duration_s: Optional[float] = None,
    ready_callback=None,
    stop_event: Optional[threading.Event] = None,
) -> int:
    """Serve a read-only app from ``workers`` forked processes.

    The parent binds the socket, forks, then sleeps as a babysitter:
    on ``duration_s`` expiry (or SIGINT/SIGTERM) it SIGTERMs the
    children and reaps them.  Each child serves the ``app`` it
    inherited through the fork, so the dataset and rollups the parent
    built are shared copy-on-write; each child's query cache fills
    independently from there.

    Args:
        app: A read-only app built by the parent
            (:meth:`OperationsApp.from_database` without ``ingest``).
        workers: Child process count (min 1).
        host/port: Bind address; port 0 picks a free one.
        duration_s: Self-terminate after this long (CI smoke mode);
            ``None`` serves until interrupted.
        ready_callback: Called in the parent with ``(host, port)``
            once children are forked (the load generator hooks this).
        stop_event: Optional externally owned event; setting it winds
            the pool down early (how tests stop a babysitter thread
            without signals).

    Returns:
        The number of children that exited abnormally.

    Raises:
        ValueError: if ``app`` has an ingest gateway — a batch posted
            to one child would land in that child's copy of the
            database only.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX fallback
        raise RuntimeError(
            "pre-forked serving needs os.fork; use the threaded server"
        )
    if app.gateway is not None:
        raise ValueError(
            "pre-forked workers serve read-only apps; use the threaded "
            "server for ingest"
        )
    workers = max(1, int(workers))
    sock = bind_listening_socket(host, port)
    bound_host, bound_port = sock.getsockname()[:2]
    children = []
    for _ in range(workers):
        pid = os.fork()
        if pid == 0:
            # Child: serve until SIGTERM. os._exit skips atexit and
            # the parent's inherited cleanup handlers.
            signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            try:
                httpd = _WorkerHTTPServer(sock, app)
                httpd.serve_forever(poll_interval=0.1)
            finally:
                os._exit(0)
        children.append(pid)
    if ready_callback is not None:
        ready_callback(bound_host, bound_port)

    stop = stop_event if stop_event is not None else threading.Event()

    def _request_stop(*_args) -> None:
        stop.set()

    try:
        # Signal handlers are a main-thread privilege; when driven from
        # a worker thread (tests), the duration deadline still applies.
        old_term = signal.signal(signal.SIGTERM, _request_stop)
        old_int = signal.signal(signal.SIGINT, _request_stop)
    except ValueError:
        old_term = old_int = None
    try:
        deadline = None if duration_s is None else time.monotonic() + duration_s
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            stop.wait(0.1)
    finally:
        if old_term is not None:
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)
    failures = 0
    for pid in children:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    for pid in children:
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) not in (0, -signal.SIGTERM):
            failures += 1
    sock.close()
    return failures
