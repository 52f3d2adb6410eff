"""The operations API application: routes, independent of sockets.

:class:`OperationsApp` is the whole HTTP surface as a plain callable —
``(method, path, params, body, headers) -> (status, payload,
headers)`` — with no socket, thread, or process anywhere in it.  The
server layer (:mod:`repro.service.http.server`) adapts it onto
``http.server``; the tests dispatch into it directly to exercise
every route and failure shape without network flakiness.

Route table (version 1):

=======  =========================  ==========================================
Method   Path                       Serves
=======  =========================  ==========================================
GET      ``/``                      route table (this table, as JSON)
GET      ``/healthz``               liveness + dataset identity
GET      ``/metrics``               request/cache/ingest counters,
                                    cache hit rate, dataset-cache failures
GET      ``/v1/query/point``        one statistic at one instant
GET      ``/v1/query/series``       per-bucket statistics over a window
GET      ``/v1/query/aggregate``    one statistic over a whole window
POST     ``/v1/ingest``             one collector batch (auth + backpressure)
=======  =========================  ==========================================

Every handler either returns a success payload or raises
:class:`~repro.service.http.protocol.ApiError`; anything else escaping
a handler is a bug, which the dispatcher converts to a structured 500
(``internal``) — clients never see a traceback and the serving thread
never dies.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Mapping, Optional, Tuple

from repro import __version__
from repro.metrics import Counters
from repro.service.http.ingest import IngestGateway, IngestServerConfig
from repro.service.http.protocol import (
    API_VERSION,
    ApiError,
    QUERY_ROUTES,
    decode_batch,
    encode_result,
    parse_query,
)
from repro.service.query import QueryEngine
from repro.service.rollup import DEFAULT_RESOLUTIONS_S, RollupStore
from repro.telemetry.database import EnvironmentalDatabase

#: Series responses larger than this are refused (422) — a six-year
#: window at raw cadence is a rollup-level mistake, not a payload.
MAX_SERIES_POINTS = 100_000

_ROUTE_TABLE = {
    "GET /": "this route table",
    "GET /healthz": "liveness and dataset identity",
    "GET /metrics": "request/cache/ingest/dataset-cache counters",
    "GET /v1/query/point": "one statistic at one instant",
    "GET /v1/query/series": "per-bucket statistics over a window",
    "GET /v1/query/aggregate": "one statistic over a whole window",
    "POST /v1/ingest": "one collector sample batch",
}


class RequestCounters(Counters):
    """Server-side request observability (rendered by ``/metrics``)."""

    requests: int
    served: int
    client_errors: int
    server_errors: int
    #: Connections that failed outside the app: a client that reset
    #: mid-request or hung up before its response was written.
    connection_errors: int


def _outcome(status: int) -> str:
    """The :class:`RequestCounters` field a response status counts under."""
    if status < 400:
        return "served"
    return "client_errors" if status < 500 else "server_errors"


class RouteCounters(Counters):
    """Requests per ``_ROUTE_TABLE`` route; every other path counts as
    ``other``, so unknown paths cannot grow ``/metrics``."""

    __annotations__ = dict.fromkeys((*_ROUTE_TABLE, "other"), "int")


class OperationsApp:
    """The assembled operations API over a query engine and gateway.

    Args:
        engine: The query tier.  May be shared with a live
            :class:`~repro.service.live.LiveOperationsService` whose
            replay is still running — the engine is thread-safe and
            responses carry the store version they reflect.
        gateway: Optional ingest tier; without it, ``POST /v1/ingest``
            answers 503 ``read_only``.
        chaos: Optional :class:`~repro.chaos.ChaosInjector` consulted
            once per request (the HTTP fault hook).
        max_series_points: Refusal bound for series payloads.
        database: Optional backing telemetry database; when present,
            ``/metrics`` reports its chunked content address so
            operators can watch the digest watermark advance as
            collector batches land.
    """

    def __init__(
        self,
        engine: QueryEngine,
        gateway: Optional[IngestGateway] = None,
        chaos=None,
        max_series_points: int = MAX_SERIES_POINTS,
        database: Optional[EnvironmentalDatabase] = None,
    ) -> None:
        self.engine = engine
        self.gateway = gateway
        self.chaos = chaos
        self.max_series_points = max_series_points
        self.database = database
        self.counters = RequestCounters()
        self.routes = RouteCounters()
        self._index_lock = threading.Lock()
        self._request_index = -1
        self._started = time.monotonic()

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def from_database(
        cls,
        database: EnvironmentalDatabase,
        resolutions_s: Tuple[float, ...] = DEFAULT_RESOLUTIONS_S,
        cache_size: int = 1024,
        ingest: Optional[IngestServerConfig] = None,
        chaos=None,
    ) -> "OperationsApp":
        """Query tier over a finished database, optional ingest tier.

        With ``ingest`` set, collector batches append to the *same*
        database and fold into the same rollup store the query routes
        serve, so ingested samples become queryable immediately.
        """
        store = RollupStore.from_database(database, resolutions_s)
        engine = QueryEngine(store, cache_size=cache_size)
        gateway = (
            IngestGateway(database, rollups=store, config=ingest)
            if ingest is not None
            else None
        )
        return cls(engine, gateway=gateway, chaos=chaos, database=database)

    # -- dispatch -----------------------------------------------------------------

    def next_request_index(self) -> int:
        """The server's monotone arrival counter (chaos schedule key)."""
        with self._index_lock:
            self._request_index += 1
            return self._request_index

    def handle(
        self,
        method: str,
        path: str,
        params: Mapping[str, str],
        body: Optional[Dict] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Dict, Dict[str, str]]:
        """Dispatch one request; never raises.

        Returns ``(status, payload, extra_headers)``.  The payload is
        always a JSON-serializable dict — either a success envelope or
        the structured error envelope.
        """
        try:
            status, payload, extra = self._dispatch(
                method, path, params, body, headers or {}
            )
        except ApiError as exc:
            status, payload, extra = exc.status, exc.payload(), exc.headers
        except Exception as exc:  # noqa: BLE001 - the no-traceback boundary
            status = 500
            payload = ApiError(
                500, "internal", f"{type(exc).__name__}: {exc}"
            ).payload()
            extra = {}
        self.counters.add(requests=1, **{_outcome(status): 1})
        route = f"{method} {path}"
        self.routes.add(**{route if route in _ROUTE_TABLE else "other": 1})
        return status, payload, extra

    def recount_as_server_error(self, status: int) -> None:
        """Re-file one request :meth:`handle` counted under ``status``
        as a server error: its payload failed to encode afterwards."""
        counted = _outcome(status)
        if counted != "server_errors":
            self.counters.add(**{counted: -1, "server_errors": 1})

    def _dispatch(
        self,
        method: str,
        path: str,
        params: Mapping[str, str],
        body: Optional[Dict],
        headers: Mapping[str, str],
    ) -> Tuple[int, Dict, Dict[str, str]]:
        if path == "/" and method == "GET":
            return 200, {"api_version": API_VERSION, "routes": _ROUTE_TABLE}, {}
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return 200, self.metrics(), {}
        if path.startswith("/v1/"):
            return self._dispatch_v1(method, path, params, body, headers)
        if path.startswith("/v") and len(path) > 2 and path[2].isdigit():
            raise ApiError(
                404,
                "unsupported_version",
                f"no such API version prefix {path.split('/')[1]!r}; "
                f"supported: v{API_VERSION}",
            )
        raise ApiError(404, "unknown_route", f"no route {method} {path}")

    def _dispatch_v1(
        self,
        method: str,
        path: str,
        params: Mapping[str, str],
        body: Optional[Dict],
        headers: Mapping[str, str],
    ) -> Tuple[int, Dict, Dict[str, str]]:
        if path == "/v1/ingest":
            if method != "POST":
                raise ApiError(
                    405, "method_not_allowed", "/v1/ingest accepts POST only"
                )
            return self._ingest(body, headers)
        if path.startswith("/v1/query/") and method == "GET":
            kind = path[len("/v1/query/") :]
            if kind in QUERY_ROUTES:
                return self._query(kind, params)
            raise ApiError(
                404,
                "unknown_route",
                f"no query kind {kind!r}; choose from {list(QUERY_ROUTES)}",
            )
        raise ApiError(404, "unknown_route", f"no route {method} {path}")

    # -- handlers -----------------------------------------------------------------

    def _query(
        self, kind: str, params: Mapping[str, str]
    ) -> Tuple[int, Dict, Dict[str, str]]:
        query = parse_query(kind, params)
        if kind == "series":
            resolution = query.resolution_s or self.engine.store.snap_resolution(
                query.start_epoch_s, query.end_epoch_s
            )
            buckets = (query.end_epoch_s - query.start_epoch_s) / resolution
            if buckets > self.max_series_points:
                raise ApiError(
                    422,
                    "window_too_large",
                    f"series would span ~{int(buckets)} buckets at "
                    f"{resolution:g}s; the limit is {self.max_series_points} "
                    "— widen resolution_s or narrow the window",
                )
        try:
            result, version = self.engine.execute_versioned(query)
        except KeyError as exc:
            raise ApiError(
                400,
                "bad_request",
                f"resolution_s names no rollup level: {exc}",
            ) from None
        return 200, encode_result(result, version), {}

    def _ingest(
        self, body: Optional[Dict], headers: Mapping[str, str]
    ) -> Tuple[int, Dict, Dict[str, str]]:
        gateway = self.gateway
        if gateway is None:
            raise ApiError(
                503,
                "read_only",
                "this server has no ingest tier (read-only query replica)",
            )
        if body is None:
            raise ApiError(400, "bad_json", "POST /v1/ingest needs a JSON body")
        batch = decode_batch(
            body,
            num_racks=gateway.database.num_racks,
            max_batch_samples=gateway.config.max_batch_samples,
        )
        gateway.authorize(batch.collector, _bearer_token(headers))
        return 200, gateway.ingest(batch), {}

    def _healthz(self) -> Dict:
        store = self.engine.store
        bounds = store.epoch_bounds()
        return {
            "api_version": API_VERSION,
            "status": "ok",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started,
            "store_version": store.version,
            "ingested_rows": store.ingested_rows,
            "resolutions_s": list(store.resolutions_s),
            "num_racks": store.num_racks,
            "epoch_bounds": list(bounds) if bounds is not None else None,
            "ingest_enabled": self.gateway is not None,
        }

    def metrics(self) -> Dict:
        """The ``/metrics`` document."""
        from repro.simulation.datasets import CACHE_FAILURES

        # HTTP faults are counted once, by the injector that fires them.
        http_chaos = (
            self.chaos.counters.get("__http__") if self.chaos is not None else None
        )
        injected = http_chaos.as_dict() if http_chaos is not None else {}
        payload: Dict = {
            "api_version": API_VERSION,
            "server": {
                **self.counters.as_dict(),
                "chaos_errors": injected.get("http_errors_injected", 0),
                "chaos_resets": injected.get("http_resets_injected", 0),
                "by_route": self.routes.as_dict(),
            },
            "cache": self.engine.cache_info(),
            "dataset_cache": CACHE_FAILURES.as_dict(),
            "store": {
                "version": self.engine.store.version,
                "ingested_rows": self.engine.store.ingested_rows,
                "buckets": {
                    f"{resolution:g}": count
                    for resolution, count in self.engine.store.bucket_counts().items()
                },
            },
        }
        # A block that cannot be built names its failure instead of
        # vanishing, so a scrape tells "broken" from "not configured".
        if self.database is not None:
            try:
                # flush=False: hash committed rows only, so a metrics
                # poll never forces partially-assembled batches in.
                payload["dataset"] = self.database.digest_info(flush=False).as_dict()
            except Exception as exc:  # noqa: BLE001 - reported in the block
                payload["dataset"] = _error_block(exc)
        try:
            from repro.analytics.incremental import default_store

            store = default_store()
            payload["section_cache"] = {
                "enabled": store.enabled,
                **store.counters.as_dict(),
            }
            if store.enabled:
                entries = store.entries()
                payload["section_cache"]["entries"] = len(entries)
                payload["section_cache"]["bytes"] = sum(
                    entry.size_bytes for entry in entries
                )
        except Exception as exc:  # noqa: BLE001 - reported in the block
            payload["section_cache"] = _error_block(exc)
        if self.gateway is not None:
            payload["ingest"] = self.gateway.metrics()
        return payload


def _error_block(exc: Exception) -> Dict[str, str]:
    """The ``/metrics`` stand-in for a block that raised."""
    return {"error": f"{type(exc).__name__}: {exc}"}


def _bearer_token(headers: Mapping[str, str]) -> Optional[str]:
    """Extract ``Authorization: Bearer <token>`` (case-insensitive)."""
    for key, value in headers.items():
        if key.lower() == "authorization":
            scheme, _, token = value.partition(" ")
            if scheme.lower() == "bearer" and token:
                return token.strip()
    return None
