"""Adversarial/regression tests for the operations HTTP API.

Every malformed or hostile request must come back as a **structured
JSON error** — never a traceback — and the serving thread must stay
alive.  Most cases drive :meth:`OperationsApp.handle` directly (the
dispatcher is socket-free by design); a socket-level section then
repeats the nastiest ones over a real connection, including raw bytes
the JSON layer never sees.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import struct
import time
import types

import numpy as np
import pytest

from repro.analytics.incremental import SectionCacheCounters
from repro.service import CacheCounters
from repro.service.http import (
    MAX_BODY_BYTES,
    GatewayCounters,
    OperationsApp,
    OperationsHttpServer,
    IngestServerConfig,
    RequestCounters,
    generate_query_paths,
)
from repro.service.http.app import _ROUTE_TABLE
from repro.service.http.server import _OperationsHandler
from repro.service.rollup import DEFAULT_RESOLUTIONS_S
from repro.simulation.datasets import DatasetCacheCounters
from repro.telemetry.database import EnvironmentalDatabase, IngestCounters
from repro.telemetry.records import CHANNELS

NUM_RACKS = 8
NUM_SAMPLES = 48
CADENCE_S = 300.0


def _database() -> EnvironmentalDatabase:
    rng = np.random.default_rng(42)
    db = EnvironmentalDatabase(num_racks=NUM_RACKS)
    epochs = np.arange(NUM_SAMPLES) * CADENCE_S
    db.append_block(
        epochs,
        {ch: rng.normal(50.0, 5.0, size=(NUM_SAMPLES, NUM_RACKS)) for ch in CHANNELS},
    )
    return db


@pytest.fixture(scope="module")
def app() -> OperationsApp:
    return OperationsApp.from_database(_database(), ingest=IngestServerConfig())


def _assert_error(status, payload, expected_status, expected_type):
    assert status == expected_status
    assert payload["api_version"] == 1
    error = payload["error"]
    assert error["status"] == expected_status
    assert error["type"] == expected_type
    # Structured means structured: a message, not a traceback dump.
    assert "Traceback" not in error["message"]


class TestQueryRouteErrors:
    def test_unknown_route(self, app):
        status, payload, _ = app.handle("GET", "/nope", {})
        _assert_error(status, payload, 404, "unknown_route")

    def test_unknown_query_kind(self, app):
        status, payload, _ = app.handle("GET", "/v1/query/median", {})
        _assert_error(status, payload, 404, "unknown_route")
        assert "point" in payload["error"]["message"]

    def test_unsupported_version_prefix(self, app):
        status, payload, _ = app.handle(
            "GET", "/v2/query/point", {"channel": "power_kw", "epoch_s": "0"}
        )
        _assert_error(status, payload, 404, "unsupported_version")
        assert "v1" in payload["error"]["message"]

    def test_unknown_channel(self, app):
        status, payload, _ = app.handle(
            "GET", "/v1/query/point", {"channel": "bogus", "epoch_s": "0"}
        )
        _assert_error(status, payload, 400, "unknown_channel")
        assert "power_kw" in payload["error"]["message"]

    def test_missing_required_parameter(self, app):
        status, payload, _ = app.handle(
            "GET", "/v1/query/series", {"channel": "power_kw", "start_s": "0"}
        )
        _assert_error(status, payload, 400, "bad_request")
        assert "end_s" in payload["error"]["message"]

    def test_non_numeric_window(self, app):
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/aggregate",
            {"channel": "power_kw", "start_s": "zero", "end_s": "3600"},
        )
        _assert_error(status, payload, 400, "bad_request")

    def test_non_finite_window(self, app):
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/aggregate",
            {"channel": "power_kw", "start_s": "nan", "end_s": "inf"},
        )
        _assert_error(status, payload, 400, "bad_request")

    def test_inverted_window(self, app):
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/aggregate",
            {"channel": "power_kw", "start_s": "3600", "end_s": "0"},
        )
        _assert_error(status, payload, 400, "bad_request")

    def test_bad_stat_and_scope(self, app):
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/point",
            {"channel": "power_kw", "epoch_s": "0", "stat": "median"},
        )
        _assert_error(status, payload, 400, "bad_request")
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/point",
            {"channel": "power_kw", "epoch_s": "0", "scope": "rack"},
        )
        _assert_error(status, payload, 400, "bad_request")  # rack index missing

    def test_unknown_resolution(self, app):
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/aggregate",
            {
                "channel": "power_kw",
                "start_s": "0",
                "end_s": "3600",
                "resolution_s": "7.0",
            },
        )
        _assert_error(status, payload, 400, "bad_request")
        assert "rollup level" in payload["error"]["message"]

    def test_window_too_large_refused(self, app):
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/series",
            {
                "channel": "power_kw",
                "start_s": "0",
                "end_s": repr(300.0 * 200_000),
                "resolution_s": "300.0",
            },
        )
        _assert_error(status, payload, 422, "window_too_large")

    def test_out_of_range_window_is_served_not_crashed(self, app):
        # A window entirely outside the data is a valid (empty) answer.
        status, payload, _ = app.handle(
            "GET",
            "/v1/query/aggregate",
            {"channel": "power_kw", "start_s": "9000000", "end_s": "9003600"},
        )
        assert status == 200
        assert payload["value"] is None  # NaN encodes as null

    def test_method_mismatch(self, app):
        status, payload, _ = app.handle("POST", "/v1/query/point", {})
        _assert_error(status, payload, 404, "unknown_route")
        status, payload, _ = app.handle("GET", "/v1/ingest", {})
        _assert_error(status, payload, 405, "method_not_allowed")


class TestIngestBodyErrors:
    def _base_body(self, n=2):
        return {
            "api_version": 1,
            "collector": "c1",
            "epoch_s": [NUM_SAMPLES * CADENCE_S + i * CADENCE_S for i in range(n)],
            "channels": {
                "power_kw": [[1.0] * NUM_RACKS for _ in range(n)],
            },
        }

    def test_missing_body(self, app):
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=None)
        _assert_error(status, payload, 400, "bad_json")

    def test_wrong_version_payload(self, app):
        body = self._base_body()
        body["api_version"] = 99
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "unsupported_version")

    def test_oversized_batch(self, app):
        limit = app.gateway.config.max_batch_samples
        body = self._base_body()
        body["epoch_s"] = list(range(limit + 1))
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 413, "payload_too_large")

    def test_unknown_channel_block(self, app):
        body = self._base_body()
        body["channels"]["voltage_v"] = body["channels"].pop("power_kw")
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "unknown_channel")

    def test_ragged_rows(self, app):
        body = self._base_body()
        body["channels"]["power_kw"][1] = [1.0]  # wrong width
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "bad_request")

    def test_row_count_mismatch(self, app):
        body = self._base_body()
        body["channels"]["power_kw"].append([1.0] * NUM_RACKS)
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "bad_request")

    def test_non_numeric_cells(self, app):
        body = self._base_body()
        body["channels"]["power_kw"][0][0] = "hot"
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "bad_request")

    def test_bad_quality_flags(self, app):
        body = self._base_body()
        body["quality"] = {"power_kw": [[7] * NUM_RACKS, [0] * NUM_RACKS]}
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "bad_request")

    def test_quality_without_channel(self, app):
        body = self._base_body()
        body["quality"] = {"flow_gpm": [[0] * NUM_RACKS, [0] * NUM_RACKS]}
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "bad_request")

    def test_out_of_order_rejected_by_strict_policy(self, app):
        body = self._base_body()
        body["epoch_s"] = [0.0, CADENCE_S]  # far behind the stored tail
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "rejected_by_policy")

    def test_non_finite_epochs(self, app):
        body = self._base_body()
        body["epoch_s"] = [float("1e308") * 10, 0.0]  # inf
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, body=body)
        _assert_error(status, payload, 400, "bad_request")


class TestDispatcherNeverRaises:
    def test_internal_errors_become_structured_500s(self, app, monkeypatch):
        def boom(query):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(app.engine, "execute_versioned", boom)
        status, payload, _ = app.handle(
            "GET", "/v1/query/point", {"channel": "power_kw", "epoch_s": "0"}
        )
        _assert_error(status, payload, 500, "internal")
        assert "kaboom" in payload["error"]["message"]

    def test_counters_classify_outcomes(self):
        app = OperationsApp.from_database(_database())
        app.handle("GET", "/healthz", {})
        app.handle("GET", "/bogus", {})
        counters = app.counters
        assert counters.requests == 2
        assert counters.served == 1
        assert counters.client_errors == 1
        assert counters.server_errors == 0

    def test_unknown_paths_share_one_route_key(self):
        app = OperationsApp.from_database(_database())
        for i in range(1000):
            app.handle("GET", f"/scan/{i}", {})
        server = app.metrics()["server"]
        assert len(server["by_route"]) <= len(_ROUTE_TABLE) + 1
        assert server["by_route"]["other"] == 1000
        assert server["requests"] == server["client_errors"] == 1000


#: The documented ``/metrics`` counter blocks: each group's fields plus
#: the keys derived beside them.  Renaming a field breaks this table.
_METRICS_CONTRACT = {
    "server": (
        RequestCounters,
        {
            "requests", "served", "client_errors", "server_errors",
            "connection_errors",
        },
        {"chaos_errors", "chaos_resets", "by_route"},
    ),
    "cache": (
        CacheCounters,
        {"hits", "misses", "evictions", "invalidations", "revalidations"},
        {"entries", "capacity", "hit_rate"},
    ),
    "dataset_cache": (DatasetCacheCounters, {"quarantined", "store_failed"}, set()),
    "section_cache": (
        SectionCacheCounters,
        {
            "hits", "misses", "stores", "state_hits", "state_appends",
            "state_misses", "invalidations", "corrupt",
        },
        {"enabled"},
    ),
    "ingest": (
        GatewayCounters,
        {
            "batches_accepted", "rows_received", "rows_committed",
            "quality_override_rows", "rejected_unauthorized",
            "rejected_backpressure",
        },
        {
            "database", "committed_samples", "auth_enabled", "max_pending",
            "max_batch_samples",
        },
    ),
}


class TestMetricsBlocks:
    """A ``/metrics`` block that cannot be built says why, not vanish."""

    @pytest.mark.parametrize("block", sorted(_METRICS_CONTRACT))
    def test_counter_block_renders_its_group(self, app, block):
        group, fields, derived = _METRICS_CONTRACT[block]
        assert set(group().as_dict()) == fields
        assert set(app.metrics()[block]) == fields | derived

    def test_nested_counter_blocks(self, app):
        metrics = app.metrics()
        assert set(metrics) == {
            "api_version", "server", "cache", "dataset_cache", "store",
            "dataset", "section_cache", "ingest",
        }
        assert set(metrics["server"]["by_route"]) == set(_ROUTE_TABLE) | {"other"}
        assert set(metrics["ingest"]["database"]) == {
            "accepted_rows", "reordered_rows", "duplicate_rows", "dropped_late_rows",
        }
        assert set(IngestCounters().as_dict()) == set(metrics["ingest"]["database"])

    def test_dataset_block_reports_error(self, monkeypatch):
        app = OperationsApp.from_database(_database())

        def broken(flush=True):
            raise OSError("digest unavailable")

        monkeypatch.setattr(app.database, "digest_info", broken)
        status, payload, _ = app.handle("GET", "/metrics", {})
        assert status == 200
        assert payload["dataset"] == {"error": "OSError: digest unavailable"}
        assert "enabled" in payload["section_cache"]

    def test_section_cache_block_reports_error(self, monkeypatch):
        import repro.analytics.incremental as incremental

        def broken():
            raise RuntimeError("store unreadable")

        monkeypatch.setattr(incremental, "default_store", broken)
        status, payload, _ = OperationsApp.from_database(_database()).handle(
            "GET", "/metrics", {}
        )
        assert status == 200
        assert payload["section_cache"] == {"error": "RuntimeError: store unreadable"}
        assert payload["dataset"]["rows"] == NUM_SAMPLES


class TestOverSocket:
    """The nastiest cases again, through a real HTTP connection."""

    @pytest.fixture()
    def server(self, app):
        with OperationsHttpServer(app) as server:
            yield server

    def _request(self, server, method, path, body=None, raw=None):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            payload = raw if raw is not None else (
                json.dumps(body).encode() if body is not None else None
            )
            headers = {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            reply = conn.getresponse()
            return reply.status, json.loads(reply.read())
        finally:
            conn.close()

    def test_malformed_json_body(self, server):
        status, payload = self._request(
            server, "POST", "/v1/ingest", raw=b"{not json"
        )
        _assert_error(status, payload, 400, "bad_json")

    def test_non_object_json_body(self, server):
        status, payload = self._request(server, "POST", "/v1/ingest", raw=b"[1,2]")
        _assert_error(status, payload, 400, "bad_json")

    def test_declared_oversize_body_refused(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/ingest")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            # Refused on the declared length alone; no body ever sent.
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            _assert_error(reply.status, payload, 413, "payload_too_large")
        finally:
            conn.close()

    def test_server_survives_a_barrage(self, server):
        """No handler death: hostile requests then a clean health check."""
        cases = [
            ("GET", "/v1/query/point?channel=bogus&epoch_s=0", None, None),
            ("GET", "/v1/query/series?channel=power_kw", None, None),
            ("POST", "/v1/ingest", None, b"\xff\xfe garbage"),
            ("GET", "/v9/query/point", None, None),
            ("POST", "/v1/ingest", {"api_version": 1}, None),
        ]
        for method, path, body, raw in cases:
            status, payload = self._request(server, method, path, body, raw)
            assert status >= 400
            assert "error" in payload
        status, payload = self._request(server, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_reset_connections_are_counted(self):
        """Clients that send half a request and then reset reach the
        server's error hook; each one is counted, none is a request."""
        app = OperationsApp.from_database(_database())
        with OperationsHttpServer(app) as server:
            for _ in range(5):
                sock = socket.create_connection(server.address, timeout=10)
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
                # Linger 0: close sends RST instead of FIN.
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                sock.close()
            deadline = time.monotonic() + 10.0
            while app.counters.connection_errors < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            status, payload = self._request(server, "GET", "/metrics")
        assert status == 200
        assert payload["server"]["connection_errors"] == 5
        # No reset reached the app (the scrape counts itself after).
        assert payload["server"]["requests"] == 0

    def test_hangup_mid_response_is_counted(self):
        """A client gone before its response is written: counted once,
        the connection is closed, nothing escapes the handler."""

        class HungUp:
            def write(self, data):
                raise BrokenPipeError

        app = OperationsApp.from_database(_database())
        handler = _OperationsHandler.__new__(_OperationsHandler)
        handler.server = types.SimpleNamespace(app=app)
        handler.request_version = handler.protocol_version
        handler.requestline = "GET /healthz HTTP/1.1"
        handler.wfile = HungUp()
        handler.close_connection = False
        handler._respond(200, {"status": "ok"}, {})
        assert handler.close_connection
        assert app.counters.connection_errors == 1

    def test_query_over_socket_matches_direct_dispatch(self, server, app):
        path = "/v1/query/aggregate?channel=power_kw&start_s=0&end_s=3600"
        status, over_socket = self._request(server, "GET", path)
        direct_status, direct, _ = app.handle(
            "GET",
            "/v1/query/aggregate",
            {"channel": "power_kw", "start_s": "0", "end_s": "3600"},
        )
        assert status == direct_status == 200
        assert over_socket == direct


class TestQueryMix:
    def test_generated_paths_are_pinned(self):
        """The seeded dashboard mix is a fixed query set: a change to
        its draws changes what every HTTP benchmark run sends."""
        start = 1388534400.0
        paths = generate_query_paths(
            start, start + 365 * 86400.0, 48, DEFAULT_RESOLUTIONS_S, 8192, seed=1
        )
        assert len(paths) == 8192
        assert hashlib.sha256("\n".join(paths).encode()).hexdigest() == (
            "c8146e4a1a809c0b8b3cdc41297714aaeb9c2c355197a14c21fb218e6d8a11b2"
        )
