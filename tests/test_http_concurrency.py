"""Concurrent-correctness pins for the HTTP API.

The acceptance pin: reader threads hammering the series/aggregate
routes **while a collector stream ingests concurrently** must receive
responses bit-identical to direct :class:`QueryEngine` calls carrying
the same store-version stamp.  Floats cross the wire via ``repr``
round-trip, so "bit-identical" is literal: the decoded JSON must
``==`` the encoded direct answer, element by element.

Also here: the read-only replica — the threaded server over a
memory-mapped archive with no ingest tier, answering exactly like an
in-process engine and refusing ingest with a structured 503.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from repro.service import Query, QueryEngine
from repro.service.http import (
    IngestClient,
    IngestServerConfig,
    OperationsApp,
    OperationsHttpServer,
    encode_result,
    query_path,
)
from repro.service.rollup import RollupStore
from repro.telemetry.archive import TelemetryArchive
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import CHANNELS, Channel

NUM_RACKS = 8
CADENCE_S = 300.0
SEED_SAMPLES = 48


def _database(samples=SEED_SAMPLES) -> EnvironmentalDatabase:
    rng = np.random.default_rng(31)
    db = EnvironmentalDatabase(num_racks=NUM_RACKS)
    epochs = np.arange(samples) * CADENCE_S
    db.append_block(
        epochs,
        {ch: rng.normal(50.0, 5.0, size=(samples, NUM_RACKS)) for ch in CHANNELS},
    )
    return db


def _query_mix():
    """A deterministic set of series/aggregate queries over the data."""
    queries = []
    for lo in (0, 4, 8):
        for width in (4, 12):
            start = lo * CADENCE_S
            end = (lo + width) * CADENCE_S
            queries.append(
                Query("series", Channel.POWER, start, end, stat="mean")
            )
            queries.append(
                Query(
                    "aggregate",
                    Channel.FLOW,
                    start,
                    end,
                    stat="max",
                    scope="rack",
                    rack=lo % NUM_RACKS,
                )
            )
            queries.append(
                Query("aggregate", Channel.OUTLET_TEMPERATURE, start, end)
            )
    return queries


class TestConcurrentBitIdentity:
    def test_http_matches_direct_engine_during_live_ingest(self):
        served = _database()
        app = OperationsApp.from_database(served, ingest=IngestServerConfig())
        engine = app.engine
        queries = _query_mix()
        matched = []
        mismatches = []
        ingest_done = threading.Event()
        passes_per_reader = 4

        with OperationsHttpServer(app) as server:
            host, port = server.address

            def reader(worker: int) -> None:
                conn = http.client.HTTPConnection(host, port, timeout=30)
                try:
                    total = passes_per_reader * len(queries)
                    for i in range(worker, worker + total):
                        query = queries[i % len(queries)]
                        path = query_path(query.kind, query)
                        conn.request("GET", path)
                        reply = conn.getresponse()
                        payload = json.loads(reply.read())
                        assert reply.status == 200, payload
                        result, version = engine.execute_versioned(query)
                        if payload["store_version"] != version:
                            # The store moved between the two calls —
                            # stamps differ, no comparison possible.
                            continue
                        expected = encode_result(result, version)
                        if payload != expected:
                            mismatches.append((path, payload, expected))
                        else:
                            matched.append(path)
                finally:
                    conn.close()

            def ingester() -> None:
                # Paced so batches keep landing while readers read.
                client = IngestClient(server.url, "replayer")
                rng = np.random.default_rng(77)
                try:
                    for batch in range(12):
                        n = 4
                        epochs = (
                            SEED_SAMPLES + batch * n + np.arange(n)
                        ) * CADENCE_S
                        client.post_batch(
                            epochs,
                            {
                                ch: rng.normal(50.0, 5.0, size=(n, NUM_RACKS))
                                for ch in CHANNELS
                            },
                        )
                        time.sleep(0.02)
                finally:
                    ingest_done.set()

            readers = [
                threading.Thread(target=reader, args=(w,)) for w in range(4)
            ]
            for thread in readers:
                thread.start()
            ingest_thread = threading.Thread(target=ingester)
            ingest_thread.start()
            ingest_thread.join()
            for thread in readers:
                thread.join()

            assert mismatches == []
            # The race can skip comparisons, but most must have matched.
            assert len(matched) > 50

            # Quiesced: every query now compares exactly, stamps and all.
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                for query in queries:
                    conn.request("GET", query_path(query.kind, query))
                    reply = conn.getresponse()
                    payload = json.loads(reply.read())
                    result, version = engine.execute_versioned(query)
                    assert payload == encode_result(result, version)
            finally:
                conn.close()

    def test_post_ingest_state_equals_rebuilt_store(self):
        """After the stream ends, the served store == a fresh rebuild."""
        served = _database()
        app = OperationsApp.from_database(served, ingest=IngestServerConfig())
        rng = np.random.default_rng(5)
        with OperationsHttpServer(app) as server:
            client = IngestClient(server.url, "replayer")
            for batch in range(6):
                epochs = (SEED_SAMPLES + batch * 3 + np.arange(3)) * CADENCE_S
                client.post_batch(
                    epochs,
                    {
                        ch: rng.normal(50.0, 5.0, size=(3, NUM_RACKS))
                        for ch in CHANNELS
                    },
                )
        rebuilt = QueryEngine(RollupStore.from_database(served))
        for query in _query_mix():
            live = app.engine.execute(query)
            fresh = rebuilt.execute(query)
            if query.kind == "series":
                np.testing.assert_array_equal(live.epoch_s, fresh.epoch_s)
                np.testing.assert_array_equal(live.values, fresh.values)
            else:
                assert (live.value == fresh.value) or (
                    np.isnan(live.value) and np.isnan(fresh.value)
                )


class TestReadOnlyReplica:
    def test_mmap_archive_answers_like_direct_engine(self, tmp_path):
        database = _database()
        archive_dir = tmp_path / "archive"
        TelemetryArchive.save(database, archive_dir)
        app = OperationsApp.from_database(
            TelemetryArchive.load(archive_dir, mmap=True)
        )
        engine = QueryEngine(RollupStore.from_database(database))
        with OperationsHttpServer(app) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=30)
            try:
                conn.request("GET", "/healthz")
                health = json.loads(conn.getresponse().read())
                assert health["status"] == "ok"
                assert health["ingest_enabled"] is False
                for query in _query_mix():
                    conn.request("GET", query_path(query.kind, query))
                    reply = conn.getresponse()
                    payload = json.loads(reply.read())
                    assert reply.status == 200, payload
                    result, version = engine.execute_versioned(query)
                    assert payload == encode_result(result, version)
                # Read-only replicas refuse ingest with a structured 503.
                body = json.dumps({"api_version": 1}).encode()
                conn.request(
                    "POST",
                    "/v1/ingest",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                refusal = json.loads(reply.read())
                assert reply.status == 503
                assert refusal["error"]["type"] == "read_only"
            finally:
                conn.close()
