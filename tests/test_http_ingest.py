"""Ingest gateway + collector tests.

The acceptance pin lives here: telemetry posted through ``POST
/v1/ingest`` must land **bit-identically** to the same samples fed
straight into :meth:`EnvironmentalDatabase.append_block` — values,
quality masks, and lenient-policy duplicate resolution included —
because the JSON wire format round-trips floats exactly and the
gateway routes every batch through the same :class:`IngestPolicy`
machinery.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.service.http import (
    FileImportCollector,
    IngestClient,
    IngestClientError,
    IngestServerConfig,
    OperationsApp,
    OperationsHttpServer,
    RetryPolicy,
    SimulatedPollerCollector,
)
from repro.service.http.protocol import encode_batch
from repro.service.rollup import RollupStore
from repro.telemetry.database import EnvironmentalDatabase, IngestPolicy
from repro.telemetry.export import export_telemetry_csv, import_telemetry_csv
from repro.telemetry.records import CHANNELS, Channel, Quality

NUM_RACKS = 8
CADENCE_S = 300.0


def _seed_database(policy=None, samples=24) -> EnvironmentalDatabase:
    rng = np.random.default_rng(7)
    db = EnvironmentalDatabase(num_racks=NUM_RACKS, policy=policy)
    epochs = np.arange(samples) * CADENCE_S
    db.append_block(
        epochs,
        {ch: rng.normal(50.0, 5.0, size=(samples, NUM_RACKS)) for ch in CHANNELS},
    )
    return db


def _batches(start_sample, count, batch_size, seed=11):
    """Deterministic (epochs, channels) batches continuing the stream."""
    rng = np.random.default_rng(seed)
    batches = []
    for lo in range(0, count, batch_size):
        n = min(batch_size, count - lo)
        epochs = (start_sample + lo + np.arange(n)) * CADENCE_S
        channels = {
            ch: rng.normal(50.0, 5.0, size=(n, NUM_RACKS)) for ch in CHANNELS
        }
        # Sprinkle NaNs so MISSING-quality derivation is exercised.
        for ch in channels:
            mask = rng.random((n, NUM_RACKS)) < 0.05
            channels[ch][mask] = np.nan
        batches.append((epochs, channels))
    return batches


def _assert_databases_equal(left: EnvironmentalDatabase, right: EnvironmentalDatabase):
    assert left.num_samples == right.num_samples
    np.testing.assert_array_equal(
        np.asarray(left.epoch_s), np.asarray(right.epoch_s)
    )
    for ch in CHANNELS:
        np.testing.assert_array_equal(
            np.asarray(left.channel(ch).values),
            np.asarray(right.channel(ch).values),
            err_msg=f"values differ for {ch.column}",
        )
        np.testing.assert_array_equal(
            np.asarray(left.quality(ch)),
            np.asarray(right.quality(ch)),
            err_msg=f"quality differs for {ch.column}",
        )


def _post(app, body, token=None):
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    return app.handle("POST", "/v1/ingest", {}, body=body, headers=headers)


class TestIngestEquivalence:
    def test_http_equals_direct_append_block(self):
        served = _seed_database()
        direct = _seed_database()
        app = OperationsApp.from_database(served, ingest=IngestServerConfig())
        for epochs, channels in _batches(24, 40, 7):
            status, payload, _ = _post(
                app, encode_batch("c1", epochs, channels)
            )
            assert status == 200, payload
            direct.append_block(epochs, channels)
        _assert_databases_equal(served, direct)

    def test_http_quality_masks_equal_direct(self):
        served = _seed_database()
        direct = _seed_database()
        app = OperationsApp.from_database(served, ingest=IngestServerConfig())
        rng = np.random.default_rng(3)
        for epochs, channels in _batches(24, 21, 7, seed=5):
            n = len(epochs)
            quality = {}
            for ch in (Channel.POWER, Channel.FLOW):
                flags = np.where(
                    np.isfinite(channels[ch]), int(Quality.OK), int(Quality.MISSING)
                ).astype(np.uint8)
                flags[rng.random((n, NUM_RACKS)) < 0.2] = int(Quality.SUSPECT)
                flags[rng.random((n, NUM_RACKS)) < 0.1] = int(Quality.SCRUBBED)
                quality[ch] = flags
            status, payload, _ = _post(
                app, encode_batch("c1", epochs, channels, quality)
            )
            assert status == 200, payload
            before = direct.committed_samples
            direct.append_block(epochs, channels)
            for ch, flags in quality.items():
                direct.overwrite_quality(ch, before, flags)
        _assert_databases_equal(served, direct)

    def test_lenient_duplicate_resolution_equal_direct(self):
        policy = IngestPolicy.lenient(reorder_window_s=4 * CADENCE_S)
        served = _seed_database(policy=policy)
        direct = _seed_database(policy=policy)
        app = OperationsApp.from_database(served, ingest=IngestServerConfig())
        rng = np.random.default_rng(13)
        base = 24
        for _ in range(6):
            # Out-of-order and duplicate timestamps inside the window.
            offsets = rng.integers(-3, 4, size=5)
            epochs = (base + offsets) * CADENCE_S
            channels = {
                ch: rng.normal(50.0, 5.0, size=(5, NUM_RACKS)) for ch in CHANNELS
            }
            status, payload, _ = _post(
                app, encode_batch("c1", epochs, channels)
            )
            assert status == 200, payload
            direct.append_block(epochs, channels)
            base += 2
        app.gateway.finalize()
        direct.flush()
        _assert_databases_equal(served, direct)
        assert served.counters.as_dict() == direct.counters.as_dict()

    def test_explicit_quality_refused_under_lenient_policy(self):
        served = _seed_database(policy=IngestPolicy.lenient())
        app = OperationsApp.from_database(served, ingest=IngestServerConfig())
        before = served.num_samples
        epochs, channels = _batches(48, 3, 3)[0]
        quality = {
            Channel.POWER: np.zeros((3, NUM_RACKS), dtype=np.uint8)
        }
        status, payload, _ = _post(
            app, encode_batch("c1", epochs, channels, quality)
        )
        assert status == 400
        assert payload["error"]["type"] == "bad_request"
        assert served.num_samples == before  # nothing partially applied

    def test_ingested_rows_become_queryable(self):
        served = _seed_database()
        app = OperationsApp.from_database(served, ingest=IngestServerConfig())
        epochs, channels = _batches(24, 12, 12)[0]
        status, payload, _ = _post(app, encode_batch("c1", epochs, channels))
        assert status == 200
        assert payload["store_version"] == app.engine.store.version
        # The query tier must now agree with a store rebuilt from the
        # final database — folding missed nothing.
        rebuilt = RollupStore.from_database(served)
        status, answer, _ = app.handle(
            "GET",
            "/v1/query/aggregate",
            {
                "channel": "power_kw",
                "start_s": "0",
                "end_s": repr(36 * CADENCE_S),
                "stat": "mean",
            },
        )
        assert status == 200
        from repro.service import Query, QueryEngine

        expected = QueryEngine(rebuilt).execute(
            Query("aggregate", Channel.POWER, 0.0, 36 * CADENCE_S)
        )
        assert answer["value"] == expected.value


class TestAuthAndBackpressure:
    def _app(self, **config):
        return OperationsApp.from_database(
            _seed_database(), ingest=IngestServerConfig(**config)
        )

    def test_wrong_token_is_401(self):
        app = self._app(tokens={"c1": "secret"})
        epochs, channels = _batches(24, 2, 2)[0]
        body = encode_batch("c1", epochs, channels)
        status, payload, _ = _post(app, body, token="wrong")
        assert status == 401
        assert payload["error"]["type"] == "unauthorized"
        status, payload, _ = _post(app, body)  # no token at all
        assert status == 401
        status, payload, _ = _post(app, body, token="secret")
        assert status == 200
        assert app.gateway.counters.rejected_unauthorized == 2

    def test_unknown_collector_is_401(self):
        app = self._app(tokens={"c1": "secret"})
        epochs, channels = _batches(24, 2, 2)[0]
        status, payload, _ = _post(
            app, encode_batch("intruder", epochs, channels), token="secret"
        )
        assert status == 401

    def test_backpressure_429_with_retry_after(self):
        app = self._app(max_pending=1, retry_after_s=0.25)
        gateway = app.gateway
        epochs, channels = _batches(24, 2, 2)[0]
        assert gateway._slots.acquire(blocking=False)  # occupy the only slot
        try:
            status, payload, headers = _post(
                app, encode_batch("c1", epochs, channels)
            )
            assert status == 429
            assert payload["error"]["type"] == "backpressure"
            assert headers["Retry-After"] == "0.25"
            assert gateway.counters.rejected_backpressure == 1
        finally:
            gateway._slots.release()
        status, payload, _ = _post(app, encode_batch("c1", epochs, channels))
        assert status == 200

    def test_read_only_server_refuses_ingest(self):
        app = OperationsApp.from_database(_seed_database())
        epochs, channels = _batches(24, 2, 2)[0]
        status, payload, _ = _post(app, encode_batch("c1", epochs, channels))
        assert status == 503
        assert payload["error"]["type"] == "read_only"


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5
        )
        delays = [policy.delay_s(i) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCollectorsOverRealServer:
    @pytest.fixture()
    def server(self):
        app = OperationsApp.from_database(
            _seed_database(), ingest=IngestServerConfig(tokens={"poller": "tok"})
        )
        with OperationsHttpServer(app) as server:
            yield server, app

    def test_simulated_poller_round_trip(self, server):
        server, app = server
        sleeps = []
        client = IngestClient(
            server.url, "poller", token="tok", sleep=sleeps.append
        )
        poller = SimulatedPollerCollector(
            client,
            num_racks=NUM_RACKS,
            start_epoch_s=24 * CADENCE_S,
            interval_s=CADENCE_S,
            seed=21,
            batch_samples=10,
        )
        sent = poller.run(25)
        assert sent == 25
        assert client.counters.batches_posted == 3
        assert sleeps == []  # a healthy server needs no retries
        assert app.gateway.database.num_samples == 24 + 25

    def test_poller_is_deterministic(self):
        def run_one():
            db = _seed_database()
            app = OperationsApp.from_database(db, ingest=IngestServerConfig())
            with OperationsHttpServer(app) as server:
                client = IngestClient(server.url, "poller")
                SimulatedPollerCollector(
                    client,
                    num_racks=NUM_RACKS,
                    start_epoch_s=24 * CADENCE_S,
                    interval_s=CADENCE_S,
                    seed=99,
                    batch_samples=8,
                ).run(16)
            return db

        _assert_databases_equal(run_one(), run_one())

    def test_non_retryable_error_raises_immediately(self, server):
        server, _ = server
        sleeps = []
        client = IngestClient(
            server.url, "poller", token="bad-token", sleep=sleeps.append
        )
        epochs, channels = _batches(24, 2, 2)[0]
        with pytest.raises(IngestClientError) as info:
            client.post_batch(epochs, channels)
        assert info.value.status == 401
        assert info.value.error_type == "unauthorized"
        assert sleeps == []  # 4xx refusals are not retried

    def test_file_import_collector_matches_direct_import(self, tmp_path):
        # CSV import always rebuilds at the full Mira topology, so the
        # source uses 48 racks here.  NaNs plus explicit non-default
        # quality flags exercise the whole wire format.
        racks = 48
        rng = np.random.default_rng(17)
        source = EnvironmentalDatabase(num_racks=racks)
        epochs = np.arange(30) * CADENCE_S
        blocks = {
            ch: rng.normal(50.0, 5.0, size=(30, racks)) for ch in CHANNELS
        }
        for ch in blocks:
            blocks[ch][rng.random((30, racks)) < 0.05] = np.nan
        source.append_block(epochs, blocks)
        for ch in (Channel.POWER, Channel.INLET_TEMPERATURE):
            mask = rng.random((30, racks)) < 0.15
            source.update_quality(ch, mask, Quality.SUSPECT)
        csv_path = tmp_path / "telemetry.csv"
        export_telemetry_csv(source, csv_path)

        target = EnvironmentalDatabase(num_racks=racks)
        app = OperationsApp.from_database(target, ingest=IngestServerConfig())
        with OperationsHttpServer(app) as server:
            client = IngestClient(server.url, "importer")
            sent = FileImportCollector(
                csv_path, client, num_racks=racks, batch_samples=7
            ).run()
        assert sent == 30
        reference = import_telemetry_csv(csv_path)
        _assert_databases_equal(target, reference)


class TestGatewayThreadSafety:
    def test_concurrent_posts_all_land(self):
        served = _seed_database(
            policy=IngestPolicy.lenient(reorder_window_s=100 * CADENCE_S)
        )
        app = OperationsApp.from_database(
            served, ingest=IngestServerConfig(max_pending=8)
        )
        batches = _batches(24, 32, 4)
        errors = []

        def post(batch):
            epochs, channels = batch
            status, payload, _ = _post(app, encode_batch("c1", epochs, channels))
            if status != 200:
                errors.append(payload)

        threads = [
            threading.Thread(target=post, args=(batch,)) for batch in batches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        app.gateway.finalize()
        assert served.num_samples == 24 + 32
