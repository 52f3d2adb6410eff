"""The chaos injector: deterministic schedules, hooks, and the matrix."""

import pytest

from repro.chaos import (
    CHAOS_SCENARIOS,
    ChaosConfig,
    ChaosCrash,
    ChaosInjector,
    ChaosProcessKill,
    WorkerCrasher,
    run_chaos_matrix,
)
from repro.service.bus import BusChunk

import numpy as np


def _chunk(start_seq, n):
    return BusChunk(
        seq=start_seq,
        start_seq=start_seq,
        epoch_s=np.arange(n, dtype="float64"),
        values={},
        quality={},
    )


def _crash_pattern(injector, name, deliveries=200):
    """Which delivery indices crash, for a fixed per-subscriber stream."""
    crashed = []
    for i in range(deliveries):
        try:
            injector.before_delivery(name, i)
        except ChaosCrash:
            crashed.append(i)
    return crashed


class TestChaosConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="crash_rate"):
            ChaosConfig(crash_rate=1.5)
        with pytest.raises(ValueError, match="hang_rate"):
            ChaosConfig(hang_rate=-0.1)
        with pytest.raises(ValueError, match="negative"):
            ChaosConfig(hang_s=-1.0)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        config = ChaosConfig(seed=42, crash_rate=0.2)
        a = _crash_pattern(ChaosInjector(config), "rollups")
        b = _crash_pattern(ChaosInjector(config), "rollups")
        assert a == b and a  # identical and non-empty at this rate

    def test_streams_independent_per_subscriber(self):
        config = ChaosConfig(seed=42, crash_rate=0.2)
        injector = ChaosInjector(config)
        rollups = _crash_pattern(injector, "rollups")
        cusum = _crash_pattern(injector, "cusum")
        # Each name has its own generator: interleaving order does not
        # matter, and the two schedules differ.
        fresh = ChaosInjector(config)
        assert _crash_pattern(fresh, "cusum", 200) == cusum
        assert rollups != cusum

    def test_seed_changes_schedule(self):
        a = _crash_pattern(ChaosInjector(ChaosConfig(seed=1, crash_rate=0.2)), "x")
        b = _crash_pattern(ChaosInjector(ChaosConfig(seed=2, crash_rate=0.2)), "x")
        assert a != b

    def test_worker_crash_indices_deterministic(self):
        config = ChaosConfig(seed=9)
        a = ChaosInjector(config).worker_crash_indices(100, 0.1)
        b = ChaosInjector(config).worker_crash_indices(100, 0.1)
        assert a == b
        assert all(0 <= i < 100 for i in a)
        assert ChaosInjector(config).worker_crash_indices(100, 0.0) == ()
        with pytest.raises(ValueError, match="rate"):
            ChaosInjector(config).worker_crash_indices(100, 2.0)


class TestSchedules:
    def test_explicit_crash_fires_once(self):
        injector = ChaosInjector(ChaosConfig(crash_at=(("rollups", 32),)))
        injector.before_delivery("rollups", 0)
        with pytest.raises(ChaosCrash):
            injector.before_delivery("rollups", 32)
        injector.before_delivery("rollups", 32)  # retry passes
        assert injector.counters["rollups"].crashes_injected == 1

    def test_subscriber_filter_scopes_rate_injection(self):
        config = ChaosConfig(seed=3, crash_rate=1.0, subscribers=("rollups",))
        injector = ChaosInjector(config)
        injector.before_delivery("cusum", 0)  # not targeted: no crash
        with pytest.raises(ChaosCrash):
            injector.before_delivery("rollups", 0)

    def test_kill_fires_once_at_covering_chunk(self):
        injector = ChaosInjector(ChaosConfig(kill_at_seq=10))
        injector.on_publish(_chunk(0, 8))  # ends at 7: too early
        with pytest.raises(ChaosProcessKill):
            injector.on_publish(_chunk(8, 8))  # covers seq 10
        injector.on_publish(_chunk(16, 8))  # already dead once: no-op
        assert injector.counters["__bus__"].kills_injected == 1


class TestWorkerCrasher:
    def test_picklable_and_suppressed_after_marker(self, tmp_path):
        import pickle

        crasher = WorkerCrasher(len, (2,), tmp_path)
        clone = pickle.loads(pickle.dumps(crasher))
        assert clone.crash_indices == (2,)
        (tmp_path / "crashed-2").touch()  # marker: crash already spent
        assert clone((2, "abcd")) == 4  # survives in-process


class TestChaosMatrix:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            run_chaos_matrix(scenarios=("meteor",))

    def test_crash_cell_passes(self, tmp_path):
        summary = run_chaos_matrix(
            days=2,
            seed=7,
            dt_s=3600.0,
            chunk_sizes=(8,),
            scenarios=("crash",),
            workdir=tmp_path,
        )
        assert summary["ok"] is True
        (cell,) = summary["cells"]
        assert cell["scenario"] == "crash"
        assert cell["rollups_match"] and cell["alarms_match"]
        assert ("crash", "rollups") in cell["events"]

    def test_kill_cell_recovers(self, tmp_path):
        summary = run_chaos_matrix(
            days=2,
            seed=7,
            dt_s=3600.0,
            chunk_sizes=(8,),
            scenarios=("kill",),
            workdir=tmp_path,
        )
        assert summary["ok"] is True
        (cell,) = summary["cells"]
        assert cell["killed"] is True
        assert cell["wal_records_replayed"] > 0

    def test_scenario_registry(self):
        assert CHAOS_SCENARIOS == ("crash", "hang", "kill")


def _http_schedule(injector, requests=400):
    """The fault decision for each of the first ``requests`` arrivals."""
    return [injector.on_http_request(i) for i in range(requests)]


class TestHttpChaosSchedule:
    def test_http_rates_validated(self):
        with pytest.raises(ValueError, match="http_error_rate"):
            ChaosConfig(http_error_rate=1.5)
        with pytest.raises(ValueError, match="http_reset_rate"):
            ChaosConfig(http_reset_rate=-0.1)

    def test_same_seed_same_http_schedule(self):
        config = ChaosConfig(seed=9, http_error_rate=0.1, http_reset_rate=0.05)
        a = _http_schedule(ChaosInjector(config))
        b = _http_schedule(ChaosInjector(config))
        assert a == b
        assert a.count("error") > 0 and a.count("reset") > 0

    def test_http_stream_independent_of_subscriber_stream(self):
        """Draining a subscriber's stream must not shift HTTP faults."""
        config = ChaosConfig(seed=9, http_error_rate=0.1, crash_rate=0.2)
        pristine = ChaosInjector(config)
        drained = ChaosInjector(config)
        _crash_pattern(drained, "rollups")
        assert _http_schedule(pristine) == _http_schedule(drained)

    def test_explicit_indices_fire_once_and_take_priority(self):
        config = ChaosConfig(
            seed=1, http_error_at=(2, 5), http_reset_at=(2, 7)
        )
        injector = ChaosInjector(config)
        assert injector.on_http_request(0) is None
        assert injector.on_http_request(2) == "error"  # error beats reset
        assert injector.on_http_request(5) == "error"
        assert injector.on_http_request(7) == "reset"
        # Replaying an index does not re-fire the explicit fault.
        assert injector.on_http_request(5) is None
        counters = injector.counters["__http__"]
        assert counters.http_errors_injected == 2
        assert counters.http_resets_injected == 1


class TestHttpChaosOverServer:
    """The injector wired into the real server, deterministically."""

    @staticmethod
    def _app(chaos, ingest=None):
        from repro.service.http import IngestServerConfig, OperationsApp
        from repro.telemetry.database import EnvironmentalDatabase
        from repro.telemetry.records import CHANNELS

        rng = np.random.default_rng(3)
        db = EnvironmentalDatabase(num_racks=4)
        db.append_block(
            np.arange(12) * 300.0,
            {ch: rng.normal(50.0, 5.0, size=(12, 4)) for ch in CHANNELS},
        )
        config = (
            IngestServerConfig() if ingest else None
        )
        return OperationsApp.from_database(db, ingest=config, chaos=chaos)

    def test_scheduled_error_and_reset_then_clean_service(self):
        import http.client
        import json

        from repro.service.http import OperationsHttpServer

        injector = ChaosInjector(
            ChaosConfig(http_error_at=(0,), http_reset_at=(1,))
        )
        app = self._app(injector)
        with OperationsHttpServer(app) as server:
            host, port = server.address
            # Request 0: structured 500, not a traceback or a hang.
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            payload = json.loads(reply.read())
            assert reply.status == 500
            assert payload["error"]["type"] == "chaos_injected"
            conn.close()
            # Request 1: the connection dies with no response at all.
            conn = http.client.HTTPConnection(host, port, timeout=10)
            with pytest.raises(
                (
                    ConnectionResetError,
                    ConnectionAbortedError,
                    http.client.BadStatusLine,
                    http.client.RemoteDisconnected,
                )
            ):
                conn.request("GET", "/healthz")
                conn.getresponse().read()
            conn.close()
            # Request 2: back to normal service on a fresh connection.
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["status"] == "ok"
            conn.close()
        http_chaos = injector.counters["__http__"]
        assert http_chaos.http_errors_injected == 1
        assert http_chaos.http_resets_injected == 1
        metrics = app.metrics()
        assert metrics["server"]["chaos_errors"] == 1
        assert metrics["server"]["chaos_resets"] == 1

    def test_collector_retries_through_scheduled_faults(self):
        """An IngestClient rides out a 500 and a reset, then commits."""
        from repro.service.http import (
            IngestClient,
            OperationsHttpServer,
            RetryPolicy,
        )
        from repro.telemetry.records import CHANNELS

        injector = ChaosInjector(
            ChaosConfig(http_error_at=(0,), http_reset_at=(1,))
        )
        app = self._app(injector, ingest=True)
        sleeps = []
        with OperationsHttpServer(app) as server:
            client = IngestClient(
                server.url,
                "replayer",
                retry=RetryPolicy(max_attempts=5, base_delay_s=0.01),
                sleep=sleeps.append,
            )
            rng = np.random.default_rng(11)
            epochs = (12 + np.arange(4)) * 300.0
            reply = client.post_batch(
                epochs,
                {ch: rng.normal(50.0, 5.0, size=(4, 4)) for ch in CHANNELS},
            )
            # 12 seed samples + the 4 the batch committed.
            assert reply["committed_samples"] == 16
        # Attempt 0 hit the injected 500, attempt 1 the reset; the
        # third attempt landed.  Both failures backed off.
        assert client.counters.retries == 2
        assert client.counters.server_errors == 1
        assert client.counters.transport_failures == 1
        assert sleeps == [0.01, 0.02]
        assert app.metrics()["server"]["chaos_errors"] == 1
        assert app.metrics()["server"]["chaos_resets"] == 1
