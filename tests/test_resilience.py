"""Crash safety: WAL + snapshots, supervised subscribers, recovery.

The acceptance bar for the self-healing service layer:

* the **durability primitives** survive torn writes and corrupt files
  without losing valid history (write-ahead log, snapshot store,
  idempotent replay across the snapshot boundary);
* a **supervised** subscriber that crashes or hangs degrades — counted,
  logged, restarted with bounded backoff, its missed range repaired
  from the source — while its peers and the publisher keep running;
* a service **killed mid-stream** and rebuilt by
  :meth:`LiveOperationsService.recover` finishes with rollup buckets,
  predictor emissions, alerts, and CUSUM alarms **bit-identical** to an
  uninterrupted run (rollup totals to 1e-9 from re-association), at
  chunk sizes from one row up.
"""

import dataclasses

import numpy as np
import pytest

from repro import blobfile
from repro.chaos import ChaosConfig, ChaosInjector, ChaosProcessKill
from repro.faults import FaultConfig
from repro.service import (
    BusChunk,
    DurabilityConfig,
    LiveOperationsService,
    Query,
    QueryEngine,
    RecoveryError,
    RollupStore,
    ServiceConfig,
    SnapshotStore,
    SourceReplayer,
    Supervisor,
    SupervisorConfig,
    WriteAheadLog,
)
from repro.service.durability import SNAPSHOT_MAGIC, replay_component
from repro.simulation import FacilityEngine, MiraScenario
from repro.telemetry.quality import scrub_database
from repro.telemetry.records import CHANNELS, Channel

_RACKS = 4


class _StubModel:
    """Deterministic, row-independent classifier (an index-order sum)."""

    def predict_proba(self, features):
        features = np.asarray(features, dtype="float64")
        weights = np.sin(np.arange(features.shape[1]) + 1.0)
        score = np.add.accumulate(features * weights, axis=1)[:, -1]
        return 1.0 / (1.0 + np.exp(-score))


@pytest.fixture(scope="module")
def stream_result():
    """A small faulted realization: quality masks and NaN cells set."""
    config = dataclasses.replace(
        MiraScenario.demo(days=6, seed=7), faults=FaultConfig()
    )
    result = FacilityEngine(config).run()
    scrub_database(result.database)
    return result


def _chunk(start_seq, n, dt_s=300.0):
    """A synthetic chunk whose POWER column equals the sample index."""
    epoch = start_seq * dt_s + dt_s * np.arange(n)
    rows = np.arange(start_seq, start_seq + n, dtype="float64")
    return BusChunk(
        seq=start_seq,
        start_seq=start_seq,
        epoch_s=epoch,
        values={Channel.POWER: np.tile(rows[:, None], (1, _RACKS))},
        quality={Channel.POWER: np.ones((n, _RACKS), dtype=bool)},
    )


def _assert_chunks_equal(a, b):
    assert a.start_seq == b.start_seq
    np.testing.assert_array_equal(a.epoch_s, b.epoch_s)
    assert set(a.values) == set(b.values)
    for channel in a.values:
        np.testing.assert_array_equal(a.values[channel], b.values[channel])
        np.testing.assert_array_equal(a.quality[channel], b.quality[channel])


def _assert_rollups_equal(expected: RollupStore, actual: RollupStore):
    assert expected.resolutions_s == actual.resolutions_s
    for resolution in expected.resolutions_s:
        for channel in CHANNELS:
            want = expected.window(resolution, channel, -np.inf, np.inf)
            got = actual.window(resolution, channel, -np.inf, np.inf)
            np.testing.assert_array_equal(want.epoch, got.epoch)
            np.testing.assert_array_equal(want.samples, got.samples)
            np.testing.assert_array_equal(want.count, got.count)
            np.testing.assert_array_equal(want.usable, got.usable)
            for field in ("total", "minimum", "maximum"):
                np.testing.assert_allclose(
                    getattr(want, field),
                    getattr(got, field),
                    rtol=1e-9,
                    atol=1e-9,
                    equal_nan=True,
                )


class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        chunks = [_chunk(0, 8), _chunk(8, 8), _chunk(16, 3)]
        for chunk in chunks:
            wal.append(chunk)
        wal.close()
        records, _, torn = WriteAheadLog.scan(path)
        assert not torn
        assert [r.start_seq for r in records] == [0, 8, 16]
        assert [r.end_seq for r in records] == [7, 15, 18]
        for record, chunk in zip(records, chunks):
            _assert_chunks_equal(record, chunk)

    def test_torn_tail_detected_and_truncated_on_resume(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.append(_chunk(0, 4))
        wal.append(_chunk(4, 4))
        wal.close()
        with open(path, "ab") as handle:  # a half-written frame
            handle.write(b"\x99" * 11)
        records, _, torn = WriteAheadLog.scan(path)
        assert torn and len(records) == 2
        resumed = WriteAheadLog(path, resume=True)
        resumed.append(_chunk(8, 4))
        resumed.close()
        records, _, torn = WriteAheadLog.scan(path)
        assert not torn
        assert [r.start_seq for r in records] == [0, 4, 8]

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.append(_chunk(0, 4))
        wal.close()
        WriteAheadLog(path).close()
        records, _, torn = WriteAheadLog.scan(path)
        assert records == [] and not torn

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "wal.bin"
        path.write_bytes(b"not a wal at all")
        with pytest.raises(RecoveryError, match="magic"):
            WriteAheadLog.scan(path)


class TestSnapshotStore:
    def test_roundtrip_keeps_latest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("rollups", 15, {"x": 1})
        store.save("rollups", 31, {"x": 2})
        snapshot = store.load("rollups")
        assert snapshot.acked_seq == 31 and snapshot.state == {"x": 2}

    def test_missing_and_corrupt_load_as_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.load("rollups") is None
        assert store.counters.quarantined == 0  # a missing snapshot is not corrupt
        store.save("rollups", 7, {"x": 1})
        path = tmp_path / "rollups.snapshot.pkl"
        path.write_bytes(path.read_bytes()[:-5])  # truncated mid-payload
        assert store.load("rollups") is None
        assert store.counters.quarantined == 1
        assert not path.exists()
        quarantined = [p.name for p in tmp_path.iterdir()]
        assert len(quarantined) == 1
        assert quarantined[0].startswith(".quarantine-rollups.snapshot.pkl-")


class TestReplayComponent:
    def test_skips_acked_and_replays_rest(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        for chunk in (_chunk(0, 4), _chunk(4, 4), _chunk(8, 4)):
            wal.append(chunk)
        wal.close()
        records, _, _ = WriteAheadLog.scan(path)
        applied = []
        recovery = replay_component(
            "rollups", records, acked_seq=3, apply=applied.append, snapshot_seq=3
        )
        assert recovery.records_skipped == 1
        assert recovery.records_replayed == 2
        assert recovery.samples_replayed == 8
        assert [c.start_seq for c in applied] == [4, 8]

    def test_straddling_record_is_sliced(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.append(_chunk(0, 8))
        wal.append(_chunk(8, 8))
        wal.close()
        records, _, _ = WriteAheadLog.scan(path)
        applied = []
        recovery = replay_component(
            "rollups", records, acked_seq=5, apply=applied.append, snapshot_seq=5
        )
        # The first record [0, 7] straddles the ack at 5: only rows
        # 6..7 re-apply, then [8, 15] replays whole.
        assert recovery.records_replayed == 2
        assert recovery.samples_replayed == 10
        assert applied[0].start_seq == 6 and len(applied[0]) == 2
        np.testing.assert_array_equal(
            applied[0].values[Channel.POWER][:, 0], [6.0, 7.0]
        )
        assert applied[1].start_seq == 8

    def test_gap_raises(self, tmp_path):
        path = tmp_path / "wal.bin"
        wal = WriteAheadLog(path)
        wal.append(_chunk(0, 4))
        wal.append(_chunk(8, 4))  # hole: [4, 7] missing
        wal.close()
        records, _, _ = WriteAheadLog.scan(path)
        with pytest.raises(RecoveryError, match="gap"):
            replay_component("rollups", records, acked_seq=-1, apply=lambda c: None)


class _FlakyConsumer:
    """Collects delivered chunks; raises on scheduled call numbers."""

    def __init__(self, fail_calls=()):
        self.fail_calls = set(fail_calls)
        self.calls = 0
        self.chunks = []

    def __call__(self, chunk):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise RuntimeError(f"boom on call {self.calls}")
        self.chunks.append(chunk)

    @property
    def seqs(self):
        out = []
        for chunk in self.chunks:
            out.extend(range(chunk.start_seq, chunk.end_seq + 1))
        return out


class TestSupervisedSubscriber:
    """Direct proxy calls — no bus, no timing dependence."""

    def _supervisor(self, replayer=None, **overrides):
        defaults = dict(backoff_base_s=0.0, max_restarts=2)
        defaults.update(overrides)
        return Supervisor(SupervisorConfig(**defaults), replayer=replayer)

    def test_crash_budget_and_give_up(self):
        inner = _FlakyConsumer(fail_calls=range(1, 100))
        supervisor = self._supervisor(repair_gaps=False)
        wrapper = supervisor.supervise("victim", inner)
        for i in range(5):
            wrapper(_chunk(i * 4, 4))
        counters = wrapper.counters
        # Crashes 1..3 exhaust max_restarts=2; deliveries 4 and 5 skip.
        assert counters.crashes == 3
        assert counters.restarts == 2
        assert counters.gave_up == 1
        assert counters.skipped == 2 and counters.samples_skipped == 8
        kinds = [e.kind for e in supervisor.events]
        assert kinds == ["crash", "restart", "crash", "restart", "gave_up"]

    def test_backoff_delays_restart(self):
        inner = _FlakyConsumer(fail_calls={1})
        supervisor = self._supervisor(
            backoff_base_s=60.0, repair_gaps=False
        )
        wrapper = supervisor.supervise("victim", inner)
        wrapper(_chunk(0, 4))  # crash -> backoff for 60s
        wrapper(_chunk(4, 4))  # still backed off: skipped
        assert wrapper.counters.skipped == 1
        wrapper._restart_at = 0.0  # the backoff clock expires
        wrapper(_chunk(8, 4))
        assert wrapper.counters.restarts == 1
        assert wrapper.counters.deliveries == 1

    def test_backoff_schedule_bounded_exponential(self):
        config = SupervisorConfig(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5
        )
        assert [config.backoff_s(n) for n in (1, 2, 3, 4, 10)] == [
            0.1,
            0.2,
            0.4,
            0.5,
            0.5,
        ]

    def test_gap_before_first_delivery_repaired(self, stream_result):
        replayer = SourceReplayer(stream_result.database, chunk_size=8)
        inner = _FlakyConsumer()
        supervisor = self._supervisor(replayer=replayer)
        wrapper = supervisor.supervise("late", inner)
        trigger = list(replayer.blocks(16, 23))[0]
        wrapper(trigger)
        # Seqs 0..15 were never delivered: repaired from the source
        # before the trigger, so the inner stream is gap-free.
        assert inner.seqs == list(range(24))
        assert wrapper.counters.gaps_repaired == 1
        assert wrapper.counters.samples_repaired == 16
        assert wrapper.last_acked_seq == 23

    def test_evicted_chunks_replayed_after_restart(self, stream_result):
        replayer = SourceReplayer(stream_result.database, chunk_size=8)
        inner = _FlakyConsumer(fail_calls={1})
        supervisor = self._supervisor(replayer=replayer)
        wrapper = supervisor.supervise("victim", inner)
        blocks = list(replayer.blocks(0, 23))
        wrapper(blocks[0])  # crashes: [0, 7] lost
        wrapper(blocks[1])  # restart; [0, 7] repaired, then [8, 15]
        wrapper(blocks[2])
        assert inner.seqs == list(range(24))
        assert wrapper.counters.gaps_repaired == 1
        assert wrapper.counters.samples_repaired == 8
        assert [e.kind for e in supervisor.events] == [
            "crash",
            "restart",
            "gap_repaired",
        ]


class TestSourceReplayer:
    def test_blocks_match_bus_content(self, stream_result):
        database = stream_result.database
        replayer = SourceReplayer(database, chunk_size=16)
        blocks = list(replayer.blocks(3, 40))
        assert [b.start_seq for b in blocks] == [3, 19, 35]
        assert sum(len(b) for b in blocks) == 38
        np.testing.assert_array_equal(
            blocks[0].epoch_s, database.epoch_s[3:19]
        )
        np.testing.assert_array_equal(
            blocks[0].values[Channel.POWER],
            database.channel(Channel.POWER).values[3:19],
        )

    def test_out_of_window_rejected(self, stream_result):
        replayer = SourceReplayer(stream_result.database, chunk_size=16)
        with pytest.raises(ValueError, match="outside the replay window"):
            list(replayer.blocks(0, stream_result.database.num_samples))


def _baseline(stream_result, config):
    service = LiveOperationsService(
        stream_result.database,
        model=_StubModel(),
        cusum=True,
        config=config,
    )
    service.run()
    return service


def _assert_equivalent(expected, actual):
    _assert_rollups_equal(expected.rollups, actual.rollups)
    assert (
        actual.predictor_subscriber.predictions
        == expected.predictor_subscriber.predictions
    )
    assert actual.predictor_subscriber.alerts == expected.predictor_subscriber.alerts
    assert actual.cusum_subscriber.alarms == expected.cusum_subscriber.alarms


class TestRecoveryEquivalence:
    """The headline pin: kill mid-stream, recover, finish — identical."""

    @pytest.mark.parametrize(
        "chunk_size", [1, 4, 64], ids=lambda size: f"chunks-{size}"
    )
    def test_kill_recover_matches_uninterrupted(
        self, stream_result, tmp_path, chunk_size
    ):
        # One-chunk queues keep every consumer within two chunks of the
        # publisher, so each has snapshotted by the mid-stream kill and
        # the restore path runs for all three at every chunk size.
        config = ServiceConfig(
            chunk_size=chunk_size, analytics_policy="block", queue_capacity=1
        )
        expected = _baseline(stream_result, config)

        durable = dataclasses.replace(
            config,
            durability=DurabilityConfig(
                directory=tmp_path / "state", snapshot_every_samples=64
            ),
        )
        kill_seq = stream_result.database.num_samples // 2
        doomed = LiveOperationsService(
            stream_result.database,
            model=_StubModel(),
            cusum=True,
            config=durable,
            chaos=ChaosInjector(ChaosConfig(kill_at_seq=kill_seq)),
        )
        with pytest.raises(ChaosProcessKill):
            doomed.run()
        doomed.abort()

        recovered = LiveOperationsService.recover(
            stream_result.database, model=_StubModel(), cusum=True, config=durable
        )
        assert recovered.recovery is not None
        assert recovered.recovery.wal_records > 0
        assert recovered.recovery.resume_seq <= kill_seq
        unrestored = [
            c.component
            for c in recovered.recovery.components
            if c.snapshot_seq is None
        ]
        assert unrestored == []
        report = recovered.run()
        assert report.recovery is recovered.recovery
        _assert_equivalent(expected, recovered)

    def test_corrupt_snapshot_quarantined_and_replayed(
        self, stream_result, tmp_path
    ):
        """A snapshot that fails verification costs a full WAL replay
        for its component only, and the report says why."""

        def truncate(snapshot):
            snapshot.write_bytes(snapshot.read_bytes()[:-5])

        self._recover_past_bad_snapshot(stream_result, tmp_path, "rollups", truncate)

    def test_v1_snapshot_quarantined_and_replayed(self, stream_result, tmp_path):
        """A snapshot written under the previous magic (whose predictor
        state pickled its counters as a dataclass) is quarantined, and
        the predictor replays the whole log."""

        def as_v1(snapshot):
            state = blobfile.read(snapshot, SNAPSHOT_MAGIC)
            blobfile.write(snapshot, b"repro-snapshot-v1", state)

        self._recover_past_bad_snapshot(stream_result, tmp_path, "predictor", as_v1)

    @staticmethod
    def _recover_past_bad_snapshot(stream_result, tmp_path, component, damage):
        # One-chunk queues keep every consumer within two chunks of the
        # publisher, so each has snapshotted by the mid-stream kill.
        config = ServiceConfig(
            chunk_size=16, analytics_policy="block", queue_capacity=1
        )
        expected = _baseline(stream_result, config)
        state = tmp_path / "state"
        durable = dataclasses.replace(
            config,
            durability=DurabilityConfig(directory=state, snapshot_every_samples=64),
        )
        doomed = LiveOperationsService(
            stream_result.database,
            model=_StubModel(),
            cusum=True,
            config=durable,
            chaos=ChaosInjector(
                ChaosConfig(kill_at_seq=stream_result.database.num_samples // 2)
            ),
        )
        with pytest.raises(ChaosProcessKill):
            doomed.run()
        doomed.abort()
        damage(state / f"{component}.snapshot.pkl")

        recovered = LiveOperationsService.recover(
            stream_result.database, model=_StubModel(), cusum=True, config=durable
        )
        flagged = {
            c.component for c in recovered.recovery.components if c.snapshot_quarantined
        }
        assert flagged == {component}
        replayed = recovered.recovery.component(component)
        assert replayed.snapshot_seq is None and replayed.records_skipped == 0
        assert recovered.recovery.component("cusum").snapshot_seq is not None
        assert any(p.name.startswith(".quarantine-") for p in state.iterdir())
        report = recovered.run()
        # The quarantine met during recovery reaches the run's report.
        assert report.snapshots.quarantined == 1
        _assert_equivalent(expected, recovered)

    def test_double_kill_still_recovers(self, stream_result, tmp_path):
        """The WAL stays continuous across a second mid-stream death."""
        config = ServiceConfig(chunk_size=32, analytics_policy="block")
        expected = _baseline(stream_result, config)
        num = stream_result.database.num_samples
        durable = dataclasses.replace(
            config,
            durability=DurabilityConfig(
                directory=tmp_path / "state", snapshot_every_samples=64
            ),
        )
        for kill_seq in (num // 3, 2 * num // 3):
            service = (
                LiveOperationsService(
                    stream_result.database,
                    model=_StubModel(),
                    cusum=True,
                    config=durable,
                    chaos=ChaosInjector(ChaosConfig(kill_at_seq=kill_seq)),
                )
                if kill_seq == num // 3
                else LiveOperationsService.recover(
                    stream_result.database,
                    model=_StubModel(),
                    cusum=True,
                    config=durable,
                    chaos=ChaosInjector(ChaosConfig(kill_at_seq=kill_seq)),
                )
            )
            with pytest.raises(ChaosProcessKill):
                service.run()
            service.abort()
        final = LiveOperationsService.recover(
            stream_result.database, model=_StubModel(), cusum=True, config=durable
        )
        final.run()
        _assert_equivalent(expected, final)

    def test_snapshot_boundary_straddle(self, stream_result, tmp_path):
        """An ack inside a logged chunk: replay slices the straddling
        WAL record so only its unacked rows re-apply, and the rebuilt
        rollups equal a fold of exactly the logged rows."""
        db = stream_result.database
        durable = ServiceConfig(
            chunk_size=16,
            analytics_policy="block",
            durability=DurabilityConfig(directory=tmp_path / "state"),
        )
        LiveOperationsService(db, config=durable).run()
        records, _, torn = WriteAheadLog.scan(durable.durability.wal_path)
        assert not torn and len(records) > 3
        straddled = records[2]
        acked = straddled.start_seq + 5  # mid-record

        # The component state at the ack: rows [0, acked] folded in.
        store = RollupStore(num_racks=db.num_racks)
        rows = db.committed_rows(0, acked + 1)
        store.add_block(*rows)
        applied = []

        def apply(chunk):
            applied.append(chunk)
            store.add_block(chunk.epoch_s, chunk.values, chunk.quality)

        recovery = replay_component("rollups", records, acked, apply)
        assert recovery.records_skipped == 2
        assert recovery.records_replayed == len(records) - 2
        assert applied[0].start_seq == acked + 1
        assert applied[0].end_seq == straddled.end_seq
        replayed = [seq for c in applied for seq in range(c.start_seq, c.end_seq + 1)]
        assert replayed == list(range(acked + 1, records[-1].end_seq + 1))
        assert recovery.samples_replayed == len(replayed)
        assert store.ingested_rows == records[-1].end_seq + 1 == db.num_samples
        _assert_rollups_equal(RollupStore.from_database(db), store)

    def test_recover_without_durability_rejected(self, stream_result):
        with pytest.raises(ValueError, match="durability"):
            LiveOperationsService.recover(stream_result.database)


class TestSupervisedService:
    """Chaos through the real bus: isolation without stalling peers."""

    _SUPERVISION = SupervisorConfig(
        deadline_s=0.05, poll_interval_s=0.01, backoff_base_s=0.0
    )

    def _expected(self, stream_result):
        config = ServiceConfig(chunk_size=16, analytics_policy="block")
        service = LiveOperationsService(
            stream_result.database, cusum=True, config=config
        )
        service.run()
        return service

    def test_crash_isolated_restarted_and_repaired(self, stream_result):
        expected = self._expected(stream_result)
        crash_seq = (stream_result.database.num_samples // 2 // 16) * 16
        chaos = ChaosInjector(ChaosConfig(crash_at=(("rollups", crash_seq),)))
        service = LiveOperationsService(
            stream_result.database,
            cusum=True,
            config=ServiceConfig(
                chunk_size=16,
                analytics_policy="block",
                supervision=self._SUPERVISION,
            ),
            chaos=chaos,
        )
        report = service.run()
        counters = report.supervision["rollups"]
        assert counters.crashes == 1
        assert counters.restarts == 1
        assert counters.gaps_repaired == 1
        assert not counters.gave_up
        assert report.chaos["rollups"].crashes_injected == 1
        kinds = [(e.kind, e.subscriber) for e in report.events]
        assert ("crash", "rollups") in kinds
        assert ("restart", "rollups") in kinds
        # Peers untouched, full stream delivered everywhere.
        assert report.supervision["cusum"].crashes == 0
        _assert_rollups_equal(expected.rollups, service.rollups)
        assert service.cusum_subscriber.alarms == expected.cusum_subscriber.alarms

    def test_hang_degrades_then_restores_block_policy(self, stream_result):
        expected = self._expected(stream_result)
        hang_seq = (stream_result.database.num_samples // 2 // 16) * 16
        chaos = ChaosInjector(
            ChaosConfig(hang_at=(("rollups", hang_seq),), hang_s=0.3)
        )
        service = LiveOperationsService(
            stream_result.database,
            cusum=True,
            config=ServiceConfig(
                chunk_size=16,
                analytics_policy="block",
                queue_capacity=2,
                supervision=self._SUPERVISION,
            ),
            chaos=chaos,
        )
        report = service.run()
        counters = report.supervision["rollups"]
        assert counters.hangs == 1
        assert counters.hang_recoveries == 1
        kinds = [e.kind for e in report.events if e.subscriber == "rollups"]
        assert "hang" in kinds and "hang_recovered" in kinds
        # The degrade is temporary: the block policy is back in place.
        assert service.supervisor.subscribers["rollups"].subscription.policy == "block"
        # Dropped-while-degraded chunks were repaired from the source.
        _assert_rollups_equal(expected.rollups, service.rollups)
        assert service.cusum_subscriber.alarms == expected.cusum_subscriber.alarms


class TestServeManyGuard:
    """A failing query raises to its caller."""

    def test_execute_still_raises_for_direct_callers(self, stream_result):
        engine = QueryEngine(RollupStore.from_database(stream_result.database))
        query = Query(
            "aggregate",
            Channel.POWER,
            stream_result.start_epoch_s,
            stream_result.end_epoch_s,
            resolution_s=123.456,  # no such rollup level
        )
        with pytest.raises(KeyError):
            engine.execute(query)
