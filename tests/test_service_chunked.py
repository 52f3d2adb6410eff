"""Chunked columnar delivery: chunk-size invariance.

The bus publishes :class:`BusChunk` blocks (N timesteps x racks per
channel) and every subscriber consumes them vectorized.  These tests
pin the contract that makes that safe: **the chunk size is a pure
transport choice** — rollups, predictions, alarms, and alerts at any
chunk size equal the ``chunk_size=1`` reference (rollup totals to 1e-9
from re-association; everything else exactly), CUSUM alarms equal a
plain scalar reference recurrence, and the backpressure counters
reconcile in both units (samples and chunks).
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.facility.topology import RackId
from repro.faults import FaultConfig
from repro.monitoring.anomaly import CusumAlarm, CusumConfig, CusumDetector
from repro.monitoring.online import OnlineCmfPredictor
from repro.service import (
    BusChunk,
    CountingSubscriber,
    CusumSubscriber,
    LiveOperationsService,
    Query,
    QueryEngine,
    ReplayBus,
    RollupStore,
    RollupSubscriber,
    ServiceConfig,
)
from repro.simulation import FacilityEngine, MiraScenario
from repro.telemetry.quality import scrub_database
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel

_RACKS = 4


def _rows(n, dt_s=300.0, start=0.0):
    """A synthetic source: n whole-floor rows, value == sample index."""
    rows = []
    for i in range(n):
        values = {Channel.POWER: np.full(_RACKS, float(i))}
        rows.append((start + i * dt_s, values, {}))
    return rows


class _StubModel:
    """Deterministic classifier: fixed affine score through a sigmoid.

    Cheap, and row-independent like the real network: each row's score
    is summed in index order (``accumulate`` is sequential by
    definition), so a row gets the same bits alone as in any batch.  A
    BLAS ``features @ weights`` does not guarantee that, nor does
    ``sum``, whose pairwise grouping is an implementation detail.
    """

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


def _reference_cusum(epochs, values, config=CusumConfig()):
    """A plain scalar two-sided CUSUM, one (rack, channel) cell at a time.

    Follows the recurrence :class:`CusumConfig` documents: a cell starts
    at its first finite value with a conservative variance (5 % of the
    level), scores each sample against the running EWMA mean/sigma
    *before* updating them, accumulates only after ``warmup_samples``,
    and resets both sums when one escapes ``decision``.  Non-finite
    cells and channels absent from ``values`` never advance.  Alarms
    come out time-major, then rack, then channel.
    """
    alpha = config.ewma_alpha
    cells = {}
    alarms = []
    racks = next(iter(values.values())).shape[1]
    for t, epoch in enumerate(epochs):
        for rack in range(racks):
            for channel in PREDICTOR_CHANNELS:
                if channel not in values:
                    continue
                value = float(values[channel][t, rack])
                if not math.isfinite(value):
                    continue
                cell = cells.get((rack, channel))
                if cell is None:
                    scale = 0.05 * abs(value)
                    cell = cells[(rack, channel)] = {
                        "mean": value,
                        "variance": max(scale * scale, 1e-6),
                        "positive": 0.0,
                        "negative": 0.0,
                        "samples": 0,
                    }
                cell["samples"] += 1
                mean, variance = cell["mean"], cell["variance"]
                z = (value - mean) / max(math.sqrt(variance), 1e-9)
                delta = value - mean
                cell["mean"] = mean + alpha * delta
                cell["variance"] = (1 - alpha) * (variance + alpha * delta * delta)
                if cell["samples"] <= config.warmup_samples:
                    continue
                positive = max(0.0, cell["positive"] + z - config.drift)
                negative = max(0.0, cell["negative"] - z - config.drift)
                statistic = max(positive, negative)
                if statistic > config.decision:
                    alarms.append(
                        CusumAlarm(
                            epoch_s=float(epoch),
                            rack_id=RackId.from_flat_index(rack),
                            channel=channel,
                            statistic=statistic,
                        )
                    )
                    positive = negative = 0.0
                cell["positive"], cell["negative"] = positive, negative
    return alarms


class TestChunkTransport:
    def test_chunks_partition_the_stream(self):
        chunks = []
        bus = ReplayBus(_rows(50), chunk_size=7)
        bus.subscribe("collect", chunks.append)
        report = bus.run()
        assert report.published == 50
        assert report.published_chunks == 8
        assert [len(c) for c in chunks] == [7] * 7 + [1]
        seq = 0
        for chunk in chunks:
            assert isinstance(chunk, BusChunk)
            assert chunk.start_seq == seq
            assert chunk.end_seq == seq + len(chunk) - 1
            np.testing.assert_array_equal(
                chunk.values[Channel.POWER][:, 0],
                np.arange(seq, seq + len(chunk), dtype="float64"),
            )
            seq += len(chunk)
        assert seq == 50

    def test_chunk_samples_iterator_matches_per_sample_delivery(self):
        """The rows of 6-row chunks are the one-row chunks, in order."""
        rows = _rows(23)
        baseline = []
        bus = ReplayBus(rows, chunk_size=1)
        bus.subscribe("collect", baseline.append)
        bus.run()

        chunks = []
        bus = ReplayBus(rows, chunk_size=6)
        bus.subscribe("collect", chunks.append)
        bus.run()
        unrolled = [
            (chunk.start_seq + i, chunk.epoch_s[i], chunk.values[Channel.POWER][i])
            for chunk in chunks
            for i in range(len(chunk))
        ]
        assert len(unrolled) == len(baseline)
        for (seq, epoch, power), single in zip(unrolled, baseline):
            assert len(single) == 1
            assert seq == single.start_seq
            assert epoch == single.epoch_s[0]
            np.testing.assert_array_equal(power, single.values[Channel.POWER][0])

    def test_database_chunks_are_readonly_views(self, stream_result):
        """Chunk payloads alias the database columns — no copies."""
        db = stream_result.database
        first = {}

        def grab(chunk):
            if not first:
                first["chunk"] = chunk

        bus = ReplayBus(db, chunk_size=64)
        bus.subscribe("grab", grab)
        bus.run()
        chunk = first["chunk"]
        for channel in (Channel.POWER, Channel.INLET_TEMPERATURE):
            block = chunk.values[channel]
            assert not block.flags.writeable
            assert np.shares_memory(block, db.channel(channel).values)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ReplayBus(_rows(1), chunk_size=0)


class TestRollupBlockEquivalence:
    @pytest.fixture(scope="class")
    def per_sample_store(self, stream_result):
        store = RollupStore(num_racks=stream_result.database.num_racks)
        bus = ReplayBus(stream_result.database, chunk_size=1)
        bus.subscribe("rollups", RollupSubscriber(store), policy="block")
        bus.run()
        return store

    @pytest.mark.parametrize("chunk_size", [7, 64, 256, 5000])
    def test_streamed_rollups_identical(
        self, stream_result, per_sample_store, chunk_size
    ):
        db = stream_result.database
        store = RollupStore(num_racks=db.num_racks)
        bus = ReplayBus(db, chunk_size=chunk_size)
        bus.subscribe("rollups", RollupSubscriber(store), policy="block")
        bus.run()
        for ours, baseline in zip(store._levels, per_sample_store._levels):
            assert ours.size == baseline.size
            n = ours.size
            np.testing.assert_array_equal(ours.epoch[:n], baseline.epoch[:n])
            np.testing.assert_array_equal(ours.samples[:n], baseline.samples[:n])
            for channel, buckets in ours.channels.items():
                expect = baseline.channels[channel]
                np.testing.assert_array_equal(
                    buckets.count[:n], expect.count[:n]
                )
                np.testing.assert_array_equal(
                    buckets.usable[:n], expect.usable[:n]
                )
                # Extrema do not depend on the grouping: exactly equal.
                np.testing.assert_array_equal(
                    buckets.minimum[:n], expect.minimum[:n]
                )
                np.testing.assert_array_equal(
                    buckets.maximum[:n], expect.maximum[:n]
                )
                # Totals re-associate once per merged bucket: 1e-9.
                np.testing.assert_allclose(
                    buckets.total[:n], expect.total[:n], rtol=1e-9, atol=1e-9
                )

    def test_out_of_order_block_matches_row_by_row(self, rng):
        """A block with internally decreasing epochs lands where the
        same rows added one at a time (in shuffled order) land, and both
        match a numpy grouping of the rows by bucket."""
        epochs = np.arange(50, dtype="float64") * 60.0
        rng.shuffle(epochs)
        values = rng.normal(size=(50, _RACKS))
        values[rng.random(size=values.shape) < 0.1] = np.nan

        blocked = RollupStore(num_racks=_RACKS, resolutions_s=(300.0,))
        # An in-order row first, so the shuffled block also reaches
        # behind the newest bucket (the late path), not only sorts.
        blocked.add(2700.0, {Channel.POWER: values[0]})
        blocked.add_block(epochs, {Channel.POWER: values})
        rowwise = RollupStore(num_racks=_RACKS, resolutions_s=(300.0,))
        rowwise.add(2700.0, {Channel.POWER: values[0]})
        for i, epoch in enumerate(epochs):
            rowwise.add(float(epoch), {Channel.POWER: values[i]})

        all_epochs = np.concatenate([[2700.0], epochs])
        all_values = np.concatenate([values[:1], values])
        buckets = np.floor(all_epochs / 300.0) * 300.0
        starts = np.unique(buckets)
        finite = np.isfinite(all_values)
        zeroed = np.where(finite, all_values, 0.0)
        groups = [buckets == b for b in starts]
        oracle_count = np.array([finite[g].sum(axis=0) for g in groups])
        oracle_total = np.array([zeroed[g].sum(axis=0) for g in groups])
        oracle_min = np.array([np.fmin.reduce(all_values[g]) for g in groups])

        for store in (blocked, rowwise):
            level = store._levels[0]
            n = level.size
            buckets_of = level.channels[Channel.POWER]
            np.testing.assert_array_equal(level.epoch[:n], starts)
            np.testing.assert_array_equal(buckets_of.count[:n], oracle_count)
            np.testing.assert_array_equal(buckets_of.minimum[:n], oracle_min)
            np.testing.assert_allclose(
                buckets_of.total[:n], oracle_total, rtol=1e-9, atol=1e-9
            )

    def test_version_bumps_once_per_block(self):
        store = RollupStore(num_racks=_RACKS)
        epochs = np.arange(120, dtype="float64") * 300.0
        values = {Channel.POWER: np.ones((120, _RACKS))}
        before = store.version
        store.add_block(epochs, values)
        assert store.version == before + 1


class TestPredictorBlockEquivalence:
    """Blocks of any size == one-row blocks (``consume``), decision for
    decision, bit for bit."""

    _RACK = RackId.from_flat_index(0)

    def _degraded_stream(self):
        """One rack's stream exercising every repair/drop path: holes
        (LOCF-fillable and not), duplicates, late arrivals, and one
        silence long enough to force a gap reset."""
        rng = np.random.default_rng(42)
        dt = 300.0
        epochs = list(np.arange(600) * dt)
        epochs[100:100] = [epochs[99]]  # duplicate
        epochs[200:200] = [epochs[199] - 2 * dt]  # late arrival
        epochs = np.array(epochs)
        epochs[400:] += 4 * 3600.0  # a four-hour silence: gap reset
        values = rng.normal(size=(len(epochs), len(PREDICTOR_CHANNELS))) + 20.0
        holes = rng.random(size=values.shape) < 0.05
        values[holes] = np.nan
        values[0, :] = np.nan  # first row: no LOCF donor -> dropped
        return epochs, values

    @pytest.mark.parametrize("chunk_size", [1, 7, 50, 10_000])
    def test_block_matches_per_sample(self, chunk_size):
        epochs, values = self._degraded_stream()
        scalar = OnlineCmfPredictor(_StubModel())
        expected = []
        for i, epoch in enumerate(epochs):
            row = {
                ch: float(values[i, k])
                for k, ch in enumerate(PREDICTOR_CHANNELS)
            }
            prediction = scalar.consume(float(epoch), self._RACK, row)
            if prediction is not None:
                expected.append(prediction)

        chunked = OnlineCmfPredictor(_StubModel())
        produced = []
        for i in range(0, len(epochs), chunk_size):
            produced.extend(
                chunked.consume_block(
                    epochs[i : i + chunk_size],
                    self._RACK,
                    values[i : i + chunk_size],
                )
            )

        # Every degraded-stream path was actually exercised...
        counters = scalar.counters
        assert counters.dropped_duplicate > 0
        assert counters.dropped_late > 0
        assert counters.gap_resets > 0
        assert counters.locf_fills > 0
        assert counters.dropped_incomplete > 0
        # ...and the block path made the identical decisions.
        assert chunked.counters == scalar.counters
        assert len(produced) == len(expected)
        for ours, theirs in zip(produced, expected):
            assert ours.epoch_s == theirs.epoch_s
            assert ours.rack_id == theirs.rack_id
            assert ours.probability == theirs.probability  # bit-exact


class TestCusumChunkEquivalence:
    @pytest.fixture(scope="class")
    def reference_alarms(self, stream_result):
        db = stream_result.database
        values = {ch: db.channel(ch).values for ch in PREDICTOR_CHANNELS}
        return _reference_cusum(db.epoch_s, values)

    @pytest.mark.parametrize("chunk_size", [17, 256])
    def test_streamed_alarms_identical(
        self, stream_result, reference_alarms, chunk_size
    ):
        db = stream_result.database

        def alarms_at(size):
            subscriber = CusumSubscriber(CusumDetector())
            bus = ReplayBus(db, chunk_size=size)
            bus.subscribe("cusum", subscriber, policy="block")
            bus.run()
            return subscriber.alarms

        assert len(reference_alarms) > 0, "faulted stream raised no alarms"
        # Exact: epoch, rack, channel, statistic.
        assert alarms_at(1) == reference_alarms
        assert alarms_at(chunk_size) == reference_alarms

    @pytest.mark.parametrize("chunk_size", [1, 64])
    def test_partial_channel_set_matches_reference(self, stream_result, chunk_size):
        """Blocks carrying only some predictor channels advance only
        those channels' recurrences."""
        db = stream_result.database
        epochs = db.epoch_s
        values = {ch: db.channel(ch).values for ch in PREDICTOR_CHANNELS[::2]}
        expected = _reference_cusum(epochs, values)
        assert expected, "partial channel set raised no alarms"

        detector = CusumDetector()
        produced = []
        for i in range(0, len(epochs), chunk_size):
            block = {ch: column[i : i + chunk_size] for ch, column in values.items()}
            produced.extend(detector.consume_block(epochs[i : i + chunk_size], block))
        assert produced == expected
        absent = [PREDICTOR_CHANNELS.index(ch) for ch in PREDICTOR_CHANNELS[1::2]]
        assert not detector._active[:, absent].any()


class TestChunkedBackpressure:
    """Backpressure acts on whole chunks; counters reconcile both units."""

    N = 60
    CHUNK = 5

    def _run_slow(self, policy, delay_s=0.004):
        bus = ReplayBus(_rows(self.N), chunk_size=self.CHUNK)
        slow = CountingSubscriber(delay_s=delay_s, keep_seqs=True)
        bus.subscribe("slow", slow, capacity=2, policy=policy)
        report = bus.run()
        return report, slow, report.subscribers["slow"]

    def test_block_loses_nothing(self):
        report, slow, counters = self._run_slow("block")
        assert counters.enqueued == counters.delivered == self.N
        assert counters.enqueued_chunks == counters.delivered_chunks == 12
        assert counters.dropped == counters.dropped_chunks == 0
        assert slow.seqs == list(range(self.N))
        assert slow.gaps == 0 and slow.missing == 0

    def test_drop_oldest_evicts_whole_chunks(self):
        report, slow, counters = self._run_slow("drop_oldest")
        assert counters.enqueued == self.N
        assert counters.enqueued_chunks == 12
        # Both units reconcile exactly.
        assert counters.delivered + counters.dropped == self.N
        assert counters.delivered_chunks + counters.dropped_chunks == 12
        assert counters.dropped_chunks > 0
        # Eviction is chunk-granular: sample drops in chunk multiples.
        assert counters.dropped % self.CHUNK == 0
        assert counters.dropped == counters.dropped_chunks * self.CHUNK
        # Ordered, gap-counted, and the freshest chunk survives.
        assert slow.monotonic
        assert slow.last_seq == self.N - 1
        # Consecutive evictions may merge into one observed gap, but
        # every dropped sample is accounted for.
        assert 1 <= slow.gaps <= counters.dropped_chunks
        assert slow.missing == counters.dropped

    def test_coalesce_supersedes_whole_chunks(self):
        report, slow, counters = self._run_slow("coalesce")
        assert counters.delivered + counters.coalesced == self.N
        assert (
            counters.delivered_chunks + counters.coalesced_chunks == 12
        )
        assert counters.coalesced_chunks > 0
        assert counters.dropped == counters.dropped_chunks == 0
        assert slow.monotonic
        assert slow.last_seq == self.N - 1
        assert slow.missing == counters.coalesced

    def test_slow_chunked_subscriber_never_stalls_fast_peer(self):
        bus = ReplayBus(_rows(self.N), chunk_size=self.CHUNK)
        slow = CountingSubscriber(delay_s=0.01)
        fast = CountingSubscriber(keep_seqs=True)
        bus.subscribe("slow", slow, capacity=2, policy="drop_oldest")
        bus.subscribe("fast", fast, capacity=self.N)
        report = bus.run()
        assert fast.seqs == list(range(self.N))
        assert fast.gaps == 0
        assert report.subscribers["slow"].delivered < self.N
        # 12 chunks x 10 ms of slow-consumer work never throttled the bus.
        assert report.duration_s < 0.5 * 12 * 0.01


class TestInvalidationBatching:
    """Cache invalidation scales with chunks, not samples."""

    def test_store_version_advances_per_chunk(self):
        rows = _rows(240)

        def version_after(chunk_size):
            store = RollupStore(num_racks=_RACKS)
            bus = ReplayBus(rows, chunk_size=chunk_size)
            bus.subscribe("rollups", RollupSubscriber(store), policy="block")
            report = bus.run()
            return store, report

        store, report = version_after(48)
        assert report.published_chunks == 5
        assert store.version == 5  # one invalidation per chunk...
        per_sample, _ = version_after(1)
        assert per_sample.version == 240  # ...not one per sample

    def test_queries_warm_across_chunked_replay(self, stream_result):
        """Post-replay, repeated dashboard queries hit the cache."""
        db = stream_result.database
        store = RollupStore(num_racks=db.num_racks)
        bus = ReplayBus(db, chunk_size=128)
        bus.subscribe("rollups", RollupSubscriber(store), policy="block")
        bus.run()
        engine = QueryEngine(store)
        query = Query(
            "aggregate",
            Channel.POWER,
            stream_result.start_epoch_s,
            stream_result.end_epoch_s,
            stat="mean",
        )
        first = engine.execute(query)
        second = engine.execute(query)
        assert first.value == second.value
        assert engine.counters.hits >= 1


class TestLiveServiceChunkedEquivalence:
    """The assembled service: chunk size changes nothing but speed."""

    def _run(self, database, chunk_size):
        service = LiveOperationsService(
            database,
            model=_StubModel(),
            cusum=True,
            config=ServiceConfig(
                analytics_policy="block", chunk_size=chunk_size
            ),
        )
        return service, service.run()

    def test_reports_identical_across_chunk_sizes(self, stream_result):
        db = stream_result.database
        _, baseline = self._run(db, chunk_size=1)
        service, chunked = self._run(db, chunk_size=97)
        assert chunked.bus.published == baseline.bus.published
        assert chunked.predictions == baseline.predictions
        assert chunked.alarms == baseline.alarms
        assert chunked.alerts == baseline.alerts
        assert chunked.rollup_buckets == baseline.rollup_buckets
        assert baseline.predictions > 0
        # The chunked run covered the stream in far fewer deliveries.
        rollups = chunked.bus.subscribers["rollups"]
        assert rollups.delivered_chunks < chunked.bus.published
        assert rollups.delivered == chunked.bus.published
