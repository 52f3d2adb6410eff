"""RollupStore: streaming/batch equivalence and version tracking.

The central contract: at the finest resolution (300 s divides every
simulator cadence) each sample lands in its own bucket, so rollup
accumulators reproduce the offline database aggregates *exactly* —
including on faulted telemetry where quality masks drive coverage.
"""

import math

import numpy as np
import pytest

from repro.service import (
    DEFAULT_RESOLUTIONS_S,
    ReplayBus,
    RollupStore,
    RollupSubscriber,
)
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import Channel, Quality

_RACKS = 4


def _synthetic_rows(n, dt_s=300.0, start=0.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        values = rng.normal(50.0, 5.0, _RACKS)
        if i % 5 == 0:
            values[i % _RACKS] = np.nan
        flags = np.where(
            np.isfinite(values), int(Quality.OK), int(Quality.MISSING)
        ).astype(np.uint8)
        if i % 7 == 0:
            flags[(i + 1) % _RACKS] = int(Quality.SCRUBBED)
        rows.append(
            (start + i * dt_s, {Channel.POWER: values}, {Channel.POWER: flags})
        )
    return rows


@pytest.fixture(scope="module")
def faulted_store(faulted_result):
    return RollupStore.from_database(faulted_result.database)


class TestRawLevelEquivalence:
    """One sample per finest bucket => accumulators are sample-exact."""

    def test_one_bucket_per_sample(self, faulted_result, faulted_store):
        counts = faulted_store.bucket_counts()
        assert counts[300.0] == faulted_result.database.num_samples

    @pytest.mark.parametrize(
        "channel", [Channel.POWER, Channel.FLOW, Channel.INLET_TEMPERATURE]
    )
    def test_accumulators_match_database_cells(
        self, faulted_result, faulted_store, channel
    ):
        db = faulted_result.database
        window = faulted_store.window(300.0, channel, -np.inf, np.inf)
        values = db.channel(channel).values
        flags = db.quality(channel)
        finite = np.isfinite(values)

        np.testing.assert_array_equal(window.samples, np.ones(len(values)))
        np.testing.assert_array_equal(window.count, finite.astype(np.int64))
        usable = (flags == int(Quality.OK)) | (flags == int(Quality.SUSPECT))
        np.testing.assert_array_equal(window.usable, usable.astype(np.int64))
        np.testing.assert_allclose(
            window.total, np.where(finite, values, 0.0), rtol=1e-9, atol=0.0
        )
        # Single-sample buckets: min == max == the cell itself.
        np.testing.assert_allclose(
            window.minimum, np.where(finite, values, np.nan), rtol=1e-9
        )
        np.testing.assert_allclose(
            window.maximum, np.where(finite, values, np.nan), rtol=1e-9
        )

    def test_bucket_epochs_are_the_sample_epochs(
        self, faulted_result, faulted_store
    ):
        window = faulted_store.window(300.0, Channel.POWER, -np.inf, np.inf)
        np.testing.assert_allclose(
            window.epoch, faulted_result.database.epoch_s, rtol=0, atol=0
        )


class TestHourlyLevel:
    def test_hourly_mean_matches_offline_grouping(self, faulted_result):
        db = faulted_result.database
        store = RollupStore.from_database(db)
        values = db.channel(Channel.POWER).values
        n = db.num_samples
        assert n % 2 == 0  # 1800 s cadence: exactly two samples/hour
        window = store.window(3600.0, Channel.POWER, -np.inf, np.inf)
        assert len(window.epoch) == n // 2

        pairs = values.reshape(n // 2, 2, db.num_racks)
        finite = np.isfinite(pairs)
        counts = finite.sum(axis=1)
        totals = np.where(finite, pairs, 0.0).sum(axis=1)
        np.testing.assert_array_equal(window.count, counts)
        np.testing.assert_allclose(window.total, totals, rtol=1e-9, atol=1e-12)
        streamed_mean = np.divide(
            window.total,
            window.count,
            out=np.full_like(window.total, np.nan),
            where=window.count > 0,
        )
        offline_mean = np.divide(
            totals, counts, out=np.full_like(totals, np.nan), where=counts > 0
        )
        np.testing.assert_allclose(
            streamed_mean, offline_mean, rtol=1e-9, equal_nan=True
        )


class TestStreamingMatchesBatch:
    def test_bus_fed_store_equals_offline_construction(self, faulted_result):
        db = faulted_result.database
        start = faulted_result.start_epoch_s
        end = start + 10 * 86_400.0

        offline = RollupStore(num_racks=db.num_racks)
        offline.ingest_database(db, start, end)

        streamed = RollupStore(num_racks=db.num_racks)
        bus = ReplayBus(db, start_epoch_s=start, end_epoch_s=end)
        bus.subscribe("rollups", RollupSubscriber(streamed), policy="block")
        report = bus.run()
        assert report.published == streamed.ingested_rows > 0

        for resolution in DEFAULT_RESOLUTIONS_S:
            a = offline.window(resolution, Channel.POWER, -np.inf, np.inf)
            b = streamed.window(resolution, Channel.POWER, -np.inf, np.inf)
            np.testing.assert_array_equal(a.epoch, b.epoch)
            np.testing.assert_array_equal(a.samples, b.samples)
            np.testing.assert_array_equal(a.count, b.count)
            np.testing.assert_array_equal(a.usable, b.usable)
            # The offline fold sums 4096-row blocks, the bus one-row
            # chunks; the two groupings agree to rounding.
            np.testing.assert_allclose(a.total, b.total, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                a.minimum, b.minimum, rtol=0, atol=0, equal_nan=True
            )
            np.testing.assert_allclose(
                a.maximum, b.maximum, rtol=0, atol=0, equal_nan=True
            )

    def test_out_of_order_ingest_matches_in_order(self):
        rows = _synthetic_rows(48)
        in_order = RollupStore(num_racks=_RACKS)
        for epoch, values, quality in rows:
            in_order.add(epoch, values, quality)
        shuffled = RollupStore(num_racks=_RACKS)
        order = np.random.default_rng(9).permutation(len(rows))
        for index in order:
            epoch, values, quality = rows[index]
            shuffled.add(epoch, values, quality)
        for resolution in DEFAULT_RESOLUTIONS_S:
            a = in_order.window(resolution, Channel.POWER, -np.inf, np.inf)
            b = shuffled.window(resolution, Channel.POWER, -np.inf, np.inf)
            np.testing.assert_array_equal(a.epoch, b.epoch)
            np.testing.assert_array_equal(a.count, b.count)
            np.testing.assert_allclose(a.total, b.total, rtol=1e-12)
            np.testing.assert_allclose(
                a.minimum, b.minimum, rtol=0, equal_nan=True
            )


class TestVersioning:
    def test_version_bumps_per_ingest(self):
        store = RollupStore(num_racks=_RACKS)
        assert store.version == 0
        for i, (epoch, values, quality) in enumerate(_synthetic_rows(5)):
            store.add(epoch, values, quality)
            assert store.version == i + 1

    def test_earliest_mutation_since(self):
        store = RollupStore(num_racks=_RACKS)
        assert store.earliest_mutation_since(0) == np.inf
        store.add(1200.0, {Channel.POWER: np.ones(_RACKS)}, None)
        store.add(600.0, {Channel.POWER: np.ones(_RACKS)}, None)
        assert store.earliest_mutation_since(0) == 600.0
        assert store.earliest_mutation_since(1) == 600.0
        assert store.earliest_mutation_since(2) == np.inf
        store.add(1800.0, {Channel.POWER: np.ones(_RACKS)}, None)
        assert store.earliest_mutation_since(2) == 1800.0

    def test_truncated_history_reports_everything_stale(self):
        store = RollupStore(num_racks=_RACKS)
        for epoch, values, quality in _synthetic_rows(5):
            store.add(epoch, values, quality)
        store._mutations.popleft()  # simulate a deeper-than-history gap
        assert store.earliest_mutation_since(0) == -np.inf
        # Recent versions are still resolvable from what remains.
        assert store.earliest_mutation_since(store.version) == np.inf

    def test_from_database_versions_once_per_block(self):
        """Startup folds the database in 4096-row blocks: the version
        counts blocks, not rows, and an hour straddling a block edge
        still sums to the numpy grouping of its rows."""
        rows = 9000
        rng = np.random.default_rng(3)
        values = rng.normal(50.0, 5.0, (rows, _RACKS))
        values[rng.random(values.shape) < 0.05] = np.nan
        db = EnvironmentalDatabase(num_racks=_RACKS, capacity_hint=rows)
        db.append_block(np.arange(rows) * 300.0, {Channel.POWER: values})
        store = RollupStore.from_database(db)
        assert store.ingested_rows == rows
        assert store.version == math.ceil(rows / 4096) == 3

        hours = values.reshape(rows // 12, 12, _RACKS)
        finite = np.isfinite(hours)
        window = store.window(3600.0, Channel.POWER, -np.inf, np.inf)
        np.testing.assert_array_equal(window.count, finite.sum(axis=1))
        np.testing.assert_allclose(
            window.total, np.where(finite, hours, 0.0).sum(axis=1), rtol=1e-12
        )


class TestQuerySurface:
    def test_snap_resolution_prefers_coarsest_tiling(self):
        store = RollupStore(num_racks=_RACKS)
        day = 86_400.0
        assert store.snap_resolution(0.0, 7 * day) == day
        assert store.snap_resolution(0.0, 6 * 3600.0) == 3600.0
        assert store.snap_resolution(150.0, 3600.0) == 300.0

    def test_empty_window_returns_zero_length(self):
        store = RollupStore(num_racks=_RACKS)
        window = store.window(300.0, Channel.POWER, 0.0, 3600.0)
        assert window.epoch.size == 0
        assert window.total.shape == (0, _RACKS)

    def test_unknown_resolution_raises(self):
        store = RollupStore(num_racks=_RACKS)
        with pytest.raises(KeyError):
            store.window(123.0, Channel.POWER, 0.0, 1.0)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            RollupStore(num_racks=0)
        with pytest.raises(ValueError):
            RollupStore(num_racks=4, resolutions_s=())
        with pytest.raises(ValueError):
            RollupStore(num_racks=4, resolutions_s=(3600.0, 300.0))
        with pytest.raises(ValueError):
            RollupStore(num_racks=4, resolutions_s=(300.0, 300.0))

    def test_growth_beyond_initial_capacity(self):
        store = RollupStore(num_racks=_RACKS, resolutions_s=(300.0,))
        rows = _synthetic_rows(200)  # > the initial 64-bucket capacity
        for epoch, values, quality in rows:
            store.add(epoch, values, quality)
        window = store.window(300.0, Channel.POWER, -np.inf, np.inf)
        assert len(window.epoch) == 200
        expected = np.array([row[1][Channel.POWER] for row in rows])
        finite = np.isfinite(expected)
        np.testing.assert_allclose(
            window.total, np.where(finite, expected, 0.0), rtol=1e-12
        )
