"""QueryEngine: offline equivalence, cache correctness, concurrency.

Acceptance contracts exercised here:

* streamed/rolled-up answers equal the offline
  ``EnvironmentalDatabase`` aggregates to 1e-9 — including the
  coverage-corrected facility totals on faulted data,
* cached answers are identical to uncached ones, and new data
  invalidates exactly the entries whose window it touches.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import constants, timeutil
from repro.service import Query, QueryEngine, RollupStore
from repro.telemetry import nanstats
from repro.telemetry.records import Channel, Quality

DAY = float(timeutil.DAY_S)


@pytest.fixture(scope="module")
def faulted_store(faulted_result):
    return RollupStore.from_database(faulted_result.database)


@pytest.fixture
def engine(faulted_store):
    return QueryEngine(faulted_store)


def _span(result):
    return result.start_epoch_s, result.end_epoch_s


class TestOfflineEquivalence:
    @pytest.mark.parametrize(
        "channel", [Channel.POWER, Channel.FLOW, Channel.INLET_TEMPERATURE]
    )
    def test_facility_mean_matches_offline(
        self, faulted_result, engine, channel
    ):
        start, end = _span(faulted_result)
        answer = engine.execute(
            Query("aggregate", channel, start, end, stat="mean")
        )
        offline = nanstats.nanmean(faulted_result.database.channel(channel).values)
        np.testing.assert_allclose(answer.value, offline, rtol=1e-9)

    @pytest.mark.parametrize("stat", ["min", "max"])
    def test_facility_extrema_match_offline(self, faulted_result, engine, stat):
        start, end = _span(faulted_result)
        answer = engine.execute(
            Query("aggregate", Channel.POWER, start, end, stat=stat)
        )
        values = faulted_result.database.channel(Channel.POWER).values
        offline = nanstats.nanmin(values) if stat == "min" else nanstats.nanmax(values)
        np.testing.assert_allclose(answer.value, offline, rtol=1e-9)

    def test_covered_sum_series_matches_offline_faulted(
        self, faulted_result, engine
    ):
        """Coverage-corrected facility totals, streamed vs batch, 1e-9."""
        start, end = _span(faulted_result)
        answer = engine.execute(
            Query(
                "series",
                Channel.POWER,
                start,
                end,
                stat="covered_sum",
                resolution_s=300.0,
            )
        )
        _, offline_total = faulted_result.database._covered_sum(Channel.POWER)
        assert len(answer.values) == faulted_result.database.num_samples
        np.testing.assert_allclose(
            answer.values, offline_total, rtol=1e-9, equal_nan=True
        )

    def test_coverage_series_matches_offline(self, faulted_result, engine):
        start, end = _span(faulted_result)
        answer = engine.execute(
            Query(
                "series",
                Channel.POWER,
                start,
                end,
                stat="coverage",
                resolution_s=300.0,
            )
        )
        offline = faulted_result.database.coverage(Channel.POWER).values
        np.testing.assert_allclose(answer.values, offline, rtol=1e-9)
        # The faulted run actually exercises partial coverage.
        assert offline.min() < 1.0

    def test_raw_series_mean_matches_per_sample(self, faulted_result, engine):
        start = faulted_result.start_epoch_s
        end = start + 2 * DAY
        answer = engine.execute(
            Query(
                "series",
                Channel.POWER,
                start,
                end,
                stat="mean",
                resolution_s=300.0,
            )
        )
        db = faulted_result.database
        n = np.searchsorted(db.epoch_s, end)
        offline = nanstats.nanmean(db.channel(Channel.POWER).values[:n], axis=1)
        np.testing.assert_allclose(
            answer.values, offline, rtol=1e-9, equal_nan=True
        )

    def test_rack_scope_matches_offline_column(self, faulted_result, engine):
        start, end = _span(faulted_result)
        rack = 17
        answer = engine.execute(
            Query(
                "aggregate",
                Channel.OUTLET_TEMPERATURE,
                start,
                end,
                stat="mean",
                scope="rack",
                rack=rack,
            )
        )
        column = faulted_result.database.channel(
            Channel.OUTLET_TEMPERATURE
        ).values[:, rack]
        np.testing.assert_allclose(
            answer.value, nanstats.nanmean(column), rtol=1e-9
        )

    def test_row_scope_matches_offline_block(self, faulted_result, engine):
        start, end = _span(faulted_result)
        row = 1
        answer = engine.execute(
            Query(
                "aggregate",
                Channel.POWER,
                start,
                end,
                stat="mean",
                scope="row",
                row=row,
            )
        )
        lo = row * constants.RACKS_PER_ROW
        block = faulted_result.database.channel(Channel.POWER).values[
            :, lo : lo + constants.RACKS_PER_ROW
        ]
        np.testing.assert_allclose(
            answer.value, nanstats.nanmean(block), rtol=1e-9
        )

    def test_point_query_hits_the_raw_cell(self, faulted_result, engine):
        db = faulted_result.database
        index, rack = 100, 5
        epoch = float(db.epoch_s[index])
        answer = engine.execute(
            Query("point", Channel.POWER, epoch, stat="mean", scope="rack", rack=rack)
        )
        assert answer.resolution_s == 300.0
        cell = db.channel(Channel.POWER).values[index, rack]
        if np.isnan(cell):
            assert np.isnan(answer.value)
        else:
            np.testing.assert_allclose(answer.value, cell, rtol=1e-9)

    def test_window_snaps_to_coarsest_tiling_level(self, faulted_result, engine):
        start = faulted_result.start_epoch_s
        daily = engine.execute(
            Query("aggregate", Channel.POWER, start, start + 7 * DAY)
        )
        assert daily.resolution_s == 86_400.0
        hourly = engine.execute(
            Query("aggregate", Channel.POWER, start, start + 6 * 3600.0)
        )
        assert hourly.resolution_s == 3600.0

    def test_empty_window_is_nan_not_an_error(self, faulted_result, engine):
        end = faulted_result.end_epoch_s
        for stat in ("mean", "min", "max", "coverage", "covered_sum"):
            answer = engine.execute(
                Query(
                    "aggregate",
                    Channel.POWER,
                    end + DAY,
                    end + 2 * DAY,
                    stat=stat,
                )
            )
            assert np.isnan(answer.value)


class TestCaching:
    def test_cached_answer_identical_to_uncached(self, faulted_result, faulted_store):
        start, end = _span(faulted_result)
        query = Query("series", Channel.POWER, start, end, stat="mean")
        warm = QueryEngine(faulted_store)
        first = warm.execute(query)
        second = warm.execute(query)
        assert second is first  # the literal cached object
        cold = QueryEngine(faulted_store).execute(query)
        np.testing.assert_array_equal(first.values, cold.values)
        np.testing.assert_array_equal(first.epoch_s, cold.epoch_s)
        assert warm.counters.hits == 1
        assert warm.counters.misses == 1

    def test_lru_eviction_counted(self, faulted_result, faulted_store):
        start, _ = _span(faulted_result)
        engine = QueryEngine(faulted_store, cache_size=2)
        queries = [
            Query("aggregate", Channel.POWER, start, start + (i + 1) * DAY)
            for i in range(3)
        ]
        for query in queries:
            engine.execute(query)
        assert engine.counters.evictions == 1
        engine.execute(queries[0])  # evicted: recomputed, not served
        assert engine.counters.misses == 4
        assert engine.counters.hits == 0

    def test_new_data_invalidates_touched_windows_only(self):
        store = RollupStore(num_racks=4, resolutions_s=(300.0,))
        for i in range(12):
            store.add(i * 300.0, {Channel.POWER: np.full(4, 10.0)}, None)
        engine = QueryEngine(store)
        old = Query("aggregate", Channel.POWER, 0.0, 1800.0)
        live = Query("aggregate", Channel.POWER, 0.0, 7200.0)
        assert engine.execute(old).value == pytest.approx(10.0)
        assert engine.execute(live).value == pytest.approx(10.0)

        # Appending beyond the old window must keep it cached ...
        store.add(12 * 300.0, {Channel.POWER: np.full(4, 99.0)}, None)
        engine.execute(old)
        assert engine.counters.revalidations == 1
        assert engine.counters.invalidations == 0
        assert engine.counters.hits == 1

        # ... while the window covering the mutation recomputes.
        refreshed = engine.execute(live)
        assert engine.counters.invalidations == 1
        np.testing.assert_allclose(
            refreshed.value, (12 * 10.0 + 99.0) / 13.0, rtol=1e-12
        )

    def test_stale_beyond_history_recomputes(self):
        store = RollupStore(num_racks=4, resolutions_s=(300.0,))
        store.add(0.0, {Channel.POWER: np.full(4, 1.0)}, None)
        engine = QueryEngine(store)
        query = Query("aggregate", Channel.POWER, 0.0, 300.0)
        engine.execute(query)
        store.add(600.0, {Channel.POWER: np.full(4, 2.0)}, None)
        store._mutations.clear()  # history lost: must assume stale
        engine.execute(query)
        assert engine.counters.invalidations == 1

    def test_series_results_are_read_only(self, faulted_result, engine):
        start, end = _span(faulted_result)
        answer = engine.execute(
            Query("series", Channel.FLOW, start, end, stat="max")
        )
        with pytest.raises(ValueError):
            answer.values[0] = 0.0
        with pytest.raises(ValueError):
            answer.epoch_s[0] = 0.0

    def test_cache_info_shape(self, engine):
        info = engine.cache_info()
        assert set(info) == {
            "hits",
            "misses",
            "evictions",
            "invalidations",
            "revalidations",
            "entries",
            "capacity",
            "hit_rate",
        }
        assert info["capacity"] == engine.cache_size

    def test_cache_info_hit_rate(self, faulted_result, engine):
        start, end = _span(faulted_result)
        query = Query("aggregate", Channel.POWER, start, end)
        engine.execute(query)
        engine.execute(query)
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == pytest.approx(0.5)

    def test_execute_versioned_stamps_store_version(self, faulted_result, engine):
        start, end = _span(faulted_result)
        query = Query("aggregate", Channel.POWER, start, end)
        result, version = engine.execute_versioned(query)
        assert version == engine.store.version
        again, version_again = engine.execute_versioned(query)
        assert again is result and version_again == version


class TestConcurrency:
    def test_threaded_execute_matches_sequential(self, faulted_result, faulted_store):
        start, end = _span(faulted_result)
        queries = []
        for day in range(20):
            queries.append(
                Query(
                    "aggregate",
                    Channel.POWER,
                    start + day * DAY,
                    start + (day + 1) * DAY,
                    stat=("mean", "max", "coverage")[day % 3],
                )
            )
        shared = QueryEngine(faulted_store)
        with ThreadPoolExecutor(max_workers=6) as pool:
            concurrent = list(pool.map(shared.execute, queries))
        sequential = [QueryEngine(faulted_store).execute(q) for q in queries]
        assert len(concurrent) == len(queries)
        for got, want, query in zip(concurrent, sequential, queries):
            assert got.query == query
            np.testing.assert_allclose(
                got.value, want.value, rtol=1e-12, equal_nan=True
            )


class TestValidation:
    def test_bad_queries_rejected(self):
        with pytest.raises(ValueError):
            Query("glance", Channel.POWER, 0.0, 1.0)
        with pytest.raises(ValueError):
            Query("aggregate", Channel.POWER, 0.0, 1.0, stat="mode")
        with pytest.raises(ValueError):
            Query("aggregate", Channel.POWER, 0.0, 1.0, scope="cabinet")
        with pytest.raises(ValueError):
            Query("aggregate", Channel.POWER, 0.0, 1.0, scope="rack")
        with pytest.raises(ValueError):
            Query("aggregate", Channel.POWER, 0.0, 1.0, scope="row")
        with pytest.raises(ValueError):
            Query("aggregate", Channel.POWER, 300.0, 300.0)

    def test_unknown_resolution_raises(self, engine):
        with pytest.raises(KeyError):
            engine.execute(
                Query("aggregate", Channel.POWER, 0.0, 600.0, resolution_s=123.0)
            )

    def test_bad_cache_size_rejected(self, faulted_store):
        with pytest.raises(ValueError):
            QueryEngine(faulted_store, cache_size=0)
