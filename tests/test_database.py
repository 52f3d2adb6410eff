"""The environmental database."""

import numpy as np
import pytest

from repro import constants
from repro.facility.topology import RackId
from repro.telemetry.database import EnvironmentalDatabase, IngestPolicy
from repro.telemetry.records import Channel, Quality


def _snapshot(value=1.0):
    return {ch: np.full(constants.NUM_RACKS, value) for ch in Channel}


def _one_rack(rack, **values):
    """One rack's reading as whole-floor vectors, NaN at every other rack."""
    snapshot = {}
    for channel, value in values.items():
        vector = np.full(constants.NUM_RACKS, np.nan)
        vector[rack.flat_index] = value
        snapshot[Channel(channel)] = vector
    return snapshot


class TestIngest:
    def test_append_and_query(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(0.0, _snapshot(2.0))
        db.append_snapshot(300.0, _snapshot(3.0))
        series = db.channel(Channel.POWER)
        assert len(series) == 2
        assert series.values[1, 0] == 3.0

    def test_growth_beyond_capacity_hint(self):
        db = EnvironmentalDatabase(capacity_hint=4)
        for i in range(100):
            db.append_snapshot(float(i), _snapshot(float(i)))
        assert db.num_samples == 100
        assert db.channel(Channel.FLOW).values[99, 0] == 99.0

    def test_out_of_order_rejected(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(100.0, _snapshot())
        with pytest.raises(ValueError):
            db.append_snapshot(50.0, _snapshot())

    def test_wrong_width_rejected(self):
        db = EnvironmentalDatabase()
        with pytest.raises(ValueError):
            db.append_snapshot(0.0, {Channel.POWER: np.ones(10)})

    def test_missing_channels_are_nan(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(0.0, {Channel.POWER: np.ones(constants.NUM_RACKS)})
        flow = db.channel(Channel.FLOW)
        assert np.isnan(flow.values).all()

    def test_ingest_single_reading(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(
            0.0,
            _one_rack(
                RackId(1, 8),
                dc_temperature_f=80.0,
                dc_humidity_rh=33.0,
                flow_gpm=26.0,
                inlet_temperature_f=64.0,
                outlet_temperature_f=79.0,
                power_kw=55.0,
                utilization=0.9,
            ),
        )
        flat = RackId(1, 8).flat_index
        assert db.channel(Channel.FLOW).values[0, flat] == 26.0
        assert np.isnan(db.channel(Channel.FLOW).values[0, 0])
        assert db.channel(Channel.UTILIZATION).values[0, flat] == 0.9


def _block(epochs, value=1.0):
    n = len(epochs)
    return {ch: np.full((n, constants.NUM_RACKS), value) for ch in Channel}


class TestAppendBlock:
    def test_block_and_query(self):
        db = EnvironmentalDatabase()
        epochs = np.arange(5) * 300.0
        db.append_block(epochs, _block(epochs, 7.0))
        assert db.num_samples == 5
        assert np.array_equal(db.epoch_s, epochs)
        assert (db.channel(Channel.POWER).values == 7.0).all()

    def test_empty_block_is_noop(self):
        db = EnvironmentalDatabase()
        db.append_block(np.empty(0), {})
        assert db.num_samples == 0

    def test_growth_across_block_boundaries(self):
        db = EnvironmentalDatabase(capacity_hint=16)
        for start in range(0, 100, 7):
            epochs = (start + np.arange(7)) * 60.0
            db.append_block(epochs, _block(epochs, float(start)))
        assert db.num_samples == 105
        assert db.channel(Channel.FLOW).values[104, 0] == 98.0
        assert np.all(np.diff(db.epoch_s) > 0)

    def test_non_1d_epochs_rejected(self):
        db = EnvironmentalDatabase()
        with pytest.raises(ValueError):
            db.append_block(np.zeros((2, 2)), {})

    def test_internally_unsorted_rejected(self):
        db = EnvironmentalDatabase()
        epochs = np.array([0.0, 300.0, 200.0])
        with pytest.raises(ValueError):
            db.append_block(epochs, _block(epochs))

    def test_out_of_order_against_stored_rejected(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(1000.0, _snapshot())
        epochs = np.array([500.0, 600.0])
        with pytest.raises(ValueError):
            db.append_block(epochs, _block(epochs))

    def test_wrong_shape_rejected_without_partial_write(self):
        db = EnvironmentalDatabase()
        epochs = np.arange(3) * 100.0
        bad = _block(epochs)
        bad[Channel.POWER] = np.ones((3, 10))
        with pytest.raises(ValueError):
            db.append_block(epochs, bad)
        # The rejected block must not have been partially ingested.
        assert db.num_samples == 0

    def test_missing_channels_are_nan(self):
        db = EnvironmentalDatabase()
        epochs = np.arange(4) * 100.0
        db.append_block(
            epochs, {Channel.POWER: np.ones((4, constants.NUM_RACKS))}
        )
        assert np.isnan(db.channel(Channel.FLOW).values).all()

    def test_compact_then_append_block(self):
        db = EnvironmentalDatabase(capacity_hint=64)
        epochs = np.arange(5) * 100.0
        db.append_block(epochs, _block(epochs, 1.0))
        db.compact()
        later = 500.0 + np.arange(5) * 100.0
        db.append_block(later, _block(later, 2.0))
        assert db.num_samples == 10
        assert db.channel(Channel.POWER).values[9, 0] == 2.0

    def test_block_matches_row_ingest(self):
        """One bulk block and step-by-step snapshots store identically."""
        rng = np.random.default_rng(3)
        epochs = np.arange(20) * 300.0
        data = {
            ch: rng.normal(size=(20, constants.NUM_RACKS)) for ch in Channel
        }
        bulk = EnvironmentalDatabase(capacity_hint=4)
        bulk.append_block(epochs, data)
        rows = EnvironmentalDatabase(capacity_hint=4)
        for i, t in enumerate(epochs):
            rows.append_snapshot(float(t), {ch: data[ch][i] for ch in Channel})
        assert np.array_equal(bulk.epoch_s, rows.epoch_s)
        for ch in Channel:
            assert np.array_equal(
                bulk.channel(ch).values, rows.channel(ch).values
            )


class TestQueries:
    def test_rack_channel(self):
        db = EnvironmentalDatabase()
        values = _snapshot(1.0)
        values[Channel.POWER][RackId(0, 5).flat_index] = 42.0
        db.append_snapshot(0.0, values)
        series = db.rack_channel(Channel.POWER, RackId(0, 5))
        assert series.values[0] == 42.0

    def test_window(self):
        db = EnvironmentalDatabase()
        for i in range(10):
            db.append_snapshot(float(i * 100), _snapshot(float(i)))
        cut = db.window(Channel.POWER, 200.0, 500.0)
        assert len(cut) == 3

    def test_system_power_sums_racks(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(0.0, _snapshot(55.0))
        system = db.system_power_mw()
        assert system.values[0] == pytest.approx(48 * 55.0 / 1000.0)

    def test_system_utilization_averages(self):
        db = EnvironmentalDatabase()
        snapshot = _snapshot(0.5)
        db.append_snapshot(0.0, snapshot)
        assert db.system_utilization().values[0] == pytest.approx(0.5)

    def test_total_flow(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(0.0, _snapshot(26.0))
        assert db.total_flow_gpm().values[0] == pytest.approx(48 * 26.0)

    def test_compact_preserves_data(self):
        db = EnvironmentalDatabase(capacity_hint=100)
        for i in range(5):
            db.append_snapshot(float(i), _snapshot(float(i)))
        db.compact()
        assert db.num_samples == 5
        assert db.channel(Channel.POWER).values[4, 0] == 4.0

    def test_compact_empty_then_append(self):
        db = EnvironmentalDatabase()
        db.compact()
        db.append_snapshot(0.0, _snapshot(1.0))
        assert db.num_samples == 1
        assert (db.quality(Channel.POWER) == Quality.OK).all()

    def test_bad_num_racks_rejected(self):
        with pytest.raises(ValueError):
            EnvironmentalDatabase(num_racks=0)

    def test_query_views_are_read_only(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(0.0, _snapshot(1.0))
        for view in (
            db.epoch_s,
            db.channel(Channel.FLOW).values,
            db.rack_channel(Channel.FLOW, RackId(0, 0)).values,
            db.quality(Channel.FLOW),
            db.rack_quality(Channel.FLOW, RackId(0, 0)),
        ):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0

    def test_read_only_views_do_not_freeze_the_store(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(0.0, _snapshot(1.0))
        _ = db.channel(Channel.FLOW)
        db.append_snapshot(300.0, _snapshot(2.0))
        assert db.channel(Channel.FLOW).values[1, 0] == 2.0


class TestSlowIngestPaths:
    """One-row deliveries the bulk simulator never sends: single-rack
    readings, equal timestamps, appends after a compact."""

    def test_one_rack_snapshots_roundtrip_through_rack_channel(self):
        db = EnvironmentalDatabase()
        rack = RackId(2, 7)
        for i, flow in enumerate((25.0, 26.5, 24.8)):
            db.append_snapshot(i * 300.0, _one_rack(rack, flow_gpm=flow))
        series = db.rack_channel(Channel.FLOW, rack)
        assert list(series.values) == [25.0, 26.5, 24.8]
        assert list(series.epoch_s) == [0.0, 300.0, 600.0]
        # Every other rack stayed NaN and is flagged MISSING.
        other = RackId(0, 0)
        assert np.isnan(db.rack_channel(Channel.FLOW, other).values).all()
        assert (db.rack_quality(Channel.FLOW, other) == Quality.MISSING).all()
        assert (db.rack_quality(Channel.FLOW, rack) == Quality.OK).all()

    def test_one_rack_snapshots_merge_same_timestamp(self):
        db = EnvironmentalDatabase(policy=IngestPolicy.lenient())
        db.append_snapshot(0.0, _one_rack(RackId(0, 0), flow_gpm=20.0))
        db.append_snapshot(0.0, _one_rack(RackId(1, 1), flow_gpm=30.0))
        assert db.num_samples == 1
        flow = db.channel(Channel.FLOW).values
        assert flow[0, RackId(0, 0).flat_index] == 20.0
        assert flow[0, RackId(1, 1).flat_index] == 30.0

    def test_strict_duplicate_snapshot_appends_distinct_rows(self):
        # The historical strict contract: only *regressions* raise;
        # equal timestamps append as distinct rows.
        db = EnvironmentalDatabase()
        db.append_snapshot(100.0, _snapshot(1.0))
        db.append_snapshot(100.0, _snapshot(2.0))
        assert db.num_samples == 2
        assert list(db.channel(Channel.POWER).values[:, 0]) == [1.0, 2.0]
        with pytest.raises(ValueError):
            db.append_snapshot(99.0, _snapshot(3.0))

    def test_compact_then_append_snapshot(self):
        db = EnvironmentalDatabase(capacity_hint=64)
        for i in range(5):
            db.append_snapshot(i * 100.0, _snapshot(float(i)))
        db.compact()
        db.append_snapshot(500.0, _snapshot(9.0))
        assert db.num_samples == 6
        assert db.channel(Channel.POWER).values[5, 0] == 9.0
        assert (db.quality(Channel.POWER) == Quality.OK).all()


class TestIngestPolicy:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            IngestPolicy(reorder_window_s=-1.0)

    def test_lenient_reorders_within_window(self):
        db = EnvironmentalDatabase(
            policy=IngestPolicy.lenient(reorder_window_s=600.0)
        )
        db.append_snapshot(0.0, _snapshot(1.0))
        db.append_snapshot(300.0, _snapshot(3.0))
        db.append_snapshot(150.0, _snapshot(2.0))
        db.flush()
        assert list(db.epoch_s) == [0.0, 150.0, 300.0]
        assert db.counters.reordered_rows == 1
        assert db.counters.accepted_rows == 3

    def test_lenient_drops_hopelessly_late(self):
        db = EnvironmentalDatabase(
            policy=IngestPolicy.lenient(reorder_window_s=100.0)
        )
        for i in range(5):
            db.append_snapshot(i * 1000.0, _snapshot(float(i)))
        db.append_snapshot(1500.0, _snapshot(99.0))
        db.flush()
        assert db.counters.dropped_late_rows == 1
        assert 1500.0 not in db.epoch_s

    def test_duplicate_merge_fills_holes_only(self):
        db = EnvironmentalDatabase(policy=IngestPolicy.lenient())
        first = _snapshot(1.0)
        first[Channel.FLOW][:] = np.nan
        db.append_snapshot(0.0, first)
        db.append_snapshot(0.0, _snapshot(2.0))
        db.flush()
        assert db.channel(Channel.POWER).values[0, 0] == 1.0  # kept
        assert db.channel(Channel.FLOW).values[0, 0] == 2.0  # filled
        assert (db.quality(Channel.FLOW) == Quality.OK).all()

    def test_duplicate_against_committed_row(self):
        db = EnvironmentalDatabase(policy=IngestPolicy.lenient())
        first = _snapshot(1.0)
        first[Channel.FLOW][:2] = np.nan
        db.append_snapshot(0.0, first)
        db.append_snapshot(1000.0, _snapshot(2.0))
        db.flush()
        # A scrubber verdict on the committed row survives the merge.
        suspect = np.zeros((2, constants.NUM_RACKS), dtype=bool)
        suspect[0, 5] = True
        db.update_quality(Channel.POWER, suspect, Quality.SUSPECT)
        late = _snapshot(5.0)
        late[Channel.FLOW][1] = np.nan
        db.append_snapshot(0.0, late)
        db.flush()
        assert db.num_samples == 2
        assert db.counters.duplicate_rows == 1
        assert db.channel(Channel.POWER).values[0, 0] == 1.0  # kept
        flow = db.channel(Channel.FLOW).values[0]
        assert flow[0] == 5.0 and np.isnan(flow[1]) and flow[2] == 1.0
        flow_quality = db.quality(Channel.FLOW)[0]
        assert flow_quality[0] == Quality.OK  # filled
        assert flow_quality[1] == Quality.MISSING  # still a hole
        assert db.quality(Channel.POWER)[0, 5] == Quality.SUSPECT

    def test_queries_flush_pending_rows(self):
        db = EnvironmentalDatabase(
            policy=IngestPolicy.lenient(reorder_window_s=1e9)
        )
        db.append_snapshot(0.0, _snapshot(1.0))
        db.append_snapshot(300.0, _snapshot(2.0))
        # No explicit flush: num_samples/queries must see both rows.
        assert db.num_samples == 2
        assert db.channel(Channel.POWER).values[1, 0] == 2.0


class TestQualityMasks:
    def test_ok_and_missing_at_ingest(self):
        db = EnvironmentalDatabase()
        row = _snapshot(1.0)
        row[Channel.FLOW][3] = np.nan
        db.append_snapshot(0.0, row)
        quality = db.quality(Channel.FLOW)
        assert quality[0, 3] == Quality.MISSING
        assert quality[0, 0] == Quality.OK
        assert db.missing_cells(Channel.FLOW) == 1

    def test_update_quality_escalates_only_ok(self):
        db = EnvironmentalDatabase()
        row = _snapshot(1.0)
        row[Channel.FLOW][0] = np.nan
        db.append_snapshot(0.0, row)
        mask = np.ones((1, constants.NUM_RACKS), dtype=bool)
        changed = db.update_quality(Channel.FLOW, mask, Quality.SUSPECT)
        assert changed == constants.NUM_RACKS - 1
        quality = db.quality(Channel.FLOW)
        assert quality[0, 0] == Quality.MISSING  # not downgraded
        assert quality[0, 1] == Quality.SUSPECT

    def test_coverage_counts_usable_cells(self):
        db = EnvironmentalDatabase()
        row = _snapshot(1.0)
        row[Channel.FLOW][:24] = np.nan
        db.append_snapshot(0.0, row)
        coverage = db.coverage(Channel.FLOW)
        assert coverage.values[0] == pytest.approx(0.5)

    def test_quality_survives_growth_and_compact(self):
        db = EnvironmentalDatabase(capacity_hint=2)
        for i in range(10):
            row = _snapshot(float(i))
            row[Channel.FLOW][i % constants.NUM_RACKS] = np.nan
            db.append_snapshot(i * 100.0, row)
        db.compact()
        quality = db.quality(Channel.FLOW)
        assert quality.shape == (10, constants.NUM_RACKS)
        assert db.missing_cells(Channel.FLOW) == 10


class TestAggregatesWithHoles:
    def test_system_utilization_all_nan_sample(self):
        db = EnvironmentalDatabase()
        db.append_snapshot(0.0, {Channel.POWER: np.ones(constants.NUM_RACKS)})
        series = db.system_utilization()
        assert np.isnan(series.values).all()

    def test_system_power_scales_by_coverage(self):
        db = EnvironmentalDatabase()
        row = {Channel.POWER: np.full(constants.NUM_RACKS, np.nan)}
        row[Channel.POWER][:12] = 55.0  # a quarter of the racks report
        db.append_snapshot(0.0, row)
        db.append_snapshot(300.0, {Channel.FLOW: np.ones(constants.NUM_RACKS)})
        power = db.system_power_mw()
        # Missing racks are estimated at the reporting-rack mean, so
        # the total matches a fully-reporting floor.
        assert power.values[0] == pytest.approx(48 * 55.0 / 1000.0)
        assert np.isnan(power.values[1])


class TestEmptyWindows:
    """Empty time windows reduce to NaN/empty silently.

    pytest promotes ``RuntimeWarning`` to an error and ``np.nanmin`` /
    ``np.nanmax`` raise outright on zero-size input, so simply
    executing these is the assertion.
    """

    @pytest.fixture()
    def db(self):
        db = EnvironmentalDatabase()
        for i in range(4):
            db.append_snapshot(i * 300.0, _snapshot(float(i + 1)))
        return db

    def test_window_past_the_data_is_empty(self, db):
        series = db.window(Channel.POWER, 10_000.0, 20_000.0)
        assert len(series) == 0
        assert series.values.shape[0] == 0

    @pytest.mark.parametrize("reducer", ["mean", "median", "sum", "min", "max"])
    def test_across_racks_on_empty_window(self, db, reducer):
        series = db.window(Channel.POWER, 10_000.0, 20_000.0)
        reduced = series.across_racks(reducer)
        assert len(reduced) == 0

    @pytest.mark.parametrize("reducer", ["mean", "min", "max"])
    def test_scalar_reduction_of_empty_window(self, db, reducer):
        from repro.telemetry import nanstats

        func = getattr(nanstats, f"nan{reducer}")
        assert np.isnan(func(db.window(Channel.POWER, 10_000.0, 20_000.0).values))

    def test_empty_window_reduction_keeps_axis_shape(self, db):
        from repro.telemetry import nanstats

        values = db.window(Channel.POWER, 10_000.0, 20_000.0).values
        for func in (nanstats.nanmin, nanstats.nanmax, nanstats.nanmean):
            assert func(values, axis=1).shape == (0,)

    def test_coverage_on_empty_database(self):
        db = EnvironmentalDatabase()
        coverage = db.coverage(Channel.POWER)
        assert len(coverage) == 0

    def test_aggregates_on_empty_database(self):
        db = EnvironmentalDatabase()
        assert len(db.system_power_mw()) == 0
        assert len(db.system_utilization()) == 0
        assert len(db.total_flow_gpm()) == 0
