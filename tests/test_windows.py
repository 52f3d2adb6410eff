"""High-resolution lead-up window synthesis."""

import dataclasses

import numpy as np
import pytest

from repro import constants, timeutil
from repro.failures.cmf import PrecursorSignature
from repro.simulation import WindowSynthesizer
from repro.simulation.engine import FacilityEngine
from repro.simulation.scenarios import MiraScenario
from repro.simulation.config import SimulationConfig
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel

HOUR = timeutil.HOUR_S


class TestGeometry:
    def test_positive_count_matches_schedule(self, year_result, year_windows):
        positives, _ = year_windows
        eligible = [
            e
            for e in year_result.schedule.events
            if e.epoch_s >= year_result.start_epoch_s + 12.5 * HOUR
        ]
        assert len(positives) == len(eligible)

    def test_grid_cadence_is_monitor_native(self, year_windows):
        positives, _ = year_windows
        window = positives[0]
        assert np.allclose(np.diff(window.epoch_s), constants.MONITOR_SAMPLE_PERIOD_S)

    def test_window_ends_at_event(self, year_result, year_windows):
        positives, _ = year_windows
        event_times = {e.epoch_s for e in year_result.schedule.events}
        for window in positives[:10]:
            assert window.epoch_s[-1] == pytest.approx(window.end_epoch_s)
            assert window.end_epoch_s in event_times

    def test_all_predictor_channels_present(self, year_windows):
        positives, negatives = year_windows
        for window in (positives[0], negatives[0]):
            assert set(window.channels) == set(PREDICTOR_CHANNELS)


class TestSignatureContent:
    def test_positive_flow_collapses_at_end(self, year_windows):
        positives, _ = year_windows
        drops = []
        for window in positives:
            flow = window.channels[Channel.FLOW]
            baseline = window.lead_value(Channel.FLOW, 8 * HOUR)
            drops.append(flow[-1] / baseline)
        assert np.median(drops) < 0.5

    def test_positive_inlet_sags_then_rises(self, year_windows):
        positives, _ = year_windows
        sags = []
        finals = []
        for window in positives:
            baseline = window.lead_value(Channel.INLET_TEMPERATURE, 11 * HOUR)
            sags.append(
                window.lead_value(Channel.INLET_TEMPERATURE, 4 * HOUR) / baseline
            )
            finals.append(
                window.lead_value(Channel.INLET_TEMPERATURE, 0.0) / baseline
            )
        assert np.mean(sags) < 0.97
        assert np.mean(finals) > 1.02

    def test_negative_channels_stay_near_baseline(self, year_windows):
        _, negatives = year_windows
        ratios = []
        for window in negatives:
            baseline = window.lead_value(Channel.FLOW, 11 * HOUR)
            if baseline > 1.0:
                ratios.append(window.lead_value(Channel.FLOW, 0.0) / baseline)
        assert 0.9 < np.median(ratios) < 1.1

    def test_negatives_avoid_cmf_neighbourhoods(self, year_result, year_windows):
        _, negatives = year_windows
        for window in negatives:
            events = year_result.schedule.events_for_rack(window.rack_id)
            for event in events:
                assert abs(event.epoch_s - window.end_epoch_s) >= 24 * HOUR


class TestValidation:
    def test_requires_failure_injection(self):
        config = SimulationConfig(
            start=MiraScenario.demo(days=20).start,
            end=MiraScenario.demo(days=20).end,
            inject_failures=False,
        )
        result = FacilityEngine(config).run()
        with pytest.raises(ValueError):
            WindowSynthesizer(result)

    def test_bad_geometry_rejected(self, year_result):
        with pytest.raises(ValueError):
            WindowSynthesizer(year_result, dt_s=0.0)
        with pytest.raises(ValueError):
            WindowSynthesizer(year_result, dt_s=300.0, history_s=100.0)

    def test_value_interpolation(self, year_windows):
        positives, _ = year_windows
        window = positives[0]
        mid = (window.epoch_s[0] + window.epoch_s[-1]) / 2.0
        value = window.value_at(Channel.POWER, mid)
        assert np.isfinite(value)


def _factors_at_every_row(event, epoch):
    """The precursor factors at every coarse timestamp of the study."""
    tau = event.epoch_s - epoch
    return {
        Channel.INLET_TEMPERATURE: PrecursorSignature.inlet_factor(tau, event.severity),
        Channel.OUTLET_TEMPERATURE: PrecursorSignature.outlet_factor(tau, event.severity),
        Channel.FLOW: PrecursorSignature.flow_factor(tau, event.severity),
        Channel.DC_HUMIDITY: PrecursorSignature.humidity_factor(
            tau,
            condensation_triggered=event.reason == "condensation_risk",
            amplitude=event.severity,
        ),
    }


class _WholeColumnOracle(WindowSynthesizer):
    """Interpolates from every usable row of the rack's whole column."""

    def _coarse_series(self, channel, rack_index, grid, cutoff_epoch_s, event=None):
        database = self._result.database
        epoch = database.epoch_s
        column = database.channel(channel).values[:, rack_index]
        usable = np.isfinite(column) & (epoch <= cutoff_epoch_s + 1e-6)
        if not usable.any():
            raise ValueError("no usable coarse telemetry before the window end")
        values = column[usable]
        if event is not None:
            factor = _factors_at_every_row(event, epoch).get(channel)
            if factor is not None:
                values = values / factor[usable]
        return np.interp(grid, epoch[usable], values)


def _assert_same_bytes(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert (got.rack_id, got.end_epoch_s, got.is_positive) == (
            want.rack_id,
            want.end_epoch_s,
            want.is_positive,
        )
        assert got.epoch_s.tobytes() == want.epoch_s.tobytes()
        for channel in PREDICTOR_CHANNELS:
            assert got.channels[channel].tobytes() == want.channels[channel].tobytes(), (
                channel, got.rack_id, got.end_epoch_s
            )


def _with_outages(result):
    """A copy of ``result`` whose predictor channels carry NaN runs.

    * a 40-row run across one positive and one negative window's grid
      start (the row range must walk back over it);
    * one rack dark from row 0 to inside its first window's grid;
    * one rack's humidity dark for the whole study.
    """
    synthesizer = WindowSynthesizer(result)
    events = synthesizer.eligible_events()
    negative_rack, negative_end = synthesizer.negative_candidates(len(events))[0]
    database = result.database
    epoch = np.array(database.epoch_s)
    columns = {ch: np.array(database.channel(ch).values) for ch in PREDICTOR_CHANNELS}

    def first_grid_row(end_epoch_s):
        return int(np.searchsorted(epoch, end_epoch_s - synthesizer.history_s))

    crossed = events[len(events) // 2]
    row = first_grid_row(crossed.epoch_s)
    for channel in (Channel.FLOW, Channel.INLET_TEMPERATURE):
        columns[channel][row - 40 : row + 3, crossed.rack_id.flat_index] = np.nan
    row = first_grid_row(negative_end)
    columns[Channel.POWER][row - 40 : row + 3, negative_rack.flat_index] = np.nan
    early = events[0]
    row = first_grid_row(early.epoch_s)
    for channel in (Channel.OUTLET_TEMPERATURE, Channel.POWER):
        columns[channel][: row + 6, early.rack_id.flat_index] = np.nan
    dark = next(
        e for e in events if e.rack_id not in (crossed.rack_id, early.rack_id)
    )
    columns[Channel.DC_HUMIDITY][:, dark.rack_id.flat_index] = np.nan
    clone = EnvironmentalDatabase(
        num_racks=database.num_racks, capacity_hint=epoch.size
    )
    clone.append_block(epoch, columns)
    return dataclasses.replace(result, database=clone), dark.rack_id


class TestRowRangeMatchesWholeColumn:
    """Each window reads only the rows it spans, with the same bytes."""

    def test_year_result(self, year_result, year_windows):
        positives, negatives = year_windows
        oracle = _WholeColumnOracle(year_result)
        _assert_same_bytes(positives, oracle.positive_windows())
        _assert_same_bytes(negatives, oracle.negative_windows(len(positives)))

    def test_faulted_result(self, faulted_result):
        synthesizer = WindowSynthesizer(faulted_result)
        oracle = _WholeColumnOracle(faulted_result)
        positives = synthesizer.positive_windows()
        assert positives
        _assert_same_bytes(positives, oracle.positive_windows())
        _assert_same_bytes(
            synthesizer.negative_windows(len(positives)),
            oracle.negative_windows(len(positives)),
        )

    def test_nan_runs(self, demo_result):
        result, dark_rack = _with_outages(demo_result)
        synthesizer = WindowSynthesizer(result)
        oracle = _WholeColumnOracle(result)
        events = synthesizer.eligible_events()
        candidates = synthesizer.negative_candidates(len(events))
        builds = [
            lambda s, i=i, e=e: s.positive_window(e, np.random.default_rng(i))
            for i, e in enumerate(events)
        ] + [
            lambda s, i=i, rack=rack, end=end: s.negative_window(
                rack, end, np.random.default_rng(1000 + i)
            )
            for i, (rack, end) in enumerate(candidates)
        ]
        errors = 0
        for build in builds:
            try:
                expected = build(oracle)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    build(synthesizer)
                errors += 1
                continue
            _assert_same_bytes([build(synthesizer)], [expected])
        dark_events = [e for e in events if e.rack_id == dark_rack]
        assert errors >= len(dark_events) > 0
        assert errors < len(builds)
