"""The CUSUM change detector."""

import numpy as np
import pytest

from repro.facility.topology import RackId
from repro.monitoring.anomaly import CusumConfig, CusumDetector
from repro.telemetry.records import Channel


def _sample(inlet=64.0, **overrides):
    sample = {
        Channel.FLOW: 26.0,
        Channel.OUTLET_TEMPERATURE: 79.0,
        Channel.INLET_TEMPERATURE: inlet,
        Channel.POWER: 55.0,
        Channel.DC_TEMPERATURE: 80.0,
        Channel.DC_HUMIDITY: 33.0,
    }
    sample.update(overrides)
    return sample


def _run(detector, values, rack=(0, 0), channel=Channel.INLET_TEMPERATURE):
    alarms = []
    for i, value in enumerate(values):
        sample = _sample()
        sample[channel] = value
        alarms.extend(detector.consume(i * 300.0, RackId(*rack), sample))
    return alarms


class TestConfig:
    def test_defaults_valid(self):
        CusumConfig()

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            CusumConfig(decision=0.0)
        with pytest.raises(ValueError):
            CusumConfig(ewma_alpha=1.5)


class TestDetection:
    def test_steady_stream_quiet(self, rng):
        detector = CusumDetector()
        values = 64.0 + 0.3 * rng.standard_normal(400)
        alarms = _run(detector, values)
        inlet_alarms = [a for a in alarms if a.channel is Channel.INLET_TEMPERATURE]
        assert len(inlet_alarms) <= 2

    def test_sustained_drift_detected(self, rng):
        detector = CusumDetector()
        steady = 64.0 + 0.3 * rng.standard_normal(200)
        drifting = 64.0 - np.linspace(0.0, 4.5, 60) + 0.3 * rng.standard_normal(60)
        alarms = _run(detector, np.concatenate([steady, drifting]))
        inlet_alarms = [a for a in alarms if a.channel is Channel.INLET_TEMPERATURE]
        assert inlet_alarms, "expected the drift to trip CUSUM"
        # The alarm must land during the drift, not during the steady phase.
        assert inlet_alarms[0].epoch_s >= 200 * 300.0

    def test_no_alarms_during_warmup(self, rng):
        detector = CusumDetector(CusumConfig(warmup_samples=50))
        values = np.concatenate([[64.0] * 10, [90.0] * 20])
        alarms = _run(detector, values)
        assert all(a.epoch_s >= 50 * 300.0 for a in alarms)

    def test_two_sided(self, rng):
        detector = CusumDetector()
        steady = 64.0 + 0.3 * rng.standard_normal(200)
        rising = 64.0 + np.linspace(0.0, 4.5, 60)
        alarms = _run(detector, np.concatenate([steady, rising]))
        assert [a for a in alarms if a.channel is Channel.INLET_TEMPERATURE]

    def test_racks_independent(self, rng):
        detector = CusumDetector()
        _run(detector, 64.0 + 0.3 * rng.standard_normal(300), rack=(0, 0))
        # A fresh rack starts in warmup: a single wild value cannot alarm.
        alarms = detector.consume(0.0, RackId(2, 9), _sample(inlet=120.0))
        assert alarms == ()

    def test_reset_clears(self, rng):
        detector = CusumDetector()
        _run(detector, 64.0 + 0.3 * rng.standard_normal(100))
        detector.reset(RackId(0, 0))
        assert not detector._active[RackId(0, 0).flat_index].any()


class TestOnLeadupWindows:
    def test_detects_precursors_in_positive_windows(self, year_windows):
        positives, _ = year_windows
        detector = CusumDetector(CusumConfig(warmup_samples=12))
        hits = 0
        for window in positives[:40]:
            detector.reset()
            fired = False
            for i, epoch in enumerate(window.epoch_s):
                sample = {
                    ch: float(window.channels[ch][i]) for ch in window.channels
                }
                if detector.consume(float(epoch), window.rack_id, sample):
                    fired = True
            hits += fired
        # CUSUM sees the sustained inlet/outlet drifts in most lead-ups.
        assert hits > 20
