"""The online monitoring stack: streaming predictor, alerts, mitigation."""

import numpy as np
import pytest

from repro import timeutil
from repro.facility.topology import RackId
from repro.monitoring.alerts import Alert, AlertEngine, AlertLog, AlertPolicy
from repro.monitoring.mitigation import (
    CheckpointPolicy,
    evaluate_mitigation,
    sweep_thresholds,
)
from repro.monitoring.online import OnlineCmfPredictor, Prediction, train_online_predictor
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel

HOUR = timeutil.HOUR_S


@pytest.fixture(scope="module")
def online_model(year_windows):
    positives, negatives = year_windows
    half = len(positives) // 2
    return train_online_predictor(positives[:half], negatives[:half])


@pytest.fixture(scope="module")
def holdout(year_windows):
    positives, negatives = year_windows
    half = len(positives) // 2
    return positives[half:], negatives[half:]


def _healthy_sample():
    return {
        Channel.FLOW: 26.0,
        Channel.OUTLET_TEMPERATURE: 79.0,
        Channel.INLET_TEMPERATURE: 64.0,
        Channel.POWER: 55.0,
        Channel.DC_TEMPERATURE: 80.0,
        Channel.DC_HUMIDITY: 33.0,
    }


class TestOnlinePredictor:
    def test_not_ready_without_history(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        prediction = predictor.consume(0.0, RackId(0, 0), _healthy_sample())
        assert prediction is None
        assert not predictor.ready(RackId(0, 0))

    def test_ready_after_six_hours(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        prediction = None
        for i in range(80):
            prediction = predictor.consume(
                i * 300.0, RackId(0, 0), _healthy_sample()
            )
        assert prediction is not None
        assert 0.0 <= prediction.probability <= 1.0

    def test_healthy_stream_low_probability(self, online_model, rng):
        predictor = OnlineCmfPredictor(online_model)
        last = None
        for i in range(90):
            sample = {
                ch: v * (1.0 + 0.003 * rng.standard_normal())
                for ch, v in _healthy_sample().items()
            }
            last = predictor.consume(i * 300.0, RackId(1, 1), sample)
        assert last is not None
        assert last.probability < 0.5

    def test_positive_window_fires(self, online_model, holdout):
        positives, _ = holdout
        predictor = OnlineCmfPredictor(online_model)
        predictions = predictor.consume_window(positives[0])
        assert predictions, "expected predictions once history filled"
        final = predictions[-1]
        assert final.probability > 0.9

    def test_missing_channel_filled_by_carry_forward(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        predictor.consume(0.0, RackId(0, 0), _healthy_sample())
        sample = _healthy_sample()
        del sample[Channel.FLOW]
        sample[Channel.POWER] = float("nan")
        predictor.consume(300.0, RackId(0, 0), sample)
        assert predictor.counters.locf_fills == 2
        assert predictor.counters.dropped_incomplete == 0
        assert predictor.history_span_s(RackId(0, 0)) == 300.0

    def test_incomplete_sample_without_history_dropped(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        sample = _healthy_sample()
        del sample[Channel.FLOW]
        assert predictor.consume(0.0, RackId(0, 0), sample) is None
        assert predictor.counters.dropped_incomplete == 1
        assert predictor.history_span_s(RackId(0, 0)) == 0.0

    def test_stale_carry_forward_refused(self, online_model):
        predictor = OnlineCmfPredictor(
            online_model, locf_staleness_s=600.0, gap_reset_s=10 * HOUR
        )
        predictor.consume(0.0, RackId(0, 0), _healthy_sample())
        sample = _healthy_sample()
        del sample[Channel.FLOW]
        assert predictor.consume(5000.0, RackId(0, 0), sample) is None
        assert predictor.counters.dropped_incomplete == 1
        assert predictor.counters.locf_fills == 0

    def test_late_and_duplicate_dropped_with_counters(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        predictor.consume(1000.0, RackId(0, 0), _healthy_sample())
        assert predictor.consume(500.0, RackId(0, 0), _healthy_sample()) is None
        assert predictor.consume(1000.0, RackId(0, 0), _healthy_sample()) is None
        assert predictor.counters.dropped_late == 1
        assert predictor.counters.dropped_duplicate == 1
        assert predictor.history_span_s(RackId(0, 0)) == 0.0

    def test_large_gap_resets_history(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        for i in range(80):
            predictor.consume(i * 300.0, RackId(0, 0), _healthy_sample())
        assert predictor.ready(RackId(0, 0))
        predictor.consume(80 * 300.0 + 3 * HOUR, RackId(0, 0), _healthy_sample())
        assert predictor.counters.gap_resets == 1
        assert not predictor.ready(RackId(0, 0))
        assert predictor.history_span_s(RackId(0, 0)) == 0.0

    def test_online_agrees_with_offline_features(self, online_model, holdout):
        from repro.core.prediction import window_features

        positives, _ = holdout
        window = positives[0]
        predictor = OnlineCmfPredictor(online_model)
        predictions = predictor.consume_window(window)
        assert predictions
        final = predictions[-1]
        offline = window_features(window, lead_h=0.0)
        history = predictor._history[window.rack_id]
        end = history.start + history.size
        now = float(window.epoch_s[-1])
        streamed = predictor._batch_features(
            history, [(history, history.start, end, now)]
        )[0]
        np.testing.assert_allclose(streamed, offline, rtol=1e-9, atol=1e-12)
        offline_probability = float(
            online_model.predict_proba(offline[None, :])[0]
        )
        assert final.probability == pytest.approx(offline_probability, abs=1e-9)

    def test_reset_clears_history(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        for i in range(80):
            predictor.consume(i * 300.0, RackId(0, 0), _healthy_sample())
        assert predictor.ready(RackId(0, 0))
        predictor.reset(RackId(0, 0))
        assert not predictor.ready(RackId(0, 0))

    def test_racks_independent(self, online_model):
        predictor = OnlineCmfPredictor(online_model)
        for i in range(80):
            predictor.consume(i * 300.0, RackId(0, 0), _healthy_sample())
        assert predictor.ready(RackId(0, 0))
        assert not predictor.ready(RackId(2, 5))

    def test_training_requires_both_classes(self, year_windows):
        positives, _ = year_windows
        with pytest.raises(ValueError):
            train_online_predictor(positives, [])


class TestChunkSizeEquivalence:
    """The trained model: blocks of any size == one sample at a time,
    bit for bit (a block is scored in one ``predict_proba`` call)."""

    _RACK = RackId(1, 4)

    @staticmethod
    def _stream():
        """A drifting rack stream with holes, a duplicate, a late
        arrival and a silence long enough to reset the history."""
        rng = np.random.default_rng(11)
        epochs = list(np.arange(400) * 300.0)
        epochs[150:150] = [epochs[149]]  # duplicate
        epochs[250:250] = [epochs[249] - 600.0]  # late arrival
        epochs = np.array(epochs)
        epochs[300:] += 3 * HOUR  # silence: gap reset
        base = np.array([_healthy_sample()[ch] for ch in PREDICTOR_CHANNELS])
        ramp = np.linspace(0.0, 0.2, len(epochs))[:, None] * base
        values = base + ramp + rng.normal(scale=0.5, size=(len(epochs), len(base)))
        values[rng.random(values.shape) < 0.03] = np.nan
        return epochs, values

    def test_chunk_sizes_match_per_sample(self, online_model):
        epochs, values = self._stream()
        single = OnlineCmfPredictor(online_model)
        expected = []
        for epoch, row in zip(epochs, values):
            prediction = single.consume(
                float(epoch), self._RACK, dict(zip(PREDICTOR_CHANNELS, row))
            )
            if prediction is not None:
                expected.append(prediction)
        counters = single.counters
        assert counters.dropped_duplicate and counters.dropped_late
        assert counters.gap_resets and counters.locf_fills
        assert len({p.probability for p in expected}) > 100

        for size in (7, 50, len(epochs)):
            chunked = OnlineCmfPredictor(online_model)
            produced = []
            for i in range(0, len(epochs), size):
                produced.extend(
                    chunked.consume_block(
                        epochs[i : i + size], self._RACK, values[i : i + size]
                    )
                )
            assert chunked.counters == counters
            assert produced == expected  # probabilities bit-exact


class TestAlertEngine:
    def _prediction(self, epoch, probability, rack=(0, 0)):
        return Prediction(epoch_s=epoch, rack_id=RackId(*rack), probability=probability)

    def test_persistence_required(self):
        engine = AlertEngine(AlertPolicy(threshold=0.8, persistence=3))
        assert engine.process(self._prediction(0.0, 0.9)) is None
        assert engine.process(self._prediction(300.0, 0.9)) is None
        alert = engine.process(self._prediction(600.0, 0.9))
        assert alert is not None

    def test_streak_resets_below_threshold(self):
        engine = AlertEngine(AlertPolicy(threshold=0.8, persistence=2))
        engine.process(self._prediction(0.0, 0.9))
        engine.process(self._prediction(300.0, 0.1))
        assert engine.process(self._prediction(600.0, 0.9)) is None

    def test_cooldown_suppresses_realerts(self):
        engine = AlertEngine(
            AlertPolicy(threshold=0.8, persistence=1, cooldown_s=3600.0)
        )
        assert engine.process(self._prediction(0.0, 0.9)) is not None
        assert engine.process(self._prediction(300.0, 0.9)) is None
        assert engine.process(self._prediction(4000.0, 0.9)) is not None

    def test_racks_tracked_separately(self):
        engine = AlertEngine(AlertPolicy(threshold=0.8, persistence=1))
        assert engine.process(self._prediction(0.0, 0.9, rack=(0, 0))) is not None
        assert engine.process(self._prediction(0.0, 0.9, rack=(1, 1))) is not None

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            AlertPolicy(threshold=1.5)
        with pytest.raises(ValueError):
            AlertPolicy(persistence=0)


class TestAlertMatching:
    def test_detection_and_lead(self, year_result):
        failures = year_result.schedule.events[:3]
        log = AlertLog()
        target = failures[0]
        log.record(
            Alert(
                epoch_s=target.epoch_s - 4 * HOUR,
                rack_id=target.rack_id,
                probability=0.95,
            )
        )
        report = log.match(failures, observation_rack_days=100.0)
        assert report.detected == 1
        assert report.missed == 2
        assert report.false_alerts == 0
        assert report.median_lead_h == pytest.approx(4.0)

    def test_false_alert_counted(self, year_result):
        failures = year_result.schedule.events[:2]
        log = AlertLog()
        log.record(Alert(epoch_s=0.0, rack_id=RackId(0, 0), probability=0.9))
        report = log.match(failures, observation_rack_days=10.0)
        assert report.false_alerts == 1
        assert report.false_alerts_per_rack_day == pytest.approx(0.1)

    def test_realerts_in_leadup_not_false(self, year_result):
        failure = year_result.schedule.events[0]
        log = AlertLog()
        for lead_h in (5.0, 3.0, 1.0):
            log.record(
                Alert(
                    epoch_s=failure.epoch_s - lead_h * HOUR,
                    rack_id=failure.rack_id,
                    probability=0.95,
                )
            )
        report = log.match([failure])
        assert report.detected == 1
        assert report.false_alerts == 0
        assert report.median_lead_h == pytest.approx(5.0)


class TestMitigation:
    def test_ledger_arithmetic(self):
        policy = CheckpointPolicy()
        assert policy.checkpoint_overhead_node_h > 0

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(residual_loss_h=5.0, mean_inflight_loss_h=1.0)

    def test_evaluation_end_to_end(self, year_result, online_model):
        predictor = OnlineCmfPredictor(online_model)
        ledger = evaluate_mitigation(year_result, predictor)
        assert ledger.match.recall > 0.8
        assert ledger.baseline_loss_core_h > 0
        assert ledger.mitigated_loss_core_h < ledger.baseline_loss_core_h
        assert ledger.worthwhile

    def test_sweep_produces_tradeoff(self, year_result, online_model):
        predictor = OnlineCmfPredictor(online_model)
        ledgers = sweep_thresholds(
            year_result, predictor, thresholds=(0.6, 0.95)
        )
        assert len(ledgers) == 2
        # A stricter threshold never raises the false-alert rate much.
        loose, strict = ledgers
        assert (
            strict.match.false_alerts_per_rack_day
            <= loose.match.false_alerts_per_rack_day + 0.05
        )

    def test_requires_failures(self, online_model):
        import datetime as dt

        from repro.simulation import FacilityEngine
        from repro.simulation.config import SimulationConfig

        clean = FacilityEngine(
            SimulationConfig(
                start=dt.datetime(2015, 3, 1),
                end=dt.datetime(2015, 4, 1),
                inject_failures=False,
            )
        ).run()
        predictor = OnlineCmfPredictor(online_model)
        with pytest.raises(ValueError):
            evaluate_mitigation(clean, predictor)
