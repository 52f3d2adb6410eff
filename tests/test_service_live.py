"""Service-layer smoke: a full live replay, end to end.

This is the CI "service smoke" module: it replays simulated telemetry
through the assembled :class:`LiveOperationsService` at high speedup
with fault injection, checks the streamed rollups agree with the
offline aggregates, and — the headline assertion — verifies the online
CMF predictor *fires from the stream* inside known precursor windows
(holdout positive lead-up windows whose failure times are ground
truth).
"""

import dataclasses

import numpy as np
import pytest

from repro import timeutil
from repro.faults import FaultConfig
from repro.monitoring.alerts import AlertEngine, AlertLog, AlertPolicy
from repro.monitoring.online import OnlineCmfPredictor, train_online_predictor
from repro.service import (
    LiveOperationsService,
    PredictorSubscriber,
    Query,
    ReplayBus,
    ServiceConfig,
)
from repro.simulation import FacilityEngine, MiraScenario
from repro.telemetry import nanstats
from repro.telemetry.records import PREDICTOR_CHANNELS, Channel

from repro import constants


@pytest.fixture(scope="module")
def online_model(year_windows):
    positives, negatives = year_windows
    half = len(positives) // 2
    return train_online_predictor(positives[:half], negatives[:half])


@pytest.fixture(scope="module")
def holdout_positives(year_windows):
    positives, _ = year_windows
    return positives[len(positives) // 2 :]


def _window_rows(window):
    """Re-serve one synthesized lead-up window as whole-floor bus rows."""
    rack = window.rack_id.flat_index
    rows = []
    for i, epoch in enumerate(window.epoch_s):
        values = {}
        for channel in PREDICTOR_CHANNELS:
            vector = np.full(constants.NUM_RACKS, np.nan)
            vector[rack] = window.channels[channel][i]
            values[channel] = vector
        rows.append((float(epoch), values, {}))
    return rows


class TestPredictorFiresFromStream:
    def test_alert_inside_known_precursor_window(
        self, online_model, holdout_positives
    ):
        """Replaying a real precursor through the bus raises the alarm.

        The positive window ends at the (ground-truth) CMF time, so a
        valid alert must land inside the window and strictly before the
        failure — a positive lead time from streamed data alone.
        """
        policy = AlertPolicy()
        fired = 0
        for window in holdout_positives[:3]:
            subscriber = PredictorSubscriber(
                OnlineCmfPredictor(online_model),
                alert_engine=AlertEngine(policy),
                alert_log=AlertLog(),
            )
            bus = ReplayBus(_window_rows(window))
            bus.subscribe("predictor", subscriber, policy="block")
            report = bus.run()
            assert report.published == len(window.epoch_s)
            assert subscriber.predictions, "stream produced no predictions"
            for alert in subscriber.alerts:
                assert alert.rack_id == window.rack_id
                assert window.epoch_s[0] <= alert.epoch_s < window.end_epoch_s
                assert alert.probability >= policy.threshold
            fired += bool(subscriber.alerts)
        assert fired >= 2, "predictor failed to fire on known precursors"

    def test_streamed_probabilities_match_direct_consumption(
        self, online_model, holdout_positives
    ):
        """The bus adds transport, not distortion: same predictions."""
        window = holdout_positives[0]
        direct = OnlineCmfPredictor(online_model).consume_window(window)

        subscriber = PredictorSubscriber(OnlineCmfPredictor(online_model))
        bus = ReplayBus(_window_rows(window))
        bus.subscribe("predictor", subscriber, policy="block")
        bus.run()

        assert len(subscriber.predictions) == len(direct)
        for streamed, offline in zip(subscriber.predictions, direct):
            assert streamed.epoch_s == offline.epoch_s
            np.testing.assert_allclose(
                streamed.probability, offline.probability, rtol=1e-9
            )


class TestWeekReplayWithFaults:
    @pytest.fixture(scope="class")
    def week_service(self):
        config = dataclasses.replace(
            MiraScenario.demo(days=7, seed=11), faults=FaultConfig()
        )
        result = FacilityEngine(config).run()
        service = LiveOperationsService(
            result.database,
            cusum=True,
            config=ServiceConfig(speedup=2_000_000.0),
        )
        return result, service, service.run()

    def test_every_sample_reaches_the_rollups(self, week_service):
        result, service, report = week_service
        assert report.bus.published == result.database.num_samples
        rollups = report.bus.subscribers["rollups"]
        assert rollups.delivered == report.bus.published
        assert rollups.dropped == 0
        assert report.rollup_buckets[86_400.0] == 7

    def test_high_speedup_pacing(self, week_service):
        _, _, report = week_service
        # A simulated week replayed in wall-clock seconds.
        assert report.bus.duration_s < 30.0
        assert report.bus.achieved_speedup > 10_000.0

    def test_streamed_aggregates_match_offline(self, week_service):
        result, service, _ = week_service
        start, end = result.start_epoch_s, result.end_epoch_s
        answer = service.engine.execute(
            Query("aggregate", Channel.POWER, start, end, stat="mean")
        )
        offline = nanstats.nanmean(result.database.channel(Channel.POWER).values)
        np.testing.assert_allclose(answer.value, offline, rtol=1e-9)

        covered = service.engine.execute(
            Query(
                "series",
                Channel.POWER,
                start,
                end,
                stat="covered_sum",
                resolution_s=300.0,
            )
        )
        _, offline_total = result.database._covered_sum(Channel.POWER)
        np.testing.assert_allclose(
            covered.values, offline_total, rtol=1e-9, equal_nan=True
        )

    def test_queries_during_replay_are_safe(self):
        """Querying mid-stream must neither crash nor corrupt state."""
        config = MiraScenario.demo(days=2, seed=13)
        result = FacilityEngine(config).run()
        service = LiveOperationsService(result.database)
        seen = []

        def probe(chunk):
            if chunk.start_seq % 16 == 0:
                answer = service.engine.execute(
                    Query(
                        "aggregate",
                        Channel.POWER,
                        result.start_epoch_s,
                        result.start_epoch_s + 2 * timeutil.DAY_S,
                    )
                )
                seen.append(answer.value)

        service.bus.subscribe("probe", probe, policy="block")
        report = service.run()
        assert report.bus.published == result.database.num_samples
        assert seen, "mid-replay queries never ran"
        # The final post-replay answer matches the offline truth.
        final = service.engine.execute(
            Query(
                "aggregate",
                Channel.POWER,
                result.start_epoch_s,
                result.start_epoch_s + 2 * timeutil.DAY_S,
            )
        )
        offline = nanstats.nanmean(result.database.channel(Channel.POWER).values)
        np.testing.assert_allclose(final.value, offline, rtol=1e-9)
