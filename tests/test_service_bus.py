"""ReplayBus: ordering, pacing, and backpressure policy semantics."""

import numpy as np
import pytest

from repro.service import (
    BACKPRESSURE_POLICIES,
    CountingSubscriber,
    ReplayBus,
)
from repro.telemetry.records import CHANNELS, Channel

_RACKS = 4


def _rows(n, dt_s=300.0, start=0.0):
    """A synthetic source: n whole-floor rows, value == sample index."""
    rows = []
    for i in range(n):
        values = {Channel.POWER: np.full(_RACKS, float(i))}
        rows.append((start + i * dt_s, values, {}))
    return rows


class TestPublishing:
    def test_every_row_published_in_order(self):
        bus = ReplayBus(_rows(50))
        counter = CountingSubscriber(keep_seqs=True)
        bus.subscribe("counter", counter)
        report = bus.run()
        assert report.published == 50
        assert counter.received == 50
        assert counter.seqs == list(range(50))
        assert counter.monotonic
        assert counter.gaps == 0
        assert counter.missing == 0

    def test_database_replay_window(self, demo_result):
        db = demo_result.database
        epochs = db.epoch_s
        start, end = float(epochs[10]), float(epochs[30])
        captured = []

        def collect(chunk):
            captured.append(
                (chunk.epoch_s[0], chunk.values[Channel.POWER][0].copy())
            )

        bus = ReplayBus(db, start_epoch_s=start, end_epoch_s=end)
        bus.subscribe("collect", collect)
        report = bus.run()
        assert report.published == 20
        offline = db.channel(Channel.POWER).values
        for offset, (epoch, power) in enumerate(captured):
            assert epoch == pytest.approx(epochs[10 + offset])
            np.testing.assert_array_equal(
                power, offline[10 + offset], strict=False
            )

    def test_samples_carry_every_channel(self, demo_result):
        seen = {}

        def collect(chunk):
            if not seen:
                seen["channels"] = set(chunk.values) | set(chunk.quality)

        bus = ReplayBus(
            demo_result.database,
            end_epoch_s=demo_result.start_epoch_s + 3600.0,
        )
        bus.subscribe("collect", collect)
        bus.run()
        assert seen["channels"] == set(CHANNELS)

    def test_paced_replay_honours_speedup(self):
        # 9 intervals x 300 s at 13500x ~= 0.2 s of wall clock.
        bus = ReplayBus(_rows(10), speedup=13_500.0)
        bus.subscribe("counter", CountingSubscriber())
        report = bus.run()
        assert report.published == 10
        assert report.duration_s >= 0.15
        assert report.achieved_speedup <= 20_000.0

    def test_invalid_speedup_rejected(self):
        with pytest.raises(ValueError):
            ReplayBus(_rows(1), speedup=0.0)

    def test_duplicate_subscriber_name_rejected(self):
        bus = ReplayBus(_rows(1))
        bus.subscribe("twin", CountingSubscriber())
        with pytest.raises(ValueError):
            bus.subscribe("twin", CountingSubscriber())

    def test_invalid_policy_and_capacity_rejected(self):
        bus = ReplayBus(_rows(1))
        with pytest.raises(ValueError):
            bus.subscribe("bad", CountingSubscriber(), policy="spill")
        with pytest.raises(ValueError):
            bus.subscribe("bad", CountingSubscriber(), capacity=0)


class TestBackpressure:
    """One slow subscriber under each policy, counters asserted."""

    N = 60

    def _run_slow(self, policy, capacity=4, delay_s=0.004):
        bus = ReplayBus(_rows(self.N))
        slow = CountingSubscriber(delay_s=delay_s, keep_seqs=True)
        subscription = bus.subscribe(
            "slow", slow, capacity=capacity, policy=policy
        )
        report = bus.run()
        return report, slow, report.subscribers["slow"], subscription

    def test_block_loses_nothing(self):
        report, slow, counters, subscription = self._run_slow("block")
        assert counters.enqueued == self.N
        assert counters.delivered == self.N
        assert counters.dropped == 0
        assert counters.coalesced == 0
        assert slow.seqs == list(range(self.N))
        assert slow.gaps == 0
        assert slow.missing == 0
        assert counters.max_queue_depth <= 4
        assert subscription.backlog == 0

    def test_drop_oldest_sheds_load_without_stalling(self):
        report, slow, counters, _ = self._run_slow("drop_oldest")
        assert counters.enqueued == self.N
        assert counters.delivered + counters.dropped == self.N
        assert counters.dropped > 0
        assert counters.coalesced == 0
        # Gapped but ordered, and the freshest sample always survives.
        assert slow.monotonic
        assert slow.last_seq == self.N - 1
        # Every dropped sample shows up as an observed sequence gap.
        assert slow.gaps > 0
        assert slow.missing == counters.dropped
        assert counters.max_queue_depth <= 4
        # The publisher never waited on the slow consumer.
        assert report.duration_s < 0.5 * self.N * 0.004

    def test_coalesce_supersedes_intermediate_samples(self):
        report, slow, counters, _ = self._run_slow("coalesce")
        assert counters.enqueued == self.N
        assert counters.delivered + counters.coalesced == self.N
        assert counters.coalesced > 0
        assert counters.dropped == 0
        assert slow.monotonic
        assert slow.last_seq == self.N - 1
        # Superseded samples are exactly the missing sequence numbers.
        assert slow.gaps > 0
        assert slow.missing == counters.coalesced
        assert report.duration_s < 0.5 * self.N * 0.004

    @pytest.mark.parametrize("policy", ["drop_oldest", "coalesce"])
    def test_fast_subscriber_never_stalled_by_slow_peer(self, policy):
        n = 40
        delay = 0.01
        bus = ReplayBus(_rows(n))
        slow = CountingSubscriber(delay_s=delay)
        fast = CountingSubscriber(keep_seqs=True)
        bus.subscribe("slow", slow, capacity=2, policy=policy)
        bus.subscribe("fast", fast, capacity=n)
        report = bus.run()
        # The fast subscriber saw the complete, gap-free stream even
        # though its peer could only keep up with a fraction of it.
        assert fast.seqs == list(range(n))
        slow_counters = report.subscribers["slow"]
        assert slow_counters.delivered < n
        # Publishing finished far sooner than the slow consumer's
        # nominal n * delay of work: the bus never throttled on it.
        assert report.duration_s < 0.5 * n * delay

    def test_block_policy_throttles_the_whole_bus(self):
        n = 20
        delay = 0.005
        bus = ReplayBus(_rows(n))
        slow = CountingSubscriber(delay_s=delay)
        bus.subscribe("slow", slow, capacity=2, policy="block")
        report = bus.run()
        assert report.subscribers["slow"].delivered == n
        # Nothing is lost, at the price of pacing at the consumer.
        assert report.duration_s >= 0.5 * n * delay

    def test_lag_counter_sees_backlog(self):
        _, _, counters, _ = self._run_slow("drop_oldest")
        assert counters.max_lag > 1
        assert counters.max_lag <= self.N

    def test_callback_errors_swallowed_and_counted(self):
        failures = {"count": 0}

        def flaky(chunk):
            if chunk.start_seq % 3 == 0:
                failures["count"] += 1
                raise RuntimeError("boom")

        bus = ReplayBus(_rows(30))
        bus.subscribe("flaky", flaky)
        ok = CountingSubscriber()
        bus.subscribe("ok", ok)
        report = bus.run()
        assert report.subscribers["flaky"].errors == failures["count"] == 10
        assert report.subscribers["flaky"].delivered == 30
        assert ok.received == 30

    def test_concurrent_subscribers_each_get_private_queue(self):
        names = [f"sub{i}" for i in range(5)]
        bus = ReplayBus(_rows(25))
        counters = {name: CountingSubscriber() for name in names}
        for name in names:
            bus.subscribe(name, counters[name])
        report = bus.run()
        for name in names:
            assert counters[name].received == 25
            assert report.subscribers[name].dropped == 0


class TestBusReport:
    def test_span_and_rates(self):
        bus = ReplayBus(_rows(10, dt_s=300.0))
        bus.subscribe("counter", CountingSubscriber())
        report = bus.run()
        assert report.simulated_span_s == pytest.approx(9 * 300.0)
        assert report.rows_per_sec > 0
        assert report.achieved_speedup > 0

    def test_empty_source(self):
        bus = ReplayBus([])
        counter = CountingSubscriber()
        bus.subscribe("counter", counter)
        report = bus.run()
        assert report.published == 0
        assert report.simulated_span_s == 0.0
        assert counter.received == 0
