"""Live operations: replay telemetry as a stream and query it.

The paper's operators did not read the environmental database as a
file — telemetry arrived continuously, analytics rode the stream, and
dashboards asked aggregate questions at interactive latency.  This
example rebuilds that loop over a simulated year with sensor faults
injected:

1. train the streaming CMF predictor on the first half of the year's
   failures,
2. replay the second half through the :class:`ReplayBus` at high
   speedup, with the rollup store, the live predictor + alert engine,
   and the CUSUM change detector riding as subscribers under explicit
   backpressure policies,
3. show what each subscriber saw (delivered / dropped / coalesced) and
   the alerts the predictor raised *from the stream*,
4. answer dashboard queries from the multi-resolution rollups through
   the cached :class:`QueryEngine`, and
5. demonstrate the windowed cache invalidation: appending fresh
   samples invalidates "today's" queries while history stays cached.

Run with::

    python examples/live_operations.py
"""

import dataclasses

import numpy as np

from repro import timeutil
from repro.faults import FaultConfig
from repro.monitoring import AlertPolicy, train_online_predictor
from repro.service import (
    LiveOperationsService,
    Query,
    ServiceConfig,
)
from repro.simulation import FacilityEngine, MiraScenario, WindowSynthesizer
from repro.telemetry.records import Channel


def main() -> None:
    print("Simulating one year with calibrated sensor faults...")
    config = dataclasses.replace(
        MiraScenario.demo(days=365, seed=5), faults=FaultConfig()
    )
    result = FacilityEngine(config).run()
    db = result.database
    print(
        f"  {db.num_samples} snapshots x {db.num_racks} racks, "
        f"{len(result.schedule.events)} CMF events"
    )

    synthesizer = WindowSynthesizer(result)
    positives = synthesizer.positive_windows()
    negatives = synthesizer.negative_windows(len(positives))
    half = len(positives) // 2
    print(f"\nTraining the streaming predictor on {half} failures...")
    model = train_online_predictor(positives[:half], negatives[:half])

    # Replay the second half of the year live: rollups must see every
    # sample (block), the analytics may shed load (drop_oldest).
    midyear = result.start_epoch_s + 183 * timeutil.DAY_S
    print("Replaying the second half-year through the service stack...")
    service = LiveOperationsService(
        db,
        model=model,
        alert_policy=AlertPolicy(),
        cusum=True,
        config=ServiceConfig(analytics_policy="drop_oldest"),
        start_epoch_s=midyear,
    )
    report = service.run()
    print(
        f"  published {report.bus.published} rows in "
        f"{report.bus.duration_s:.2f}s wall "
        f"(~{report.bus.achieved_speedup:,.0f}x real time)"
    )
    for name, counters in report.bus.subscribers.items():
        print(
            f"  {name:>9}: delivered {counters.delivered}, "
            f"dropped {counters.dropped}, coalesced {counters.coalesced}, "
            f"max lag {counters.max_lag}"
        )
    print(f"  rollup buckets per level: {report.rollup_buckets}")
    print(
        f"  predictor evaluated {report.predictions} rack-samples "
        f"and raised {len(report.alerts)} alerts from the stream"
    )
    for alert in report.alerts[:5]:
        when = timeutil.from_epoch(alert.epoch_s)
        print(
            f"    {when:%Y-%m-%d %H:%M}  rack {alert.rack_id.label}  "
            f"p={alert.probability:.2f}"
        )
    if report.alarms:
        print(f"  CUSUM alarms raised from the stream: {len(report.alarms)}")

    print("\nDashboard queries over the rollups:")
    start, end = midyear, result.end_epoch_s
    engine = service.engine
    mean_power = engine.execute(
        Query("aggregate", Channel.POWER, start, end, stat="mean")
    )
    print(
        f"  half-year mean rack power: {mean_power.value:.1f} kW "
        f"(answered from the {mean_power.resolution_s:.0f}s level)"
    )
    week = engine.execute(
        Query(
            "series",
            Channel.POWER,
            start,
            start + 7 * timeutil.DAY_S,
            stat="mean",
        )
    )
    daily = ", ".join(f"{v:.1f}" for v in week.values)
    print(f"  first-week daily means (kW): {daily}")
    coverage = engine.execute(
        Query("aggregate", Channel.FLOW, start, end, stat="coverage")
    )
    print(f"  flow-sensor coverage under faults: {coverage.value:.4f}")
    hottest = engine.execute(
        Query(
            "aggregate",
            Channel.OUTLET_TEMPERATURE,
            start,
            end,
            stat="max",
            scope="row",
            row=1,
        )
    )
    print(f"  hottest outlet in row R1: {hottest.value:.1f} F")

    # Run the headline query again: served from cache this time.
    engine.execute(Query("aggregate", Channel.POWER, start, end, stat="mean"))
    info = engine.cache_info()
    print(
        f"  cache: {info['hits']} hits / {info['misses']} misses, "
        f"{info['entries']} entries"
    )

    print("\nLive append and windowed invalidation:")
    closed = Query("aggregate", Channel.POWER, start, end, stat="mean")
    live = Query(
        "aggregate", Channel.POWER, start, end + timeutil.DAY_S, stat="mean"
    )
    engine.execute(closed)
    engine.execute(live)
    # A fresh sample lands *after* the closed half-year but inside the
    # still-open live window.
    fresh = {Channel.POWER: np.full(db.num_racks, 60.0)}
    service.rollups.add(end + 300.0, fresh)
    engine.execute(closed)
    engine.execute(live)
    info = engine.cache_info()
    print(
        "  after appending one fresh sample: "
        f"{info['revalidations']} closed-window entries kept, "
        f"{info['invalidations']} live-window entries recomputed"
    )


if __name__ == "__main__":
    main()
