"""Service-layer throughput: streamed samples/sec and queries/sec.

Times the two hot paths of the live operations stack over a one-year,
48-rack realization at hourly cadence:

* **streaming** — an unpaced :class:`~repro.service.ReplayBus` replay
  with the rollup store subscribed (the ingest path every live sample
  takes), measured twice: once per sample (``chunk_size=1``, one
  callback and one one-row ``add_block`` per snapshot) and once with
  ``chunk_size=2048`` (one vectorized ``add_block`` per chunk), and
* **queries** — a dashboard-shaped workload against the
  :class:`~repro.service.QueryEngine` on the hourly rollup level:
  per-day windows across the year, mixed statistics and scopes,
  served cold (cache misses), warm (cache hits), and concurrently
  (four threads calling ``execute`` on the one shared engine, as the
  HTTP server's handler threads do).

Results are written to ``BENCH_service.json`` at the repo root so
throughput regressions are visible in CI diffs.  The assertion floors
are far below measured throughput on a development machine; they catch
order-of-magnitude regressions (e.g. the cache being bypassed or the
rollup update degenerating to per-cell work), not scheduler jitter.
The chunked-over-per-sample speedup is gated only on machines with
enough cores to make the comparison stable.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

from _bench_json import write_bench_json
from repro import timeutil
from repro.service import (
    CountingSubscriber,
    Query,
    QueryEngine,
    ReplayBus,
    RollupStore,
    RollupSubscriber,
)
from repro.simulation import FacilityEngine, MiraScenario
from repro.telemetry.records import Channel


#: Floor on the mixed (cold + warm) hourly query workload.  The warm
#: path is a dict hit (~1 us); even the cold path reduces only a
#: 24 x 48 window.  Measured: well over 100k queries/s.
MIN_QUERIES_PER_SEC = 10_000.0
#: Floor on unpaced per-sample replay with the rollup subscriber.
MIN_SAMPLES_PER_SEC = 500.0
#: Required chunked-over-per-sample streaming speedup ...
MIN_CHUNKED_SPEEDUP = 50.0
#: ... gated on machines with at least this many cores.
CHUNK_GATE_CORES = 4

_DAYS = 365
_CHUNK_SIZE = 2048


def _year_result():
    config = MiraScenario.demo(days=_DAYS, seed=17, dt_s=3600.0)
    return FacilityEngine(config).run()


def _stream_once(database, chunk_size: int) -> Tuple[object, object]:
    """One unpaced replay with rollups + counter; returns (report, store)."""
    store = RollupStore(num_racks=database.num_racks)
    bus = ReplayBus(database, chunk_size=chunk_size)
    bus.subscribe("rollups", RollupSubscriber(store), policy="block")
    counter = CountingSubscriber()
    bus.subscribe("counter", counter, policy="block")
    report = bus.run()
    assert report.published == database.num_samples
    assert counter.received == database.num_samples
    assert counter.gaps == 0 and counter.missing == 0
    return report, store


def _stream_best(database, chunk_size: int, trials: int) -> Tuple[object, object]:
    """Best of ``trials`` replays: rides out scheduler noise.

    Streaming a year takes a fraction of a second chunked; on busy or
    single-core runners a single trial can land in a throttled slice
    and under-report by several-fold.  Every trial replays the same
    rows into a fresh store, so keeping the fastest is sound.
    """
    best = None
    for _ in range(trials):
        report, store = _stream_once(database, chunk_size)
        if best is None or report.rows_per_sec > best[0].rows_per_sec:
            best = (report, store)
    return best


def _dashboard_workload(start_epoch_s: float) -> List[Query]:
    """One year of per-day dashboard queries: stats x scopes x days."""
    queries: List[Query] = []
    for day in range(_DAYS):
        window = (
            start_epoch_s + day * timeutil.DAY_S,
            start_epoch_s + (day + 1) * timeutil.DAY_S,
        )
        stat = ("mean", "max", "coverage")[day % 3]
        scope = ("facility", "rack", "row")[day % 3]
        queries.append(
            Query(
                "aggregate",
                Channel.POWER,
                window[0],
                window[1],
                stat="mean",
                resolution_s=3600.0,
            )
        )
        queries.append(
            Query(
                "aggregate",
                Channel.INLET_TEMPERATURE,
                window[0],
                window[1],
                stat=stat,
                scope=scope,
                rack=day % 48 if scope == "rack" else None,
                row=day % 3 if scope == "row" else None,
                resolution_s=3600.0,
            )
        )
        queries.append(
            Query(
                "series",
                Channel.POWER,
                window[0],
                window[1],
                stat="max",
                resolution_s=3600.0,
            )
        )
    return queries


def test_service_throughput():
    result = _year_result()
    database = result.database

    # -- streaming: one-row chunks vs chunk_size=_CHUNK_SIZE --
    sample_report, _ = _stream_best(database, chunk_size=1, trials=2)
    chunked_report, store = _stream_best(database, chunk_size=_CHUNK_SIZE, trials=3)
    chunked_speedup = (
        chunked_report.rows_per_sec / sample_report.rows_per_sec
        if sample_report.rows_per_sec > 0
        else float("inf")
    )

    # -- queries: cold, warm, and concurrent over the hourly level --
    engine = QueryEngine(store, cache_size=2048)
    workload = _dashboard_workload(result.start_epoch_s)

    t0 = time.perf_counter()
    for query in workload:
        engine.execute(query)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for query in workload:
        engine.execute(query)
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(engine.execute, workload))
    concurrent_s = time.perf_counter() - t0

    total = 3 * len(workload)
    mixed_qps = total / (cold_s + warm_s + concurrent_s)
    info = engine.cache_info()
    assert info["hits"] >= 2 * len(workload)

    def _qps(elapsed: float) -> float:
        return round(len(workload) / elapsed, 1)

    report: Dict[str, object] = {
        "scenario": f"demo(days={_DAYS}, seed=17, dt_s=3600)",
        "streaming": {
            "samples": chunked_report.published,
            # Chunked replay, chunk_size=_CHUNK_SIZE.
            "seconds": round(chunked_report.duration_s, 4),
            "samples_per_sec": round(chunked_report.rows_per_sec, 1),
            "achieved_speedup": round(chunked_report.achieved_speedup, 1),
            "chunk_size": _CHUNK_SIZE,
            "chunks": chunked_report.published_chunks,
            # One-row chunks (chunk_size=1): the per-sample stream.
            "per_sample_seconds": round(sample_report.duration_s, 4),
            "per_sample_samples_per_sec": round(sample_report.rows_per_sec, 1),
            "chunked_over_per_sample": round(chunked_speedup, 1),
        },
        "queries": {
            "workload": len(workload),
            "cold_queries_per_sec": _qps(cold_s),
            "warm_queries_per_sec": _qps(warm_s),
            "concurrent_queries_per_sec": _qps(concurrent_s),
            "mixed_queries_per_sec": round(mixed_qps, 1),
            "cache": info,
        },
    }
    write_bench_json("service", report)

    print("\nservice throughput (1-year hourly, 48 racks):")
    print(
        f"  streaming (per-sample): {sample_report.published} samples in"
        f" {sample_report.duration_s:.3f}s"
        f" -> {sample_report.rows_per_sec:.0f} samples/s"
    )
    print(
        f"  streaming (chunk={_CHUNK_SIZE}): {chunked_report.published} samples in"
        f" {chunked_report.duration_s:.3f}s"
        f" -> {chunked_report.rows_per_sec:.0f} samples/s"
        f" ({chunked_speedup:.0f}x)"
    )
    print(
        f"  queries: cold {_qps(cold_s):.0f}/s, warm {_qps(warm_s):.0f}/s,"
        f" concurrent {_qps(concurrent_s):.0f}/s, mixed {mixed_qps:.0f}/s"
    )

    assert sample_report.rows_per_sec > MIN_SAMPLES_PER_SEC
    assert chunked_report.rows_per_sec > MIN_SAMPLES_PER_SEC
    assert mixed_qps > MIN_QUERIES_PER_SEC
    if (os.cpu_count() or 1) >= CHUNK_GATE_CORES:
        assert chunked_speedup >= MIN_CHUNKED_SPEEDUP, (
            f"chunked replay only {chunked_speedup:.1f}x over per-sample"
        )
