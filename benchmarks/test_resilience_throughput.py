"""Resilience overhead: durable streaming cost and recovery speed.

Times the crash-safety layer over a one-year, 48-rack realization at
hourly cadence:

* **durable streaming** — the full supervised service (rollups
  subscribed, chunked delivery) with and without
  :class:`~repro.service.DurabilityConfig`, so the WAL append per chunk
  plus periodic snapshots show up as a relative overhead on the same
  ingest path :mod:`benchmarks.test_service_throughput` measures, and
* **recovery** — :meth:`~repro.service.LiveOperationsService.recover`
  over the full-year write-ahead log with snapshots disabled
  (``snapshot_every_samples=0``), i.e. the worst case where every
  logged chunk must replay through the rollup store.

Results are written to ``BENCH_resilience.json`` at the repo root.
The gates mirror the acceptance criteria: durability may cost at most
``MAX_DURABLE_OVERHEAD`` of chunked throughput (gated on multi-core
machines where the comparison is stable), and WAL replay must restore
at least ``MIN_RECOVERY_SAMPLES_PER_SEC`` samples/s.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict

from _bench_json import write_bench_json
from repro.service import (
    DurabilityConfig,
    LiveOperationsService,
    RollupStore,
    ServiceConfig,
    WriteAheadLog,
)
from repro.simulation import FacilityEngine, MiraScenario


#: Durable streaming may cost at most this fraction of plain chunked
#: throughput (WAL append + snapshot pickles per chunk).  Measured:
#: single-digit percent; 20% is the acceptance ceiling.
MAX_DURABLE_OVERHEAD = 0.20
#: ... gated on machines with at least this many cores.
OVERHEAD_GATE_CORES = 4
#: Floor on full-WAL replay through the rollup store, in samples per
#: CPU second (recovery is single-threaded; wall clock on shared
#: runners measures the neighbours).
MIN_RECOVERY_SAMPLES_PER_SEC = 10_000.0

_DAYS = 365
_CHUNK_SIZE = 2048


def _year_result():
    config = MiraScenario.demo(days=_DAYS, seed=17, dt_s=3600.0)
    return FacilityEngine(config).run()


def _service_config(durability=None) -> ServiceConfig:
    return ServiceConfig(
        chunk_size=_CHUNK_SIZE,
        analytics_policy="block",
        durability=durability,
    )


def _stream_best(database, trials: int, durability=None):
    """Best-of-``trials`` full service replays (fresh store each time)."""
    best = None
    for _ in range(trials):
        service = LiveOperationsService(
            database, config=_service_config(durability)
        )
        report = service.run()
        assert report.bus.published == database.num_samples
        if best is None or report.bus.rows_per_sec > best.bus.rows_per_sec:
            best = report
    return best


def test_resilience_throughput():
    result = _year_result()
    database = result.database
    state_root = Path(tempfile.mkdtemp(prefix="repro-resilience-bench-"))
    try:
        # -- durable vs plain chunked streaming --
        plain = _stream_best(database, trials=3)
        durability = DurabilityConfig(
            directory=state_root / "durable",
            # Snapshots disabled: the final-state snapshot would let
            # recovery skip the replay this benchmark exists to time,
            # and the WAL cost alone is the steady-state overhead.
            snapshot_every_samples=0,
        )
        shutil.rmtree(durability.root, ignore_errors=True)
        durable = _stream_best(database, trials=3, durability=durability)
        overhead = 1.0 - durable.bus.rows_per_sec / plain.bus.rows_per_sec
        wal_bytes = durability.wal_path.stat().st_size

        # -- recovery: full-WAL replay, no snapshots --
        # Best-of-5, like the streaming side: recovery is repeatable
        # (the WAL is not consumed), and a single wall-clock sample is
        # hostage to scheduler noise on small shared machines.
        # The gate itself runs on CPU seconds: recovery is
        # single-threaded, and on shared runners wall clock measures the
        # neighbours, not the replay.
        config = _service_config(durability)
        recovered = None
        recovery_s = float("inf")
        recovery_cpu_s = float("inf")
        for _ in range(5):
            if recovered is not None:
                recovered.abort(join_timeout_s=5.0)
            t0 = time.perf_counter()
            c0 = time.process_time()
            recovered = LiveOperationsService.recover(database, config=config)
            recovery_cpu_s = min(recovery_cpu_s, time.process_time() - c0)
            recovery_s = min(recovery_s, time.perf_counter() - t0)
        recovery = recovered.recovery
        # WAL integrity, checked outside the timed region: scan decodes
        # the full log (tens of MB of arrays) and must not be resident
        # while recovery is being timed.
        records, _, torn = WriteAheadLog.scan(durability.wal_path)
        assert not torn
        assert sum(len(r) for r in records) == database.num_samples
        del records
        assert recovery.wal_samples == database.num_samples
        assert recovery.component("rollups").samples_replayed == database.num_samples
        recovery_rate = recovery.wal_samples / recovery_cpu_s
        # Correctness, not just speed: the replayed store matches a
        # straight batch build from the database.
        batch = RollupStore.from_database(database)
        assert recovered.rollups.bucket_counts() == batch.bucket_counts()
        recovered.abort(join_timeout_s=5.0)
    finally:
        shutil.rmtree(state_root, ignore_errors=True)

    report: Dict[str, object] = {
        "scenario": f"demo(days={_DAYS}, seed=17, dt_s=3600)",
        "streaming": {
            "samples": plain.bus.published,
            "chunk_size": _CHUNK_SIZE,
            "plain_samples_per_sec": round(plain.bus.rows_per_sec, 1),
            "durable_samples_per_sec": round(durable.bus.rows_per_sec, 1),
            "durable_overhead": round(overhead, 4),
            "wal_bytes": wal_bytes,
        },
        "recovery": {
            "wal_records": recovery.wal_records,
            "wal_samples": recovery.wal_samples,
            "seconds": round(recovery_s, 4),
            "cpu_seconds": round(recovery_cpu_s, 4),
            "samples_per_sec": round(recovery_rate, 1),
        },
    }
    write_bench_json("resilience", report)

    print("\nresilience (1-year hourly, 48 racks):")
    print(
        f"  streaming: plain {plain.bus.rows_per_sec:.0f} samples/s,"
        f" durable {durable.bus.rows_per_sec:.0f} samples/s"
        f" ({overhead:+.1%} overhead, WAL {wal_bytes / 1e6:.1f}MB)"
    )
    print(
        f"  recovery: {recovery.wal_samples} samples from"
        f" {recovery.wal_records} WAL records in {recovery_s:.3f}s"
        f" wall / {recovery_cpu_s:.3f}s cpu -> {recovery_rate:.0f} samples/s"
    )

    assert recovery_rate > MIN_RECOVERY_SAMPLES_PER_SEC, (
        f"WAL replay only {recovery_rate:.0f} samples/s"
    )
    if (os.cpu_count() or 1) >= OVERHEAD_GATE_CORES:
        assert overhead <= MAX_DURABLE_OVERHEAD, (
            f"durability costs {overhead:.1%} of chunked throughput"
        )
