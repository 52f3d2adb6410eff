"""``stream``: the live service in-process, no HTTP and no report.

Setup simulates one year at hourly cadence, synthesizes that
realization's lead-up windows, trains the online CMF predictor on them
and constructs a :class:`~repro.service.LiveOperationsService` carrying
rollups, the predictor plus alert engine, and CUSUM.  Every subscriber
uses the ``block`` policy (``drop_oldest`` would shed a timing-dependent
share of chunks), chunk size is the shipped default, and durability is
on: WAL plus snapshots in a per-pass directory, fsync at the shipped
default (off).

Each pass replays the same span of the year through a fresh service
with :meth:`run`; passes repeat until ``--seconds`` of replay have been
measured (at least :data:`MIN_PASSES`).  ``latency_ms`` is the median
pass (input to complete result for the whole span) and
``throughput_per_s`` the median of the passes' sample rates.  Peak
memory is the benchmark process's VmHWM over the passes alone: it is
reset after the set-ups and the reference, which are not the replay's.
Every pass is checked: no drops, no restarts, every subscriber consumed
every sample, and the final rollups equal ``RollupStore.from_database``
over the span.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from perfbench.harness import (
    Outcome,
    Run,
    peak_rss_mb,
    reset_peak_rss,
    rollups_match,
    traced_outcome,
)
from perfbench.layers import SUBSCRIBERS
from perfbench.stats import Tally, median
from perfbench.tracing import load_spans

#: The whole stack runs in the benchmark process; the reference replay
#: runs with the tracer paused.
TRACED_IN_PROCESS = None

YEAR_DAYS = 365
DT_S = 3600.0
#: Replayed span per pass: the first 36 days of the year (~2 s a pass).
#: Single passes scatter by +-15% (thread scheduling under the GIL), so
#: the rate is the median of many short passes rather than a few long.
SPAN_DAYS = 36
SETUPS = 3
MIN_PASSES = 5


def _setup(seed: int):
    """Simulation, windows, training: everything a pass reuses."""
    from repro.monitoring.online import train_online_predictor
    from repro.simulation import FacilityEngine, MiraScenario, WindowSynthesizer

    result = FacilityEngine(MiraScenario.demo(days=YEAR_DAYS, seed=seed, dt_s=DT_S)).run()
    synthesizer = WindowSynthesizer(result)
    positives = synthesizer.positive_windows()
    negatives = synthesizer.negative_windows(len(positives))
    model = train_online_predictor(positives, negatives)
    return result, model


def _service(result, model, directory):
    from repro.service import DurabilityConfig, LiveOperationsService, ServiceConfig

    start = result.start_epoch_s
    return LiveOperationsService(
        result.database,
        model=model,
        cusum=True,
        config=ServiceConfig(
            analytics_policy="block",
            durability=DurabilityConfig(directory=directory),
        ),
        start_epoch_s=start,
        end_epoch_s=start + SPAN_DAYS * 86400.0,
    )


def _span_reference(result):
    """``from_database`` over exactly the replayed rows."""
    from repro.service import RollupStore
    from repro.telemetry.database import EnvironmentalDatabase
    from repro.telemetry.records import CHANNELS

    database = result.database
    epoch = np.asarray(database.epoch_s)
    stop = int(np.searchsorted(epoch, result.start_epoch_s + SPAN_DAYS * 86400.0))
    span = EnvironmentalDatabase(num_racks=database.num_racks, capacity_hint=stop)
    span.append_block(
        epoch[:stop].copy(),
        {ch: np.asarray(database.channel(ch).values[:stop]).copy() for ch in CHANNELS},
    )
    span.flush()
    for ch in CHANNELS:
        span.overwrite_quality(ch, 0, np.asarray(database.quality(ch)[:stop]).copy())
    return RollupStore.from_database(span), stop


def run(run: Run) -> Outcome:
    setups, first = [], None
    for _ in range(SETUPS):
        if first is not None:
            first.abort()  # stops its subscriber threads and closes its WAL
            del first, result, model  # one set-up's data alive at a time
        begin = time.perf_counter()
        result, model = _setup(run.seed)
        first = _service(result, model, run.path("durable-0"))
        setups.append(time.perf_counter() - begin)

    tally = Tally()
    with run.paused():
        reference, span_rows = _span_reference(result)
    rates, passes_s, facts = [], [], {name: 0.0 for name in (
        "bus.chunks", "supervisor.restarts", "supervisor.degradations",
        "predictor.predictions", "alerts.raised", "cusum.alarms", "wal.bytes",
        *(f"bus.{name}.dropped" for name in SUBSCRIBERS),
    )}
    replayed = measured = 0.0
    service = first
    del first
    reset_peak_rss()
    while len(rates) < MIN_PASSES or measured < run.seconds:
        directory = run.path(f"durable-{len(rates)}")
        if service is None:
            service = _service(result, model, directory)
        begin = time.perf_counter()
        report = service.run()
        wall = time.perf_counter() - begin
        measured += wall
        published = report.bus.published
        rates.append(published / wall)
        passes_s.append(wall)
        replayed += published

        tally.check(published == span_rows, "replay skipped rows")
        for name in SUBSCRIBERS:
            counters = report.bus.subscribers[name]
            supervision = report.supervision[name]
            tally.ok(counters.delivered_chunks)
            if counters.dropped_chunks or counters.delivered != published:
                tally.fail(f"{name} dropped chunks", max(1, counters.dropped_chunks))
            if supervision.crashes or supervision.restarts or supervision.gave_up:
                tally.fail(f"{name} restarted", max(1, supervision.restarts))
            if supervision.hangs:
                tally.fail(f"{name} degraded", supervision.hangs)
            facts[f"bus.{name}.dropped"] += counters.dropped_chunks
            facts["supervisor.restarts"] += supervision.restarts
            facts["supervisor.degradations"] += supervision.hangs
        tally.check(rollups_match(service.rollups, reference), "rollups differ from from_database")
        facts["bus.chunks"] += report.bus.published_chunks
        facts["predictor.predictions"] += report.predictions
        facts["alerts.raised"] += len(report.alerts)
        facts["cusum.alarms"] += len(report.alarms)
        wal = directory / "wal.bin"
        facts["wal.bytes"] += wal.stat().st_size if wal.exists() else 0
        service = report = None
        shutil.rmtree(directory, ignore_errors=True)

    rate = median(rates)
    outcome = Outcome(
        tally=tally,
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms": median(passes_s) * 1e3,
            "throughput_per_s": rate,
        },
        figures={"replay_samples_per_s": rate},
        samples={
            "setup_s": len(setups),
            "latency_ms": len(passes_s),
            "throughput_per_s": len(rates),
        },
        notes={
            "replayed_rows_per_pass": span_rows,
            "passes_s": passes_s,
            "policy": "block",
            "chunk_size": "default",
            "durability": "WAL + snapshots, fsync off (shipped default)",
        },
    )
    if not run.trace:
        return outcome
    spans = run.tracer.spans
    from repro.telemetry.records import CHANNELS

    telemetry_bytes = replayed * result.database.num_racks * len(CHANNELS) * 8
    snapshot_bytes = sum(s.get("bytes", 0) for s in spans if s["name"] == "snapshot.save")
    facts["durability.write_amplification"] = (
        (facts["wal.bytes"] + snapshot_bytes) / telemetry_bytes
    )
    return traced_outcome(run, outcome, spans + load_spans(run.directory.glob("spans-*.json")), facts)
