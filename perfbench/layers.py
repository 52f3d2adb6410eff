"""Per-layer wrappers and the per-layer metrics computed from their spans.

:func:`install_wrappers` patches public functions of each layer of
``repro`` at run time, from the benchmark's own files; the program is
not edited.  :func:`layer_metrics` turns the recorded spans, plus
counters the workload read from the program (``facts``), into the
per-layer metrics of ``BENCHMARK.json``.  Every traced run reports
every metric; a layer a workload bypasses reads 0.

Span metrics ending in ``_ms``/``_s`` are medians per call, except the
run totals ``bus.publish_blocked_s``, ``windows.synthesize_s``,
``ml.train_s`` and ``pool.wall_s``.  ``http.handle_ms`` is self time:
the span minus the parse, execute and encode spans inside it.
"""

from __future__ import annotations

import statistics
import time
from typing import Collection, Dict, List, Optional, Sequence

from perfbench.harness import END_TO_END
from perfbench.tracing import TRACE_HEADER, Tracer, install, self_times

TRACE_KEY = TRACE_HEADER.lower()

#: Section builders of the paper report, in report order.
SECTION_NAMES = (
    "fig2_rows", "fig3_rows", "fig4_rows", "fig5_rows", "fig6_rows",
    "fig7_rows", "fig8_rows", "fig9_rows", "fig10_11_rows", "fig14_15_rows",
)
SUBSCRIBERS = ("rollups", "predictor", "cusum")

#: (metric, unit) for every per-layer metric, grouped by layer.
PER_LAYER = (
    # service.http
    ("http.handle_ms", "ms"), ("http.outside_app_ms", "ms"),
    ("http.parse_ms", "ms"), ("http.encode_ms", "ms"),
    ("http.requests", "count"), ("http.failed", "count"),
    # service.http ingest + collectors
    ("ingest.gateway_ms", "ms"), ("ingest.decode_ms", "ms"),
    ("ingest.client_ms", "ms"), ("ingest.rejected_429", "count"),
    ("ingest.retries", "count"),
    # service.query
    ("query.execute_ms", "ms"), ("query.cache_hit_rate", "ratio"),
    ("query.cache_evictions", "count"), ("query.cache_invalidations", "count"),
    # service.rollup
    ("rollup.from_database_s", "s"), ("rollup.window_ms", "ms"),
    ("rollup.add_block_ms", "ms"), ("rollup.rows_per_add_block", "rows"),
    # telemetry
    ("database.append_block_ms", "ms"), ("database.committed_rows_ms", "ms"),
    ("archive.load_s", "s"), ("digest.info_ms", "ms"),
    ("digest.hashed_chunks", "count"), ("digest.reused_chunks", "count"),
    # simulation
    ("engine.run_s", "s"), ("windows.synthesize_s", "s"), ("windows.count", "count"),
    # ml
    ("ml.train_s", "s"), ("ml.train_calls", "count"),
    # service.bus, service.resilience
    ("bus.chunks", "count"), ("bus.publish_blocked_s", "s"),
    *((f"bus.{name}.queue_wait_ms", "ms") for name in SUBSCRIBERS),
    *((f"bus.{name}.dropped", "count") for name in SUBSCRIBERS),
    ("supervisor.restarts", "count"), ("supervisor.degradations", "count"),
    # monitoring
    ("predictor.consume_ms", "ms"), ("predictor.predictions", "count"),
    ("alerts.raised", "count"), ("cusum.consume_ms", "ms"), ("cusum.alarms", "count"),
    # service.durability
    ("wal.append_ms", "ms"), ("wal.bytes", "bytes"), ("snapshot.save_ms", "ms"),
    ("snapshot.bytes", "bytes"), ("durability.write_amplification", "ratio"),
    # core (experiments)
    *((f"report.section.{name}_ms", "ms") for name in SECTION_NAMES),
    ("report.fig12_ms", "ms"), ("report.fig13_s", "s"),
    # analytics.incremental
    ("memo.load_ms", "ms"), ("memo.store_ms", "ms"), ("memo.fold_ms", "ms"),
    ("memo.hits", "count"), ("memo.misses", "count"), ("memo.state_appends", "count"),
    ("memo.bytes", "bytes"),
    # parallel
    ("pool.tasks", "count"), ("pool.wall_s", "s"), ("pool.busy_share", "ratio"),
)

#: Every workload's own named figures, with units, each defined on the
#: workload it names; recorded, not bounded (see README.md).
FIGURES = (
    ("query_p50_ms", "ms"), ("query_p98_ms", "ms"), ("query_per_s", "1/s"),
    ("ingest_p50_ms", "ms"), ("ingest_p99_ms", "ms"), ("ingest_samples_per_s", "1/s"),
    ("replay_samples_per_s", "1/s"), ("cold_report_s", "s"), ("sections_report_s", "s"),
    ("warm_report_ms", "ms"), ("append_report_s", "s"),
)

#: The traced run's own end-to-end metrics and figures, for the tracing
#: overhead; a figure the workload does not define reads 0.
TRACED = tuple((f"traced.{name}", unit) for name, unit in END_TO_END + FIGURES)

#: metric -> span name, for the plain median-per-call metrics.
_SPAN_MEDIANS = {
    "http.parse_ms": "http.parse",
    "ingest.gateway_ms": "ingest.gateway",
    "ingest.decode_ms": "ingest.decode",
    "ingest.client_ms": "ingest.client",
    "query.execute_ms": "query.execute",
    "rollup.from_database_s": "rollup.from_database",
    "rollup.window_ms": "rollup.window",
    "rollup.add_block_ms": "rollup.add_block",
    "database.append_block_ms": "database.append_block",
    "database.committed_rows_ms": "database.committed_rows",
    "archive.load_s": "archive.load",
    "digest.info_ms": "digest.info",
    "engine.run_s": "engine.run",
    "wal.append_ms": "wal.append",
    "snapshot.save_ms": "snapshot.save",
    "report.fig12_ms": "report.fig12",
    "report.fig13_s": "report.fig13",
    "memo.load_ms": "memo.load",
    "memo.store_ms": "memo.store",
    "memo.fold_ms": "memo.fold",
    **{f"report.section.{name}_ms": f"report.section.{name}" for name in SECTION_NAMES},
}
_SPAN_TOTALS = {
    "bus.publish_blocked_s": "bus.offer",
    "windows.synthesize_s": "windows.synthesize",
    "ml.train_s": "ml.train",
}
#: Thread-CPU medians (the subscriber threads share the interpreter).
_CPU_MEDIANS = {"predictor.consume_ms": "predictor.consume", "cusum.consume_ms": "cusum.consume"}


def _scale(metric: str) -> float:
    return 1e3 if metric.endswith("_ms") else 1.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def install_wrappers(tracer: Tracer, spans: Optional[Collection[str]] = None) -> None:
    """Patch the traced entry points of ``repro``; call once per process.

    ``spans`` limits the patches to those recording the named spans
    (``None``: all of them).  A load generator passes only its client
    spans, so the program's layers are traced in the server alone.
    """
    import repro.analytics.incremental.memo as memo
    import repro.analytics.incremental.sections as incremental
    import repro.core.experiments as experiments
    import repro.ml.train as train
    import repro.parallel as parallel
    import repro.service.bus as bus
    import repro.service.durability as durability
    import repro.service.http.app as app
    import repro.service.http.collectors as collectors
    import repro.service.http.ingest as ingest
    import repro.service.http.server as server
    import repro.service.query as query
    import repro.service.resilience as resilience
    import repro.service.rollup as rollup
    import repro.service.subscribers as subscribers
    import repro.simulation.engine as engine
    import repro.simulation.windows as windows
    import repro.telemetry.archive as archive
    import repro.telemetry.database as database

    def span(name, before=None, after=None):
        def factory(fn):
            return tracer.wrap(fn, name, before, after)

        factory.span_name = name
        return factory

    def read_trace(args, kwargs):
        headers = kwargs.get("headers", args[5] if len(args) > 5 else None) or {}
        tracer.set_trace(next(
            (value for key, value in headers.items() if key.lower() == TRACE_KEY), None
        ))

    def chunk_trace(args, kwargs):
        tracer.set_trace(f"chunk-{args[1].seq}")

    enqueued: Dict = {}

    def offer_stamp(args, kwargs):
        enqueued[(args[0].name, args[1].seq)] = time.perf_counter()

    def queue_wait(args, kwargs):
        chunk_trace(args, kwargs)
        stamped = enqueued.pop((args[0].name, args[1].seq), None)
        if stamped is not None:
            tracer.record(f"bus.{args[0].name}.queue_wait", stamped, time.perf_counter())

    def pool_workers(result, args, kwargs):
        requested = kwargs.get("workers", args[2] if len(args) > 2 else None)
        tasks = len(result)
        workers = parallel.resolve_workers(requested, max_tasks=tasks) if tasks > 1 else 1
        return {"tasks": tasks, "workers": workers}

    patches = [
        (app.OperationsApp, "handle", span(
            "http.handle", read_trace, lambda result, args, kwargs: {"status": result[0]})),
        (app, "parse_query", span("http.parse")),
        (app, "encode_result", span("http.encode")),
        (server, "dumps", span("http.encode")),
        (app, "decode_batch", span("ingest.decode")),
        (ingest.IngestGateway, "ingest", span("ingest.gateway")),
        (collectors.IngestClient, "post_batch", span("ingest.client")),
        (query.QueryEngine, "execute_versioned", span("query.execute")),
        (rollup.RollupStore, "from_database", span("rollup.from_database")),
        (rollup.RollupStore, "window", span("rollup.window")),
        (rollup.RollupStore, "add_block", span(
            "rollup.add_block", after=lambda result, args, kwargs: {"rows": len(args[1])})),
        (database.EnvironmentalDatabase, "append_block", span("database.append_block")),
        (database.EnvironmentalDatabase, "committed_rows", span("database.committed_rows")),
        (database.EnvironmentalDatabase, "digest_info", span(
            "digest.info", after=lambda result, args, kwargs: {
                "hashed": result.hashed_chunks, "reused": result.reused_chunks})),
        (archive.TelemetryArchive, "load", span("archive.load")),
        (engine.FacilityEngine, "run", span("engine.run")),
        (windows.WindowSynthesizer, "positive_windows", span(
            "windows.synthesize", after=lambda result, args, kwargs: {"count": len(result)})),
        (windows.WindowSynthesizer, "negative_windows", span(
            "windows.synthesize", after=lambda result, args, kwargs: {"count": len(result)})),
        (train, "train_classifier", span("ml.train")),
        (bus.Subscription, "_offer", span("bus.offer", offer_stamp)),
        (resilience.SupervisedSubscriber, "__call__", span("bus.deliver", queue_wait)),
        (subscribers.PredictorSubscriber, "__call__", span("predictor.consume")),
        (subscribers.CusumSubscriber, "__call__", span("cusum.consume")),
        (durability.WriteAheadLog, "append", span("wal.append")),
        (durability.SnapshotStore, "save", span(
            "snapshot.save", after=lambda result, args, kwargs: {
                "bytes": args[0]._path(args[1]).stat().st_size})),
        (experiments, "fig12_rows", span("report.fig12")),
        (experiments, "fig13_rows", span("report.fig13")),
        (memo.SectionMemoStore, "load_rows", span("memo.load")),
        (memo.SectionMemoStore, "load_state", span("memo.load")),
        (memo.SectionMemoStore, "store_rows", span("memo.store")),
        (memo.SectionMemoStore, "store_state", span("memo.store")),
        (incremental, "advance_state", span("memo.fold")),
        (parallel, "pmap", span("pool.map", after=pool_workers)),
        (parallel, "_run_chunk", span("pool.chunk", after=lambda result, args, kwargs: {
            "tasks": len(result)})),
    ]
    patches += [
        (experiments, name, span(f"report.section.{name}")) for name in SECTION_NAMES
    ]
    if spans is not None:
        patches = [patch for patch in patches if patch[2].span_name in spans]
    install(patches)
    # The report dispatches sections through its own name -> builder map.
    for name in SECTION_NAMES:
        experiments._BUILDERS_BY_NAME[name] = getattr(experiments, name)


def outside_app_ms(spans: Sequence[Dict], client_s_by_trace: Dict[str, float]) -> float:
    """Median per request of client latency minus the ``handle`` span."""
    handled = {s["trace"]: s["end"] - s["start"] for s in spans if s["name"] == "http.handle"}
    gaps = [
        seconds - handled[trace]
        for trace, seconds in client_s_by_trace.items()
        if trace in handled
    ]
    return _median(gaps) * 1e3


def layer_metrics(spans: Sequence[Dict], facts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, from spans plus workload-read counters."""
    by_name: Dict[str, List[Dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name: str) -> List[float]:
        return [s["end"] - s["start"] for s in by_name.get(name, ())]

    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for metric, name in _SPAN_MEDIANS.items():
        values[metric] = _median(durations(name)) * _scale(metric)
    for metric, name in _SPAN_TOTALS.items():
        values[metric] = sum(durations(name))
    for metric, name in _CPU_MEDIANS.items():
        values[metric] = _median([s["cpu"] for s in by_name.get(name, ())]) * 1e3

    handles = by_name.get("http.handle", [])
    own = self_times(spans) if handles else {}
    values["http.handle_ms"] = _median([own[s["id"]] for s in handles]) * 1e3
    values["http.requests"] = len(handles)
    values["http.failed"] = sum(1 for s in handles if s.get("status", 500) >= 400)
    encode_by_trace: Dict[str, float] = {}
    for span in by_name.get("http.encode", ()):
        if span.get("trace") is not None:
            encode_by_trace[span["trace"]] = (
                encode_by_trace.get(span["trace"], 0.0) + span["end"] - span["start"]
            )
    values["http.encode_ms"] = _median(list(encode_by_trace.values())) * 1e3

    adds = by_name.get("rollup.add_block", [])
    values["rollup.rows_per_add_block"] = (
        sum(s.get("rows", 0) for s in adds) / len(adds) if adds else 0.0
    )
    digests = by_name.get("digest.info", [])
    values["digest.hashed_chunks"] = sum(s.get("hashed", 0) for s in digests)
    values["digest.reused_chunks"] = sum(s.get("reused", 0) for s in digests)
    values["windows.count"] = sum(s.get("count", 0) for s in by_name.get("windows.synthesize", ()))
    values["ml.train_calls"] = len(by_name.get("ml.train", ()))
    for name in SUBSCRIBERS:
        values[f"bus.{name}.queue_wait_ms"] = _median(
            durations(f"bus.{name}.queue_wait")
        ) * 1e3
    values["snapshot.bytes"] = sum(s.get("bytes", 0) for s in by_name.get("snapshot.save", ()))

    chunks = by_name.get("pool.chunk", [])
    pooled = [s for s in by_name.get("pool.map", ()) if s.get("workers", 1) > 1]
    values["pool.tasks"] = sum(s.get("tasks", 0) for s in chunks)
    values["pool.wall_s"] = sum(s["end"] - s["start"] for s in pooled)
    capacity = sum(s["workers"] * (s["end"] - s["start"]) for s in pooled)
    values["pool.busy_share"] = (
        sum(s["end"] - s["start"] for s in chunks) / capacity if capacity else 0.0
    )

    for name, value in facts.items():
        if name not in values:
            raise KeyError(f"unknown per-layer metric {name!r}")
        values[name] = value
    return values
