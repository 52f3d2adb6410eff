"""``ingest``: collector writes beside dashboard reads, over HTTP.

Setup starts ``repro serve-http --days 365 --seed S --dt 3600 --port 0``
(the strict ingest policy, as shipped); ``setup_s`` runs from the spawn
to the first 200 from ``/healthz``, median of :data:`SETUPS` starts.

Two threads share the last server; after :data:`WARMUP_POSTS` untimed
batches the measured window runs for :data:`TIMED_POSTS` more (a fixed
amount of work: ``--seconds`` does not change it):

* the writer posts the following weeks of the same facility through
  the shipped ``IngestClient.post_batch`` (a new TCP connection per
  POST), simulated by ``SimulatedPollerCollector.poll_once`` from the
  server's last epoch at the monitors' 300 s cadence, one hour (12
  samples) per batch;
* the reader holds one keep-alive connection and queries the live edge
  (the current hour and day, as dashboard panels do) and older weeks,
  in a mix that is an assumption (see README.md).

The work is in ``decode_batch``, ``append_block``, the rollup fold and
query-cache invalidation; the reads show what writes cost readers.
Checks: the server's committed sample count equals what was posted,
and live-edge aggregates equal a direct ``append_block`` +
``RollupStore.add_block`` reference over the same year.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from perfbench.harness import HttpClient, Outcome, Run, Server, traced_outcome
from perfbench.layers import outside_app_ms
from perfbench.stats import Tally, median, percentile
from perfbench.tracing import load_spans

#: In the benchmark process only the collector client is traced; the
#: reference replay there is the benchmark's own work.
TRACED_IN_PROCESS = ("ingest.client",)

YEAR_DAYS = 365
DT_S = 3600.0
CADENCE_S = 300.0
BATCH_SAMPLES = 12
SETUPS = 2
#: Untimed POSTs before the measured window.  The first seconds of
#: writes beside reads run slow (POSTs of 20-50 ms cluster there).
WARMUP_POSTS = 250
#: Timed POSTs: a fixed amount of work, so the server's peak RSS does not
#: depend on how fast it ingested; 10 of them lie beyond the p99.
TIMED_POSTS = 1000
MAX_LOAD_S = 120.0
#: Channels and statistics compared at the live edge after the load.
CHECK_STATS = ("mean", "max")
#: Reader mix: shares of current-hour and current-day panels; the rest
#: read one older week.  An assumption, not a measured mix.
HOUR_SHARE = 0.4
DAY_SHARE = 0.4


def _current(edge: float, span: float) -> float:
    """Start of the ``span``-aligned bucket holding the live edge."""
    return float(np.floor(edge / span) * span)


def _reader_path(rng, edge: float, start: float, channels):
    """One reader query: mostly dashboard panels on the live edge.

    Panels cover the current hour and day, so repeated reads hit the
    query cache until a new batch lands inside their window and
    invalidates them; the rest read one of the year's weeks.
    """
    from repro.service.http.protocol import query_path
    from repro.service.query import Query

    channel = channels[int(rng.integers(len(channels)))]
    draw = rng.random()
    if draw < HOUR_SHARE + DAY_SHARE:
        span = 3600.0 if draw < HOUR_SHARE else 86400.0
        lo = _current(edge, span)
        query = Query("aggregate", channel, lo, lo + span)
    else:
        lo = start + int(rng.integers(YEAR_DAYS // 7)) * 7 * 86400.0
        query = Query("aggregate", channel, lo, lo + 7 * 86400.0)
    return query_path(query.kind, query)


def _edge_queries(edge: float, channels):
    from repro.service.query import Query

    return [
        Query("aggregate", channel, _current(edge, span), _current(edge, span) + span, stat=stat)
        for channel in channels
        for stat in CHECK_STATS
        for span in (3600.0, 86400.0)
    ]


def run(run: Run) -> Outcome:
    from repro.service import QueryEngine, RollupStore
    from repro.service.http.collectors import IngestClient, IngestClientError
    from repro.service.http.collectors import SimulatedPollerCollector
    from repro.service.http.protocol import dumps, encode_result, query_path
    from repro.simulation import FacilityEngine, MiraScenario
    from repro.telemetry.records import CHANNELS

    args = ["--days", str(YEAR_DAYS), "--seed", str(run.seed), "--dt", str(DT_S), "--port", "0"]
    setups, servers = [], []
    for index in range(SETUPS):
        if servers:
            servers[-1].stop()
        servers.append(Server(run, args, tag=str(index)))
        setups.append(servers[-1].setup_s)
    server = servers[-1]
    tally = Tally()
    try:
        probe = HttpClient(server.port, "probe")
        status, health, _, _ = probe.get("/healthz")
        probe.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        start, last = health["epoch_bounds"]
        base_rows = health["ingested_rows"]
        client = IngestClient(f"http://127.0.0.1:{server.port}", collector="perfbench")
        poller = SimulatedPollerCollector(
            client,
            num_racks=health["num_racks"],
            start_epoch_s=last + CADENCE_S,
            interval_s=CADENCE_S,
            seed=run.seed,
        )
        stop, measuring = threading.Event(), threading.Event()
        posted, post_s, reads, window = [], [], [], []
        edge = [last]
        deadline = time.monotonic() + MAX_LOAD_S

        def writer() -> None:
            try:
                while len(posted) < WARMUP_POSTS + TIMED_POSTS and time.monotonic() < deadline:
                    if len(posted) == WARMUP_POSTS and not measuring.is_set():
                        window.append(time.perf_counter())
                        measuring.set()
                    polls = [poller.poll_once() for _ in range(BATCH_SAMPLES)]
                    epochs = np.array([epoch for epoch, _ in polls])
                    channels = {
                        ch: np.stack([sample[ch] for _, sample in polls]) for ch in CHANNELS
                    }
                    begin = time.perf_counter()
                    try:
                        reply = client.post_batch(epochs, channels)
                    except IngestClientError as exc:
                        tally.fail(f"ingest {exc.status}")
                        continue
                    if measuring.is_set():
                        post_s.append(time.perf_counter() - begin)
                    posted.append((epochs, channels, reply["committed_samples"]))
                    edge[0] = float(epochs[-1])
                window.append(time.perf_counter())
            finally:
                stop.set()

        def reader() -> None:
            http = HttpClient(server.port, "r")
            rng = np.random.default_rng([run.seed, 3])
            try:
                while not stop.is_set():
                    path = _reader_path(rng, edge[0], start, CHANNELS)
                    status, _, seconds, trace = http.get(path)
                    if measuring.is_set():
                        reads.append((seconds, status, trace))
            finally:
                http.close()

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(window) != 2:
            raise RuntimeError(f"ingest load ended after {len(posted)} POSTs")
        wall = window[1] - window[0]
        edge_answers = {}
        checker = HttpClient(server.port, "check")
        for query in _edge_queries(edge[0], CHANNELS):
            status, body, _, _ = checker.get(query_path(query.kind, query))
            edge_answers[query] = body if tally.check(status == 200, f"HTTP {status}") else None
        checker.close()
        metrics_doc = server.metrics()
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    for client_counter in ("backpressure_hits", "transport_failures", "server_errors"):
        if getattr(client.counters, client_counter):
            tally.fail(f"ingest {client_counter}", getattr(client.counters, client_counter))
    tally.ok(len(post_s))
    read_s, read_s_by_trace = [], {}
    for seconds, status, trace in reads:
        if tally.check(status == 200, f"HTTP {status}"):
            read_s.append(seconds)
            read_s_by_trace[trace] = seconds

    # Reference: the same year, then exactly the posted batches, folded
    # the way the gateway folds them.
    database = FacilityEngine(MiraScenario.demo(days=YEAR_DAYS, seed=run.seed, dt_s=DT_S)).run().database
    store = RollupStore.from_database(database)
    tally.check(database.num_samples == base_rows, "server started from different data")
    for epochs, channels, committed in posted:
        folded = database.committed_samples
        database.append_block(epochs, channels)
        store.add_block(*database.committed_rows(folded, database.committed_samples))
        tally.check(committed == database.committed_samples, "committed count differs")
    samples_posted = BATCH_SAMPLES * len(posted)
    timed_samples = BATCH_SAMPLES * len(post_s)
    tally.check(
        metrics_doc["ingest"]["committed_samples"] == base_rows + samples_posted,
        "server committed a different sample count",
    )
    engine = QueryEngine(store)
    for query, body in edge_answers.items():
        if body is None:
            continue
        result, _ = engine.execute_versioned(query)
        expected = encode_result(result, 0)
        got = dict(body, store_version=0)
        tally.check(got == json.loads(dumps(expected)), "live-edge answer differs")

    ingest_p50 = percentile(post_s, 0.5) * 1e3
    rate = timed_samples / wall
    outcome = Outcome(
        tally=tally,
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "latency_ms": ingest_p50,
            "throughput_per_s": rate,
        },
        figures={
            "query_p50_ms": percentile(read_s, 0.5) * 1e3,
            "ingest_p50_ms": ingest_p50,
            "ingest_p99_ms": percentile(post_s, 0.99) * 1e3,
            "ingest_samples_per_s": rate,
        },
        samples={
            "setup_s": len(setups),
            "latency_ms": len(post_s),
            "throughput_per_s": timed_samples,
            "query_p50_ms": len(read_s),
            "ingest_p99_ms": len(post_s),
        },
        notes={
            "load_s": wall,
            "batches": len(posted),
            "warmup_batches": len(posted) - len(post_s),
            "cache": metrics_doc["cache"],
        },
    )
    if not run.trace:
        return outcome
    spans = run.tracer.spans + load_spans(s.spans_path for s in servers)
    cache = metrics_doc["cache"]
    facts = {
        "http.outside_app_ms": outside_app_ms(spans, read_s_by_trace),
        "ingest.rejected_429": client.counters.backpressure_hits,
        "ingest.retries": client.counters.retries,
        "query.cache_hit_rate": cache["hit_rate"],
        "query.cache_evictions": cache["evictions"],
        "query.cache_invalidations": cache["invalidations"],
    }
    return traced_outcome(run, outcome, spans, facts)
