"""``dashboard``: read-only query serving over HTTP.

Setup simulates one year at hourly cadence and saves it with
``TelemetryArchive.save`` (untimed), then starts
``repro serve-http --archive <dir> --no-ingest --port 0`` as its own
process: threaded and read-only, as shipped.  ``setup_s`` runs from the
spawn to the first 200 from ``/healthz``; the server is started
:data:`SETUPS` times and the last one serves the load.

Traffic: ``generate_query_paths`` queries (point, series, aggregate over
facility, row and rack scopes), drawn with Zipf popularity (exponent
:data:`ZIPF_S`, an assumption: see README.md) from a pool of :data:`POOL`
distinct queries, four times the server's 1,024-entry cache.  Before the
timed load the cache is filled the way a long-running server's would
be: the :data:`CACHE_FILL` most popular queries, least popular first,
one per short-lived connection (untimed).  The timed load is a fixed
:data:`QUERIES` queries over :data:`CONNECTIONS` keep-alive connections
in a closed loop, each on its own thread, so the cache sees the same
hits, misses and evictions however fast the server answers.

Only HTTP framing, query parse and encode, the query cache and rollup
reads work here; ingest, bus, monitoring and report are bypassed.
The pool leaves out series the API refuses with 422 (more than
``MAX_SERIES_POINTS`` buckets), so every query can succeed.  Check: the
first :data:`CHECKED` distinct answers of each connection must equal
direct ``QueryEngine`` answers over ``RollupStore.from_database`` of the
same archive.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from perfbench.harness import HttpClient, Outcome, Run, Server, traced_outcome
from perfbench.layers import outside_app_ms
from perfbench.stats import Tally, median, percentile
from perfbench.tracing import TRACE_HEADER, load_spans

#: The benchmark process runs no program layer it should trace.
TRACED_IN_PROCESS = ()

YEAR_DAYS = 365
DT_S = 3600.0
SETUPS = 3
CONNECTIONS = 2
#: Distinct queries in the pool, against the server's 1,024-entry cache.
POOL = 4096
#: Zipf exponent of query popularity.
ZIPF_S = 1.0
#: Queries sent before timing to fill the cache: its capacity.
CACHE_FILL = 1024
#: Timed queries over all connections.  The tail reported is the p98,
#: the highest percentile with 10 samples beyond it (a p99 would need
#: 1,000 queries: 22 s a run under today's 44 ms stall).
QUERIES = 600
#: Distinct answers per connection compared against the direct engine.
CHECKED = 50


def _parse(path: str):
    from repro.service.http.protocol import parse_query

    split = urlsplit(path)
    return parse_query(split.path.rsplit("/", 1)[1], dict(parse_qsl(split.query)))


def _servable(store, query) -> bool:
    """False for series the API refuses (422) as too many buckets."""
    from repro.service.http.app import MAX_SERIES_POINTS

    if query.kind != "series":
        return True
    resolution = query.resolution_s or store.snap_resolution(
        query.start_epoch_s, query.end_epoch_s
    )
    return (query.end_epoch_s - query.start_epoch_s) / resolution <= MAX_SERIES_POINTS


def query_pool(health, seed: int, store):
    """``POOL`` distinct servable GET paths, most popular first, and their
    Zipf draw weights."""
    from repro.service.http import generate_query_paths

    start, end = health["epoch_bounds"]
    candidates = generate_query_paths(
        start, end, health["num_racks"], health["resolutions_s"], 2 * POOL, seed=seed
    )
    paths = [
        path for path in dict.fromkeys(candidates) if _servable(store, _parse(path))
    ][:POOL]
    if len(paths) < POOL:
        raise RuntimeError(f"query mix gave only {len(paths)} distinct paths")
    rng = np.random.default_rng([seed, 1])
    paths = [paths[i] for i in rng.permutation(len(paths))]
    weights = 1.0 / np.arange(1, len(paths) + 1) ** ZIPF_S
    return paths, weights / weights.sum()


def draws(seed: int, index: int, weights, count: int):
    """Pool indices connection ``index`` asks for, in order."""
    return np.random.default_rng([seed, 2, index]).choice(len(weights), size=count, p=weights)


def direct_answer(engine, path: str):
    """What the API should have said for ``path``, via the engine itself."""
    from repro.service.http.protocol import dumps, encode_result

    result, version = engine.execute_versioned(_parse(path))
    return json.loads(dumps(encode_result(result, version)))


def _fill_cache(port: int, paths, tally: Tally) -> None:
    """One GET per short-lived connection (no keep-alive stall), untimed.

    Trace ids start with ``fill-`` so traced runs can leave these
    requests out of the per-layer figures.
    """
    for index, path in enumerate(reversed(paths[:CACHE_FILL])):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        headers = {"Connection": "close", TRACE_HEADER: f"fill-{index}"}
        try:
            conn.request("GET", path, headers=headers)
            reply = conn.getresponse()
            reply.read()
            status = reply.status
        except (OSError, http.client.HTTPException):
            status = 0
        finally:
            conn.close()
        tally.check(status == 200, f"cache fill HTTP {status}")


def _load(port, paths, picks, index, records, checked) -> None:
    """One closed-loop connection: next query only after the last reply."""
    client = HttpClient(port, f"c{index}")
    try:
        for pick in picks:
            path = paths[pick]
            status, body, seconds, trace = client.get(path)
            records.append((seconds, status, trace))
            if status == 200 and path not in checked and len(checked) < CHECKED:
                checked[path] = body
    finally:
        client.close()


def run(run: Run) -> Outcome:
    from repro.service import QueryEngine, RollupStore
    from repro.simulation import FacilityEngine, MiraScenario
    from repro.telemetry.archive import TelemetryArchive

    result = FacilityEngine(MiraScenario.demo(days=YEAR_DAYS, seed=run.seed, dt_s=DT_S)).run()
    archive = TelemetryArchive.save(result.database, run.path("archive"))
    del result
    engine = QueryEngine(RollupStore.from_database(TelemetryArchive.load(archive, mmap=True)))
    args = ["--archive", str(archive), "--no-ingest", "--port", "0"]

    tally = Tally()
    setups, servers = [], []
    for index in range(SETUPS):
        if servers:
            servers[-1].stop()
        servers.append(Server(run, args, tag=str(index)))
        setups.append(servers[-1].setup_s)
    server = servers[-1]
    try:
        probe = HttpClient(server.port, "probe")
        status, health, _, _ = probe.get("/healthz")
        probe.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        paths, weights = query_pool(health, run.seed, engine.store)
        _fill_cache(server.port, paths, tally)
        before = server.metrics()["cache"]
        records = [[] for _ in range(CONNECTIONS)]
        checked = [{} for _ in range(CONNECTIONS)]
        threads = [
            threading.Thread(
                target=_load,
                args=(
                    server.port, paths, draws(run.seed, i, weights, QUERIES // CONNECTIONS),
                    i, records[i], checked[i],
                ),
            )
            for i in range(CONNECTIONS)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        after = server.metrics()["cache"]
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    latencies, client_by_trace = [], {}
    for connection in records:
        for seconds, status, trace in connection:
            if tally.check(status == 200, f"HTTP {status}"):
                latencies.append(seconds)
                client_by_trace[trace] = seconds

    for answers in checked:
        for path, body in answers.items():
            tally.check(body == direct_answer(engine, path), "answer differs from the engine")

    # Cache activity of the timed load alone (the fill is excluded).
    cache = {
        key: after[key] - before[key] for key in ("hits", "misses", "evictions", "invalidations")
    }
    lookups = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    p50 = percentile(latencies, 0.5) * 1e3
    rate = len(latencies) / wall
    outcome = Outcome(
        tally=tally,
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "latency_ms": p50,
            "throughput_per_s": rate,
        },
        figures={
            "query_p50_ms": p50,
            "query_p98_ms": percentile(latencies, 0.98) * 1e3,
            "query_per_s": rate,
        },
        samples={
            "setup_s": len(setups),
            "latency_ms": len(latencies),
            "throughput_per_s": len(latencies),
            "query_p98_ms": len(latencies),
        },
        notes={"load_s": wall, "pool": POOL, "cache_fill": CACHE_FILL, "cache": cache},
    )
    if not run.trace:
        return outcome
    spans = [
        span for span in load_spans(s.spans_path for s in servers)
        if not str(span.get("trace") or "").startswith("fill-")
    ]
    facts = {
        "http.outside_app_ms": outside_app_ms(spans, client_by_trace),
        "query.cache_hit_rate": cache["hit_rate"],
        "query.cache_evictions": cache["evictions"],
        "query.cache_invalidations": cache["invalidations"],
    }
    return traced_outcome(run, outcome, spans, facts)
