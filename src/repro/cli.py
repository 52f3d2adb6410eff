"""Command-line interface.

Subcommands, mirroring how the package is used:

* ``simulate`` — run the facility simulator and export the telemetry
  CSV and RAS JSONL,
* ``report`` — print the paper-vs-measured tables for the core
  figures,
* ``predict`` — train and evaluate the CMF predictor (Fig 13),
* ``experiments`` — regenerate EXPERIMENTS.md from the canonical
  six-year dataset (exit 1 if a row lies outside its band),
* ``cache`` — inspect (``info``) or prune (``clear``) the on-disk
  dataset cache under ``~/.cache/repro``,
* ``validate`` — run the physics/bookkeeping consistency checks,
* ``serve-replay`` — re-serve a simulated realization as a live
  telemetry stream through the service layer (bus -> rollups ->
  query engine) and print the operational summary,
* ``query`` — run one dashboard-style query against the rollup store
  built from a simulation,
* ``chaos`` — run the crash/hang/kill chaos matrix against the
  supervised service and verify recovery equivalence (exit 1 on any
  mismatch); this is the CI chaos-smoke entry point,
* ``serve-http`` — expose a simulated (or archived) dataset over the
  operations HTTP API from one threaded process: versioned query
  routes, ``/healthz`` and ``/metrics``, optional collector ingest.

Invoke as ``python -m repro <subcommand>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.metrics import format_counts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Operating Liquid-Cooled Large-Scale Systems' "
            "(HPCA 2021): synthetic Mira facility simulation and analyses"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run the facility simulator and export telemetry"
    )
    simulate.add_argument("--days", type=int, default=60, help="simulated days")
    simulate.add_argument("--seed", type=int, default=7, help="master seed")
    simulate.add_argument(
        "--dt", type=float, default=1800.0, help="engine step in seconds"
    )
    simulate.add_argument(
        "--out", type=Path, default=Path("repro-out"), help="output directory"
    )
    simulate.add_argument(
        "--full-study",
        action="store_true",
        help="simulate the whole 2014-2019 production period (hourly)",
    )
    simulate.add_argument(
        "--inject-faults",
        action="store_true",
        help=(
            "degrade the delivered telemetry with calibrated sensor/"
            "delivery faults (dropout, stuck-at, spikes, skew, blackouts)"
        ),
    )

    report = commands.add_parser(
        "report", help="print paper-vs-measured tables for the core figures"
    )
    report.add_argument("--days", type=int, default=365, help="simulated days")
    report.add_argument("--seed", type=int, default=7, help="master seed")
    report.add_argument(
        "--full-study",
        action="store_true",
        help="use the canonical six-year dataset (slower, exact paper scope)",
    )
    report.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool size for Fig 13's training folds with --windows "
            "(default: REPRO_WORKERS or all cores; 1 = serial); the other "
            "sections build in-process, and tables are byte-identical "
            "either way"
        ),
    )
    report.add_argument(
        "--windows",
        action="store_true",
        help="also synthesize the 300 s windows and report Figs 12-13",
    )
    report.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print the dataset digest and section-cache hit/miss "
            "counters after the tables"
        ),
    )
    report.add_argument(
        "--no-section-cache",
        action="store_true",
        help=(
            "bypass the on-disk section memo store and rebuild every "
            "section from scratch"
        ),
    )

    predict = commands.add_parser(
        "predict", help="train and evaluate the CMF predictor (Fig 13)"
    )
    predict.add_argument("--days", type=int, default=730, help="simulated days")
    predict.add_argument("--seed", type=int, default=5, help="master seed")
    predict.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool size for the lead sweep (default: REPRO_WORKERS "
            "or all cores; 1 = serial; results are identical either way)"
        ),
    )

    experiments = commands.add_parser(
        "experiments",
        help=(
            "regenerate EXPERIMENTS.md from the canonical dataset; exit 1 "
            "if a row lies outside its band"
        ),
    )
    experiments.add_argument(
        "--out", type=Path, default=Path("EXPERIMENTS.md"), help="output file"
    )
    experiments.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool size for Fig 13's training folds (default: "
            "REPRO_WORKERS or all cores; 1 = serial); the file is "
            "byte-identical either way"
        ),
    )

    cache = commands.add_parser(
        "cache", help="inspect or prune the on-disk dataset cache"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_commands.add_parser(
        "info", help="list cache entries with size, version, and config digest"
    )
    cache_commands.add_parser("clear", help="remove every cache entry")

    validate = commands.add_parser(
        "validate", help="run physics/bookkeeping consistency checks"
    )
    validate.add_argument("--days", type=int, default=180, help="simulated days")
    validate.add_argument("--seed", type=int, default=7, help="master seed")

    serve = commands.add_parser(
        "serve-replay",
        help="replay a simulated realization as a live telemetry service",
    )
    serve.add_argument("--days", type=int, default=30, help="simulated days")
    serve.add_argument("--seed", type=int, default=7, help="master seed")
    serve.add_argument(
        "--dt", type=float, default=1800.0, help="engine step in seconds"
    )
    serve.add_argument(
        "--speedup",
        type=float,
        default=0.0,
        help="simulated seconds per wall-clock second (0 = unpaced, flat out)",
    )
    serve.add_argument(
        "--inject-faults",
        action="store_true",
        help="degrade the replayed telemetry with calibrated sensor faults",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=512, help="per-subscriber queue size"
    )
    serve.add_argument(
        "--policy",
        choices=("block", "drop_oldest", "coalesce"),
        default="drop_oldest",
        help="backpressure policy for the analytics subscribers",
    )
    serve.add_argument(
        "--no-cusum",
        action="store_true",
        help="skip the CUSUM change-detector subscriber",
    )
    serve.add_argument(
        "--chunk-size",
        type=int,
        default=256,
        help="snapshots per published chunk (1 = one-row chunks)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run the chaos matrix (crash/hang/kill) and verify recovery",
    )
    chaos.add_argument("--days", type=int, default=4, help="simulated days")
    chaos.add_argument("--seed", type=int, default=7, help="master seed")
    chaos.add_argument(
        "--dt", type=float, default=1800.0, help="engine step in seconds"
    )
    chaos.add_argument(
        "--chunk-sizes",
        type=int,
        nargs="+",
        default=[1, 64],
        metavar="N",
        help="chunk sizes to exercise (1 = one-row chunks)",
    )
    chaos.add_argument(
        "--scenarios",
        nargs="+",
        choices=("crash", "hang", "kill"),
        default=["crash", "hang", "kill"],
        help="failure modes to inject",
    )
    chaos.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the JSON summary to this file",
    )

    query = commands.add_parser(
        "query", help="run one dashboard query against the rollup store"
    )
    query.add_argument("--days", type=int, default=30, help="simulated days")
    query.add_argument("--seed", type=int, default=7, help="master seed")
    query.add_argument(
        "--dt", type=float, default=1800.0, help="engine step in seconds"
    )
    query.add_argument(
        "--channel", default="power_kw", help="telemetry channel column name"
    )
    query.add_argument(
        "--kind",
        choices=("aggregate", "series", "point"),
        default="aggregate",
        help="query shape",
    )
    query.add_argument(
        "--stat",
        choices=("mean", "min", "max", "sum", "coverage", "covered_sum"),
        default="mean",
        help="statistic",
    )
    query.add_argument(
        "--scope",
        choices=("facility", "rack", "row"),
        default="facility",
        help="rack-axis scope",
    )
    query.add_argument("--rack", type=int, default=None, help="flat rack index")
    query.add_argument("--row", type=int, default=None, help="row index")
    query.add_argument(
        "--start-day", type=float, default=0.0, help="window start, days from t0"
    )
    query.add_argument(
        "--end-day", type=float, default=None, help="window end, days from t0"
    )
    query.add_argument(
        "--resolution",
        type=float,
        default=None,
        help="explicit rollup resolution in seconds (default: snap)",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="also print the full cache statistics snapshot",
    )

    serve_http = commands.add_parser(
        "serve-http",
        help="serve a dataset over the operations HTTP API",
    )
    serve_http.add_argument("--days", type=int, default=7, help="simulated days")
    serve_http.add_argument("--seed", type=int, default=7, help="master seed")
    serve_http.add_argument(
        "--dt", type=float, default=1800.0, help="engine step in seconds"
    )
    serve_http.add_argument(
        "--archive",
        type=Path,
        default=None,
        help="serve this saved telemetry archive instead of simulating",
    )
    serve_http.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_http.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 picks a free one)"
    )
    serve_http.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then exit (CI smoke mode)",
    )
    serve_http.add_argument(
        "--ingest-token",
        action="append",
        default=[],
        metavar="COLLECTOR=TOKEN",
        help=(
            "enable ingest auth for COLLECTOR with TOKEN (repeatable; "
            "no tokens = open ingest)"
        ),
    )
    serve_http.add_argument(
        "--no-ingest",
        action="store_true",
        help="serve read-only (POST /v1/ingest answers 503)",
    )
    serve_http.add_argument(
        "--cache-size", type=int, default=1024, help="query-cache capacity"
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation import FacilityEngine, MiraScenario
    from repro.telemetry.export import export_ras_jsonl, export_telemetry_csv

    if args.full_study:
        config = MiraScenario.full_study(seed=args.seed)
    else:
        config = MiraScenario.demo(days=args.days, seed=args.seed, dt_s=args.dt)
    if args.inject_faults:
        import dataclasses

        from repro.faults import FaultConfig

        config = dataclasses.replace(config, faults=FaultConfig())
    print(f"simulating {config.start} .. {config.end} at dt={config.dt_s:.0f}s ...")
    result = FacilityEngine(config).run()
    if result.fault_truth is not None:
        print(result.fault_truth.summary())
        print(f"ingest counters: {format_counts(result.database.counters.as_dict())}")
    args.out.mkdir(parents=True, exist_ok=True)
    telemetry_path = args.out / "telemetry.csv"
    ras_path = args.out / "ras.jsonl"
    rows = export_telemetry_csv(result.database, telemetry_path)
    events = export_ras_jsonl(result.ras_log, ras_path)
    print(f"wrote {rows} telemetry rows to {telemetry_path}")
    print(f"wrote {events} RAS events to {ras_path}")
    failures = len(result.schedule.events) if result.schedule else 0
    print(
        f"summary: {result.jobs_completed} jobs completed, "
        f"{result.jobs_killed} killed, {failures} CMF events"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import time

    from repro.core.experiments import full_report
    from repro.core.report import format_table
    from repro.parallel import resolve_workers
    from repro.simulation import FacilityEngine, MiraScenario
    from repro.simulation.datasets import CACHE_FAILURES, canonical_dataset

    if args.full_study:
        print("building the canonical six-year dataset ...")
        result = canonical_dataset()
    else:
        print(f"simulating {args.days} days (seed {args.seed}) ...")
        result = FacilityEngine(
            MiraScenario.demo(days=args.days, seed=args.seed)
        ).run()
    workers = resolve_workers(args.workers)
    folds = (
        f" (Fig 13's folds on {workers} worker{'s' if workers != 1 else ''})"
        if args.windows
        else ""
    )
    print(f"building the report{folds} ...")
    section_cache = False if args.no_section_cache else None
    started = time.perf_counter()
    sections = full_report(
        result,
        workers=workers,
        synthesize_windows=args.windows,
        section_cache=section_cache,
    )
    elapsed = time.perf_counter() - started
    for title, rows in sections.items():
        print("\n" + format_table(rows, title))
    if args.stats:
        from repro.analytics.incremental import default_store

        info = result.database.digest_info()
        store = default_store()
        print(f"\nreport built in {elapsed:.3f}s")
        print(
            f"dataset digest: {info.root[:16]} "
            f"({info.rows} rows, {info.num_chunks} chunks of "
            f"{info.chunk_rows}; hashed {info.hashed_chunks}, "
            f"reused {info.reused_chunks})"
        )
        if store.enabled and section_cache is not False:
            print(f"section cache at {store.root}:")
            print("  " + format_counts(store.counters.as_dict()))
        else:
            print("section cache: disabled")
        print(f"dataset cache: {format_counts(CACHE_FAILURES.as_dict())}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.prediction import sweep_leads
    from repro.parallel import resolve_workers
    from repro.simulation import FacilityEngine, MiraScenario, WindowSynthesizer

    print(f"simulating {args.days} days (seed {args.seed}) ...")
    result = FacilityEngine(MiraScenario.demo(days=args.days, seed=args.seed)).run()
    if result.schedule is None or not result.schedule.events:
        print("no CMF events in the simulated period; try more days")
        return 1
    synthesizer = WindowSynthesizer(result)
    positives = synthesizer.positive_windows()
    negatives = synthesizer.negative_windows(len(positives))
    workers = resolve_workers(args.workers)
    print(
        f"{len(positives)} failures; sweeping leads on {workers} "
        f"worker{'s' if workers != 1 else ''} ..."
    )
    print(f"\n{'lead':>6}  {'accuracy':>8}  {'precision':>9}  {'recall':>7}  "
          f"{'F1':>6}  {'FPR':>6}")
    for evaluation in sweep_leads(positives, negatives, workers=workers):
        report = evaluation.report
        print(
            f"{evaluation.lead_h:>5.1f}h  {report.accuracy:>8.3f}  "
            f"{report.precision:>9.3f}  {report.recall:>7.3f}  "
            f"{report.f1:>6.3f}  {report.false_positive_rate:>6.3f}"
        )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.tools.experiments import main

    return main(args.out, workers=args.workers)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analytics.incremental import SectionMemoStore
    from repro.simulation.datasets import (
        cache_entries,
        cache_root,
        clear_cache,
        quarantined_count,
    )

    root = cache_root()
    store = SectionMemoStore(enabled=True)
    if args.cache_command == "clear":
        removed = clear_cache()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} from {root}")
        swept = store.clear()
        print(
            f"removed {swept} section-memo entr{'y' if swept == 1 else 'ies'} "
            f"from {store.root}"
        )
        return 0
    entries = cache_entries()
    sections = store.entries()
    if entries:
        print(f"dataset cache at {root}:")
        print(f"{'digest':<18} {'version':<10} {'size':>10}")
        total = 0
        for entry in entries:
            total += entry.size_bytes
            print(f"{entry.digest:<18} {entry.version:<10} {entry.size_mb:>8.1f}MB")
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
              f"{total / 1e6:.1f}MB total")
    else:
        print(f"no dataset-cache entries under {root}")
    print(f"quarantined dataset entries: {quarantined_count()}")
    if sections:
        print(f"\nsection memos at {store.root}:")
        print(f"{'section':<22} {'kind':<6} {'key':<26} {'size':>9} {'age':>9}")
        total = 0
        for entry in sections:
            total += entry.size_bytes
            age = (
                f"{entry.age_s:.0f}s"
                if entry.age_s < 120
                else f"{entry.age_s / 60:.0f}m"
            )
            print(
                f"{entry.section:<22} {entry.kind:<6} {entry.key_digest:<26} "
                f"{entry.size_bytes / 1e3:>7.1f}kB {age:>9}"
            )
        print(
            f"{len(sections)} entr{'y' if len(sections) == 1 else 'ies'}, "
            f"{total / 1e3:.1f}kB total"
        )
    else:
        print(f"\nno section-memo entries under {store.root}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_result
    from repro.simulation import FacilityEngine, MiraScenario

    print(f"simulating {args.days} days (seed {args.seed}) ...")
    result = FacilityEngine(MiraScenario.demo(days=args.days, seed=args.seed)).run()
    scorecard = validate_result(result)
    print(scorecard.summary())
    return 0 if scorecard.passed else 1


def _simulated_database(days: int, seed: int, dt_s: float, faults: bool = False):
    import dataclasses

    from repro.simulation import FacilityEngine, MiraScenario

    config = MiraScenario.demo(days=days, seed=seed, dt_s=dt_s)
    if faults:
        from repro.faults import FaultConfig

        config = dataclasses.replace(config, faults=FaultConfig())
    print(f"simulating {config.start} .. {config.end} at dt={config.dt_s:.0f}s ...")
    return FacilityEngine(config).run()


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    from repro.service import LiveOperationsService, Query, ServiceConfig
    from repro.telemetry.records import Channel

    result = _simulated_database(
        args.days, args.seed, args.dt, faults=args.inject_faults
    )
    speedup = args.speedup if args.speedup > 0 else float("inf")
    service = LiveOperationsService(
        result.database,
        cusum=not args.no_cusum,
        config=ServiceConfig(
            speedup=speedup,
            queue_capacity=args.queue_capacity,
            analytics_policy=args.policy,
            chunk_size=args.chunk_size,
        ),
    )
    label = "unpaced" if speedup == float("inf") else f"{speedup:g}x"
    digest = result.database.dataset_digest()
    print(f"dataset digest: {digest[:16]}")
    print(f"replaying {result.database.num_samples} snapshots ({label}) ...")
    report = service.run()
    print(
        f"published {report.bus.published} rows in {report.bus.duration_s:.2f}s "
        f"({report.bus.rows_per_sec:.0f} rows/s, "
        f"speedup ~{report.bus.achieved_speedup:.0f}x)"
    )
    for name, counters in report.bus.subscribers.items():
        print(f"  {name}: {format_counts(counters.as_dict())}")
    print(f"rollup buckets: {report.rollup_buckets}")
    if report.alarms:
        print(f"CUSUM alarms: {len(report.alarms)}")
    # A taste of the live query surface over what was just streamed.
    start = result.start_epoch_s
    end = result.end_epoch_s
    for stat, unit in (("mean", "kW"), ("max", "kW"), ("coverage", "")):
        answer = service.engine.execute(
            Query("aggregate", Channel.POWER, start, end, stat=stat)
        )
        print(f"  power {stat} over replay: {answer.value:.3f} {unit}".rstrip())
    print(f"query cache: {format_counts(service.engine.cache_info())}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import run_chaos_matrix

    print(
        f"chaos matrix: {args.days} days (seed {args.seed}), "
        f"chunk sizes {args.chunk_sizes}, scenarios {args.scenarios} ..."
    )
    summary = run_chaos_matrix(
        days=args.days,
        seed=args.seed,
        dt_s=args.dt,
        chunk_sizes=args.chunk_sizes,
        scenarios=args.scenarios,
    )
    payload = json.dumps(summary, indent=2, default=str)
    print(payload)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload + "\n")
        print(f"wrote {args.out}")
    ok = bool(summary["ok"])
    print("chaos matrix: OK" if ok else "chaos matrix: FAILED")
    return 0 if ok else 1


def _cmd_query(args: argparse.Namespace) -> int:
    from repro import timeutil
    from repro.service import Query, QueryEngine, RollupStore
    from repro.telemetry.records import Channel

    try:
        channel = Channel(args.channel)
    except ValueError:
        columns = ", ".join(ch.column for ch in Channel)
        print(f"unknown channel {args.channel!r}; choose one of: {columns}")
        return 1
    result = _simulated_database(args.days, args.seed, args.dt)
    store = RollupStore.from_database(result.database)
    engine = QueryEngine(store)
    start = result.start_epoch_s + args.start_day * timeutil.DAY_S
    end_day = args.end_day if args.end_day is not None else float(args.days)
    end = result.start_epoch_s + end_day * timeutil.DAY_S
    query = Query(
        args.kind,
        channel,
        start,
        end,
        stat=args.stat,
        scope=args.scope,
        rack=args.rack,
        row=args.row,
        resolution_s=args.resolution,
    )
    answer = engine.execute(query)
    engine.execute(query)  # the repeat shows the cache hit below
    print(f"resolution: {answer.resolution_s:.0f}s")
    if args.kind == "series":
        for epoch, value in zip(answer.epoch_s, answer.values):
            when = timeutil.from_epoch(epoch)
            print(f"  {when:%Y-%m-%d %H:%M}  {value:.4f}")
    else:
        print(f"{args.stat}({channel.column}) [{args.scope}] = {answer.value:.6f}")
    info = engine.cache_info() if args.stats else engine.counters.as_dict()
    print(f"query cache: {format_counts(info)}")
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    from repro.service.http import (
        IngestServerConfig,
        OperationsApp,
        OperationsHttpServer,
    )
    from repro.telemetry.archive import TelemetryArchive

    tokens = {}
    for pair in args.ingest_token:
        collector, sep, token = pair.partition("=")
        if not sep or not collector or not token:
            print(f"--ingest-token wants COLLECTOR=TOKEN, got {pair!r}")
            return 1
        tokens[collector] = token

    if args.archive is not None:
        database = TelemetryArchive.load(args.archive, mmap=True)
    else:
        database = _simulated_database(args.days, args.seed, args.dt).database

    ingest = None if args.no_ingest else IngestServerConfig(tokens=tokens)
    app = OperationsApp.from_database(
        database, cache_size=args.cache_size, ingest=ingest
    )
    server = OperationsHttpServer(app, host=args.host, port=args.port)
    host, port = server.address
    mode = "read-only" if args.no_ingest else (
        "authenticated ingest" if tokens else "open ingest"
    )
    print(
        f"serving {database.num_samples} samples on http://{host}:{port} "
        f"({mode}; Ctrl-C to stop)",
        flush=True,
    )
    try:
        if args.duration is not None:
            import time as _time

            server.start()
            _time.sleep(args.duration)
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        print("\nstopping ...")
    finally:
        if app.gateway is not None:
            app.gateway.finalize()
        server.stop()
    print(f"request counters: {format_counts(app.counters.as_dict())}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "report": _cmd_report,
    "predict": _cmd_predict,
    "experiments": _cmd_experiments,
    "cache": _cmd_cache,
    "validate": _cmd_validate,
    "serve-replay": _cmd_serve_replay,
    "chaos": _cmd_chaos,
    "query": _cmd_query,
    "serve-http": _cmd_serve_http,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
