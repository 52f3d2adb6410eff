"""Full-report throughput: one worker against the default worker count.

Times :func:`repro.core.experiments.full_report` over the canonical
six-year realization twice — ``workers=1`` against the default worker
count.  Every section, and the 300 s window synthesis for Figs 12/13,
is built in-process either way; the worker count sizes only Fig 13's
fold pool, where the cross-validation folds train in lockstep groups,
one pool task per group of folds that share a batch schedule (on the
canonical study, two groups: 12 folds and 3).  The two reports are
asserted identical row for row, so a worker count never changes a
number.

Both passes run with the section memo store disabled — this benchmark
measures raw pipeline throughput, and a cache hit would reduce it to
timing disk reads.  The cache regimes (cold / warm / append-delta) are
measured separately and recorded alongside.  The JSON records
``cpu_count``.  No timing here is gated: the end-to-end report
benchmark is perfbench's ``report`` workload.

Results are written to ``BENCH_report.json`` at the repo root so CI
can surface regressions.
"""

from __future__ import annotations

import time

from _bench_json import write_bench_json
from _incremental_common import measure_cache_passes, rows_equal
from repro.core.experiments import full_report
from repro.parallel import resolve_workers


def test_report_throughput(canonical, tmp_path):
    start = time.perf_counter()
    serial = full_report(
        canonical, workers=1, synthesize_windows=True, section_cache=False
    )
    serial_s = time.perf_counter() - start

    pool_workers = resolve_workers(None)
    start = time.perf_counter()
    parallel = full_report(
        canonical,
        workers=pool_workers,
        synthesize_windows=True,
        section_cache=False,
    )
    parallel_s = time.perf_counter() - start

    # The report must not depend on the worker count.
    assert list(serial) == list(parallel)
    for title in serial:
        assert len(serial[title]) == len(parallel[title]), title
        for a, b in zip(serial[title], parallel[title]):
            assert rows_equal(a, b, tol=0.0), f"{title}: {a} != {b}"

    cache_passes = measure_cache_passes(canonical, tmp_path)

    total_rows = sum(len(rows) for rows in serial.values())
    report = {
        "sections": len(serial),
        "rows": total_rows,
        "workers": pool_workers,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2),
        "cache_cold_seconds": cache_passes["cold_seconds"],
        "cache_warm_seconds": cache_passes["warm_seconds"],
        "cache_append_delta_seconds": cache_passes["append_delta_seconds"],
        "cache_warm_speedup": cache_passes["warm_speedup"],
        "cache_append_speedup": cache_passes["append_speedup"],
    }
    write_bench_json("report", report)

    print(
        f"\nfull report ({len(serial)} sections, {total_rows} rows):"
        f" serial {serial_s:.2f}s vs {pool_workers} workers"
        f" {parallel_s:.2f}s -> {report['speedup']:.2f}x;"
        f" cache cold {cache_passes['cold_seconds']:.3f}s,"
        f" warm {cache_passes['warm_seconds']:.4f}s,"
        f" append {cache_passes['append_delta_seconds']:.3f}s"
    )

