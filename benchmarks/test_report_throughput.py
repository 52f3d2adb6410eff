"""Full-report throughput: the parallel figure pipeline vs serial.

Times :func:`repro.core.experiments.full_report` over the canonical
six-year realization twice — ``workers=1`` (everything in-process)
against the process pool.  Pool workers are forked children that read
the result from the memory they inherited; only task tuples and the
finished rows or windows cross the process boundary.  The window
synthesis for Figs 12/13 is sharded across the pool, and Fig 13's
cross-validation folds train in lockstep groups, one pool task per
group of folds that share a batch schedule (on the canonical study,
two groups: 12 folds and 3).  The two reports are asserted identical
row for row, so the speedup is never bought with a numerics change.

Both passes run with the section memo store disabled — this benchmark
measures raw pipeline throughput, and a cache hit would reduce it to
timing disk reads.  The cache regimes (cold / warm / append-delta) are
measured separately and recorded alongside.  The JSON records
``cpu_count``, and the speedup gate applies only at four-plus cores
(``parallel_gated`` says which applied), while the warm-cache numbers
show where rebuild time actually goes.

Results are written to ``BENCH_report.json`` at the repo root so CI
can surface regressions.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from pathlib import Path

from _incremental_common import measure_cache_passes
from repro import __version__
from repro.core.experiments import full_report
from repro.parallel import resolve_workers

_REPO_ROOT = Path(__file__).resolve().parent.parent
_OUTPUT = _REPO_ROOT / "BENCH_report.json"

#: Minimum parallel-over-serial report speedup, enforced only when the
#: machine has at least this many cores.
MIN_REPORT_SPEEDUP = 2.0
REPORT_GATE_CORES = 4


def _rows_equal(a, b):
    measured_match = a.measured_value == b.measured_value or (
        math.isnan(a.measured_value) and math.isnan(b.measured_value)
    )
    return (
        measured_match
        and a.figure == b.figure
        and a.metric == b.metric
        and a.paper_value == b.paper_value
        and a.unit == b.unit
    )


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

    # Identity first: the parallel report must be the serial report.
    assert list(serial) == list(parallel)
    for title in serial:
        assert len(serial[title]) == len(parallel[title]), title
        for a, b in zip(serial[title], parallel[title]):
            assert _rows_equal(a, b), f"{title}: {a} != {b}"

    cache_passes = measure_cache_passes(canonical, tmp_path)

    total_rows = sum(len(rows) for rows in serial.values())
    parallel_gated = (os.cpu_count() or 1) >= REPORT_GATE_CORES
    report = {
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sections": len(serial),
        "rows": total_rows,
        "workers": pool_workers,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2),
        "parallel_gated": parallel_gated,
        "cache_cold_seconds": cache_passes["cold_seconds"],
        "cache_warm_seconds": cache_passes["warm_seconds"],
        "cache_append_delta_seconds": cache_passes["append_delta_seconds"],
        "cache_warm_speedup": cache_passes["warm_speedup"],
        "cache_append_speedup": cache_passes["append_speedup"],
    }
    _OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nfull report ({len(serial)} sections, {total_rows} rows):"
        f" serial {serial_s:.2f}s vs {pool_workers} workers"
        f" {parallel_s:.2f}s -> {report['speedup']:.2f}x"
        f" (gated: {parallel_gated});"
        f" cache cold {cache_passes['cold_seconds']:.3f}s,"
        f" warm {cache_passes['warm_seconds']:.4f}s,"
        f" append {cache_passes['append_delta_seconds']:.3f}s"
    )

    if parallel_gated:
        assert report["speedup"] >= MIN_REPORT_SPEEDUP, (
            f"parallel report speedup {report['speedup']}x below "
            f"{MIN_REPORT_SPEEDUP}x on a {os.cpu_count()}-core machine"
        )
