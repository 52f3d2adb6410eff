"""Incremental analytics: memoized and append-only report rebuilds.

Times :func:`repro.core.experiments.full_report` over the canonical
six-year realization in three regimes against a fresh on-disk section
memo store:

* **cold** — empty store: every section computes and publishes;
* **warm** — unchanged dataset: every section is served from the memo
  (the cost left is the digest's tail-chunk rehash plus verified
  loads);
* **append-delta** — a 90 % prefix was memoized, the final 10 % is
  appended, and the rebuild folds only rows past the cached watermark
  (plus the sections with no incremental form).

Every timed pass is first asserted row-equal to an uncached reference
build, so a speedup can never be bought with a wrong table.  Results
go to ``BENCH_incremental.json``; the warm (>= 5x) and append-delta
(>= 2x) floors hold on any core count — this layer removes work
instead of parallelizing it.
"""

from __future__ import annotations

from _bench_json import write_bench_json
from _incremental_common import measure_cache_passes

#: Minimum warm-over-cold speedup (every section memoized).
MIN_WARM_SPEEDUP = 5.0

#: Minimum append-delta-over-cold speedup (only the tail refolds).
MIN_APPEND_SPEEDUP = 2.0


def test_incremental_report(canonical, tmp_path):
    passes = measure_cache_passes(canonical, tmp_path)
    info = canonical.database.digest_info()

    write_bench_json(
        "incremental",
        {
            "rows": info.rows,
            "digest_chunks": info.num_chunks,
            "chunk_rows": info.chunk_rows,
            **passes,
            "min_warm_speedup": MIN_WARM_SPEEDUP,
            "min_append_speedup": MIN_APPEND_SPEEDUP,
        },
    )

    print(
        f"\nincremental report ({info.rows} rows, {info.num_chunks} chunks):"
        f" cold {passes['cold_seconds']:.3f}s,"
        f" warm {passes['warm_seconds']:.4f}s"
        f" ({passes['warm_speedup']:.1f}x),"
        f" append-delta {passes['append_delta_seconds']:.3f}s"
        f" ({passes['append_speedup']:.1f}x)"
    )

    assert passes["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm rebuild only {passes['warm_speedup']}x over cold "
        f"(floor: {MIN_WARM_SPEEDUP}x)"
    )
    assert passes["append_speedup"] >= MIN_APPEND_SPEEDUP, (
        f"append-delta rebuild only {passes['append_speedup']}x over cold "
        f"(floor: {MIN_APPEND_SPEEDUP}x)"
    )
