"""Shared helpers for the incremental-report benchmarks.

Both ``test_incremental_report.py`` and ``test_report_throughput.py``
time the same cache scenarios — cold (fresh store), warm (every
section served from the memo), and append-delta (fold only the rows
appended past the cached watermark) — so the scenario construction
lives here: a writable value-and-quality clone of a database, the
NaN-tolerant row comparison, and the timed cache passes.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from repro.analytics.incremental import SectionMemoStore
from repro.core.experiments import full_report
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import CHANNELS


def clone_database(database, stop=None) -> EnvironmentalDatabase:
    """A writable value-and-quality copy of ``database[:stop]``."""
    stop = database.num_samples if stop is None else stop
    clone = EnvironmentalDatabase(
        num_racks=database.num_racks, capacity_hint=max(stop, 16)
    )
    clone.append_block(
        np.asarray(database.epoch_s[:stop]).copy(),
        {ch: np.asarray(database.channel(ch).values[:stop]).copy() for ch in CHANNELS},
    )
    clone.flush()
    for ch in CHANNELS:
        clone.overwrite_quality(ch, 0, np.asarray(database.quality(ch)[:stop]).copy())
    return clone


def append_tail(target, source, start: int) -> None:
    """Append ``source``'s rows past ``start`` (values and quality)."""
    epoch = np.asarray(source.epoch_s)
    target.append_block(
        epoch[start:].copy(),
        {
            ch: np.asarray(source.channel(ch).values[start:]).copy()
            for ch in CHANNELS
        },
    )
    target.flush()
    for ch in CHANNELS:
        target.overwrite_quality(
            ch, start, np.asarray(source.quality(ch)[start:]).copy()
        )


def rows_equal(a, b, tol: float = 1e-12) -> bool:
    measured_match = (
        a.measured_value == b.measured_value
        or (math.isnan(a.measured_value) and math.isnan(b.measured_value))
        or math.isclose(a.measured_value, b.measured_value, rel_tol=tol, abs_tol=tol)
    )
    return (
        measured_match
        and a.figure == b.figure
        and a.metric == b.metric
        and a.paper_value == b.paper_value
        and a.unit == b.unit
        and a.band == b.band
    )


def assert_reports_equal(reference, candidate, label: str) -> None:
    assert list(reference) == list(candidate), label
    for title in reference:
        assert len(reference[title]) == len(candidate[title]), (label, title)
        for a, b in zip(reference[title], candidate[title]):
            assert rows_equal(a, b), f"{label} / {title}: {a} != {b}"


def measure_cache_passes(result, cache_dir) -> dict:
    """Time the cold / warm / append-delta scenarios for one result.

    Returns a dict of timings (seconds) plus the store counters; every
    pass is asserted row-equal to an uncached reference build first,
    so no timing is ever reported for a wrong report.
    """
    reference = full_report(result, workers=1, section_cache=False)

    store = SectionMemoStore(root=cache_dir / "full", enabled=True)
    start = time.perf_counter()
    cold = full_report(result, workers=1, section_cache=store)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = full_report(result, workers=1, section_cache=store)
    warm_s = time.perf_counter() - start
    assert_reports_equal(reference, cold, "cold")
    assert_reports_equal(reference, warm, "warm")

    # Append-delta: memoize a 90 % prefix, then append the final 10 %
    # and rebuild — only the tail should be folded.
    database = result.database
    cut = int(database.num_samples * 0.9)
    prefix = clone_database(database, stop=cut)
    grown = dataclasses.replace(result, database=prefix)
    append_store = SectionMemoStore(root=cache_dir / "append", enabled=True)
    full_report(grown, workers=1, section_cache=append_store)
    append_tail(prefix, database, cut)
    assert prefix.dataset_digest() == database.dataset_digest()
    start = time.perf_counter()
    appended = full_report(grown, workers=1, section_cache=append_store)
    append_s = time.perf_counter() - start
    assert_reports_equal(reference, appended, "append-delta")
    assert append_store.counters.state_appends == 2

    return {
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "append_delta_seconds": round(append_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "append_speedup": round(cold_s / append_s, 2),
        "counters": store.counters.as_dict(),
    }
