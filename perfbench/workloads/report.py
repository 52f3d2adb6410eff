"""``report``: the paper report as ``python -m repro experiments`` builds it.

That is ``full_report(synthesize_windows=True)`` at the default worker
count over the canonical six-year hourly study.  No service layer
runs; window synthesis, Fig 13's training sweep, the section builders,
the section memo and the process pool do the work.

Setup is ``build_dataset(MiraScenario.full_study())`` into the run's
own cache directory, as ``canonical_dataset()`` does, timed once (a
build costs ~7 s; repeating it would push a full comparison, 92 runs,
past its time budget).  The seed picks
the week that is appended: the study is cut :data:`APPENDED_DAYS` plus
``seed % CUT_CHOICES`` days before its end, so the work per pass does
not depend on the seed (a different realization per seed would change
the number of CMF windows, and with it the cost).  The passes then run
in a fixed order, each on a section memo inside the run directory:

1. cold builds, each from an empty memo, on the cut study;
2. warm rebuilds, every section memoized (median of many);
3. rebuilds after the next week is appended to each memoized dataset
   of pass 1;

and sections-only builds (the default of ``repro report``), each from
an empty memo, in three rounds: before pass 1, between passes 2 and 3,
and after pass 3.

Both datasets are saved and reopened as telemetry archives, the form a
pooled report hands its workers.  Every pass must equal a
``section_cache=False`` build of the same dataset under the existing
row rule (exact discrete fields, floats within 1e-12); those reference
builds run before the first timed pass, with the tracer paused.  Timed
figures are medians of their passes.

End-to-end: ``latency_ms`` is the cold paper report, and
``throughput_per_s`` the telemetry rows of the cut study reported per
second by a sections-only build.  Peak memory is sampled over the timed
passes alone, for the benchmark process and its pool workers together.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

from perfbench.harness import ROOT, Outcome, Run, TreeMemorySampler, traced_outcome
from perfbench.stats import Tally, median
from perfbench.tracing import load_spans

#: The whole report runs in the benchmark process (and its pool); the
#: reference builds and archive copies run with the tracer paused.
TRACED_IN_PROCESS = None

#: Telemetry appended to the memoized dataset in pass 4.
APPENDED_DAYS = 7
#: The seed moves the cut by up to this many days.
CUT_CHOICES = 28
#: Cold builds, and append rebuilds (one per cold memo).  Passes of one
#: run agree within a few percent; the spread is between runs.
COLD_PASSES = 1
#: Warm rebuilds: at least this many, and at least WARM_SECONDS of them.
WARM_MIN = 20
WARM_SECONDS = 0.5
#: Sections-only builds, each from an empty memo, in rounds of this many:
#: before the cold build, after the warm rebuilds and after the append.
#: Back to back, their median sampled one 3 s window of a machine whose
#: speed drifts by 15-20% between such windows.
SECTIONS_PER_ROUND = 2


def _rows_equal():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from _incremental_common import rows_equal

    return rows_equal


def _archived(result, stop: int, directory):
    """``result`` cut to its first ``stop`` rows, reopened from an archive."""
    from repro.telemetry.archive import TelemetryArchive
    from repro.telemetry.database import EnvironmentalDatabase
    from repro.telemetry.records import CHANNELS

    database = result.database
    head = EnvironmentalDatabase(num_racks=database.num_racks, capacity_hint=stop)
    head.append_block(
        np.asarray(database.epoch_s[:stop]).copy(),
        {ch: np.asarray(database.channel(ch).values[:stop]).copy() for ch in CHANNELS},
    )
    head.flush()
    TelemetryArchive.save(head, directory)
    return dataclasses.replace(result, database=TelemetryArchive.load(directory, mmap=True))


def run(run: Run) -> Outcome:
    from repro.analytics.incremental import SectionMemoStore
    from repro.core.experiments import FIG12_TITLE, FIG13_TITLE, full_report
    from repro.simulation import MiraScenario
    from repro.simulation.datasets import build_dataset

    rows_equal = _rows_equal()
    tally = Tally()

    def check(reference, built, label, titles=None) -> None:
        titles = list(reference) if titles is None else titles
        same = list(built) == titles and all(
            len(reference[t]) == len(built[t])
            and all(rows_equal(a, b) for a, b in zip(reference[t], built[t]))
            for t in titles
        )
        tally.check(same, f"{label} pass differs from the uncached build")

    def timed(fn):
        begin = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - begin

    result, setup_s = timed(lambda: build_dataset(MiraScenario.full_study()))
    rows_per_day = int(86400 / result.config.dt_s)
    end = result.database.num_samples - (run.seed % CUT_CHOICES) * rows_per_day
    cut = end - APPENDED_DAYS * rows_per_day
    with run.paused():
        head = _archived(result, cut, run.path("head-archive"))
        grown = _archived(result, end, run.path("grown-archive"))
        del result
        reference = full_report(head, synthesize_windows=True, section_cache=False)
        grown_reference = full_report(grown, synthesize_windows=True, section_cache=False)
    section_titles = [t for t in reference if t not in (FIG12_TITLE, FIG13_TITLE)]

    memos, cold_s, warm_s, sections_s, append_s = [], [], [], [], []

    def sections_round() -> None:
        for _ in range(SECTIONS_PER_ROUND):
            empty = SectionMemoStore(
                root=run.path(f"memo-sections-{len(sections_s)}"), enabled=True
            )
            sections, seconds = timed(lambda: full_report(head, section_cache=empty))
            sections_s.append(seconds)
            check(reference, sections, "sections-only", section_titles)

    with TreeMemorySampler() as memory:
        sections_round()
        for index in range(COLD_PASSES):
            memos.append(SectionMemoStore(root=run.path(f"memo-{index}"), enabled=True))
            cold, seconds = timed(
                lambda: full_report(head, synthesize_windows=True, section_cache=memos[-1])
            )
            cold_s.append(seconds)
            check(reference, cold, "cold")

        while len(warm_s) < WARM_MIN or sum(warm_s) < WARM_SECONDS:
            warm, seconds = timed(
                lambda: full_report(head, synthesize_windows=True, section_cache=memos[0])
            )
            warm_s.append(seconds)
            check(reference, warm, "warm")

        sections_round()
        for memo in memos:
            appended, seconds = timed(
                lambda: full_report(grown, synthesize_windows=True, section_cache=memo)
            )
            append_s.append(seconds)
            check(grown_reference, appended, "append")
            tally.check(memo.counters.state_appends > 0, "append pass refolded from scratch")
        sections_round()

    cold = median(cold_s)
    outcome = Outcome(
        tally=tally,
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": memory.peak_mb,
            "latency_ms": cold * 1e3,
            "throughput_per_s": cut / median(sections_s),
        },
        figures={
            "cold_report_s": cold,
            "sections_report_s": median(sections_s),
            "warm_report_ms": median(warm_s) * 1e3,
            "append_report_s": median(append_s),
        },
        samples={
            "setup_s": 1,
            "latency_ms": len(cold_s),
            "throughput_per_s": len(sections_s),
            "warm_report_ms": len(warm_s),
            "append_report_s": len(append_s),
        },
        notes={
            "rows": [cut, end],
            "passes_s": {"cold": cold_s, "sections": sections_s, "append": append_s},
            "memo": memos[0].counters.as_dict(),
        },
    )
    if not run.trace:
        return outcome
    memo = memos[0]
    facts = {
        "memo.hits": memo.counters.hits,
        "memo.misses": memo.counters.misses,
        "memo.state_appends": memo.counters.state_appends,
        "memo.bytes": memo.total_bytes(),
    }
    spans = run.tracer.spans + load_spans(run.directory.glob("spans-*.json"))
    return traced_outcome(run, outcome, spans, facts)
