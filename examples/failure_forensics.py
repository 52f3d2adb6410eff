"""Failure forensics: from a raw RAS storm log to Figs 10, 11, 14, 15.

Walks the paper's Section VI methodology against the canonical
six-year RAS log:

1. the raw log holds tens of thousands of storm messages; the 6 h
   per-rack dedup recovers the 361 true CMF events,
2. the timeline is non-bathtub (Fig 10) with the 2016 Theta burst,
3. per-rack counts peak at rack (1, 8) and bottom at (2, 7) with no
   correlation to utilization/outlet/humidity (Fig 11),
4. post-CMF non-CMF failure rates decay over 48 h with AC-to-DC power
   conversion failures dominating (Fig 14), landing anywhere on the
   machine (Fig 15).

The paper-vs-measured tables are the paper report's Figs 10-11 and
14-15 sections; the per-year counts, the floor map and the storm
listing show what stands behind them.

Run with::

    python examples/failure_forensics.py
"""

from repro import timeutil
from repro.core.aftermath import analyze_aftermath
from repro.core.experiments import (
    SECTION_BUILDERS,
    fig10_11_rows,
    fig14_15_rows,
    full_report,
)
from repro.core.failure_analysis import analyze_cmfs
from repro.core.floormap import render_counts
from repro.core.report import format_table
from repro.simulation.datasets import canonical_dataset


def main() -> None:
    print("Building the canonical six-year dataset...")
    result = canonical_dataset()

    raw = len(result.ras_log)
    fatal_cmf_raw = len(result.ras_log.fatal_cmf_events())
    print(f"\nRaw RAS log: {raw} messages ({fatal_cmf_raw} fatal coolant messages)")
    sections = full_report(result)
    title = {builder: title for title, builder in SECTION_BUILDERS}

    # ---- Figs 10-11: the dedup, the timeline, the per-rack counts ----------
    analysis = analyze_cmfs(result.ras_log, result.database)
    print(f"After 6 h per-rack dedup: {analysis.total} true CMF events")
    print("\n" + format_table(sections[title[fig10_11_rows]], title[fig10_11_rows]))
    print("per-year counts:", dict(sorted(analysis.yearly.items())))
    print()
    print(render_counts(analysis.rack_counts, title="CMFs per rack (the Fig 11 floor map):"))

    # ---- Figs 14-15: what follows a CMF, and where -------------------------
    aftermath = analyze_aftermath(result.ras_log)
    print("\n" + format_table(sections[title[fig14_15_rows]], title[fig14_15_rows]))
    print("relative rates by window:",
          {h: round(v, 3) for h, v in sorted(aftermath.relative_rates.items())})
    print("\nFig 15 — three example storms (followers vs epicenter):")
    for example in aftermath.examples:
        followers = ", ".join(r.label for r in example.follower_racks[:8])
        when = timeutil.from_epoch(example.cmf_epoch_s).date()
        print(
            f"  {when}  epicenter {example.epicenter.label}: "
            f"{len(example.follower_racks)} follow-on failures at {followers}"
            f"{'...' if len(example.follower_racks) > 8 else ''}"
        )
        print(
            f"      max distance from epicenter: {example.max_distance():.1f} "
            f"rack pitches (local? {example.is_local()})"
        )


if __name__ == "__main__":
    main()
