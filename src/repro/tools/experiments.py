"""Regenerate EXPERIMENTS.md from the canonical dataset and check it.

Run as ``python -m repro.tools.experiments`` (or via
``python -m repro experiments``).  The file is written first; the exit
status is 1 if any row's measurement lies outside its band.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional, Union

from repro.core.report import ReportRow, format_band, format_value, out_of_band

_HEADER = """# EXPERIMENTS — paper vs measured

Every figure of the paper's evaluation, regenerated from the canonical
six-year synthetic dataset (seed 20140101, hourly cadence; 300 s windows
for the lead-up/prediction studies) and compared to the number the paper
reports. Regenerate this file with:

```bash
python -m repro.tools.experiments
```

Absolute agreement is not the goal — the substrate is a synthetic
facility calibrated to the paper, not the authors' testbed — the *shape*
is: trends point the same way, extremes land on the same racks, flat
things stay flat, and the predictor's accuracy curve rises toward the
failure the same way. Binary checks (e.g. "hotspot (1, 8) detected")
use 1.0 = yes / 0.0 = no.

Each row's `band` is the closed range its measurement is accepted in
(`= v` exact, `<=`/`>=` one-sided), and `ok` says whether it lies there;
a row without a band is reported, not gated. Regenerating exits 1 and
names each row outside its band, and the tier-1 suite checks every band
on the same build (`tests/test_calibration.py`).

"""


def write_experiments_md(
    path: Union[str, Path] = "EXPERIMENTS.md",
    workers: Optional[int] = None,
) -> List[ReportRow]:
    """Build the full report, write the markdown file, and return the
    rows outside their bands.

    The figure sections and the 300 s window synthesis run in this
    process; ``workers`` sizes the pool that trains Fig 13's lockstep
    fold groups (see :func:`repro.core.experiments.full_report`).  The
    file is byte-identical at any worker count.
    """
    from repro.core.experiments import full_report, render_markdown
    from repro.simulation.datasets import canonical_dataset

    sections = full_report(
        canonical_dataset(), workers=workers, synthesize_windows=True
    )
    Path(path).write_text(_HEADER + render_markdown(sections) + "\n")
    return out_of_band(row for rows in sections.values() for row in rows)


def main(
    path: Union[str, Path] = "EXPERIMENTS.md", workers: Optional[int] = None
) -> int:
    """Write the file, name each row outside its band; the exit status."""
    failures = write_experiments_md(path, workers=workers)
    print(f"wrote {path}")
    for row in failures:
        print(
            f"outside its band: {row.figure} {row.metric}: measured "
            f"{format_value(row.measured_value)}, band {format_band(row.band)}",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
