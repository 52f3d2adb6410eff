"""Regenerate EXPERIMENTS.md from the canonical dataset.

Run as ``python -m repro.tools.experiments`` (or via
``python -m repro experiments``).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional, Union

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

Benchmarks asserting these bands: `pytest benchmarks/ --benchmark-only`
(one file per figure; see DESIGN.md for the experiment index).

"""


def write_experiments_md(
    path: Union[str, Path] = "EXPERIMENTS.md",
    workers: Optional[int] = None,
) -> Path:
    """Build the full report and write the markdown file.

    The figure sections and the 300 s window synthesis run in this
    process; ``workers`` sizes the pool that trains Fig 13's lockstep
    fold groups (see :func:`repro.core.experiments.full_report`).  The
    file is byte-identical at any worker count.
    """
    from repro.core.experiments import full_report, render_markdown
    from repro.simulation.datasets import canonical_dataset

    result = canonical_dataset()
    sections = full_report(
        result, workers=workers, synthesize_windows=True
    )
    body = render_markdown(sections)
    out = Path(path)
    out.write_text(_HEADER + body + "\n")
    return out


if __name__ == "__main__":
    print(f"wrote {write_experiments_md()}", file=sys.stderr)
