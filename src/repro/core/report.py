"""Paper-vs-measured reporting.

A :class:`ReportRow` holds one of the paper's headline numbers, what
the reproduction measured, and the band the measurement is accepted
in.  The rows are built by :mod:`repro.core.experiments`; this module
renders and checks them for EXPERIMENTS.md, ``repro report`` and the
examples.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: A closed range ``(lo, hi)`` of accepted measured values; a one-sided
#: band has an infinite end, an exact one ``lo == hi``.
Band = Tuple[float, float]


@dataclasses.dataclass(frozen=True)
class ReportRow:
    """One paper-vs-measured comparison.

    ``band`` is the range the measurement is accepted in, or ``None``
    for a row that is reported, not gated.
    """

    figure: str
    metric: str
    paper_value: float
    measured_value: float
    unit: str = ""
    band: Optional[Band] = None

    @property
    def in_band(self) -> Optional[bool]:
        """Whether the measurement lies in its band (``None``: not gated).

        A NaN measurement (too little data to measure) is never in band.
        """
        if self.band is None:
            return None
        lo, hi = self.band
        return bool(lo <= self.measured_value <= hi)

    @property
    def relative_error(self) -> float:
        """|measured - paper| / |paper| (inf when the paper value is 0).

        A NaN measurement (an analysis with no data, e.g. empty
        windows) reports NaN rather than letting the comparison
        silently claim agreement or blow-up.
        """
        if np.isnan(self.measured_value) or np.isnan(self.paper_value):
            return float("nan")
        if self.paper_value == 0:
            return float("inf") if self.measured_value != 0 else 0.0
        return abs(self.measured_value - self.paper_value) / abs(self.paper_value)

    @property
    def ok_mark(self) -> str:
        """``yes`` / ``NO`` for a gated row, ``—`` for an ungated one."""
        return {None: "—", True: "yes", False: "NO"}[self.in_band]

    def formatted(self) -> str:
        return (
            f"{self.figure:<8} {self.metric:<46} "
            f"paper={format_value(self.paper_value):>10} "
            f"measured={format_value(self.measured_value):>10} {self.unit:<4} "
            f"{format_band(self.band):<20} {self.ok_mark}"
        )


def format_value(value: float) -> str:
    """``{:.4g}`` rendering, with NaN shown as ``n/a``.

    NaN measured values are legitimate (an empty-window analysis);
    ``nan`` propagating into tables and EXPERIMENTS.md reads like a
    bug, so render the honest ``n/a`` instead.
    """
    if np.isnan(value):
        return "n/a"
    return f"{value:.4g}"


def format_band(band: Optional[Band]) -> str:
    """A band as ``[lo, hi]``, ``<= hi``, ``>= lo`` or ``= value``."""
    if band is None:
        return "reported, not gated"
    lo, hi = band
    if lo == hi:
        return f"= {format_value(lo)}"
    if lo == -np.inf:
        return f"<= {format_value(hi)}"
    if hi == np.inf:
        return f">= {format_value(lo)}"
    return f"[{format_value(lo)}, {format_value(hi)}]"


def out_of_band(rows: Iterable[ReportRow]) -> List[ReportRow]:
    """The gated rows whose measurement lies outside its band."""
    return [row for row in rows if row.in_band is False]


def format_table(rows: Iterable[ReportRow], title: Optional[str] = None) -> str:
    """A printable paper-vs-measured table."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    header = (
        f"{'figure':<8} {'metric':<46} {'paper':>16} {'measured':>19} "
        f"{'unit':<4} {'band':<20} ok"
    )
    lines.append(header)
    lines.append("=" * len(header))
    lines.extend(row.formatted() for row in rows)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A terminal sparkline of a series (for the examples).

    Resamples the series to ``width`` points and renders it with
    eighth-block characters.
    """
    blocks = " ▁▂▃▄▅▆▇█"
    data = np.asarray(list(values), dtype="float64")
    data = data[np.isfinite(data)]
    if data.size == 0:
        return ""
    if data.size > width:
        edges = np.linspace(0, data.size, width + 1).astype(int)
        data = np.array(
            [data[a:b].mean() for a, b in zip(edges, edges[1:]) if b > a]
        )
    lo, hi = data.min(), data.max()
    if hi - lo < 1e-12:
        return blocks[4] * len(data)
    scaled = (data - lo) / (hi - lo) * (len(blocks) - 2) + 1
    return "".join(blocks[int(round(s))] for s in scaled)
