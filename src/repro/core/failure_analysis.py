"""CMF analysis: the dedup methodology and Figs 10-11.

The raw RAS log contains storms of thousands of coolant-monitor
messages per incident.  The paper's methodology (Section VI):

* only *fatal* coolant-monitor events count,
* on a given rack, all CMF messages within **six hours** of the first
  are the same failure (the rack is down for up to six hours),
* the window applies **per rack**, not system-wide — if eight racks
  storm together, that is eight failures (capturing how many racks an
  incident took down),
* non-CMF failures deduplicate with a **one hour** window (racks
  return in about an hour).

:func:`deduplicate_cmf_events` implements that rule;
:func:`analyze_cmfs` layers the Fig 10/11 statistics on top.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants, timeutil
from repro.core.correlation import pearson_or_nan
from repro.facility.topology import RackId
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.ras import RasEvent, RasLog, Severity
from repro.telemetry.records import Channel


@dataclasses.dataclass(frozen=True)
class DeduplicatedFailures:
    """The recovered failure events after windowed per-rack dedup."""

    events: Tuple[RasEvent, ...]
    window_s: float
    raw_count: int

    @property
    def count(self) -> int:
        return len(self.events)

    def rack_counts(self) -> np.ndarray:
        """Per-rack failure counts, flat-index order (Fig 11)."""
        counts = np.zeros(constants.NUM_RACKS, dtype=int)
        for event in self.events:
            counts[event.rack_id.flat_index] += 1
        return counts

    def yearly_counts(self) -> Dict[int, int]:
        """Failures per calendar year (Fig 10)."""
        out: Dict[int, int] = {}
        for event in self.events:
            year = int(timeutil.years(event.epoch_s))
            out[year] = out.get(year, 0) + 1
        return out

    def times(self) -> np.ndarray:
        return np.array([e.epoch_s for e in self.events])


def _windowed_dedup(
    events: Sequence[RasEvent], window_s: float
) -> DeduplicatedFailures:
    last_seen: Dict[RackId, float] = {}
    kept: List[RasEvent] = []
    for event in sorted(events):
        previous = last_seen.get(event.rack_id)
        if previous is None or event.epoch_s - previous >= window_s:
            kept.append(event)
            last_seen[event.rack_id] = event.epoch_s
    return DeduplicatedFailures(
        events=tuple(kept), window_s=window_s, raw_count=len(events)
    )


def deduplicate_cmf_events(
    ras_log: RasLog, window_s: float = float(constants.CMF_DEDUP_WINDOW_S)
) -> DeduplicatedFailures:
    """Recover true CMF events from the raw storm-y RAS log."""
    return _windowed_dedup(ras_log.fatal_cmf_events(), window_s)


def deduplicate_noncmf_events(
    ras_log: RasLog, window_s: float = float(constants.NONCMF_DEDUP_WINDOW_S)
) -> DeduplicatedFailures:
    """Recover true non-CMF fatal events (1 h per-rack window)."""
    return _windowed_dedup(ras_log.fatal_noncmf_events(), window_s)


@dataclasses.dataclass(frozen=True)
class CmfAnalysis:
    """Figs 10-11: the full CMF characterization."""

    failures: DeduplicatedFailures
    yearly: Dict[int, int]
    rack_counts: np.ndarray
    utilization_correlation: float
    outlet_correlation: float
    humidity_correlation: float
    longest_quiet_gap_days: float

    @property
    def total(self) -> int:
        """Paper: 361 over the six years."""
        return self.failures.count

    @property
    def fraction_2016(self) -> float:
        """Paper: ~40 % of all CMFs landed in 2016."""
        return self.yearly.get(2016, 0) / max(1, self.total)

    @property
    def most_failing_rack(self) -> RackId:
        """Paper: rack (1, 8) with 14 events."""
        return RackId.from_flat_index(int(np.argmax(self.rack_counts)))

    @property
    def least_failing_rack(self) -> RackId:
        """Paper: rack (2, 7) with 5 events."""
        return RackId.from_flat_index(int(np.argmin(self.rack_counts)))

    @property
    def max_rack_count(self) -> int:
        return int(self.rack_counts.max())

    @property
    def min_rack_count(self) -> int:
        return int(self.rack_counts.min())

    @property
    def second_max_rack_count(self) -> int:
        """Paper: no rack other than (1, 8) exceeds nine events."""
        return int(np.sort(self.rack_counts)[-2])

    def is_bathtub(self, edge_fraction: float = 0.25) -> bool:
        """Whether failures concentrate at the period's edges.

        A bathtub hazard puts most failures in the first and last
        quarters of life.  The paper's finding is that CMFs do *not*
        follow a bathtub (the mass sits in 2016, mid-life).
        """
        times = self.failures.times()
        if times.size == 0:
            return False
        lo, hi = times.min(), times.max()
        span = hi - lo
        if span <= 0:
            return False
        early = np.sum(times < lo + edge_fraction * span)
        late = np.sum(times > hi - edge_fraction * span)
        return (early + late) / times.size > 0.7


def analyze_cmfs(
    ras_log: RasLog,
    database: Optional[EnvironmentalDatabase] = None,
) -> CmfAnalysis:
    """Run the full Fig 10/11 characterization.

    Args:
        ras_log: The raw RAS log (storms included).
        database: Optional telemetry for the rack-metric correlations;
            without it the correlations are reported as NaN.
    """
    failures = deduplicate_cmf_events(ras_log)
    rack_counts = failures.rack_counts()

    if database is not None and failures.count > 0:
        utilization = database.channel(Channel.UTILIZATION).per_rack_mean()
        outlet = database.channel(Channel.OUTLET_TEMPERATURE).per_rack_mean()
        humidity = database.channel(Channel.DC_HUMIDITY).per_rack_mean()
        util_corr = pearson_or_nan(rack_counts, utilization)
        outlet_corr = pearson_or_nan(rack_counts, outlet)
        humidity_corr = pearson_or_nan(rack_counts, humidity)
    else:
        util_corr = outlet_corr = humidity_corr = float("nan")

    times = failures.times()
    if times.size >= 2:
        quiet_days = float(np.max(np.diff(times)) / timeutil.DAY_S)
    else:
        quiet_days = 0.0

    return CmfAnalysis(
        failures=failures,
        yearly=failures.yearly_counts(),
        rack_counts=rack_counts,
        utilization_correlation=util_corr,
        outlet_correlation=outlet_corr,
        humidity_correlation=humidity_corr,
        longest_quiet_gap_days=quiet_days,
    )
