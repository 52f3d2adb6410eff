"""What follows a CMF: Figs 14 and 15.

Fig 14(a): the rate of (deduplicated) non-CMF fatal failures within
3, 6, ..., 48 hours of a CMF, normalized to the 3-hour rate.  Fig
14(b): the category mix of those post-CMF failures.  Fig 15: where
the post-CMF failures land relative to the epicenter — the paper's
point being that they land anywhere, not near the epicenter.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants, timeutil
from repro.core.failure_analysis import (
    DeduplicatedFailures,
    deduplicate_cmf_events,
    deduplicate_noncmf_events,
)
from repro.facility.topology import RackId
from repro.telemetry.ras import RasLog

#: The lag-bucket edges of Fig 14(a), hours after a CMF.
DEFAULT_LAG_BUCKETS_H: Tuple[float, ...] = (3.0, 6.0, 12.0, 24.0, 36.0, 48.0)


@dataclasses.dataclass(frozen=True)
class StormSpreadExample:
    """One Fig 15 example: an epicenter and the failures that followed."""

    epicenter: RackId
    cmf_epoch_s: float
    follower_racks: Tuple[RackId, ...]

    def max_distance(self) -> float:
        """Largest floor distance from the epicenter to a follower."""
        if not self.follower_racks:
            return 0.0
        return max(
            float(np.hypot(r.row - self.epicenter.row, r.col - self.epicenter.col))
            for r in self.follower_racks
        )

    def is_local(self, radius: float = 2.0) -> bool:
        """Whether every follower is within ``radius`` of the epicenter."""
        return self.max_distance() <= radius


@dataclasses.dataclass(frozen=True)
class AftermathAnalysis:
    """Figs 14-15: the post-CMF failure characterization."""

    #: Bucketed rates normalized to the first bucket: the value at h is
    #: (failures per hour in the bucket ending at h) divided by the
    #: failures per hour in the first (0..3 h) bucket.
    relative_rates: Dict[float, float]
    #: Post-CMF failure category mix (fractions summing to ~1).
    category_mix: Dict[str, float]
    #: Fig 15 example storms.
    examples: Tuple[StormSpreadExample, ...]
    #: Number of CMFs and post-CMF non-CMF failures analyzed.
    cmf_count: int
    followup_count: int

    @property
    def rate_6h(self) -> float:
        """Paper: the 6 h rate is below 75 % of the 3 h rate."""
        return self.relative_rates.get(6.0, float("nan"))

    @property
    def rate_48h(self) -> float:
        """Paper: the 48 h rate drops to ~10 % of the 3 h rate."""
        return self.relative_rates.get(48.0, float("nan"))

    @property
    def dominant_category(self) -> str:
        """Paper: "AC to DC power" — half of all post-CMF failures."""
        return max(self.category_mix, key=self.category_mix.get)

    def nonlocal_fraction(self, radius: float = 2.0) -> float:
        """Fraction of examples whose followers escape the epicenter
        neighbourhood — the paper's Fig 15 point."""
        if not self.examples:
            return 0.0
        nonlocal_count = sum(1 for e in self.examples if not e.is_local(radius))
        return nonlocal_count / len(self.examples)


#: The aftermath of a log without CMFs: no lag to measure a rate from,
#: so both rates read NaN, and no follow-up, share or example.
NO_AFTERMATH = AftermathAnalysis(
    relative_rates={}, category_mix={}, examples=(), cmf_count=0, followup_count=0
)


def analyze_aftermath(
    ras_log: RasLog,
    lag_buckets_h: Sequence[float] = DEFAULT_LAG_BUCKETS_H,
    example_count: int = 3,
    min_followers: int = 3,
) -> AftermathAnalysis:
    """Run the Fig 14/15 analysis on a raw RAS log.

    The *failure rate at h hours* is the per-hour rate of
    deduplicated non-CMF failures whose lag after the nearest
    preceding CMF falls in the bucket ending at ``h`` (buckets are
    delimited by consecutive ``lag_buckets_h`` entries, the first
    starting at zero), normalized to the first bucket's rate.

    The report runs the same analysis on the CMFs it deduplicated once
    for Figs 10-11 (:func:`analyze_aftermath_from_failures`); this is
    the whole-log reference.

    Args:
        ras_log: Raw RAS log (storms included; dedup happens here).
        lag_buckets_h: Window widths of Fig 14(a).
        example_count: How many Fig 15 examples to extract.
        min_followers: Minimum follower failures for an example storm.

    Raises:
        ValueError: if the log contains no CMFs.
    """
    return analyze_aftermath_from_failures(
        deduplicate_cmf_events(ras_log),
        ras_log,
        lag_buckets_h,
        example_count,
        min_followers,
    )


def analyze_aftermath_from_failures(
    cmfs: DeduplicatedFailures,
    ras_log: RasLog,
    lag_buckets_h: Sequence[float] = DEFAULT_LAG_BUCKETS_H,
    example_count: int = 3,
    min_followers: int = 3,
) -> AftermathAnalysis:
    """:func:`analyze_aftermath` given the CMFs already deduplicated
    from ``ras_log`` (:func:`deduplicate_cmf_events`).

    Raises:
        ValueError: if ``cmfs`` is empty.
    """
    noncmfs = deduplicate_noncmf_events(ras_log)
    if cmfs.count == 0:
        raise ValueError("no CMF events in the RAS log")

    cmf_times = cmfs.times()
    max_window_h = max(lag_buckets_h)

    # One searchsorted pass maps every non-CMF failure to its nearest
    # preceding CMF; the per-event Python loop this replaces spent
    # interpreter time on each of the thousands of deduplicated events.
    event_times = np.array([e.epoch_s for e in noncmfs.events], dtype="float64")
    cmf_index = np.searchsorted(cmf_times, event_times, side="right") - 1
    lag_all_h = (
        event_times - cmf_times[np.clip(cmf_index, 0, None)]
    ) / timeutil.HOUR_S
    kept = (cmf_index >= 0) & (lag_all_h > 0) & (lag_all_h <= max_window_h)
    lags = lag_all_h[kept]

    # Category counts and follower lists keep first-appearance order
    # (dict insertion order), exactly as the event-at-a-time loop did.
    categories: Dict[str, int] = {}
    followers_by_cmf: Dict[int, List[RackId]] = {}
    for position in np.flatnonzero(kept):
        event = noncmfs.events[position]
        categories[event.category] = categories.get(event.category, 0) + 1
        followers_by_cmf.setdefault(int(cmf_index[position]), []).append(
            event.rack_id
        )

    edges = np.concatenate([[0.0], np.asarray(lag_buckets_h, dtype="float64")])
    widths = np.diff(edges)
    if np.any(widths <= 0):
        raise ValueError("lag buckets must be strictly increasing")
    # Counts in (edge_{i-1}, edge_i] via two searchsorted cuts of the
    # sorted lags instead of one masked scan per bucket.
    counts = np.diff(np.searchsorted(np.sort(lags), edges, side="right"))
    bucket_rates = counts / widths
    base_rate = bucket_rates[0] if bucket_rates[0] > 0 else 1.0
    rates: Dict[float, float] = {
        float(window_h): float(rate / base_rate)
        for window_h, rate in zip(lag_buckets_h, bucket_rates)
    }

    total = max(1, sum(categories.values()))
    mix = {name: count / total for name, count in categories.items()}

    # Fig 15 examples: the busiest storms.
    ordered = sorted(
        followers_by_cmf.items(), key=lambda kv: len(kv[1]), reverse=True
    )
    examples = []
    for index, followers in ordered:
        if len(followers) < min_followers:
            break
        cmf_event = cmfs.events[index]
        examples.append(
            StormSpreadExample(
                epicenter=cmf_event.rack_id,
                cmf_epoch_s=cmf_event.epoch_s,
                follower_racks=tuple(followers),
            )
        )
        if len(examples) >= example_count:
            break

    return AftermathAnalysis(
        relative_rates=rates,
        category_mix=mix,
        examples=tuple(examples),
        cmf_count=cmfs.count,
        followup_count=int(lags.size),
    )
