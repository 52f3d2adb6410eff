"""The benchmark's own arithmetic: percentiles, sample floors, failures.

Every reported percentile must rest on at least :data:`MIN_BEYOND`
samples beyond it, so a p99 needs 1000 samples and a median 20; a
figure the sample cannot support is an error, never a silent guess.
"""

from __future__ import annotations

import collections
import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``count``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    return count - math.ceil(q * count)


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose ``q`` percentile has ``beyond`` above it."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def percentile(samples: Sequence[float], q: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` percentile, refusing thin samples.

    Raises:
        ValueError: when fewer than ``beyond`` samples lie above it.
    """
    have = samples_beyond(len(samples), q)
    if have < beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(samples)} samples has {have} beyond it; "
            f"need {beyond}"
        )
    ordered = sorted(samples)
    return ordered[math.ceil(q * len(ordered)) - 1]


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (no floor: used for repeated passes)."""
    if not samples:
        raise ValueError("median of an empty sample")
    return statistics.median(samples)


class Tally:
    """Attempted and failed operations, with failure reasons.

    A failed operation is anything that did not produce a correct
    result: a non-200 answer, a 429, a transport error, or an answer
    that differs from the reference.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = collections.Counter()

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] += count

    def check(self, passed: bool, reason: str) -> bool:
        """Count one checked operation; returns ``passed``."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def failure_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
