"""Alert policies and alert/failure matching.

A probability stream is not an operational tool until it is turned
into *alerts* with a controlled false-alarm rate.  The policy here is
the standard one: alert when the probability exceeds a threshold for
``persistence`` consecutive samples, then hold off re-alerting on the
same rack for a cooldown period.

:meth:`AlertLog.match` scores an alert stream against the true failure
schedule: achieved lead times, detection recall, and the false-alarm
rate per rack-day — the quantities a facility operator would demand
before wiring alerts to anything expensive.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import timeutil
from repro.facility.topology import RackId
from repro.failures.cmf import CmfEvent
from repro.monitoring.online import Prediction


@dataclasses.dataclass(frozen=True)
class Alert:
    """One raised alert."""

    epoch_s: float
    rack_id: RackId
    probability: float


@dataclasses.dataclass(frozen=True)
class AlertPolicy:
    """Threshold + persistence + cooldown alerting.

    Attributes:
        threshold: Probability above which a sample counts as a hit.
        persistence: Consecutive hits required before alerting.
        cooldown_s: Minimum spacing between alerts on one rack.
    """

    threshold: float = 0.9
    persistence: int = 4
    cooldown_s: float = 2 * timeutil.HOUR_S

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.persistence < 1:
            raise ValueError("persistence must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown cannot be negative")


class AlertEngine:
    """Applies an :class:`AlertPolicy` to a prediction stream."""

    def __init__(self, policy: Optional[AlertPolicy] = None) -> None:
        self.policy = policy if policy is not None else AlertPolicy()
        self._streak: Dict[RackId, int] = {}
        self._last_alert: Dict[RackId, float] = {}

    def process(self, prediction: Prediction) -> Optional[Alert]:
        """Feed one prediction; returns an alert when the policy fires."""
        rack = prediction.rack_id
        if prediction.probability >= self.policy.threshold:
            self._streak[rack] = self._streak.get(rack, 0) + 1
        else:
            self._streak[rack] = 0
            return None
        if self._streak[rack] < self.policy.persistence:
            return None
        last = self._last_alert.get(rack)
        if last is not None and prediction.epoch_s - last < self.policy.cooldown_s:
            return None
        self._last_alert[rack] = prediction.epoch_s
        return Alert(
            epoch_s=prediction.epoch_s,
            rack_id=rack,
            probability=prediction.probability,
        )

    # -- durability ---------------------------------------------------------------

    def get_state(self) -> Dict[str, Dict]:
        """A picklable copy of the streak/cooldown state machine."""
        return {
            "streak": dict(self._streak),
            "last_alert": dict(self._last_alert),
        }

    def set_state(self, state: Dict[str, Dict]) -> None:
        """Restore a :meth:`get_state` copy."""
        self._streak = dict(state["streak"])
        self._last_alert = dict(state["last_alert"])


@dataclasses.dataclass(frozen=True)
class MatchReport:
    """How an alert stream lines up with the true failures."""

    detected: int
    missed: int
    false_alerts: int
    lead_times_s: Tuple[float, ...]
    observation_rack_days: float

    @property
    def recall(self) -> float:
        total = self.detected + self.missed
        return self.detected / total if total else 0.0

    @property
    def median_lead_h(self) -> float:
        if not self.lead_times_s:
            return 0.0
        return float(np.median(self.lead_times_s) / timeutil.HOUR_S)

    @property
    def false_alerts_per_rack_day(self) -> float:
        if self.observation_rack_days <= 0:
            return 0.0
        return self.false_alerts / self.observation_rack_days


class AlertLog:
    """An accumulating record of raised alerts."""

    def __init__(self) -> None:
        self._alerts: List[Alert] = []

    def record(self, alert: Alert) -> None:
        self._alerts.append(alert)

    def restore(self, alerts: Sequence[Alert]) -> None:
        """Replace the log's contents (recovery from a snapshot)."""
        self._alerts = list(alerts)

    @property
    def alerts(self) -> Tuple[Alert, ...]:
        return tuple(self._alerts)

    def __len__(self) -> int:
        return len(self._alerts)

    def match(
        self,
        failures: Sequence[CmfEvent],
        horizon_s: float = 8 * timeutil.HOUR_S,
        observation_rack_days: float = 0.0,
    ) -> MatchReport:
        """Score the alerts against the true failure schedule.

        A failure is *detected* when any alert fired on its rack
        within ``horizon_s`` before it; the earliest such alert
        defines the achieved lead time.  An alert is *false* when it
        lies within the horizon of no failure on its rack (repeat
        alerts inside one lead-up are neither detections nor false —
        they are re-confirmations and only cost checkpoint overhead).
        """
        matched_failures: Dict[int, float] = {}
        justified_alerts: set = set()
        for index, failure in enumerate(failures):
            best: Optional[float] = None
            for alert_index, alert in enumerate(self._alerts):
                if alert.rack_id != failure.rack_id:
                    continue
                lead = failure.epoch_s - alert.epoch_s
                if 0.0 <= lead <= horizon_s:
                    justified_alerts.add(alert_index)
                    if best is None or lead > best:
                        best = lead
            if best is not None:
                matched_failures[index] = best
        false_alerts = len(self._alerts) - len(justified_alerts)
        return MatchReport(
            detected=len(matched_failures),
            missed=len(failures) - len(matched_failures),
            false_alerts=false_alerts,
            lead_times_s=tuple(sorted(matched_failures.values())),
            observation_rack_days=observation_rack_days,
        )
