"""Temporal trend analyses: Figs 2, 3, 4, and 5.

Everything operates on a :class:`~repro.simulation.engine.SimulationResult`
(or directly on an :class:`~repro.telemetry.database.EnvironmentalDatabase`),
mirroring how the paper's authors operated on the Mira environmental
database.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants, timeutil
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import Channel
from repro.telemetry.series import LinearFit, TimeSeries, reduce_by_calendar


@dataclasses.dataclass(frozen=True)
class YearlyTrends:
    """Fig 2: six-year power and utilization trends with linear fits."""

    power_mw: TimeSeries
    utilization: TimeSeries
    power_fit: LinearFit
    utilization_fit: LinearFit

    @property
    def power_start_mw(self) -> float:
        """Fitted system power at the start of the period."""
        return float(self.power_fit.predict(self.power_mw.epoch_s[:1])[0])

    @property
    def power_end_mw(self) -> float:
        """Fitted system power at the end of the period."""
        return float(self.power_fit.predict(self.power_mw.epoch_s[-1:])[0])

    @property
    def utilization_start(self) -> float:
        return float(self.utilization_fit.predict(self.utilization.epoch_s[:1])[0])

    @property
    def utilization_end(self) -> float:
        return float(self.utilization_fit.predict(self.utilization.epoch_s[-1:])[0])


def yearly_trends_from_series(
    power: TimeSeries, utilization: TimeSeries, smooth_window: int = 24 * 7
) -> YearlyTrends:
    """Fig 2 statistics from pre-extracted system-level series.

    The series-level half of :func:`yearly_trends`; the report's Fig 2
    rows call it on series from the system-series fold state.
    """
    return YearlyTrends(
        power_mw=power.rolling_mean(smooth_window),
        utilization=utilization.rolling_mean(smooth_window),
        power_fit=power.trend(),
        utilization_fit=utilization.trend(),
    )


def yearly_trends(
    database: EnvironmentalDatabase, smooth_window: int = 24 * 7
) -> YearlyTrends:
    """Reproduce Fig 2 from a telemetry database.

    Args:
        database: The environmental database.
        smooth_window: Rolling-mean window (in samples) for the
            plotted series; the fits are computed on the raw series.
    """
    return yearly_trends_from_series(
        database.system_power_mw(),
        database.system_utilization(),
        smooth_window=smooth_window,
    )


@dataclasses.dataclass(frozen=True)
class CoolantTrends:
    """Fig 3: coolant flow and temperatures over the six years."""

    total_flow: TimeSeries
    inlet: TimeSeries
    outlet: TimeSeries
    flow_std_gpm: float
    inlet_std_f: float
    outlet_std_f: float
    flow_pre_theta_gpm: float
    flow_post_theta_gpm: float
    inlet_mean_f: float
    outlet_mean_f: float
    #: Mean inlet temperature inside vs outside the Theta-testing
    #: window (the Fig 3(b) mid-2016 bump).
    inlet_theta_window_f: float
    inlet_outside_theta_f: float


def coolant_trends_from_series(
    total_flow: TimeSeries, inlet: TimeSeries, outlet: TimeSeries
) -> CoolantTrends:
    """Fig 3 statistics from pre-extracted system-level series."""
    theta = timeutil.to_epoch(constants.THETA_ADDITION_DATE)
    settled = timeutil.to_epoch(constants.THETA_SETTLED_DATE)
    epoch = total_flow.epoch_s
    pre_mask = epoch < theta
    post_mask = epoch >= settled
    theta_mask = (inlet.epoch_s >= theta) & (inlet.epoch_s < settled)

    def _mean(series: TimeSeries, mask: np.ndarray) -> float:
        if not mask.any():
            return float("nan")
        return float(np.nanmean(series.values[mask]))

    return CoolantTrends(
        total_flow=total_flow,
        inlet=inlet,
        outlet=outlet,
        flow_std_gpm=total_flow.overall_std(),
        inlet_std_f=inlet.overall_std(),
        outlet_std_f=outlet.overall_std(),
        flow_pre_theta_gpm=_mean(total_flow, pre_mask),
        flow_post_theta_gpm=_mean(total_flow, post_mask),
        inlet_mean_f=inlet.overall_mean(),
        outlet_mean_f=outlet.overall_mean(),
        inlet_theta_window_f=_mean(inlet, theta_mask),
        inlet_outside_theta_f=_mean(inlet, ~theta_mask),
    )


def coolant_trends(database: EnvironmentalDatabase) -> CoolantTrends:
    """Reproduce Fig 3 from a telemetry database."""
    return coolant_trends_from_series(
        database.total_flow_gpm(),
        database.channel(Channel.INLET_TEMPERATURE).across_racks(),
        database.channel(Channel.OUTLET_TEMPERATURE).across_racks(),
    )


@dataclasses.dataclass(frozen=True)
class MonthlyProfile:
    """Fig 4: per-month medians of one channel."""

    channel_name: str
    by_month: Dict[int, float]

    @property
    def second_half_ratio(self) -> float:
        """Jul-Dec median over Jan-Jun median (the Fig 4(a)/(b) shift).

        Partial-year datasets use whichever months of each half are
        present; a dataset confined to one half returns 1.0.
        """
        h1 = [self.by_month[m] for m in range(1, 7) if m in self.by_month]
        h2 = [self.by_month[m] for m in range(7, 13) if m in self.by_month]
        if not h1 or not h2:
            return 1.0
        return float(np.mean(h2) / np.mean(h1))

    @property
    def max_change_from_january(self) -> float:
        """Largest relative deviation of any month from January.

        The Fig 4 caption reports this is < 1.5 % for flow and the
        coolant temperatures.  When the dataset has no January, the
        earliest available month stands in as the reference.
        """
        reference_month = 1 if 1 in self.by_month else min(self.by_month)
        reference = self.by_month[reference_month]
        return float(
            max(abs(v / reference - 1.0) for v in self.by_month.values())
        )

    @property
    def peak_month(self) -> int:
        return max(self.by_month, key=self.by_month.get)


def _system_series(
    database: EnvironmentalDatabase, channel: Optional[Channel]
) -> Tuple[TimeSeries, str]:
    """The 1-D system-level series a calendar profile reduces.

    ``None`` profiles system power; per-rack channels are averaged
    across racks first (matching what ``groupby_calendar`` would do).
    """
    if channel is None:
        return database.system_power_mw(), "system_power_mw"
    if channel is Channel.FLOW:
        return database.total_flow_gpm(), "total_flow_gpm"
    if channel is Channel.UTILIZATION:
        return database.system_utilization(), "system_utilization"
    return database.channel(channel).across_racks(), channel.column


def _system_series_matrix(
    database: EnvironmentalDatabase,
    channels: Sequence[Optional[Channel]],
) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
    """Several channels' system series as one ``(time, channel)`` matrix.

    All system-level series of one database share the same timestamp
    vector, so the calendar keys, the stable sort, and the group
    boundaries of a calendar reduction can be computed once with every
    channel as one matrix column.
    """
    extracted = [_system_series(database, ch) for ch in channels]
    names = tuple(name for _, name in extracted)
    matrix = np.column_stack([series.values for series, _ in extracted])
    return names, extracted[0][0].epoch_s, matrix


def monthly_profiles_from_matrix(
    epoch_s: np.ndarray, names: Sequence[str], matrix: np.ndarray
) -> List[MonthlyProfile]:
    """Fig 4 profiles from a ``(time, channel)`` system-series matrix.

    The matrix-level half of :func:`monthly_profiles`, one column per
    channel and one shared group-by pass; the report's Fig 4 rows call
    it on the system-series fold state.
    """
    by_month = reduce_by_calendar(epoch_s, matrix, "month", "median")
    return [
        MonthlyProfile(
            channel_name=name,
            by_month={k: float(row[j]) for k, row in by_month.items()},
        )
        for j, name in enumerate(names)
    ]


def weekday_profiles_from_matrix(
    epoch_s: np.ndarray, names: Sequence[str], matrix: np.ndarray
) -> List[WeekdayProfile]:
    """Fig 5 profiles from a pre-extracted system-series matrix."""
    by_weekday = reduce_by_calendar(epoch_s, matrix, "weekday", "mean")
    return [
        WeekdayProfile(
            channel_name=name,
            by_weekday={k: float(row[j]) for k, row in by_weekday.items()},
        )
        for j, name in enumerate(names)
    ]


def monthly_profile(
    database: EnvironmentalDatabase, channel: Optional[Channel] = None
) -> MonthlyProfile:
    """Per-month median profile of a channel (or of system power).

    Args:
        database: The environmental database.
        channel: The channel to profile; None profiles system power.
    """
    return monthly_profiles(database, (channel,))[0]


def monthly_profiles(
    database: EnvironmentalDatabase, channels: Sequence[Optional[Channel]]
) -> List[MonthlyProfile]:
    """Fig 4's per-month medians for several channels in one pass."""
    names, epoch_s, matrix = _system_series_matrix(database, channels)
    return monthly_profiles_from_matrix(epoch_s, names, matrix)


@dataclasses.dataclass(frozen=True)
class WeekdayProfile:
    """Fig 5: weekday profile of a channel, Monday vs the rest."""

    channel_name: str
    by_weekday: Dict[int, float]

    @property
    def monday(self) -> float:
        """The Monday mean; NaN when the data holds no Monday."""
        return self.by_weekday.get(constants.MAINTENANCE_WEEKDAY, float("nan"))

    @property
    def non_monday_mean(self) -> float:
        """The mean over the other weekdays; NaN when there are none."""
        others = [
            v
            for day, v in self.by_weekday.items()
            if day != constants.MAINTENANCE_WEEKDAY
        ]
        return float(np.mean(others)) if others else float("nan")

    @property
    def non_monday_increase(self) -> float:
        """Relative increase of non-Monday days over Monday.

        Paper: ~6 % for power, ~1.5 % for utilization, ~2 % for outlet
        coolant temperature, ~0 for flow and inlet.
        """
        return self.non_monday_mean / self.monday - 1.0

    @property
    def minimum_weekday(self) -> int:
        return min(self.by_weekday, key=self.by_weekday.get)


def weekday_profile(
    database: EnvironmentalDatabase, channel: Optional[Channel] = None
) -> WeekdayProfile:
    """Per-weekday mean profile (None profiles system power)."""
    return weekday_profiles(database, (channel,))[0]


def weekday_profiles(
    database: EnvironmentalDatabase, channels: Sequence[Optional[Channel]]
) -> List[WeekdayProfile]:
    """Fig 5's per-weekday means for several channels in one pass."""
    names, epoch_s, matrix = _system_series_matrix(database, channels)
    return weekday_profiles_from_matrix(epoch_s, names, matrix)
