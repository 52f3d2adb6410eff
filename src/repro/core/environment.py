"""Ambient data-center temperature and humidity analyses: Figs 8-9.

Temporal (Fig 8): the system-level temperature/humidity traces, their
ranges and standard deviations, and the summer-vs-winter humidity
seasonality.  Spatial (Fig 9): per-rack profiles, the row-end airflow
effect, and localized hotspots such as rack (1, 8).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro import constants
from repro.core.spatial import relative_spread
from repro.facility.topology import RackId
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import Channel
from repro.telemetry.series import TimeSeries

#: Meteorological summer months (the red band of Fig 8).
SUMMER_MONTHS = (6, 7, 8)

#: Meteorological winter months.
WINTER_MONTHS = (12, 1, 2)


@dataclasses.dataclass(frozen=True)
class AmbientTrends:
    """Fig 8: temporal ambient statistics."""

    temperature: TimeSeries
    humidity: TimeSeries
    temperature_std_f: float
    humidity_std_rh: float
    temperature_min_f: float
    temperature_max_f: float
    humidity_min_rh: float
    humidity_max_rh: float
    humidity_by_month: Dict[int, float]

    @property
    def summer_humidity(self) -> float:
        """Mean humidity over the June-August months present (NaN if none)."""
        values = [self.humidity_by_month[m] for m in SUMMER_MONTHS if m in self.humidity_by_month]
        return float(np.mean(values)) if values else float("nan")

    @property
    def winter_humidity(self) -> float:
        """Mean humidity over the December-February months present (NaN if none)."""
        values = [self.humidity_by_month[m] for m in WINTER_MONTHS if m in self.humidity_by_month]
        return float(np.mean(values)) if values else float("nan")

    @property
    def humidity_is_summer_seasonal(self) -> bool:
        """The paper's core Fig 8 observation: humid summers.

        False (rather than an error) when the dataset does not cover
        both seasons.
        """
        summer, winter = self.summer_humidity, self.winter_humidity
        if np.isnan(summer) or np.isnan(winter):
            return False
        return summer > winter


def ambient_trends_from_series(
    temperature: TimeSeries, humidity: TimeSeries
) -> AmbientTrends:
    """Fig 8 statistics from pre-extracted system-level series.

    The series-level half of :func:`ambient_trends`; the report's Fig 8
    rows call it on series from the system-series fold state.
    """
    return AmbientTrends(
        temperature=temperature,
        humidity=humidity,
        temperature_std_f=temperature.overall_std(),
        humidity_std_rh=humidity.overall_std(),
        temperature_min_f=float(np.nanmin(temperature.values)),
        temperature_max_f=float(np.nanmax(temperature.values)),
        humidity_min_rh=float(np.nanmin(humidity.values)),
        humidity_max_rh=float(np.nanmax(humidity.values)),
        humidity_by_month=humidity.groupby_calendar("month", "median"),
    )


def ambient_trends(database: EnvironmentalDatabase) -> AmbientTrends:
    """Reproduce Fig 8 from a telemetry database."""
    return ambient_trends_from_series(
        database.channel(Channel.DC_TEMPERATURE).across_racks(),
        database.channel(Channel.DC_HUMIDITY).across_racks(),
    )


@dataclasses.dataclass(frozen=True)
class AmbientSpatial:
    """Fig 9: per-rack ambient statistics."""

    temperature_f: np.ndarray
    humidity_rh: np.ndarray

    @property
    def temperature_spread(self) -> float:
        """Paper: up to 11 %."""
        return relative_spread(self.temperature_f)

    @property
    def humidity_spread(self) -> float:
        """Paper: up to 36 %."""
        return relative_spread(self.humidity_rh)

    def row_end_effect(self, edge_racks: int = 3) -> Tuple[float, float]:
        """(temperature excess, humidity deficit) at row ends.

        The paper's root cause: underfloor airflow is lower near the
        last three-or-four racks of each row, making those racks
        warmer and drier than row centers.

        Returns:
            (mean end temperature - mean center temperature,
             mean end humidity - mean center humidity), both in the
            channel's units.
        """
        n = constants.RACKS_PER_ROW
        offsets = np.arange(n)
        edge_cols = (offsets < edge_racks) | (offsets >= n - edge_racks)
        end_mask = np.tile(edge_cols, constants.NUM_ROWS)
        temp_delta = float(
            self.temperature_f[end_mask].mean() - self.temperature_f[~end_mask].mean()
        )
        humidity_delta = float(
            self.humidity_rh[end_mask].mean() - self.humidity_rh[~end_mask].mean()
        )
        return temp_delta, humidity_delta

    def hotspots(self, threshold: float = 0.10) -> Tuple[RackId, ...]:
        """Racks anomalously dry/hot relative to their row *center*.

        A center rack is flagged when its humidity is ``threshold``
        below the median of its row's central racks — the signature of
        a localized blockage like rack (1, 8).
        """
        n = constants.RACKS_PER_ROW
        center = self.humidity_rh.reshape(constants.NUM_ROWS, n)[:, 4 : n - 4]
        medians = np.median(center, axis=1, keepdims=True)
        flagged = center < medians * (1.0 - threshold)
        # argwhere walks row-major, matching the nested row/offset scan.
        return tuple(
            RackId(int(row), int(offset) + 4) for row, offset in np.argwhere(flagged)
        )


def ambient_spatial(database: EnvironmentalDatabase) -> AmbientSpatial:
    """Reproduce Fig 9 from a telemetry database."""
    return AmbientSpatial(
        temperature_f=database.channel(Channel.DC_TEMPERATURE).per_rack_mean(),
        humidity_rh=database.channel(Channel.DC_HUMIDITY).per_rack_mean(),
    )
