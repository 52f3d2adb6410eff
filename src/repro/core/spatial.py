"""Rack-level (spatial) analyses: Figs 6 and 7.

Per-rack time averages of power, utilization, and the coolant
channels, with the spread/extreme/correlation statistics the paper
reports.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro import constants
from repro.core.correlation import pearson_or_nan
from repro.facility.topology import RackId
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import Channel


def relative_spread(per_rack_means: np.ndarray) -> float:
    """(max - min) / min of a per-rack profile — the paper's "up to X %"."""
    profile = np.asarray(per_rack_means, dtype="float64")
    low = profile.min()
    if low <= 0:
        raise ValueError("profile must be positive for a relative spread")
    return float((profile.max() - low) / low)


def row_means(per_rack_means: np.ndarray) -> Tuple[float, ...]:
    """Mean of a per-rack profile per row (rows of 16 racks)."""
    profile = np.asarray(per_rack_means, dtype="float64")
    grid = profile.reshape(constants.NUM_ROWS, constants.RACKS_PER_ROW)
    return tuple(float(v) for v in grid.mean(axis=1))


@dataclasses.dataclass(frozen=True)
class RackPowerProfile:
    """Fig 6: per-rack power and utilization averages."""

    power_kw: np.ndarray
    utilization: np.ndarray

    @property
    def power_spread(self) -> float:
        """Paper: power varies up to 15 % among racks."""
        return relative_spread(self.power_kw)

    @property
    def utilization_spread(self) -> float:
        return relative_spread(self.utilization)

    @property
    def highest_power_rack(self) -> RackId:
        """Paper: rack (0, D)."""
        return RackId.from_flat_index(int(np.argmax(self.power_kw)))

    @property
    def highest_utilization_rack(self) -> RackId:
        """Paper: rack (0, A)."""
        return RackId.from_flat_index(int(np.argmax(self.utilization)))

    @property
    def lowest_utilization_rack(self) -> RackId:
        """Paper: rack (2, D)."""
        return RackId.from_flat_index(int(np.argmin(self.utilization)))

    @property
    def power_utilization_correlation(self) -> float:
        """Paper: r = 0.45 — power and utilization only loosely track."""
        return pearson_or_nan(self.power_kw, self.utilization)

    @property
    def highest_utilization_row(self) -> int:
        """Paper: row 0, where prod-long jobs land."""
        return int(np.argmax(row_means(self.utilization)))

    @property
    def highest_power_row(self) -> int:
        return int(np.argmax(row_means(self.power_kw)))


def rack_power_profile(database: EnvironmentalDatabase) -> RackPowerProfile:
    """Reproduce Fig 6 from a telemetry database."""
    return RackPowerProfile(
        power_kw=database.channel(Channel.POWER).per_rack_mean(),
        utilization=database.channel(Channel.UTILIZATION).per_rack_mean(),
    )


@dataclasses.dataclass(frozen=True)
class RackCoolantProfile:
    """Fig 7: per-rack coolant flow and temperature averages."""

    flow_gpm: np.ndarray
    inlet_f: np.ndarray
    outlet_f: np.ndarray

    @property
    def flow_spread(self) -> float:
        """Paper: up to 11 % (underfloor blockage)."""
        return relative_spread(self.flow_gpm)

    @property
    def inlet_spread(self) -> float:
        """Paper: ~1 % (chillers hold the supply temperature)."""
        return relative_spread(self.inlet_f)

    @property
    def outlet_spread(self) -> float:
        """Paper: up to 3 % (follows rack power)."""
        return relative_spread(self.outlet_f)

    @property
    def mean_flow_per_rack_gpm(self) -> float:
        """Paper: ~26 GPM per rack."""
        return float(self.flow_gpm.mean())


def rack_coolant_profile(database: EnvironmentalDatabase) -> RackCoolantProfile:
    """Reproduce Fig 7 from a telemetry database."""
    return RackCoolantProfile(
        flow_gpm=database.channel(Channel.FLOW).per_rack_mean(),
        inlet_f=database.channel(Channel.INLET_TEMPERATURE).per_rack_mean(),
        outlet_f=database.channel(Channel.OUTLET_TEMPERATURE).per_rack_mean(),
    )
