"""Figs 2-9 built from their fold state, pinned to the whole-store analyses.

The report builds Figs 2-9 only from the ``system-series`` and
``rack-profile`` fold states, with the section memo on or off.  The
whole-store analysis API (``yearly_trends``, ``monthly_profiles``,
``rack_power_profile`` ...) is a second, independent computation of
the same figures, and this module pins every measured value of those
sections against it.  The system-series sections (Figs 2, 3, 4, 5, 8)
reduce the same row-local series, so they match exactly; the
rack-profile sections (Figs 6, 7, 9) divide folded (sum, count) pairs
where the reference takes a ``nanmean``, so they match within 1e-12.
"""

from __future__ import annotations

import math

import pytest

from repro import constants
from repro.analytics.incremental import SECTION_STATES
from repro.core.environment import ambient_spatial, ambient_trends
from repro.core.experiments import SECTION_BUILDERS, full_report
from repro.core.spatial import rack_coolant_profile, rack_power_profile
from repro.core.trends import (
    coolant_trends,
    monthly_profiles,
    weekday_profiles,
    yearly_trends,
)
from repro.facility.topology import RackId
from repro.telemetry.records import Channel

#: Sections whose fold must equal the reference bit for bit.
EXACT = ("fig2_rows", "fig3_rows", "fig4_rows", "fig5_rows", "fig8_rows")
#: Sections folded as (sum, count) accumulators: within this tolerance.
ACCUMULATED = ("fig6_rows", "fig7_rows", "fig9_rows")
TOLERANCE = 1e-12

#: The Fig 4/5 profile channels (``None`` profiles system power).
CALENDAR_CHANNELS = (
    None,
    Channel.UTILIZATION,
    Channel.FLOW,
    Channel.INLET_TEMPERATURE,
    Channel.OUTLET_TEMPERATURE,
)


def _is_rack(rack: RackId, pair) -> float:
    return float(rack == RackId(*pair))


def reference_values(database):
    """Every Fig 2-9 measured value, in row order, from the whole-store API."""
    yearly = yearly_trends(database)
    coolant = coolant_trends(database)
    monthly = monthly_profiles(database, CALENDAR_CHANNELS)
    weekday = weekday_profiles(database, CALENDAR_CHANNELS)
    power = rack_power_profile(database)
    rack_coolant = rack_coolant_profile(database)
    ambient = ambient_trends(database)
    spatial = ambient_spatial(database)
    temp_delta, humidity_delta = spatial.row_end_effect()
    return {
        "fig2_rows": [
            yearly.power_start_mw,
            yearly.power_end_mw,
            yearly.utilization_start,
            yearly.utilization_end,
        ],
        "fig3_rows": [
            coolant.flow_pre_theta_gpm,
            coolant.flow_post_theta_gpm,
            coolant.flow_std_gpm,
            coolant.inlet_mean_f,
            coolant.inlet_std_f,
            coolant.outlet_mean_f,
            coolant.outlet_std_f,
        ],
        "fig4_rows": [
            monthly[0].second_half_ratio,
            monthly[1].second_half_ratio,
            *(profile.max_change_from_january for profile in monthly[2:]),
        ],
        "fig5_rows": [profile.non_monday_increase for profile in weekday],
        "fig6_rows": [
            power.power_spread,
            _is_rack(power.highest_power_rack, constants.HIGHEST_POWER_RACK),
            _is_rack(
                power.highest_utilization_rack, constants.HIGHEST_UTILIZATION_RACK
            ),
            _is_rack(power.lowest_utilization_rack, (2, 0xD)),
            power.power_utilization_correlation,
        ],
        "fig7_rows": [
            rack_coolant.flow_spread,
            rack_coolant.inlet_spread,
            rack_coolant.outlet_spread,
            rack_coolant.mean_flow_per_rack_gpm,
        ],
        "fig8_rows": [
            ambient.temperature_min_f,
            ambient.temperature_max_f,
            ambient.temperature_std_f,
            ambient.humidity_min_rh,
            ambient.humidity_max_rh,
            ambient.humidity_std_rh,
            float(ambient.humidity_is_summer_seasonal),
        ],
        "fig9_rows": [
            spatial.temperature_spread,
            spatial.humidity_spread,
            float(RackId(*constants.HUMIDITY_HOTSPOT_RACK) in spatial.hotspots()),
            temp_delta,
            humidity_delta,
        ],
    }


def _matches(folded: float, reference: float, exact: bool) -> bool:
    if math.isnan(folded) and math.isnan(reference):
        return True
    if exact:
        return folded == reference
    return math.isclose(folded, reference, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


@pytest.fixture(scope="module", params=["demo_result", "faulted_result"])
def folded_and_reference(request):
    """(measured values from the memo-off report, reference values)."""
    result = request.getfixturevalue(request.param)
    titles = {fn.__name__: title for title, fn in SECTION_BUILDERS}
    report = full_report(result, workers=1, section_cache=False)
    folded = {
        name: [row.measured_value for row in report[titles[name]]]
        for name in EXACT + ACCUMULATED
    }
    return folded, reference_values(result.database)


def test_every_fold_section_is_pinned():
    assert set(EXACT) | set(ACCUMULATED) == set(SECTION_STATES)


@pytest.mark.parametrize("name", EXACT + ACCUMULATED)
def test_fold_matches_whole_store_analysis(folded_and_reference, name):
    folded, reference = folded_and_reference
    assert len(folded[name]) == len(reference[name])
    for index, (got, want) in enumerate(zip(folded[name], reference[name])):
        assert _matches(got, float(want), exact=name in EXACT), (name, index, got, want)
