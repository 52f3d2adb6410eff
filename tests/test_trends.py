"""Temporal trend analyses (Figs 2-5): fits on the two-year run, and the
canonical study's Fig 4/5 rows and profiles."""

import numpy as np
import pytest

from repro.core.trends import coolant_trends, yearly_trends


class TestYearlyTrends:
    def test_positive_power_trend(self, year_result):
        trends = yearly_trends(year_result.database)
        assert trends.power_fit.slope_per_year > 0.0

    def test_fit_endpoints_bracket_series(self, year_result):
        trends = yearly_trends(year_result.database)
        assert 2.0 < trends.power_start_mw < 3.2
        assert trends.power_end_mw > trends.power_start_mw

    def test_utilization_trend_positive(self, year_result):
        trends = yearly_trends(year_result.database)
        assert trends.utilization_fit.slope_per_year > 0.0
        assert 0.7 < trends.utilization_start < 1.0

    def test_smoothing_preserves_length(self, year_result):
        trends = yearly_trends(year_result.database, smooth_window=48)
        assert len(trends.power_mw) == year_result.database.num_samples


class TestCoolantTrends:
    def test_means_near_paper_values(self, year_result):
        trends = coolant_trends(year_result.database)
        assert trends.inlet_mean_f == pytest.approx(64.5, abs=1.5)
        assert trends.outlet_mean_f == pytest.approx(79.0, abs=2.5)

    def test_stds_are_small(self, year_result):
        trends = coolant_trends(year_result.database)
        assert trends.inlet_std_f < 2.0
        assert trends.outlet_std_f < 3.0

    def test_flow_near_setpoint(self, year_result):
        trends = coolant_trends(year_result.database)
        assert 1150 < trends.flow_pre_theta_gpm < 1350


class TestMonthlyProfile:
    """Fig 4 on the canonical study; the bands live on the report rows."""

    def test_power_profile_has_12_months(self, canonical):
        assert set(canonical.monthly.by_month) == set(range(1, 13))

    def test_power_higher_in_second_half(self, canonical):
        canonical.assert_in_band("power H2/H1 median ratio")

    def test_utilization_higher_in_second_half(self, canonical):
        canonical.assert_in_band("utilization H2/H1 median ratio")

    def test_coolant_channels_flat_across_months(self, canonical):
        canonical.assert_in_band(
            "flow max monthly change vs January",
            "inlet max monthly change vs January",
            "outlet max monthly change vs January",
        )

    def test_power_peaks_late_year(self, canonical):
        assert canonical.monthly.peak_month in (10, 11, 12)


class TestWeekdayProfile:
    """Fig 5 on the canonical study; the bands live on the report rows."""

    def test_monday_is_power_minimum(self, canonical):
        assert canonical.weekday.minimum_weekday == 0

    def test_non_monday_power_increase_near_paper(self, canonical):
        canonical.assert_in_band("non-Monday power increase")

    def test_non_monday_utilization_increase_small(self, canonical):
        canonical.assert_in_band("non-Monday utilization increase")

    def test_outlet_increase_modest(self, canonical):
        canonical.assert_in_band("non-Monday outlet increase")

    def test_flow_and_inlet_flat(self, canonical):
        canonical.assert_in_band("non-Monday flow change", "non-Monday inlet change")
