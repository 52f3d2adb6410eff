"""Paper calibration: every report band on the canonical study.

The bands live on the report rows (:mod:`repro.core.experiments`), one
table that EXPERIMENTS.md renders and ``repro experiments`` checks.
Here one memo-off report of the canonical six-year study, Figs 12/13
included, is checked against every band; the per-figure tests name the
rows their figure claims, and add the orderings across rows and the
checks on values that are not report rows (fit slopes, peak months,
hotspot columns ...), each analysis run once (``canonical`` fixture).
"""

from repro import constants
from repro.core.hazard import bathtub_verdict
from repro.core.leadup import aggregate_leadup
from repro.core.report import out_of_band
from repro.telemetry.records import Channel

#: The rows no copy of the calibration ever gated: reported, not gated.
UNGATED = {"BQC share", "BQL share", "accuracy at 3 h lead", "FPR at 6 h lead"}


class TestReportBands:
    def test_every_gated_row_in_band(self, canonical):
        rows = list(canonical.rows.values())
        assert len(rows) == 70
        failures = [f"{r.figure} {r.metric}" for r in out_of_band(rows)]
        assert not failures, failures

    def test_only_four_rows_reported_not_gated(self, canonical):
        ungated = {m for m, row in canonical.rows.items() if row.band is None}
        assert ungated == UNGATED


class TestFig2YearlyTrends:
    def test_power_rises_from_2_5_to_2_9(self, canonical):
        canonical.assert_in_band(
            "system power at start of 2014", "system power at end of 2019"
        )

    def test_utilization_rises_from_80_to_93(self, canonical):
        canonical.assert_in_band(
            "utilization at start of 2014", "utilization at end of 2019"
        )

    def test_trends_positive(self, canonical):
        assert canonical.yearly.power_fit.slope_per_year > 0.02
        assert canonical.yearly.utilization_fit.slope_per_year > 0.005


class TestFig3CoolantTrends:
    def test_flow_step_at_theta(self, canonical):
        canonical.assert_in_band("total flow before Theta", "total flow after Theta")

    def test_coolant_temperature_means(self, canonical):
        canonical.assert_in_band("inlet coolant mean", "outlet coolant mean")

    def test_overall_stds_in_band(self, canonical):
        canonical.assert_in_band(
            "flow overall std", "inlet overall std", "outlet overall std"
        )

    def test_theta_testing_bump(self, canonical):
        trends = canonical.coolant
        assert trends.inlet_theta_window_f > trends.inlet_outside_theta_f + 0.5


class TestFig4Monthly:
    def test_power_and_utilization_second_half_heavy(self, canonical):
        canonical.assert_in_band(
            "power H2/H1 median ratio", "utilization H2/H1 median ratio"
        )

    def test_coolant_channels_nearly_flat(self, canonical):
        canonical.assert_in_band(
            "flow max monthly change vs January",
            "inlet max monthly change vs January",
            "outlet max monthly change vs January",
        )


class TestFig5Weekday:
    def test_monday_minimum(self, canonical):
        assert canonical.weekday.minimum_weekday == constants.MAINTENANCE_WEEKDAY

    def test_power_increase_near_6_percent(self, canonical):
        canonical.assert_in_band("non-Monday power increase")

    def test_utilization_increase_near_1_5_percent(self, canonical):
        canonical.assert_in_band("non-Monday utilization increase")

    def test_outlet_increase_near_2_percent(self, canonical):
        canonical.assert_in_band("non-Monday outlet increase")

    def test_flow_and_inlet_unchanged(self, canonical):
        canonical.assert_in_band("non-Monday flow change", "non-Monday inlet change")


class TestFig6RackPowerUtil:
    def test_power_spread_up_to_15_percent(self, canonical):
        canonical.assert_in_band("rack power spread")

    def test_extreme_racks(self, canonical):
        canonical.assert_in_band(
            "highest-power rack is (0, D)",
            "highest-utilization rack is (0, A)",
            "lowest-utilization rack is (2, D)",
        )

    def test_row_zero_wins(self, canonical):
        assert canonical.rack_power.highest_utilization_row == 0
        assert canonical.rack_power.highest_power_row == 0

    def test_correlation_near_0_45(self, canonical):
        canonical.assert_in_band("corr(rack power, rack utilization)")


class TestFig7RackCoolant:
    def test_spreads(self, canonical):
        canonical.assert_in_band(
            "rack flow spread", "rack inlet spread", "rack outlet spread"
        )

    def test_ordering_inlet_outlet_flow(self, canonical):
        assert (
            canonical.measured("rack inlet spread")
            < canonical.measured("rack outlet spread")
            < canonical.measured("rack flow spread")
        )


class TestFig8AmbientTrends:
    def test_ranges(self, canonical):
        canonical.assert_in_band(
            "DC temperature min", "DC temperature max",
            "DC humidity min", "DC humidity max",
        )

    def test_stds(self, canonical):
        canonical.assert_in_band("DC temperature std", "DC humidity std")

    def test_summer_humidity(self, canonical):
        canonical.assert_in_band("summer humidity exceeds winter")


class TestFig9AmbientSpatial:
    def test_spreads(self, canonical):
        canonical.assert_in_band(
            "rack DC-temperature spread", "rack DC-humidity spread"
        )

    def test_hotspot_1_8(self, canonical):
        canonical.assert_in_band("hotspot (1, 8) detected")


class TestFig10CmfTimeline:
    def test_total_361(self, canonical):
        canonical.assert_in_band("total CMFs")

    def test_2016_fraction_40_percent(self, canonical):
        canonical.assert_in_band("fraction of CMFs in 2016")

    def test_long_quiet_gap(self, canonical):
        canonical.assert_in_band("longest quiet gap (paper: > 2 years)")

    def test_not_bathtub(self, canonical):
        canonical.assert_in_band("bathtub-shaped (paper: no)")

    def test_weibull_hazard_not_bathtub(self, canonical):
        assert not bathtub_verdict(canonical.cmfs.failures.times()).is_bathtub


class TestFig11CmfPerRack:
    def test_extremes(self, canonical):
        canonical.assert_in_band(
            "max CMFs on one rack",
            "min CMFs on one rack",
            "most-failing rack is (1, 8)",
            "least-failing rack is (2, 7)",
        )
        assert canonical.cmfs.second_max_rack_count <= constants.OTHER_RACK_MAX_CMFS

    def test_correlations_weak(self, canonical):
        canonical.assert_in_band(
            "corr(CMFs, utilization)",
            "corr(CMFs, outlet temperature)",
            "corr(CMFs, humidity)",
        )


class TestFig12Leadup:
    def test_flow_collapses_at_the_failure(self, canonical):
        aggregate = aggregate_leadup(canonical.positive_windows)
        assert aggregate.change_at(Channel.FLOW, 0.0) < -0.3


class TestFig13Predictor:
    def test_accuracy_and_fpr_improve_toward_the_failure(self, canonical):
        assert canonical.measured("accuracy at 30 min lead") >= canonical.measured(
            "accuracy at 6 h lead"
        )
        assert canonical.measured("FPR at 30 min lead") <= canonical.measured(
            "FPR at 6 h lead"
        )


class TestFig14Aftermath:
    def test_rate_decay(self, canonical):
        canonical.assert_in_band(
            "rate at 6 h / rate at 3 h (paper: < 0.75)", "rate at 48 h / rate at 3 h"
        )

    def test_type_mix(self, canonical):
        assert canonical.aftermath.dominant_category == "ac_dc_power"
        canonical.assert_in_band("AC-to-DC power share", "process share (paper: < 2 %)")


class TestFig15StormSpread:
    def test_examples_nonlocal(self, canonical):
        canonical.assert_in_band(
            "example storms extracted", "storms with non-local followers"
        )
        for example in canonical.aftermath.examples:
            assert len(example.follower_racks) >= 3
