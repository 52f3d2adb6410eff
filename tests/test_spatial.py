"""Rack-level analyses (Figs 6-7)."""

import numpy as np
import pytest

from repro import constants
from repro.core.spatial import relative_spread, row_means


class TestHelpers:
    def test_relative_spread(self):
        assert relative_spread(np.array([10.0, 11.0])) == pytest.approx(0.1)

    def test_relative_spread_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            relative_spread(np.array([0.0, 1.0]))

    def test_row_means(self):
        profile = np.concatenate(
            [np.full(16, 1.0), np.full(16, 2.0), np.full(16, 3.0)]
        )
        assert row_means(profile) == (1.0, 2.0, 3.0)


class TestRackPowerProfile:
    """Fig 6 on the canonical study; the bands live on the report rows."""

    def test_shapes(self, canonical):
        assert canonical.rack_power.power_kw.shape == (constants.NUM_RACKS,)
        assert canonical.rack_power.utilization.shape == (constants.NUM_RACKS,)

    def test_power_spread_in_band(self, canonical):
        canonical.assert_in_band("rack power spread")

    def test_highest_power_rack_is_0D(self, canonical):
        canonical.assert_in_band("highest-power rack is (0, D)")

    def test_highest_utilization_rack_is_0A(self, canonical):
        canonical.assert_in_band("highest-utilization rack is (0, A)")

    def test_lowest_utilization_rack_is_2D(self, canonical):
        canonical.assert_in_band("lowest-utilization rack is (2, D)")

    def test_row_zero_highest(self, canonical):
        assert canonical.rack_power.highest_utilization_row == constants.PROD_LONG_ROW
        assert canonical.rack_power.highest_power_row == constants.PROD_LONG_ROW

    def test_correlation_near_paper(self, canonical):
        canonical.assert_in_band("corr(rack power, rack utilization)")


class TestRackCoolantProfile:
    """Fig 7 on the canonical study; the bands live on the report rows."""

    def test_flow_spread_in_band(self, canonical):
        canonical.assert_in_band("rack flow spread")

    def test_inlet_nearly_uniform(self, canonical):
        canonical.assert_in_band("rack inlet spread")

    def test_outlet_spread_between_inlet_and_power(self, canonical):
        assert (
            canonical.measured("rack inlet spread")
            < canonical.measured("rack outlet spread")
            < canonical.measured("rack power spread")
        )

    def test_mean_flow_per_rack(self, canonical):
        canonical.assert_in_band("mean per-rack flow")
