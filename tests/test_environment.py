"""Ambient temperature/humidity analyses (Figs 8-9) on the canonical study.

The bands live on the report rows (:mod:`repro.core.experiments`);
these tests name the rows each claim covers and check the values that
are not report rows.
"""


class TestAmbientTrends:
    def test_temperature_band(self, canonical):
        canonical.assert_in_band("DC temperature min", "DC temperature max")

    def test_humidity_band(self, canonical):
        canonical.assert_in_band("DC humidity min", "DC humidity max")

    def test_stds_near_paper(self, canonical):
        canonical.assert_in_band("DC temperature std", "DC humidity std")

    def test_humidity_summer_seasonal(self, canonical):
        canonical.assert_in_band("summer humidity exceeds winter")
        trends = canonical.ambient
        assert trends.summer_humidity - trends.winter_humidity > 2.0


class TestAmbientSpatial:
    def test_humidity_spread_near_36_percent(self, canonical):
        canonical.assert_in_band("rack DC-humidity spread")

    def test_temperature_spread_near_11_percent(self, canonical):
        canonical.assert_in_band("rack DC-temperature spread")

    def test_row_ends_warm_and_dry(self, canonical):
        canonical.assert_in_band(
            "row-end temperature excess", "row-end humidity deficit"
        )

    def test_hotspot_detection_finds_1_8(self, canonical):
        canonical.assert_in_band("hotspot (1, 8) detected")

    def test_hotspots_are_center_racks(self, canonical):
        for rack in canonical.spatial.hotspots():
            assert 4 <= rack.col <= 11
