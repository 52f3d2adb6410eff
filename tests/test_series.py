"""TimeSeries operations."""

import datetime as dt

import numpy as np
import pytest

from repro import timeutil
from repro.telemetry.series import LinearFit, TimeSeries, linear_fit


def _hourly(days=10, start=dt.datetime(2015, 1, 1)):
    return timeutil.time_grid(start, start + dt.timedelta(days=days), 3600.0)


class TestConstruction:
    def test_length(self):
        epoch = _hourly(2)
        series = TimeSeries(epoch, np.ones_like(epoch))
        assert len(series) == 48

    def test_per_rack_flag(self):
        epoch = _hourly(1)
        flat = TimeSeries(epoch, np.ones_like(epoch))
        wide = TimeSeries(epoch, np.ones((len(epoch), 48)))
        assert not flat.is_per_rack
        assert wide.is_per_rack

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(_hourly(1), np.ones(5))

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([2.0, 1.0]), np.array([0.0, 0.0]))

    def test_3d_values_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0]), np.ones((1, 2, 3)))


class TestSlicing:
    def test_between(self):
        epoch = _hourly(10)
        series = TimeSeries(epoch, np.arange(len(epoch), dtype=float))
        cut = series.between(epoch[24], epoch[48])
        assert len(cut) == 24
        assert cut.values[0] == 24.0

    def test_rack_extraction(self):
        epoch = _hourly(1)
        values = np.tile(np.arange(48.0), (len(epoch), 1))
        series = TimeSeries(epoch, values)
        assert np.all(series.rack(7).values == 7.0)

    def test_rack_on_flat_series_rejected(self):
        series = TimeSeries(_hourly(1), np.ones(24))
        with pytest.raises(ValueError):
            series.rack(0)


class TestReductions:
    def test_across_racks_mean(self):
        epoch = _hourly(1)
        values = np.tile(np.arange(48.0), (len(epoch), 1))
        series = TimeSeries(epoch, values).across_racks("mean")
        assert np.allclose(series.values, np.arange(48.0).mean())

    def test_across_racks_sum(self):
        epoch = _hourly(1)
        series = TimeSeries(epoch, np.ones((len(epoch), 48))).across_racks("sum")
        assert np.allclose(series.values, 48.0)

    def test_per_rack_mean(self):
        epoch = _hourly(1)
        values = np.tile(np.arange(48.0), (len(epoch), 1))
        profile = TimeSeries(epoch, values).per_rack_mean()
        assert np.allclose(profile, np.arange(48.0))

    def test_overall_stats_ignore_nan(self):
        epoch = np.array([0.0, 1.0, 2.0])
        series = TimeSeries(epoch, np.array([1.0, np.nan, 3.0]))
        assert series.overall_mean() == pytest.approx(2.0)


class TestResample:
    def test_daily_buckets(self):
        epoch = _hourly(4)
        series = TimeSeries(epoch, np.arange(len(epoch), dtype=float))
        daily = series.resample(86_400.0)
        assert len(daily) == 4
        assert daily.values[0] == pytest.approx(np.arange(24).mean())

    def test_median_reducer(self):
        epoch = np.arange(10.0)
        values = np.array([0, 0, 0, 0, 100, 0, 0, 0, 0, 0], dtype=float)
        bucketed = TimeSeries(epoch, values).resample(10.0, "median")
        assert bucketed.values[0] == 0.0

    def test_preserves_rack_axis(self):
        epoch = _hourly(2)
        series = TimeSeries(epoch, np.ones((len(epoch), 48)))
        daily = series.resample(86_400.0)
        assert daily.values.shape == (2, 48)

    def test_bad_bucket_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(_hourly(1), np.ones(24)).resample(0.0)


class TestCalendarGroupby:
    def test_by_weekday(self):
        epoch = _hourly(14)  # two full weeks
        weekdays = timeutil.weekdays(epoch)
        values = (weekdays == 0).astype(float)  # 1.0 on Mondays
        by_day = TimeSeries(epoch, values).groupby_calendar("weekday", "mean")
        assert by_day[0] == pytest.approx(1.0)
        assert by_day[3] == pytest.approx(0.0)

    def test_by_month(self):
        epoch = timeutil.time_grid(
            dt.datetime(2015, 1, 1), dt.datetime(2015, 4, 1), 6 * 3600.0
        )
        months = timeutil.months(epoch)
        series = TimeSeries(epoch, months.astype(float))
        by_month = series.groupby_calendar("month", "median")
        assert by_month == {1: 1.0, 2: 2.0, 3: 3.0}

    def test_per_rack_series_averages_racks_first(self):
        epoch = _hourly(7)
        values = np.ones((len(epoch), 48))
        by_day = TimeSeries(epoch, values).groupby_calendar("weekday", "mean")
        assert all(v == pytest.approx(1.0) for v in by_day.values())


class TestTrend:
    def test_linear_fit_recovers_slope(self):
        epoch = _hourly(365)
        slope_per_year = 0.1
        values = 2.5 + slope_per_year * (epoch - epoch[0]) / timeutil.YEAR_S
        fit = linear_fit(epoch, values)
        assert fit.slope_per_year == pytest.approx(slope_per_year, rel=1e-6)
        assert fit.intercept_at_start == pytest.approx(2.5, abs=1e-9)

    def test_fit_predict(self):
        epoch = _hourly(100)
        values = 1.0 + 0.5 * (epoch - epoch[0]) / timeutil.YEAR_S
        fit = linear_fit(epoch, values)
        predicted = fit.predict(epoch[-1:])
        assert predicted[0] == pytest.approx(values[-1], rel=1e-9)

    def test_fit_ignores_nan(self):
        epoch = _hourly(10)
        values = np.ones(len(epoch))
        values[::3] = np.nan
        fit = linear_fit(epoch, values)
        assert fit.slope_per_year == pytest.approx(0.0, abs=1e-9)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            linear_fit(np.array([0.0]), np.array([1.0]))

    def test_series_trend_too_short_is_nan(self):
        fit = TimeSeries(np.array([0.0]), np.array([1.0])).trend()
        assert np.isnan(fit.slope_per_year)
        assert np.isnan(fit.predict(np.array([0.0]))[0])

    def test_series_trend_on_per_rack(self):
        epoch = _hourly(30)
        values = np.ones((len(epoch), 48)) * 2.0
        fit = TimeSeries(epoch, values).trend()
        assert fit.slope_per_year == pytest.approx(0.0, abs=1e-9)


class TestRollingMean:
    def test_constant_series_unchanged(self):
        epoch = _hourly(2)
        series = TimeSeries(epoch, np.full(len(epoch), 5.0)).rolling_mean(7)
        assert np.allclose(series.values, 5.0)

    def test_smooths_spike(self):
        epoch = np.arange(11.0)
        values = np.zeros(11)
        values[5] = 10.0
        smooth = TimeSeries(epoch, values).rolling_mean(5)
        assert smooth.values[5] == pytest.approx(2.0)

    def test_window_one_is_identity(self):
        epoch = np.arange(5.0)
        values = np.arange(5.0)
        assert np.allclose(
            TimeSeries(epoch, values).rolling_mean(1).values, values
        )

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(np.arange(3.0), np.arange(3.0)).rolling_mean(0)
