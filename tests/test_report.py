"""Paper-vs-measured reporting helpers."""

import numpy as np
import pytest

from repro.core.report import (
    ReportRow,
    format_band,
    format_table,
    format_value,
    out_of_band,
    sparkline,
)


class TestReportRow:
    def test_relative_error(self):
        row = ReportRow("Fig 2", "power", paper_value=2.9, measured_value=2.87)
        assert row.relative_error == pytest.approx(0.03 / 2.9)

    def test_zero_paper_value(self):
        row = ReportRow("Fig X", "x", paper_value=0.0, measured_value=0.0)
        assert row.relative_error == 0.0
        row2 = ReportRow("Fig X", "x", paper_value=0.0, measured_value=1.0)
        assert row2.relative_error == float("inf")

    def test_formatted_contains_values(self):
        row = ReportRow("Fig 3", "flow", 1250.0, 1248.5, unit="GPM")
        text = row.formatted()
        assert "Fig 3" in text
        assert "1250" in text
        assert "GPM" in text


class TestFormatTable:
    def test_table_structure(self):
        rows = [
            ReportRow("Fig 2", "power start", 2.5, 2.53, "MW"),
            ReportRow("Fig 2", "power end", 2.9, 2.87, "MW"),
        ]
        table = format_table(rows, title="Fig 2")
        lines = table.splitlines()
        assert lines[0] == "Fig 2"
        assert sum("paper=" in line for line in lines) == 2


class TestSparkline:
    def test_length_capped(self):
        line = sparkline(np.sin(np.linspace(0, 10, 500)), width=40)
        assert 0 < len(line) <= 40

    def test_constant_series(self):
        line = sparkline([3.0, 3.0, 3.0])
        assert len(set(line)) == 1

    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_monotone_series_rises(self):
        line = sparkline(np.linspace(0, 1, 30), width=30)
        assert line[0] != line[-1]


class TestNanRendering:
    """Satellite: NaN measurements render as ``n/a``, never ``nan``."""

    def test_format_value_nan(self):
        assert format_value(float("nan")) == "n/a"
        assert format_value(1.23456) == "1.235"

    def test_relative_error_nan_measurement(self):
        row = ReportRow("Fig X", "empty-window metric", 2.0, float("nan"))
        assert np.isnan(row.relative_error)

    def test_relative_error_nan_paper_value(self):
        row = ReportRow("Fig X", "unreported metric", float("nan"), 2.0)
        assert np.isnan(row.relative_error)

    def test_format_table_shows_na(self):
        table = format_table(
            [ReportRow("Fig X", "empty-window metric", 2.0, float("nan"))]
        )
        assert "n/a" in table
        assert "nan" not in table

    def test_render_markdown_shows_na(self):
        from repro.core.experiments import render_markdown

        sections = {
            "Fig X": [ReportRow("Fig X", "empty", 2.0, float("nan"))]
        }
        text = render_markdown(sections)
        assert "| n/a |" in text
        assert "nan" not in text


class TestBands:
    def test_band_is_closed(self):
        assert ReportRow("Fig X", "x", 1.0, 1.0, band=(1.0, 2.0)).in_band
        assert ReportRow("Fig X", "x", 1.0, 2.0, band=(1.0, 2.0)).in_band
        assert ReportRow("Fig X", "x", 1.0, 2.5, band=(1.0, 2.0)).in_band is False

    def test_nan_measurement_is_out_of_band(self):
        row = ReportRow("Fig X", "x", 1.0, float("nan"), band=(-np.inf, np.inf))
        assert row.in_band is False

    def test_ungated_row_is_neither(self):
        row = ReportRow("Fig X", "x", 1.0, float("nan"))
        assert row.in_band is None
        assert out_of_band([row]) == []

    def test_out_of_band_keeps_only_failures(self):
        good = ReportRow("Fig X", "good", 1.0, 1.0, band=(1.0, 1.0))
        bad = ReportRow("Fig X", "bad", 1.0, 0.0, band=(1.0, 1.0))
        assert out_of_band([good, bad, ReportRow("Fig X", "free", 1.0, 0.0)]) == [bad]

    def test_format_band(self):
        assert format_band((2.35, 2.65)) == "[2.35, 2.65]"
        assert format_band((-np.inf, 0.04)) == "<= 0.04"
        assert format_band((1.005, np.inf)) == ">= 1.005"
        assert format_band((361.0, 361.0)) == "= 361"
        assert format_band(None) == "reported, not gated"

    def test_table_line_shows_band_and_mark(self):
        line = ReportRow("Fig X", "x", 1.0, 2.5, "MW", band=(1.0, 2.0)).formatted()
        assert line.endswith("[1, 2]               NO")

    def test_render_markdown_appends_band_and_ok(self):
        from repro.core.experiments import render_markdown

        text = render_markdown({"Fig X": [
            ReportRow("Fig X", "in", 1.0, 1.5, "MW", band=(1.0, 2.0)),
            ReportRow("Fig X", "out", 1.0, 2.5, band=(1.0, 2.0)),
            ReportRow("Fig X", "free", 1.0, 2.5),
        ]})
        assert "| source | metric | paper | measured | unit | band | ok |" in text
        assert "| Fig X | in | 1 | 1.5 | MW | [1, 2] | yes |" in text
        assert "| Fig X | out | 1 | 2.5 |  | [1, 2] | NO |" in text
        assert "| Fig X | free | 1 | 2.5 |  | reported, not gated | — |" in text
