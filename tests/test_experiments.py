"""The experiment-index module (EXPERIMENTS.md source)."""

import math

import pytest

from repro.core.experiments import full_report, render_markdown
from repro.core.report import ReportRow
from repro.simulation import FacilityEngine, MiraScenario

#: Rows a run without a CMF or without the Theta era cannot measure.
_NO_CMF_NO_THETA = {
    "total flow after Theta",
    "corr(CMFs, utilization)",
    "corr(CMFs, outlet temperature)",
    "corr(CMFs, humidity)",
    "rate at 6 h / rate at 3 h (paper: < 0.75)",
    "rate at 48 h / rate at 3 h",
}
_NON_MONDAY = {
    "non-Monday power increase",
    "non-Monday utilization increase",
    "non-Monday flow change",
    "non-Monday inlet change",
    "non-Monday outlet increase",
}


class TestFullReport:
    def test_sections_without_windows(self, year_result):
        sections = full_report(year_result)
        assert len(sections) == 10
        for title, rows in sections.items():
            assert rows, f"empty section {title}"
            assert all(isinstance(row, ReportRow) for row in rows)

    def test_window_sections_added(self, year_result):
        sections = full_report(year_result, synthesize_windows=True)
        assert any("Fig 12" in title for title in sections)
        assert any("Fig 13" in title for title in sections)

    def test_figures_covered(self, year_result):
        sections = full_report(year_result)
        figures = {row.figure for rows in sections.values() for row in rows}
        for fig in ("Fig 2a", "Fig 3a", "Fig 4a", "Fig 5a", "Fig 6a",
                    "Fig 7a", "Fig 8a", "Fig 9a", "Fig 10", "Fig 11",
                    "Fig 14a", "Fig 15"):
            assert fig in figures, f"missing {fig}"


class TestMarkdown:
    def test_renders_tables(self, year_result):
        text = render_markdown(full_report(year_result))
        assert "### Fig 2" in text
        assert "| source | metric | paper | measured | unit |" in text
        # One table per section.
        separators = [l for l in text.splitlines() if l.startswith("|---")]
        assert len(separators) == 10

    def test_every_row_rendered(self, year_result):
        sections = full_report(year_result)
        text = render_markdown(sections)
        total_rows = sum(len(rows) for rows in sections.values())
        # Header rows: two per section.
        data_lines = [
            line
            for line in text.splitlines()
            if line.startswith("| ") and "metric" not in line and "---" not in line
        ]
        assert len(data_lines) == total_rows


class TestShortData:
    """Too little data reads "n/a" (and fails its band) instead of raising."""

    @pytest.mark.parametrize(
        "days, unmeasured",
        [
            (1, _NO_CMF_NO_THETA | _NON_MONDAY),  # a Sunday: no Monday yet
            (3, _NO_CMF_NO_THETA),
        ],
    )
    def test_short_run_reports_na_rows(self, days, unmeasured):
        result = FacilityEngine(MiraScenario.demo(days=days, seed=11)).run()
        assert not result.ras_log.fatal_cmf_events()
        sections = full_report(
            result, workers=1, synthesize_windows=True, section_cache=False
        )
        rows = [row for section in sections.values() for row in section]
        nan_rows = {row.metric for row in rows if math.isnan(row.measured_value)}
        assert nan_rows == unmeasured
        assert all(
            row.in_band is False for row in rows if row.metric in unmeasured
        )
        assert "| n/a |" in render_markdown(sections)
