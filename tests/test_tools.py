"""The EXPERIMENTS.md generator tool."""

from pathlib import Path

import pytest

import repro.core.experiments
import repro.simulation.datasets
from repro.core.report import ReportRow
from repro.tools.experiments import _HEADER, main


class TestHeader:
    def test_header_mentions_regeneration_command(self):
        assert "python -m repro.tools.experiments" in _HEADER

    def test_header_is_markdown(self):
        assert _HEADER.startswith("# EXPERIMENTS")


class TestGeneratedFile:
    def test_repo_experiments_md_up_to_date_shape(self):
        """The committed EXPERIMENTS.md has every figure section."""
        path = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
        assert path.exists(), "EXPERIMENTS.md missing from the repo root"
        text = path.read_text()
        for section in (
            "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
            "Fig 8", "Fig 9", "Figs 10-11", "Fig 12", "Fig 13",
            "Figs 14-15",
        ):
            assert section in text, f"missing section {section}"
        assert "| source | metric | paper | measured | unit |" in text


class TestBandCheck:
    """The tool writes the file, then exits 1 naming each row out of band."""

    def test_rows_outside_their_bands_fail(self, demo_result, tmp_path, monkeypatch, capsys):
        # A 120-day run is no six-year study: 361 CMFs cannot happen.
        monkeypatch.setattr(
            repro.simulation.datasets, "canonical_dataset", lambda: demo_result
        )
        out = tmp_path / "EXPERIMENTS.md"
        assert main(out, workers=1) == 1
        err = capsys.readouterr().err
        assert "outside its band: Fig 10 total CMFs" in err
        assert "| Fig 10 | total CMFs | 361 |" in out.read_text()

    def test_rows_in_their_bands_pass(self, tmp_path, monkeypatch, capsys):
        rows = [
            ReportRow("Fig X", "gated", 1.0, 1.0, band=(1.0, 1.0)),
            ReportRow("Fig X", "reported only", 1.0, float("nan")),
        ]
        monkeypatch.setattr(
            repro.simulation.datasets, "canonical_dataset", lambda: None
        )
        monkeypatch.setattr(
            repro.core.experiments, "full_report", lambda *a, **k: {"Fig X": rows}
        )
        assert main(tmp_path / "EXPERIMENTS.md") == 0
        assert "outside its band" not in capsys.readouterr().err
