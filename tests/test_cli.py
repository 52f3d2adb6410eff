"""The command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import main


class TestParsing:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_setup_py_reports_package_version(self):
        # One source: installed metadata must match ``repro --version``.
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split()[-1] == __version__


class TestSimulate:
    def test_simulate_exports_files(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--days", "3",
                "--seed", "3",
                "--dt", "3600",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "telemetry.csv").exists()
        assert (tmp_path / "out" / "ras.jsonl").exists()
        output = capsys.readouterr().out
        assert "telemetry rows" in output

    def test_exported_telemetry_reimports(self, tmp_path):
        from repro.telemetry.export import import_telemetry_csv

        main(
            [
                "simulate",
                "--days", "2",
                "--seed", "1",
                "--dt", "3600",
                "--out", str(tmp_path),
            ]
        )
        database = import_telemetry_csv(tmp_path / "telemetry.csv")
        assert database.num_samples == 48  # 2 days hourly


class TestReport:
    def test_report_prints_tables(self, capsys):
        code = main(["report", "--days", "120", "--seed", "11"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Fig 2" in output
        assert "paper=" in output
        assert "Fig 14" in output

    def test_report_stats_flag(self, tmp_path, monkeypatch, capsys):
        from repro.simulation.datasets import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        code = main(["report", "--days", "20", "--seed", "11", "--stats"])
        assert code == 0
        output = capsys.readouterr().out
        assert "dataset digest:" in output
        # The conftest env gate keeps the default store off in tests.
        assert "section cache: disabled" in output
        assert "dataset cache: quarantined=" in output
        assert ", store_failed=" in output

    def test_report_no_section_cache_flag(self, capsys):
        code = main(
            ["report", "--days", "20", "--seed", "11",
             "--no-section-cache", "--stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "section cache: disabled" in output


class TestServeReplay:
    def test_unpaced_replay_prints_report(self, capsys):
        code = main(
            [
                "serve-replay",
                "--days", "2",
                "--seed", "3",
                "--dt", "3600",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "published 48 rows" in output
        assert "rollups:" in output
        assert "rollup buckets" in output
        assert "query cache" in output

    def test_faulted_replay_with_policy(self, capsys):
        code = main(
            [
                "serve-replay",
                "--days", "2",
                "--seed", "3",
                "--dt", "3600",
                "--inject-faults",
                "--policy", "coalesce",
                "--no-cusum",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "published 48 rows" in output
        assert "cusum" not in output


class TestQuery:
    def test_aggregate_query(self, capsys):
        code = main(
            [
                "query",
                "--days", "2",
                "--seed", "3",
                "--dt", "3600",
                "--channel", "power_kw",
                "--stat", "mean",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean(power_kw) [facility] =" in output
        assert "query cache: hits=1, misses=1" in output

    def test_series_query_scoped_to_row(self, capsys):
        code = main(
            [
                "query",
                "--days", "2",
                "--seed", "3",
                "--dt", "3600",
                "--channel", "inlet_temperature_f",
                "--kind", "series",
                "--scope", "row",
                "--row", "1",
                "--start-day", "0",
                "--end-day", "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "resolution: 86400s" in output

    def test_unknown_channel_fails_cleanly(self, capsys):
        code = main(
            [
                "query",
                "--days", "2",
                "--seed", "3",
                "--dt", "3600",
                "--channel", "warp_core_temp",
            ]
        )
        assert code == 1
        assert "unknown channel" in capsys.readouterr().out

class TestChaos:
    def test_matrix_reports_ok_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--days", "2",
                "--dt", "3600",
                "--chunk-sizes", "8",
                "--scenarios", "crash",
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "chaos matrix: OK" in output
        import json

        summary = json.loads(out.read_text())
        assert summary["ok"] is True
        assert summary["cells"][0]["scenario"] == "crash"


class TestCache:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        from repro.simulation.datasets import CACHE_DIR_ENV, CACHE_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(CACHE_ENV, raising=False)
        return tmp_path

    def test_info_on_empty_cache(self, cache_dir, capsys):
        assert main(["cache", "info"]) == 0
        assert "no dataset-cache entries" in capsys.readouterr().out

    def test_info_lists_entries(self, cache_dir, capsys):
        from repro.simulation import MiraScenario
        from repro.simulation.datasets import build_dataset

        build_dataset(MiraScenario.demo(days=3, seed=5))
        assert main(["cache", "info"]) == 0
        output = capsys.readouterr().out
        assert "digest" in output
        assert "MB total" in output

    def test_info_counts_quarantined_entries(self, cache_dir, capsys):
        from repro.simulation import MiraScenario
        from repro.simulation.datasets import _config_digest, build_dataset

        config = MiraScenario.demo(days=3, seed=5)
        build_dataset(config)
        (cache_dir / _config_digest(config) / "result.json").write_text("{not json")
        build_dataset(config)
        assert main(["cache", "info"]) == 0
        assert "quarantined dataset entries: 1" in capsys.readouterr().out

    def test_clear_empties_cache(self, cache_dir, capsys):
        from repro.simulation import MiraScenario
        from repro.simulation.datasets import build_dataset, cache_entries

        build_dataset(MiraScenario.demo(days=3, seed=5))
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert cache_entries() == []

    def test_info_lists_section_memos(self, cache_dir, capsys):
        from repro.analytics.incremental import SectionMemoStore

        store = SectionMemoStore(enabled=True)
        store.store_rows(store.key("a" * 64, "fig2_rows", "b" * 16), [("r",)])
        assert main(["cache", "info"]) == 0
        output = capsys.readouterr().out
        assert "section memos at" in output
        assert "fig2_rows" in output
        assert "kB total" in output

    def test_clear_sweeps_section_memos(self, cache_dir, capsys):
        from repro.analytics.incremental import SectionMemoStore

        store = SectionMemoStore(enabled=True)
        store.store_rows(store.key("a" * 64, "fig2_rows", "b" * 16), [("r",)])
        store.store_state("system-series", "b" * 16, {"rows": 1})
        assert main(["cache", "clear"]) == 0
        output = capsys.readouterr().out
        assert "removed 2 section-memo entries" in output
        assert store.entries() == []

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestReportWorkers:
    def test_parallel_report_output_matches_serial(self, capsys):
        assert main(["report", "--days", "90", "--seed", "11", "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["report", "--days", "90", "--seed", "11", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # The banner names the worker count; everything below it must
        # be byte-identical.
        assert serial.split(" ...\n", 2)[2] == parallel.split(" ...\n", 2)[2]
