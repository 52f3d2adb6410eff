"""Canonical dataset contracts: caching, determinism, coverage."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import constants, timeutil
from repro.simulation import FacilityEngine, MiraScenario
from repro import __version__
from repro.simulation.datasets import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    CACHE_FAILURES,
    _config_digest,
    build_dataset,
    cache_entries,
    cache_root,
    canonical_dataset,
    clear_cache,
    quarantined_count,
    small_dataset,
)
from repro.telemetry.archive import TelemetryArchive
from repro.telemetry.records import CHANNELS, Channel


class TestMemoization:
    def test_canonical_memoized(self, full_result):
        assert canonical_dataset() is full_result or canonical_dataset() is canonical_dataset()

    def test_small_memoized(self, demo_result):
        assert small_dataset() is demo_result or small_dataset() is small_dataset()


class TestCanonicalCoverage:
    def test_covers_full_production_period(self, full_result):
        assert full_result.config.start == constants.PRODUCTION_START
        assert full_result.config.end == constants.PRODUCTION_END
        years = set(timeutil.years(full_result.database.epoch_s))
        assert years == set(range(2014, 2020))

    def test_hourly_cadence(self, full_result):
        gaps = np.diff(full_result.database.epoch_s)
        assert np.allclose(gaps, 3600.0)

    def test_full_failure_schedule(self, full_result):
        assert len(full_result.schedule.events) == constants.TOTAL_CMFS

    def test_sample_count(self, full_result):
        expected = int(
            (full_result.end_epoch_s - full_result.start_epoch_s) / 3600.0
        )
        assert full_result.database.num_samples == expected


class TestSuiteIsolation:
    def test_suite_avoids_default_cache(self):
        """The suite never caches in the user's default ``~/.cache/repro``:
        ``tests/conftest.py`` points ``REPRO_CACHE_DIR`` at a session
        temp directory when the run leaves it unset."""
        assert cache_root() != Path.home() / ".cache" / "repro"


class TestDiskCache:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(CACHE_ENV, raising=False)
        return tmp_path

    @pytest.fixture
    def tiny_config(self):
        return MiraScenario.demo(days=3, seed=5)

    def test_cache_root_honors_env(self, cache_dir):
        assert cache_root() == cache_dir

    def test_second_build_loads_identical_telemetry(self, cache_dir, tiny_config):
        first = build_dataset(tiny_config)
        entry = cache_dir / _config_digest(tiny_config)
        assert (entry / "result.json").exists()
        second = build_dataset(tiny_config)
        assert np.array_equal(first.database.epoch_s, second.database.epoch_s)
        for channel in CHANNELS:
            assert np.array_equal(
                first.database.channel(channel).values,
                second.database.channel(channel).values,
                equal_nan=True,
            )
        assert second.jobs_completed == first.jobs_completed
        assert second.jobs_killed == first.jobs_killed
        # The failure schedule is rebuilt, not persisted, and must match.
        assert [e.epoch_s for e in second.schedule.events] == [
            e.epoch_s for e in first.schedule.events
        ]

    def test_opt_out_skips_disk(self, cache_dir, tiny_config, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "0")
        build_dataset(tiny_config)
        assert not any(cache_dir.iterdir())

    def test_corrupt_entry_falls_back_to_rebuild(self, cache_dir, tiny_config):
        build_dataset(tiny_config)
        entry = cache_dir / _config_digest(tiny_config)
        (entry / "result.json").write_text("{not json")
        rebuilt = build_dataset(tiny_config)
        # demo() runs at 30-minute cadence: 48 samples per day.
        assert rebuilt.database.num_samples == 3 * 48

    def test_manifest_written_with_entry(self, cache_dir, tiny_config):
        build_dataset(tiny_config)
        entry = cache_dir / _config_digest(tiny_config)
        meta = json.loads((entry / "result.json").read_text())
        files = meta["files"]
        assert files  # every telemetry column is covered
        for rel, digest in files.items():
            assert (entry / rel).is_file()
            assert len(digest) == 64  # sha256 hex

    def test_corrupt_column_quarantined_and_rematerialized(
        self, cache_dir, tiny_config
    ):
        first = build_dataset(tiny_config)
        entry = cache_dir / _config_digest(tiny_config)
        meta = json.loads((entry / "result.json").read_text())
        victim = entry / sorted(meta["files"])[0]
        victim.write_bytes(victim.read_bytes()[:-4] + b"\xde\xad\xbe\xef")
        rebuilt = build_dataset(tiny_config)
        # The bad entry moved aside; a clean one took its place.
        quarantined = [
            c for c in cache_dir.iterdir() if c.name.startswith(".quarantine-")
        ]
        assert len(quarantined) == 1
        assert (entry / "result.json").exists()
        assert np.array_equal(
            rebuilt.database.epoch_s, first.database.epoch_s
        )
        for channel in CHANNELS:
            assert np.array_equal(
                rebuilt.database.channel(channel).values,
                first.database.channel(channel).values,
                equal_nan=True,
            )

    def test_entry_without_manifest_quarantined_and_rebuilt(
        self, cache_dir, tiny_config
    ):
        """An unverifiable entry is never served: it is moved aside once
        and the rebuild is bit-identical."""
        first = build_dataset(tiny_config)
        entry = cache_dir / _config_digest(tiny_config)
        meta = json.loads((entry / "result.json").read_text())
        del meta["files"]
        (entry / "result.json").write_text(json.dumps(meta))
        second = build_dataset(tiny_config)
        quarantined = [
            c for c in cache_dir.iterdir() if c.name.startswith(".quarantine-")
        ]
        assert len(quarantined) == 1
        assert "files" in json.loads((entry / "result.json").read_text())
        build_dataset(tiny_config)  # the rebuilt entry verifies
        assert len(
            [c for c in cache_dir.iterdir() if c.name.startswith(".quarantine-")]
        ) == 1
        assert np.array_equal(second.database.epoch_s, first.database.epoch_s)
        for channel in CHANNELS:
            assert np.array_equal(
                second.database.channel(channel).values,
                first.database.channel(channel).values,
                equal_nan=True,
            )

    def test_quarantine_counted(self, cache_dir, tiny_config):
        build_dataset(tiny_config)
        entry = cache_dir / _config_digest(tiny_config)
        (entry / "result.json").write_text("{not json")
        before = CACHE_FAILURES.quarantined
        build_dataset(tiny_config)
        assert CACHE_FAILURES.quarantined == before + 1
        assert quarantined_count() == 1

    def test_quarantine_shows_in_metrics(self, cache_dir, tiny_config):
        from repro.service.http import OperationsApp

        app = OperationsApp.from_database(build_dataset(tiny_config).database)
        before = app.metrics()["dataset_cache"]["quarantined"]
        entry = cache_dir / _config_digest(tiny_config)
        (entry / "result.json").write_text("{not json")
        build_dataset(tiny_config)
        assert app.metrics()["dataset_cache"]["quarantined"] == before + 1

    def test_failed_store_counted(self, cache_dir, tiny_config, monkeypatch):
        def full_disk(database, directory):
            raise OSError("no space left on device")

        monkeypatch.setattr(TelemetryArchive, "save", staticmethod(full_disk))
        before = CACHE_FAILURES.store_failed
        result = build_dataset(tiny_config)
        assert CACHE_FAILURES.store_failed == before + 1
        assert result.database.num_samples == 3 * 48
        assert not any(cache_dir.iterdir())  # the temp dir was removed

    def test_digest_separates_configs_and_versions(self, tiny_config, monkeypatch):
        other = MiraScenario.demo(days=3, seed=6)
        before = _config_digest(tiny_config)
        assert before != _config_digest(other)
        import repro.simulation.datasets as datasets

        monkeypatch.setattr(datasets, "__version__", "0.0.0-test")
        assert _config_digest(tiny_config) != before


class TestDeterminism:
    def test_rebuild_matches_cached(self, full_result):
        """A fresh engine with the canonical config reproduces the
        cached realization bit-for-bit (the no-wall-clock guarantee)."""
        fresh = FacilityEngine(MiraScenario.full_study()).run()
        for channel in (Channel.POWER, Channel.FLOW, Channel.DC_HUMIDITY):
            assert np.array_equal(
                fresh.database.channel(channel).values,
                full_result.database.channel(channel).values,
                equal_nan=True,
            )
        assert len(fresh.ras_log) == len(full_result.ras_log)
        assert [e.epoch_s for e in fresh.schedule.events] == [
            e.epoch_s for e in full_result.schedule.events
        ]


class TestCacheManagement:
    """Satellite: the helpers behind ``repro cache info`` / ``clear``."""

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(CACHE_ENV, raising=False)
        return tmp_path

    def test_empty_cache_lists_nothing(self, cache_dir):
        assert cache_entries() == []
        assert clear_cache() == 0

    def test_entries_describe_builds(self, cache_dir):
        result = build_dataset(MiraScenario.demo(days=3, seed=5))
        entries = cache_entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.digest == _config_digest(result.config)
        assert entry.version == __version__
        assert entry.size_bytes > 0
        assert entry.size_mb == pytest.approx(entry.size_bytes / 1e6)

    def test_clear_removes_entries(self, cache_dir):
        build_dataset(MiraScenario.demo(days=3, seed=5))
        build_dataset(MiraScenario.demo(days=3, seed=6))
        assert clear_cache() == 2
        assert cache_entries() == []

    def test_quarantined_entries_hidden_and_swept(self, cache_dir):
        config = MiraScenario.demo(days=3, seed=5)
        build_dataset(config)
        entry = cache_dir / _config_digest(config)
        entry.rename(cache_dir / f".quarantine-{entry.name}-test")
        # Not listed as a live entry, but clear_cache sweeps it.
        assert cache_entries() == []
        assert clear_cache() == 0
        assert not any(cache_dir.iterdir())

    def test_archive_roundtrip_is_bit_exact(self, cache_dir, tmp_path):
        result = build_dataset(MiraScenario.demo(days=3, seed=5))
        archive = TelemetryArchive.save(result.database, tmp_path / "arch")
        restored = TelemetryArchive.load(archive, mmap=True)
        assert np.array_equal(restored.epoch_s, result.database.epoch_s)
        for channel in CHANNELS:
            assert np.array_equal(
                restored.channel(channel).values,
                result.database.channel(channel).values,
                equal_nan=True,
            )
