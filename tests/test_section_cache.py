"""The on-disk section memo store: durability and key hygiene.

Correctness here is what lets :func:`repro.core.experiments.full_report`
trust a cache hit: every entry is a CRC32-framed ``repro.blobfile``
blob verified on load, corruption is quarantined (a recompute, never
a wrong table), and the cache key
covers exactly the inputs that determine the rows — dataset content,
section, config, code epoch — and nothing else.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro.analytics.incremental import (
    CONFIG_ONLY_ROOT,
    SECTION_CACHE_ENV,
    SectionKey,
    SectionMemoStore,
    config_digest,
    default_store,
    reset_default_store,
)

ROOT = "a" * 64
CFG = "b" * 16


@pytest.fixture
def store(tmp_path):
    return SectionMemoStore(root=tmp_path, enabled=True)


def _rows():
    return [("Fig 2a", "power", 4.8), ("Fig 2b", "utilization", 0.8)]


class TestRowsRoundTrip:
    def test_miss_then_hit(self, store):
        key = store.key(ROOT, "fig2_rows", CFG)
        assert store.load_rows(key) is None
        store.store_rows(key, _rows())
        assert store.load_rows(key) == _rows()
        assert store.counters.misses == 1
        assert store.counters.stores == 1
        assert store.counters.hits == 1

    def test_atomic_publish_leaves_no_temp_files(self, store, tmp_path):
        key = store.key(ROOT, "fig2_rows", CFG)
        store.store_rows(key, _rows())
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []

    def test_new_root_prunes_stale_sibling(self, store):
        """One entry per (section, config, code) scope, not one per append."""
        old = store.key(ROOT, "fig2_rows", CFG)
        new = store.key("c" * 64, "fig2_rows", CFG)
        store.store_rows(old, _rows())
        store.store_rows(new, _rows())
        assert store.load_rows(old) is None  # pruned with the old root
        assert store.load_rows(new) == _rows()
        assert len([e for e in store.entries() if e.kind == "rows"]) == 1

    def test_different_sections_coexist(self, store):
        store.store_rows(store.key(ROOT, "fig2_rows", CFG), _rows())
        store.store_rows(store.key(ROOT, "fig3_rows", CFG), _rows())
        assert len([e for e in store.entries() if e.kind == "rows"]) == 2


class TestKeyHygiene:
    def test_dataset_root_invalidates(self, store):
        store.store_rows(store.key(ROOT, "fig2_rows", CFG), _rows())
        assert store.load_rows(store.key("c" * 64, "fig2_rows", CFG)) is None

    def test_config_digest_invalidates(self, store):
        store.store_rows(store.key(ROOT, "fig2_rows", CFG), _rows())
        assert store.load_rows(store.key(ROOT, "fig2_rows", "d" * 16)) is None

    def test_code_epoch_invalidates(self, tmp_path):
        old = SectionMemoStore(root=tmp_path, enabled=True, code_epoch="1.0.0")
        new = SectionMemoStore(root=tmp_path, enabled=True, code_epoch="2.0.0")
        old.store_rows(old.key(ROOT, "fig2_rows", CFG), _rows())
        assert new.load_rows(new.key(ROOT, "fig2_rows", CFG)) is None
        assert old.load_rows(old.key(ROOT, "fig2_rows", CFG)) == _rows()

    def test_config_digest_covers_report_relevant_fields(self):
        from repro.simulation import MiraScenario

        base = MiraScenario.demo(days=30, seed=3)
        assert config_digest(base) == config_digest(
            MiraScenario.demo(days=30, seed=3)
        )
        assert config_digest(base) != config_digest(
            MiraScenario.demo(days=31, seed=3)
        )
        assert config_digest(base) != config_digest(
            MiraScenario.demo(days=30, seed=4)
        )

    def test_config_only_root_survives_dataset_change(self, store):
        """Telemetry-independent sections key under the sentinel root."""
        key = store.key(CONFIG_ONLY_ROOT, "fig14_15_rows", CFG)
        store.store_rows(key, _rows())
        # A dataset append changes the telemetry root but not this key.
        assert store.load_rows(store.key(CONFIG_ONLY_ROOT, "fig14_15_rows", CFG)) == _rows()

    def test_scope_groups_config_and_code(self):
        a = SectionKey(ROOT, "fig2_rows", CFG, "1.0")
        b = SectionKey("c" * 64, "fig2_rows", CFG, "1.0")
        c = SectionKey(ROOT, "fig2_rows", "d" * 16, "1.0")
        assert a.scope == b.scope  # same config+code, different data
        assert a.scope != c.scope


class TestCorruption:
    def _entry_path(self, store):
        paths = [e.path for e in store.entries()]
        assert len(paths) == 1
        return paths[0]

    def test_truncated_file_quarantined_and_missed(self, store, tmp_path):
        key = store.key(ROOT, "fig2_rows", CFG)
        store.store_rows(key, _rows())
        path = self._entry_path(store)
        path.write_bytes(path.read_bytes()[:-7])
        assert store.load_rows(key) is None
        assert store.counters.corrupt == 1
        assert not path.exists()
        quarantined = [
            p for p in tmp_path.iterdir() if p.name.startswith(".quarantine-")
        ]
        assert len(quarantined) == 1
        # The store recovers: the next publish works again.
        store.store_rows(key, _rows())
        assert store.load_rows(key) == _rows()

    def test_bit_flip_quarantined(self, store):
        key = store.key(ROOT, "fig2_rows", CFG)
        store.store_rows(key, _rows())
        path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load_rows(key) is None
        assert store.counters.corrupt == 1

    def test_foreign_pickle_rejected(self, store):
        """A file that verifies but holds the wrong key never serves."""
        key = store.key(ROOT, "fig2_rows", CFG)
        other = store.key("c" * 64, "fig2_rows", CFG)
        record = {"kind": "rows", "key": dataclasses.asdict(other), "rows": _rows()}
        store._write(store.root / key.filename, record)
        assert store.load_rows(key) is None
        assert store.counters.invalidations == 1

    def test_quarantined_files_hidden_from_entries(self, store):
        key = store.key(ROOT, "fig2_rows", CFG)
        store.store_rows(key, _rows())
        path = self._entry_path(store)
        path.write_bytes(b"garbage")
        store.load_rows(key)
        assert store.entries() == []


class TestStates:
    def test_round_trip(self, store):
        store.store_state("system-series", CFG, {"rows": 10})
        assert store.load_state("system-series", CFG) == {"rows": 10}

    def test_state_key_hygiene(self, store, tmp_path):
        store.store_state("system-series", CFG, {"rows": 10})
        assert store.load_state("system-series", "d" * 16) is None
        assert store.load_state("rack-profile", CFG) is None
        newer = SectionMemoStore(root=tmp_path, enabled=True, code_epoch="99.0")
        assert newer.load_state("system-series", CFG) is None

    def test_one_state_per_scope(self, store):
        store.store_state("system-series", CFG, {"rows": 10})
        store.store_state("system-series", CFG, {"rows": 20})
        assert store.load_state("system-series", CFG) == {"rows": 20}
        assert len([e for e in store.entries() if e.kind == "state"]) == 1


class TestEnablement:
    def test_env_gate_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SECTION_CACHE_ENV, "0")
        store = SectionMemoStore(root=tmp_path)
        key = store.key(ROOT, "fig2_rows", CFG)
        store.store_rows(key, _rows())
        assert store.load_rows(key) is None
        assert list(tmp_path.iterdir()) == []

    def test_explicit_enabled_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SECTION_CACHE_ENV, "0")
        store = SectionMemoStore(root=tmp_path, enabled=True)
        key = store.key(ROOT, "fig2_rows", CFG)
        store.store_rows(key, _rows())
        assert store.load_rows(key) == _rows()

    def test_default_store_is_a_singleton(self):
        reset_default_store()
        try:
            assert default_store() is default_store()
        finally:
            reset_default_store()

    def test_default_root_under_cache_root(self, tmp_path, monkeypatch):
        from repro.simulation.datasets import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert SectionMemoStore().root == tmp_path / "sections"


class TestMaintenance:
    def test_entries_describe_files(self, store):
        store.store_rows(store.key(ROOT, "fig2_rows", CFG), _rows())
        store.store_state("system-series", CFG, {"rows": 10})
        entries = store.entries()
        assert {(e.section, e.kind) for e in entries} == {
            ("fig2_rows", "rows"),
            ("system-series", "state"),
        }
        for entry in entries:
            assert entry.size_bytes > 0
            assert entry.age_s >= 0.0
            assert entry.path.exists()
        assert store.total_bytes() == sum(e.size_bytes for e in entries)

    def test_clear_removes_everything(self, store, tmp_path):
        store.store_rows(store.key(ROOT, "fig2_rows", CFG), _rows())
        store.store_state("system-series", CFG, {"rows": 10})
        (tmp_path / ".tmp-stale").write_bytes(b"x")
        assert store.clear() == 2
        assert store.entries() == []
        assert not (tmp_path / ".tmp-stale").exists()

    def test_clear_on_missing_root(self, tmp_path):
        store = SectionMemoStore(root=tmp_path / "never-created", enabled=True)
        assert store.clear() == 0
        assert store.entries() == []

    def test_dataset_cache_ignores_section_files(self, tmp_path, monkeypatch):
        """The sections/ subtree must be invisible to the dataset cache."""
        from repro.simulation.datasets import CACHE_DIR_ENV, cache_entries, clear_cache

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        store = SectionMemoStore(enabled=True)
        store.store_rows(store.key(ROOT, "fig2_rows", CFG), _rows())
        assert cache_entries() == []
        clear_cache()
        assert store.load_rows(store.key(ROOT, "fig2_rows", CFG)) == _rows()
