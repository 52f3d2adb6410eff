"""Memoized / incremental report builds are pinned to memo-off builds.

Each test builds a reference with ``section_cache=False``, which folds
each Fig 2-9 state over the whole store in memory, with no digest and
no disk (``tests/test_fold_reference.py`` pins that fold to the
whole-store analyses).  It asserts that cached builds — cold, warm,
append-advanced, multi-worker, faulted — reproduce it: discrete values
exactly, floats to 1e-12.  The system-series sections (Figs 2, 3, 4,
5, 8) are additionally pinned *bit-identical* even across an append,
because their state concatenates row-local derived series.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.analytics.incremental import SectionMemoStore
from repro.core.experiments import full_report
from repro.simulation import FacilityEngine, MiraScenario
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import CHANNELS

#: Sections whose incremental rebuild is bit-exact (not just 1e-12).
BIT_EXACT_PREFIXES = ("Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 8")


def _rows_equal(a, b, exact: bool) -> bool:
    if type(a) is not type(b):
        return False
    for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
        if isinstance(x, float) and isinstance(y, float):
            if math.isnan(x) and math.isnan(y):
                continue
            if exact:
                if x != y:
                    return False
            elif not math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12):
                return False
        elif x != y:
            return False
    return True


def assert_sections_equal(reference, candidate, exact: bool = True):
    assert list(reference) == list(candidate)
    for title in reference:
        ref_rows, got_rows = reference[title], candidate[title]
        assert len(ref_rows) == len(got_rows), title
        pinned_exact = exact or title.startswith(BIT_EXACT_PREFIXES)
        for r, g in zip(ref_rows, got_rows):
            assert _rows_equal(r, g, exact=pinned_exact), (title, r, g)


def _clone_database(database, stop=None):
    """A writable value-and-quality copy of ``database[:stop]``."""
    stop = database.num_samples if stop is None else stop
    clone = EnvironmentalDatabase(
        num_racks=database.num_racks, capacity_hint=max(stop, 16)
    )
    clone.append_block(
        np.asarray(database.epoch_s[:stop]).copy(),
        {ch: np.asarray(database.channel(ch).values[:stop]).copy() for ch in CHANNELS},
    )
    clone.flush()
    for ch in CHANNELS:
        clone.overwrite_quality(
            ch, 0, np.asarray(database.quality(ch)[:stop]).copy()
        )
    return clone


@pytest.fixture(scope="module")
def month_result():
    """A small run used by the append/window tests (module-local)."""
    return FacilityEngine(MiraScenario.demo(days=30, seed=3)).run()


class TestMemoizedEquivalence:
    def test_cold_and_warm_match_uncached(self, tmp_path, demo_result):
        reference = full_report(demo_result, workers=1, section_cache=False)
        store = SectionMemoStore(root=tmp_path, enabled=True)
        cold = full_report(demo_result, workers=1, section_cache=store)
        warm = full_report(demo_result, workers=1, section_cache=store)
        assert_sections_equal(reference, cold)
        assert_sections_equal(reference, warm)
        assert store.counters.stores == len(reference)
        assert store.counters.hits == len(reference)

    def test_faulted_dataset(self, tmp_path, faulted_result):
        """Quality masks flow through the digest and the reducers."""
        reference = full_report(faulted_result, workers=1, section_cache=False)
        store = SectionMemoStore(root=tmp_path, enabled=True)
        cold = full_report(faulted_result, workers=1, section_cache=store)
        warm = full_report(faulted_result, workers=1, section_cache=store)
        assert_sections_equal(reference, cold)
        assert_sections_equal(reference, warm)

    def test_any_worker_count(self, tmp_path, month_result):
        reference = full_report(month_result, workers=1, section_cache=False)
        store = SectionMemoStore(root=tmp_path, enabled=True)
        cold = full_report(month_result, workers=2, section_cache=store)
        warm = full_report(month_result, workers=2, section_cache=store)
        assert_sections_equal(reference, cold)
        assert_sections_equal(reference, warm)

    def test_worker_count_is_not_part_of_the_key(self, tmp_path, month_result):
        """A runtime knob must hit, not invalidate."""
        store = SectionMemoStore(root=tmp_path, enabled=True)
        full_report(month_result, workers=1, section_cache=store)
        full_report(month_result, workers=2, section_cache=store)
        assert store.counters.hits == store.counters.stores

    def test_synthesized_windows_memoized(self, tmp_path, month_result):
        reference = full_report(
            month_result, workers=1, section_cache=False, synthesize_windows=True
        )
        store = SectionMemoStore(root=tmp_path, enabled=True)
        cold = full_report(
            month_result, workers=1, section_cache=store, synthesize_windows=True
        )
        warm = full_report(
            month_result, workers=1, section_cache=store, synthesize_windows=True
        )
        assert_sections_equal(reference, cold)
        assert_sections_equal(reference, warm)
        # Windows appear in the reference, so synthesis must have run
        # and the warm pass must have served both window sections.
        assert any("Fig 12" in title for title in reference)
        assert store.counters.hits == store.counters.stores

    def test_v2_entries_quarantined_once_and_rebuilt(self, tmp_path, month_result):
        """A cache dir written before rows carried their bands (memo
        magic v2) is quarantined entry by entry, rebuilt, then warm."""
        from repro import blobfile
        from repro.analytics.incremental import memo

        store = SectionMemoStore(root=tmp_path, enabled=True)
        reference = full_report(month_result, workers=1, section_cache=store)
        entries = sorted(tmp_path.glob("*.pkl"))
        assert len(entries) == len(reference) + 2  # rows + the two states
        for path in entries:
            record = blobfile.read(path, memo._MAGIC)
            blobfile.write(path, b"repro-section-memo-v2", record)

        store = SectionMemoStore(root=tmp_path, enabled=True)
        rebuilt = full_report(month_result, workers=1, section_cache=store)
        assert_sections_equal(reference, rebuilt)
        assert store.counters.corrupt == len(entries)
        assert len(list(tmp_path.glob(".quarantine-*"))) == len(entries)

        store = SectionMemoStore(root=tmp_path, enabled=True)
        assert_sections_equal(
            reference, full_report(month_result, workers=1, section_cache=store)
        )
        assert store.counters.corrupt == 0
        assert store.counters.hits == len(reference)

    def test_disabled_cache_writes_nothing(self, tmp_path, month_result, monkeypatch):
        from repro.simulation.datasets import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        full_report(month_result, workers=1, section_cache=False)
        # The conftest env gate also keeps the default store disabled.
        full_report(month_result, workers=1)
        assert not (tmp_path / "sections").exists()


class TestAppendOnlyRecompute:
    def test_append_folds_only_the_tail(self, tmp_path, month_result):
        database = month_result.database
        n = database.num_samples
        cut = int(n * 0.9)
        prefix = _clone_database(database, stop=cut)
        grown = dataclasses.replace(month_result, database=prefix)
        store = SectionMemoStore(root=tmp_path, enabled=True)
        full_report(grown, workers=1, section_cache=store)
        assert store.counters.state_misses == 2

        epoch = np.asarray(database.epoch_s)
        prefix.append_block(
            epoch[cut:].copy(),
            {
                ch: np.asarray(database.channel(ch).values[cut:]).copy()
                for ch in CHANNELS
            },
        )
        prefix.flush()
        for ch in CHANNELS:
            tail_quality = np.asarray(database.quality(ch)[cut:]).copy()
            prefix.overwrite_quality(ch, cut, tail_quality)
        assert prefix.dataset_digest() == database.dataset_digest()

        reference = full_report(month_result, workers=1, section_cache=False)
        appended = full_report(grown, workers=1, section_cache=store)
        assert_sections_equal(reference, appended, exact=False)
        # Both shared states advanced by folding, neither rebuilt.
        assert store.counters.state_appends == 2
        assert store.counters.state_misses == 2
        # The RAS-only aftermath section survived the append untouched.
        assert store.counters.hits >= 1

    def test_history_rewrite_invalidates_states(self, tmp_path, month_result):
        from repro.telemetry.records import Channel, Quality

        database = _clone_database(month_result.database)
        cloned = dataclasses.replace(month_result, database=database)
        store = SectionMemoStore(root=tmp_path, enabled=True)
        full_report(cloned, workers=1, section_cache=store)

        # Rewrite history: escalate one early cell's quality flag.
        mask = np.zeros((database.num_samples, database.num_racks), dtype=bool)
        mask[5, 0] = True
        assert database.update_quality(Channel.POWER, mask, Quality.SUSPECT) == 1

        reference = full_report(cloned, workers=1, section_cache=False)
        rebuilt = full_report(cloned, workers=1, section_cache=store)
        assert_sections_equal(reference, rebuilt)
        assert store.counters.invalidations >= 2  # both shared states

    def test_clone_digest_matches_original(self, month_result):
        """The clone helper reproduces the content address exactly."""
        clone = _clone_database(month_result.database)
        assert clone.dataset_digest() == month_result.database.dataset_digest()


class TestLivePathDigest:
    def test_http_ingest_advances_metrics_digest(self, month_result):
        from repro.service.http.app import OperationsApp
        from repro.service.http.ingest import IngestServerConfig

        database = _clone_database(month_result.database)
        app = OperationsApp.from_database(
            database, ingest=IngestServerConfig(tokens={"c1": "tok"})
        )
        status, payload, _ = app.handle("GET", "/metrics", {})
        assert status == 200
        before = payload["dataset"]
        assert before["rows"] == database.num_samples
        assert "section_cache" in payload

        epoch = np.asarray(database.epoch_s)
        dt = float(epoch[1] - epoch[0])
        ts = [float(epoch[-1] + dt * (k + 1)) for k in range(3)]
        racks = database.num_racks
        body = {
            "api_version": 1,
            "collector": "c1",
            "batch_id": "b-1",
            "epoch_s": ts,
            "channels": {
                ch.column: [[70.0] * racks for _ in ts] for ch in CHANNELS
            },
        }
        status, _, _ = app.handle(
            "POST", "/v1/ingest", {}, body, {"Authorization": "Bearer tok"}
        )
        assert status == 200
        database.flush()
        status, payload, _ = app.handle("GET", "/metrics", {})
        after = payload["dataset"]
        assert after["rows"] == before["rows"] + 3
        assert after["root"] != before["root"]
