"""The paper report at any worker count.

``full_report`` builds every section in-process; the only pool is Fig
13's lockstep fold groups, sized by ``workers``.  The contract under
test is bit-identity: the report at any worker count must equal the
serial report row for row, and a report without Fig 13 starts no pool.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import threading

import numpy as np
import pytest

import repro.core.experiments
import repro.parallel
from repro.analytics.incremental import SectionMemoStore
from repro.core.experiments import (
    FIG12_TITLE,
    FIG13_TITLE,
    SECTION_BUILDERS,
    full_report,
)
from repro.simulation import FacilityEngine, MiraScenario
from repro.simulation.datasets import CACHE_DIR_ENV, CACHE_ENV
from repro.simulation.windows import WindowSynthesizer


def _assert_windows_equal(a, b):
    assert a.rack_id == b.rack_id
    assert a.end_epoch_s == b.end_epoch_s
    assert a.is_positive == b.is_positive
    assert np.array_equal(a.epoch_s, b.epoch_s)
    assert set(a.channels) == set(b.channels)
    for channel, values in a.channels.items():
        assert np.array_equal(values, b.channels[channel], equal_nan=True), channel


def _rows_equal(a, b):
    # Bit-identity with NaN treated as equal to itself (a NaN
    # measurement must stay NaN at every worker count).
    values_match = a.measured_value == b.measured_value or (
        np.isnan(a.measured_value) and np.isnan(b.measured_value)
    )
    return (
        values_match
        and a.figure == b.figure
        and a.metric == b.metric
        and a.paper_value == b.paper_value
        and a.unit == b.unit
    )


def _assert_reports_equal(reference, other):
    assert list(reference) == list(other)
    for title in reference:
        ref_rows, got_rows = reference[title], other[title]
        assert len(ref_rows) == len(got_rows), title
        for ref, got in zip(ref_rows, got_rows):
            assert _rows_equal(ref, got), f"{title}: {ref} != {got}"


class TestParallelEqualsSerial:
    def test_sections_identical_across_worker_counts(self, demo_result):
        serial = full_report(demo_result, workers=1)
        for workers in (2, 4):
            _assert_reports_equal(serial, full_report(demo_result, workers=workers))

    def test_synthesized_windows_identical(self, demo_result):
        serial = full_report(demo_result, workers=1, synthesize_windows=True)
        assert FIG12_TITLE in serial and FIG13_TITLE in serial
        parallel = full_report(demo_result, workers=4, synthesize_windows=True)
        _assert_reports_equal(serial, parallel)

    def test_faulted_result_pools(self, faulted_result):
        # Quality masks and fault truth do not change the report at
        # any worker count.
        serial = full_report(faulted_result, workers=1)
        _assert_reports_equal(serial, full_report(faulted_result, workers=4))

    def test_section_order_is_canonical(self, demo_result):
        sections = full_report(demo_result, workers=2)
        assert list(sections) == [title for title, _ in SECTION_BUILDERS]


class TestFig13Workers:
    def test_fig13_gets_the_requested_workers(
        self, tmp_path, monkeypatch, demo_result
    ):
        # Fig 13's fold pool is sized by the caller's request, however
        # many other sections the memo left to build.
        received = []

        def recording_fig13(positives, negatives, workers=None):
            received.append(workers)
            return []

        monkeypatch.setattr(repro.core.experiments, "fig13_rows", recording_fig13)
        store = SectionMemoStore(root=tmp_path, enabled=True)
        full_report(
            demo_result, workers=2, synthesize_windows=True, section_cache=store
        )
        # Every section memoized but Figs 10-11 and 13.
        for section in ("fig10_11_rows", "fig13_rows"):
            for entry in tmp_path.glob(f"{section}-*.rows.pkl"):
                entry.unlink()
        full_report(
            demo_result, workers=2, synthesize_windows=True, section_cache=store
        )
        assert received == [2, 2]


def _no_pool(*args, **kwargs):
    raise AssertionError("pmap built a process pool")


class TestNoSectionPool:
    def test_sections_only_report_starts_no_pool(self, demo_result, monkeypatch):
        # Without Fig 13 nothing is left to pool: every section is
        # built in this process at any worker count.
        serial = full_report(demo_result, workers=1)
        monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", _no_pool)
        _assert_reports_equal(serial, full_report(demo_result, workers=2))


class TestForkOnly:
    def test_no_fork_runs_in_process(self, demo_result, monkeypatch):
        # Without ``fork`` a pool worker would not inherit the fold
        # data, so pmap must not build a pool at all.
        serial = full_report(demo_result, workers=1, synthesize_windows=True)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", _no_pool)
        _assert_reports_equal(
            serial, full_report(demo_result, workers=2, synthesize_windows=True)
        )


class TestConcurrentReports:
    def test_each_caller_pools_its_own_result(self, demo_result, faulted_result):
        # Two threads building reports at once, with more workers than
        # cores, must each get their own result's report.
        results = (demo_result, faulted_result)
        expected = [full_report(result, workers=1) for result in results]
        failures = []

        def build(index):
            try:
                for _ in range(2):
                    _assert_reports_equal(
                        expected[index], full_report(results[index], workers=3)
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=build, args=(index,), daemon=True)
            for index in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestNoSideEffects:
    @pytest.mark.parametrize("dataset_cache", ["0", "1"])
    def test_pooled_report_writes_nothing(self, tmp_path, monkeypatch, dataset_cache):
        # No temp archive, no dataset-cache entry, whether or not the
        # dataset cache is enabled.
        tmp_dir, cache_dir = tmp_path / "tmp", tmp_path / "cache"
        tmp_dir.mkdir()
        cache_dir.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp_dir))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        monkeypatch.setenv(CACHE_ENV, dataset_cache)
        result = FacilityEngine(MiraScenario.demo(days=30, seed=3)).run()
        full_report(result, workers=2, section_cache=False)
        assert list(tmp_dir.iterdir()) == []
        assert list(cache_dir.iterdir()) == []


class TestSlicedSynthesis:
    """Window i's noise depends only on its index, never on the windows
    built before it, so resynthesis is exact."""

    def test_resynthesis_is_deterministic(self, demo_result):
        synthesizer = WindowSynthesizer(demo_result)
        first = synthesizer.positive_windows()
        second = WindowSynthesizer(demo_result).positive_windows()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            _assert_windows_equal(a, b)
