"""Shared fixtures.

Simulation runs are expensive, so the fixtures are session-scoped and
shared across test modules:

* ``demo_result`` — ~4 months at 30-minute cadence (seconds to build),
  enough structure for most integration tests;
* ``year_result`` — two years at 30-minute cadence with a meaningful
  number of CMFs, used by the failure/prediction integration tests;
* ``full_result`` — the canonical six-year hourly realization;
* ``canonical`` — its paper report and whole-store analyses, each
  built at most once per session, for the calibration checks.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict

import numpy as np
import pytest

from repro.analytics.incremental import SECTION_CACHE_ENV
from repro.core.aftermath import analyze_aftermath
from repro.core.environment import ambient_spatial, ambient_trends
from repro.core.experiments import full_report
from repro.core.failure_analysis import analyze_cmfs
from repro.core.report import ReportRow
from repro.core.spatial import rack_power_profile
from repro.core.trends import coolant_trends, monthly_profile, weekday_profile, yearly_trends
from repro.faults import FaultConfig
from repro.simulation import FacilityEngine, MiraScenario, WindowSynthesizer
from repro.simulation.datasets import CACHE_DIR_ENV, canonical_dataset, small_dataset
from repro.telemetry.quality import scrub_database


@pytest.fixture(scope="session", autouse=True)
def _no_ambient_section_cache():
    """Keep the suite's reports fresh-compute by default.

    The section memo store would otherwise leak state between tests
    (and into the user's real ``~/.cache/repro``).  Tests that exercise
    the store pass an explicit ``SectionMemoStore(root=tmp_path,
    enabled=True)``, which overrides this gate.
    """
    import os

    previous = os.environ.get(SECTION_CACHE_ENV)
    os.environ[SECTION_CACHE_ENV] = "0"
    yield
    if previous is None:
        os.environ.pop(SECTION_CACHE_ENV, None)
    else:
        os.environ[SECTION_CACHE_ENV] = previous


@pytest.fixture(scope="session", autouse=True)
def _no_ambient_dataset_cache(tmp_path_factory):
    """Keep dataset-cache entries out of the user's ``~/.cache/repro``.

    The session fixtures below build through the dataset cache; unless
    ``REPRO_CACHE_DIR`` already names a directory, the suite caches in
    a session temp directory instead.
    """
    import os

    if os.environ.get(CACHE_DIR_ENV):
        yield
        return
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    os.environ.pop(CACHE_DIR_ENV, None)


@pytest.fixture(scope="session")
def demo_result():
    """A ~4-month simulation (cached in-process)."""
    return small_dataset()


@pytest.fixture(scope="session")
def faulted_result():
    """A ~6-week run with sensor faults injected (quality masks set).

    Used by the service-layer and export tests to exercise the
    quality-aware paths against telemetry that actually has MISSING/
    SUSPECT/SCRUBBED cells.
    """
    config = dataclasses.replace(
        MiraScenario.demo(days=45, seed=3), faults=FaultConfig()
    )
    result = FacilityEngine(config).run()
    scrub_database(result.database)
    return result


@pytest.fixture(scope="session")
def year_result():
    """A two-year simulation with a meaningful CMF population."""
    return FacilityEngine(MiraScenario.demo(days=730, seed=5)).run()


@pytest.fixture(scope="session")
def full_result():
    """The canonical six-year realization (the paper's study period)."""
    return canonical_dataset()


class CanonicalStudy:
    """The canonical study's report and analyses, each built on first use.

    ``report`` is one memo-off :func:`~repro.core.experiments.full_report`
    with the Fig 12/13 windows.  Every band lives on its row, so the
    calibration tests look rows up by metric (:meth:`assert_in_band`)
    instead of repeating bands; the analyses serve the checks on values
    that are not report rows.
    """

    def __init__(self, result) -> None:
        self.result = result
        self.database = result.database

    @functools.cached_property
    def report(self) -> Dict[str, list]:
        return full_report(self.result, synthesize_windows=True, section_cache=False)

    @functools.cached_property
    def rows(self) -> Dict[str, ReportRow]:
        """Every report row, by its (unique) metric name."""
        rows = [row for section in self.report.values() for row in section]
        by_metric = {row.metric: row for row in rows}
        assert len(by_metric) == len(rows), "report metric names must be unique"
        return by_metric

    def measured(self, metric: str) -> float:
        return self.rows[metric].measured_value

    def assert_in_band(self, *metrics: str) -> None:
        for metric in metrics:
            row = self.rows[metric]
            assert row.in_band, (
                f"{row.figure} {metric}: measured {row.measured_value} "
                f"outside {row.band}"
            )

    @functools.cached_property
    def yearly(self):
        return yearly_trends(self.database)

    @functools.cached_property
    def coolant(self):
        return coolant_trends(self.database)

    @functools.cached_property
    def monthly(self):
        return monthly_profile(self.database)

    @functools.cached_property
    def weekday(self):
        return weekday_profile(self.database)

    @functools.cached_property
    def rack_power(self):
        return rack_power_profile(self.database)

    @functools.cached_property
    def ambient(self):
        return ambient_trends(self.database)

    @functools.cached_property
    def spatial(self):
        return ambient_spatial(self.database)

    @functools.cached_property
    def cmfs(self):
        return analyze_cmfs(self.result.ras_log, self.database)

    @functools.cached_property
    def aftermath(self):
        return analyze_aftermath(self.result.ras_log)

    @functools.cached_property
    def positive_windows(self):
        return WindowSynthesizer(self.result).positive_windows()


@pytest.fixture(scope="session")
def canonical(full_result):
    """The canonical study's report and analyses (see :class:`CanonicalStudy`)."""
    return CanonicalStudy(full_result)


@pytest.fixture(scope="session")
def year_windows(year_result):
    """(positive, negative) lead-up windows from the two-year run."""
    synthesizer = WindowSynthesizer(year_result)
    positives = synthesizer.positive_windows()
    negatives = synthesizer.negative_windows(len(positives))
    return positives, negatives


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
