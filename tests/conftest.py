"""Shared fixtures.

Simulation runs are expensive, so the fixtures are session-scoped and
shared across test modules:

* ``demo_result`` — ~4 months at 30-minute cadence (seconds to build),
  enough structure for most integration tests;
* ``year_result`` — two years at 30-minute cadence with a meaningful
  number of CMFs, used by the failure/prediction integration tests;
* ``full_result`` — the canonical six-year hourly realization, used
  only by the paper-calibration test module and the benchmarks.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analytics.incremental import SECTION_CACHE_ENV
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
