"""Shared fixtures for the benchmarks on the canonical study.

The ablation and efficiency benchmarks run against the canonical
six-year dataset; its build is paid once per session, and each
benchmark times its *analysis*, not the simulation.  The paper's
figures themselves are report rows with bands, checked by tier-1
(``tests/test_calibration.py``) and by ``repro experiments``.
"""

from __future__ import annotations

import pytest

from repro.simulation import WindowSynthesizer
from repro.simulation.datasets import canonical_dataset


@pytest.fixture(scope="session")
def canonical():
    """The canonical six-year realization (built once per session)."""
    return canonical_dataset()


@pytest.fixture(scope="session")
def canonical_windows(canonical):
    """(positive, negative) 300 s lead-up windows for the full study."""
    synthesizer = WindowSynthesizer(canonical)
    positives = synthesizer.positive_windows()
    negatives = synthesizer.negative_windows(len(positives))
    return positives, negatives
