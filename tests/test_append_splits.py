"""Randomly drawn append splits: a grown memo equals a one-shot build.

Hypothesis draws one to three split points on ``demo_result`` (5,760
rows, so the draws land on both sides of the 4,096-row digest chunk).
A cloned store grows piece by piece through one section memo, and
after every piece the memoized report must equal a memo-off build of
the same rows: exactly for the system-series sections (Figs 2, 3, 4,
5, 8), within 1e-12 for the rack-profile accumulators (Figs 6, 7, 9).
Each append must advance both fold states, never rebuild them.

Any piece can be as short as one row, the first included: a report
over too little data reads "n/a" where a figure cannot be measured
(no Monday yet, a one-point trend, racks that do not differ yet)
instead of raising.
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytics.incremental import SectionMemoStore
from repro.core.experiments import full_report
from repro.telemetry.digest import DIGEST_CHUNK_ROWS
from repro.telemetry.records import CHANNELS
from tests.test_incremental_report import _clone_database, assert_sections_equal

#: Rows in ``demo_result`` (120 days at 30-minute cadence).
DEMO_ROWS = 5760


def _copy_rows(target, source, lo: int, hi: int) -> None:
    """Append ``source`` rows ``[lo, hi)`` to ``target``, quality included."""
    target.append_block(
        np.asarray(source.epoch_s[lo:hi]).copy(),
        {ch: np.asarray(source.channel(ch).values[lo:hi]).copy() for ch in CHANNELS},
    )
    target.flush()
    for ch in CHANNELS:
        target.overwrite_quality(ch, lo, np.asarray(source.quality(ch)[lo:hi]).copy())


splits = st.lists(
    st.integers(min_value=1, max_value=DEMO_ROWS - 1),
    min_size=1,
    max_size=3,
    unique=True,
).map(sorted)


@settings(max_examples=6, deadline=None)
@given(cuts=splits)
@example(cuts=[1])
@example(cuts=[DIGEST_CHUNK_ROWS])
@example(cuts=[DIGEST_CHUNK_ROWS - 1, DIGEST_CHUNK_ROWS + 1, DEMO_ROWS - 1])
def test_grown_memo_equals_one_shot_build(demo_result, cuts):
    source = demo_result.database
    assert source.num_samples == DEMO_ROWS
    database = _clone_database(source, stop=cuts[0])
    grown = dataclasses.replace(demo_result, database=database)
    with tempfile.TemporaryDirectory() as root:
        store = SectionMemoStore(root=root, enabled=True)
        assert_sections_equal(
            full_report(grown, workers=1, section_cache=False),
            full_report(grown, workers=1, section_cache=store),
        )
        assert store.counters.state_misses == 2
        for step, (lo, hi) in enumerate(zip(cuts, cuts[1:] + [DEMO_ROWS]), start=1):
            _copy_rows(database, source, lo, hi)
            assert_sections_equal(
                full_report(grown, workers=1, section_cache=False),
                full_report(grown, workers=1, section_cache=store),
                exact=False,
            )
            assert store.counters.state_appends == 2 * step
            assert store.counters.state_misses == 2
            assert store.counters.invalidations == 0
    assert database.dataset_digest() == source.dataset_digest()
