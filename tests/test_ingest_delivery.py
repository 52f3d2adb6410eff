"""One writer: a stream ingests the same however it is delivered.

``EnvironmentalDatabase.append_snapshot`` is a one-row ``append_block``,
and a lenient policy routes every row of a block through the reorder
buffer in delivery order.  Hypothesis draws streams with equal
timestamps, rows late inside and beyond the reorder window, NaN holes
and partial channel sets, and delivers each one row at a time, as one
block, and as drawn block splits.  Every delivery must leave the same
epochs, values, quality flags, ``IngestCounters`` and content address,
both before the final flush (rows still buffered) and after it.  Under
the strict policy, in-order rows (ties included) must agree the same
way.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.database import EnvironmentalDatabase, IngestPolicy
from repro.telemetry.records import CHANNELS, Channel

RACKS = 3
CADENCE_S = 300.0

Row = Tuple[float, Dict[Channel, np.ndarray]]

cells = st.one_of(
    st.just(math.nan), st.integers(-50, 50).map(lambda value: value / 4.0)
)


@st.composite
def rows(draw) -> Row:
    """One delivered row: a timestamp on a coarse grid (so ties and
    late arrivals are common) and a random subset of channels, each a
    rack vector with NaN holes."""
    epoch = draw(st.integers(0, 15)) * CADENCE_S
    channels = draw(st.sets(st.sampled_from(CHANNELS), max_size=len(CHANNELS)))
    values = {
        channel: np.array(draw(st.lists(cells, min_size=RACKS, max_size=RACKS)))
        for channel in sorted(channels, key=CHANNELS.index)
    }
    return epoch, values


streams = st.lists(rows(), min_size=1, max_size=24)
windows = st.sampled_from([0.0, CADENCE_S, 3 * CADENCE_S, 1e9])


def _block(stream: List[Row]):
    """``stream`` as one block: the union of its channels, NaN where a
    row did not supply one."""
    supplied = {channel for _, values in stream for channel in values}
    matrices = {}
    for channel in supplied:
        matrix = np.full((len(stream), RACKS), np.nan)
        for i, (_, values) in enumerate(stream):
            if channel in values:
                matrix[i] = values[channel]
        matrices[channel] = matrix
    return np.array([epoch for epoch, _ in stream]), matrices


def _pieces(stream: List[Row], cuts: List[int]) -> List[List[Row]]:
    bounds = [0, *sorted({cut % len(stream) for cut in cuts} - {0}), len(stream)]
    return [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _deliveries(policy: IngestPolicy, stream: List[Row], cuts: List[int]):
    """The same stream delivered row by row, as one block, and split."""
    by_row = EnvironmentalDatabase(num_racks=RACKS, policy=policy)
    for epoch, values in stream:
        by_row.append_snapshot(epoch, values)
    whole = EnvironmentalDatabase(num_racks=RACKS, policy=policy)
    whole.append_block(*_block(stream))
    split = EnvironmentalDatabase(num_racks=RACKS, policy=policy)
    for piece in _pieces(stream, cuts):
        split.append_block(*_block(piece))
    return by_row, whole, split


def _committed(database: EnvironmentalDatabase):
    """Everything observable of the committed rows, without a flush."""
    epochs, values, quality = database.committed_rows(0, database.committed_samples)
    return (
        epochs.tolist(),
        {ch: values[ch].copy() for ch in CHANNELS},
        {ch: quality[ch].copy() for ch in CHANNELS},
        database.counters.as_dict(),
        database.digest_info(flush=False).root,
    )


def _assert_same(first, second) -> None:
    epochs, values, quality, counters, root = first
    assert epochs == second[0]
    for ch in CHANNELS:
        assert np.array_equal(values[ch], second[1][ch], equal_nan=True), ch
        assert np.array_equal(quality[ch], second[2][ch]), ch
    assert counters == second[3]
    assert root == second[4]


def _assert_deliveries_agree(databases) -> None:
    reference, *others = databases
    for flushed in (False, True):
        if flushed:
            for database in databases:
                database.flush()
        for other in others:
            _assert_same(_committed(reference), _committed(other))


@settings(max_examples=80, deadline=None)
@given(
    stream=streams,
    window=windows,
    cuts=st.lists(st.integers(1, 23), max_size=4),
)
def test_lenient_delivery_does_not_change_the_store(stream, window, cuts):
    databases = _deliveries(IngestPolicy.lenient(reorder_window_s=window), stream, cuts)
    _assert_deliveries_agree(databases)
    counters = databases[0].counters
    # Every delivered row is accepted, merged into a duplicate, or dropped.
    assert (
        counters.accepted_rows + counters.duplicate_rows + counters.dropped_late_rows
        == len(stream)
    )
    # One row per timestamp, in order.
    assert np.all(np.diff(databases[0].epoch_s) > 0)


@settings(max_examples=40, deadline=None)
@given(stream=streams, cuts=st.lists(st.integers(1, 23), max_size=4))
def test_strict_row_and_block_ingest_agree(stream, cuts):
    in_order = sorted(stream, key=lambda row: row[0])
    databases = _deliveries(IngestPolicy(), in_order, cuts)
    _assert_deliveries_agree(databases)
    # Equal timestamps append as distinct rows under the strict policy.
    assert databases[0].num_samples == len(in_order)
    assert databases[0].counters.accepted_rows == len(in_order)
