"""Fold states: the one implementation of the report's Figs 2-9.

The pure time-fold sections of the full report (trends, calendar
profiles, per-rack spatial profiles, ambient statistics) do not need
the raw ``(time, rack)`` matrices to produce their rows; they need
derived quantities that can be *folded block by block*:

* **system series** (Figs 2, 3, 4, 5, 8): every derived 1-D series the
  trend/profile analyses consume (system power, utilization, total
  flow, across-rack coolant and ambient means) is a per-row reduction
  along the rack axis.  Row reductions are row-local, so computing
  them on an appended block and concatenating yields *bit-identical*
  arrays to recomputing on the grown matrix.  The state stores the
  derived ``(time, 7)`` matrix (~3 MB/yr at hourly cadence vs ~140 MB
  of raw columns).
* **rack profiles** (Figs 6, 7, 9): the per-rack time means fold as
  (finite-sum, finite-count) accumulator pairs per channel.  Within a
  block the partial sums use numpy's pairwise summation, across
  blocks they accumulate sequentially, so a profile folded over
  appends can differ from a one-shot fold by a few ULPs, well inside
  the report's 1e-12 float tolerance (the discrete argmax/argmin rack
  picks are safe: the paper's spreads are percent-level).

:func:`repro.core.experiments.full_report` builds each of Figs 2-9
from its state (:data:`SECTION_STATES`) and nothing else.  With the
section memo on it gets the state through :func:`advance_state`;
with it off it folds the whole store once per state in memory
(:func:`fold_state`).  The whole-store analyses
(:func:`repro.core.trends.yearly_trends` and friends) stay as the
independent reference the fold is tested against.

A memoized state carries a chunk-prefix watermark (the full-chunk
digests plus the tail-range hash of everything it folded).  Before
reuse the watermark is revalidated against the live store: if the
prefix still matches, only rows past the watermark are folded; any
rewrite of history (a scrubber pass, a duplicate merge) invalidates
the state and it rebuilds from scratch.  Sections with no fold state
fall back to whole-section memoization in
:mod:`repro.analytics.incremental.memo`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.telemetry import nanstats
from repro.telemetry.database import EnvironmentalDatabase, covered_sum
from repro.telemetry.digest import DigestInfo
from repro.telemetry.records import CHANNELS, Channel
from repro.telemetry.series import TimeSeries

#: Shared state blob identifiers (several sections fold one state).
SYSTEM_SERIES_STATE = "system-series"
RACK_PROFILE_STATE = "rack-profile"

#: Column order of the system-series state matrix.  The first five
#: match the Fig 4/5 channel tuple ``(None, UTILIZATION, FLOW, INLET,
#: OUTLET)`` so the calendar profiles reduce the matrix slice directly.
SERIES_COLUMNS: Tuple[str, ...] = (
    "system_power_mw",
    "system_utilization",
    "total_flow_gpm",
    Channel.INLET_TEMPERATURE.column,
    Channel.OUTLET_TEMPERATURE.column,
    Channel.DC_TEMPERATURE.column,
    Channel.DC_HUMIDITY.column,
)


@dataclasses.dataclass
class SectionState:
    """One reducer's compact fold state plus its dataset watermark.

    Attributes:
        state_id: Which builder produced (and can advance) the payload.
        chunk_rows: Digest chunk size the watermark was recorded under.
        rows_folded: Rows of the store folded into the payload.
        prefix_chunks: Digests of the full chunks covered by
            ``rows_folded``.
        prefix_tail: Hash of the remaining rows past the last full
            chunk (``""`` when ``rows_folded`` is chunk-aligned).
        payload: The builder-specific arrays.
    """

    state_id: str
    chunk_rows: int
    rows_folded: int
    prefix_chunks: Tuple[str, ...]
    prefix_tail: str
    payload: Dict[str, np.ndarray]


class _SystemSeriesBuilder:
    """Folds the seven derived system-level series (bit-identical)."""

    state_id = SYSTEM_SERIES_STATE

    def empty(self, database: EnvironmentalDatabase) -> Dict[str, np.ndarray]:
        return {
            "epoch_s": np.empty(0, dtype="float64"),
            "series": np.empty((0, len(SERIES_COLUMNS)), dtype="float64"),
        }

    def fold(
        self,
        payload: Dict[str, np.ndarray],
        database: EnvironmentalDatabase,
        lo: int,
        hi: int,
    ) -> Dict[str, np.ndarray]:
        if hi <= lo:
            return payload
        epoch = np.asarray(database.epoch_s[lo:hi], dtype="float64")
        racks = database.num_racks
        power = np.asarray(database.channel(Channel.POWER).values[lo:hi])
        util = np.asarray(database.channel(Channel.UTILIZATION).values[lo:hi])
        flow = np.asarray(database.channel(Channel.FLOW).values[lo:hi])
        columns = [
            covered_sum(power, racks) / 1000.0,
            nanstats.nanmean(util, axis=1),
            covered_sum(flow, racks),
        ]
        for channel in (
            Channel.INLET_TEMPERATURE,
            Channel.OUTLET_TEMPERATURE,
            Channel.DC_TEMPERATURE,
            Channel.DC_HUMIDITY,
        ):
            block = np.asarray(database.channel(channel).values[lo:hi])
            columns.append(nanstats.nanmean(block, axis=1))
        payload["epoch_s"] = np.concatenate([payload["epoch_s"], epoch])
        payload["series"] = np.concatenate(
            [payload["series"], np.column_stack(columns)], axis=0
        )
        return payload


class _RackProfileBuilder:
    """Folds per-rack (finite-sum, finite-count) pairs per channel."""

    state_id = RACK_PROFILE_STATE

    def empty(self, database: EnvironmentalDatabase) -> Dict[str, np.ndarray]:
        shape = (len(CHANNELS), database.num_racks)
        return {
            "sums": np.zeros(shape, dtype="float64"),
            "counts": np.zeros(shape, dtype="float64"),
        }

    def fold(
        self,
        payload: Dict[str, np.ndarray],
        database: EnvironmentalDatabase,
        lo: int,
        hi: int,
    ) -> Dict[str, np.ndarray]:
        if hi <= lo:
            return payload
        for j, channel in enumerate(CHANNELS):
            block = np.asarray(database.channel(channel).values[lo:hi])
            finite = np.isfinite(block)
            payload["sums"][j] += np.where(finite, block, 0.0).sum(axis=0)
            payload["counts"][j] += finite.sum(axis=0)
        return payload


STATE_BUILDERS: Dict[str, Any] = {
    builder.state_id: builder
    for builder in (_SystemSeriesBuilder(), _RackProfileBuilder())
}

#: The fold state each of Figs 2-9 is built from, keyed by builder
#: name.  The remaining sections (CMF analyses, windows, aftermath)
#: have no fold state and fall back to whole-section memoization.
SECTION_STATES: Dict[str, str] = {
    "fig2_rows": SYSTEM_SERIES_STATE,
    "fig3_rows": SYSTEM_SERIES_STATE,
    "fig4_rows": SYSTEM_SERIES_STATE,
    "fig5_rows": SYSTEM_SERIES_STATE,
    "fig6_rows": RACK_PROFILE_STATE,
    "fig7_rows": RACK_PROFILE_STATE,
    "fig8_rows": SYSTEM_SERIES_STATE,
    "fig9_rows": RACK_PROFILE_STATE,
}


def fold_state(
    database: EnvironmentalDatabase, state_id: str, rows: Optional[int] = None
) -> Dict[str, np.ndarray]:
    """A fresh ``state_id`` payload folded over the store's first
    ``rows`` rows (default: all of them), in memory, with no watermark."""
    builder = STATE_BUILDERS[state_id]
    stop = database.num_samples if rows is None else rows
    return builder.fold(builder.empty(database), database, 0, stop)


def system_series(payload: Dict[str, np.ndarray], column: str) -> TimeSeries:
    """One :data:`SERIES_COLUMNS` column of a system-series payload."""
    index = SERIES_COLUMNS.index(column)
    return TimeSeries(payload["epoch_s"], payload["series"][:, index], name=column)


def rack_means(payload: Dict[str, np.ndarray], channel: Channel) -> np.ndarray:
    """Per-rack time mean of one channel from a rack-profile payload
    (``nanmean`` semantics: NaN for a rack that never reported)."""
    j = CHANNELS.index(channel)
    sums, counts = payload["sums"][j], payload["counts"][j]
    return np.divide(sums, counts, out=np.full_like(sums, np.nan), where=counts > 0)


# -- state advance -----------------------------------------------------------


def _sealed(
    state_id: str,
    payload: Dict[str, np.ndarray],
    database: EnvironmentalDatabase,
    info: DigestInfo,
) -> SectionState:
    """Stamp a payload with the current dataset watermark.

    The full-chunk prefix digests come straight from ``info`` (the tail
    chunk of a non-aligned store *is* the remainder range, so no extra
    hashing happens here).
    """
    full = info.rows // info.chunk_rows
    tail = "" if info.rows == full * info.chunk_rows else info.chunk_hashes[full]
    return SectionState(
        state_id=state_id,
        chunk_rows=info.chunk_rows,
        rows_folded=info.rows,
        prefix_chunks=tuple(info.chunk_hashes[:full]),
        prefix_tail=tail,
        payload=payload,
    )


def _prefix_valid(
    state: SectionState, database: EnvironmentalDatabase, info: DigestInfo
) -> bool:
    """Does the live store still start with exactly what ``state`` folded?

    Full chunks compare against the (cached) chunk digests; the
    sub-chunk remainder is rehashed — at most ``chunk_rows`` rows, so
    validation stays O(chunk) regardless of store size.
    """
    full = state.rows_folded // state.chunk_rows
    if tuple(info.chunk_hashes[:full]) != tuple(state.prefix_chunks):
        return False
    lo = full * state.chunk_rows
    if state.rows_folded == lo:
        return state.prefix_tail == ""
    try:
        return database.hash_row_range(lo, state.rows_folded) == state.prefix_tail
    except IndexError:
        return False


def advance_state(
    database: EnvironmentalDatabase,
    state_id: str,
    prior: Any,
    info: DigestInfo,
) -> Tuple[SectionState, str]:
    """Bring a reducer state up to the store's current content.

    Returns:
        ``(state, outcome)`` where outcome is ``"hit"`` (dataset
        unchanged, state reused as-is), ``"append"`` (only rows past
        the watermark were folded), ``"cold"`` (no usable prior
        state), or ``"invalidated"`` (a prior state existed but its
        prefix no longer matches the store — history was rewritten).
    """
    builder = STATE_BUILDERS[state_id]
    outcome = "cold"
    if (
        isinstance(prior, SectionState)
        and prior.state_id == state_id
        and prior.chunk_rows == info.chunk_rows
        and 0 <= prior.rows_folded <= info.rows
    ):
        if _prefix_valid(prior, database, info):
            if prior.rows_folded == info.rows:
                return prior, "hit"
            payload = builder.fold(
                prior.payload, database, prior.rows_folded, info.rows
            )
            return _sealed(state_id, payload, database, info), "append"
        outcome = "invalidated"
    elif prior is not None:
        outcome = "invalidated"
    payload = fold_state(database, state_id, info.rows)
    return _sealed(state_id, payload, database, info), outcome


#: Sections whose rows depend only on the simulation config (RAS log,
#: schedule), not on the telemetry matrices: they memoize under a
#: config-only root so a telemetry append does not evict them.
TELEMETRY_INDEPENDENT_SECTIONS = frozenset({"fig14_15_rows"})
