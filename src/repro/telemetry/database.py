"""The environmental database: a columnar store for monitor telemetry.

Stands in for Mira's IBM DB2 environmental database.  Samples arrive as
*blocks*: one timestamp plus a vector of 48 per-rack values for each
channel (the vectorized simulator emits whole-floor snapshots).  The
store keeps each channel as a growable ``(time, rack)`` matrix and
serves the query shapes the analyses need: whole-channel
:class:`~repro.telemetry.series.TimeSeries`, single-rack series, time
windows, and system-level aggregates.

Single :class:`~repro.cooling.monitor.SensorReading` records can also
be ingested (the slow path used when exercising the monitor objects
directly).

Data quality
------------

Production facility telemetry is not pristine: readings arrive late,
twice, or never.  Two mechanisms make the store robust to that:

* an **ingest policy** (:class:`IngestPolicy`).  The default,
  *strict*, policy preserves the historical contract — out-of-order
  samples raise ``ValueError``.  A *lenient* policy instead holds
  late-but-close samples in a bounded reorder buffer, resolves
  duplicate timestamps (first/last/merge), drops hopelessly late rows,
  and counts every degraded decision in :class:`IngestCounters`;
* per-channel **quality masks** — a ``uint8``
  :class:`~repro.telemetry.records.Quality` matrix parallel to each
  value matrix, marking every cell ``ok``/``missing`` at ingest and
  letting the scrubber (:mod:`repro.telemetry.quality`) escalate cells
  to ``suspect``/``scrubbed`` later.

All query accessors return arrays with ``writeable=False`` so callers
cannot silently corrupt the store.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import constants
from repro.facility.topology import RackId
from repro.metrics import Counters
from repro.telemetry import nanstats
from repro.telemetry.digest import (
    DIGEST_CHUNK_ROWS,
    DigestInfo,
    chunk_count,
    hash_block,
    root_digest,
)
from repro.telemetry.records import CHANNELS, Channel, Quality
from repro.telemetry.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # Imported only for annotations: a module-level import would close
    # the cycle telemetry.database -> cooling -> cooling.balancer ->
    # telemetry.database and make ``import repro.telemetry`` order-
    # dependent.
    from repro.cooling.monitor import SensorReading

#: Duplicate-timestamp resolutions available to a lenient policy.
_DUPLICATE_POLICIES = ("first", "last", "merge")


@dataclasses.dataclass(frozen=True)
class IngestPolicy:
    """How the database treats imperfectly delivered samples.

    Attributes:
        strict: With the default strict policy the database behaves as
            it always has: out-of-order samples raise ``ValueError``
            and equal timestamps append as distinct rows.  A lenient
            policy (``strict=False``) never raises on delivery-order
            problems.
        reorder_window_s: Lenient only — samples no older than the
            newest seen timestamp minus this window are buffered and
            committed in timestamp order; older samples are dropped
            (and counted).
        duplicate_policy: Lenient only — what to do when a sample's
            timestamp matches a stored or buffered row: ``"first"``
            keeps the original, ``"last"`` overwrites with the new
            values, ``"merge"`` fills only the cells the original is
            missing.
    """

    strict: bool = True
    reorder_window_s: float = 0.0
    duplicate_policy: str = "merge"

    def __post_init__(self) -> None:
        if self.reorder_window_s < 0:
            raise ValueError("reorder window cannot be negative")
        if self.duplicate_policy not in _DUPLICATE_POLICIES:
            raise ValueError(
                f"duplicate_policy must be one of {_DUPLICATE_POLICIES}, "
                f"got {self.duplicate_policy!r}"
            )

    @staticmethod
    def lenient(
        reorder_window_s: float = 0.0, duplicate_policy: str = "merge"
    ) -> "IngestPolicy":
        """A non-raising policy for realistically faulty streams."""
        return IngestPolicy(
            strict=False,
            reorder_window_s=reorder_window_s,
            duplicate_policy=duplicate_policy,
        )


class IngestCounters(Counters):
    """Observability counters for every degraded ingest decision."""

    #: Rows committed to the store (pending rows count on commit).
    accepted_rows: int
    #: Rows that arrived behind a newer timestamp and were re-sorted.
    reordered_rows: int
    #: Rows whose timestamp matched an existing row and were resolved.
    duplicate_rows: int
    #: Rows older than the reorder window, dropped outright.
    dropped_late_rows: int


def _readonly(array: np.ndarray) -> np.ndarray:
    """A non-writable view of ``array`` (the base stays writable)."""
    view = array[...]
    view.flags.writeable = False
    return view


def covered_sum(values: np.ndarray, num_racks: int) -> np.ndarray:
    """Coverage-corrected across-rack sum of a ``(time, rack)`` matrix.

    Missing racks are estimated at the mean of the reporting racks
    (the sum is scaled by ``racks / reporting``), so partial sensor
    dropout does not deflate facility totals.  Fully-covered rows are
    exactly the plain sum; rows where *no* rack reported are NaN
    rather than a silent zero.  Row-local, so a row slice reduces to
    the same bits as the whole matrix does.
    """
    finite = np.isfinite(values)
    counts = finite.sum(axis=1)
    total = np.nansum(values, axis=1)
    scale = np.divide(
        float(num_racks),
        counts,
        out=np.full(len(counts), np.nan),
        where=counts > 0,
    )
    return total * scale


class EnvironmentalDatabase:
    """In-memory columnar telemetry store.

    Args:
        num_racks: Width of the rack axis (48 for Mira).
        capacity_hint: Expected number of samples; preallocating
            avoids repeated growth for long simulations.
        policy: Ingest policy; defaults to the historical strict
            contract.
    """

    def __init__(
        self,
        num_racks: int = constants.NUM_RACKS,
        capacity_hint: int = 1024,
        policy: Optional[IngestPolicy] = None,
    ) -> None:
        if num_racks <= 0:
            raise ValueError("num_racks must be positive")
        self._num_racks = num_racks
        self._capacity = max(16, capacity_hint)
        self._size = 0
        self._epoch = np.empty(self._capacity, dtype="float64")
        self._columns: Dict[Channel, np.ndarray] = {
            ch: np.full((self._capacity, num_racks), np.nan) for ch in CHANNELS
        }
        self._quality: Optional[Dict[Channel, np.ndarray]] = {
            ch: np.full(
                (self._capacity, num_racks), int(Quality.MISSING), dtype=np.uint8
            )
            for ch in CHANNELS
        }
        self._derived_quality: Dict[Channel, np.ndarray] = {}
        self.policy = policy if policy is not None else IngestPolicy()
        self.counters = IngestCounters()
        #: Arrived-but-uncommitted rows (lenient reorder buffer).
        self._pending: List[Tuple[float, Dict[Channel, np.ndarray]]] = []
        #: Newest timestamp ever seen (committed or pending).
        self._watermark = -np.inf

    # -- ingest ---------------------------------------------------------------

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        new_epoch = np.empty(new_capacity, dtype="float64")
        new_epoch[: self._size] = self._epoch[: self._size]
        self._epoch = new_epoch
        for channel, column in self._columns.items():
            new_column = np.full((new_capacity, self._num_racks), np.nan)
            new_column[: self._size] = column[: self._size]
            self._columns[channel] = new_column
        if self._quality is not None:
            for channel, matrix in self._quality.items():
                new_matrix = np.full(
                    (new_capacity, self._num_racks),
                    int(Quality.MISSING),
                    dtype=np.uint8,
                )
                new_matrix[: self._size] = matrix[: self._size]
                self._quality[channel] = new_matrix
        self._capacity = new_capacity

    def _validate_row(
        self, channel_values: Dict[Channel, np.ndarray]
    ) -> Dict[Channel, np.ndarray]:
        validated = {}
        for channel, vector in channel_values.items():
            values = np.array(vector, dtype="float64", copy=True)
            if values.shape != (self._num_racks,):
                raise ValueError(
                    f"{channel}: expected shape ({self._num_racks},), got {values.shape}"
                )
            validated[channel] = values
        return validated

    def _append_row(
        self, epoch_s: float, channel_values: Dict[Channel, np.ndarray]
    ) -> None:
        """Commit one validated row at the end of the store (the caller
        counts it, once per call rather than per row)."""
        if self._size == self._capacity:
            self._grow()
        index = self._size
        self._epoch[index] = epoch_s
        for channel, values in channel_values.items():
            self._columns[channel][index] = values
            if self._quality is not None:
                self._quality[channel][index] = np.where(
                    np.isfinite(values), int(Quality.OK), int(Quality.MISSING)
                )
        self._size += 1

    def append_snapshot(
        self, epoch_s: float, channel_values: Dict[Channel, np.ndarray]
    ) -> None:
        """Append one whole-floor sample.

        Args:
            epoch_s: Sample timestamp.  Under the strict policy it must
                not precede the last one; a lenient policy buffers,
                reorders, deduplicates, or drops it instead.
            channel_values: Per-channel vectors of length ``num_racks``.
                Channels not supplied are stored as NaN (quality
                ``missing``).

        Raises:
            ValueError: on wrong-width vectors; under the strict
                policy, also on out-of-order timestamps.
        """
        validated = self._validate_row(channel_values)
        if self.policy.strict:
            if self._size > 0 and epoch_s < self._epoch[self._size - 1]:
                raise ValueError(
                    f"out-of-order snapshot: {epoch_s} after "
                    f"{self._epoch[self._size - 1]}"
                )
            self._append_row(epoch_s, validated)
            self._watermark = max(self._watermark, epoch_s)
            self.counters.add(accepted_rows=1)
            return
        self._lenient_ingest(float(epoch_s), validated)

    def _lenient_ingest(
        self, epoch_s: float, validated: Dict[Channel, np.ndarray]
    ) -> None:
        # Duplicate of a buffered row?
        for i, (pending_epoch, pending_values) in enumerate(self._pending):
            if pending_epoch == epoch_s:
                self._pending[i] = (
                    pending_epoch,
                    self._merge_rows(pending_values, validated),
                )
                self.counters.add(duplicate_rows=1)
                return
        last_committed = self._epoch[self._size - 1] if self._size else -np.inf
        if epoch_s <= last_committed:
            # Duplicate of a committed row, or hopelessly late.
            index = int(np.searchsorted(self._epoch[: self._size], epoch_s))
            if index < self._size and self._epoch[index] == epoch_s:
                self._merge_committed(index, validated)
                self.counters.add(duplicate_rows=1)
            else:
                self.counters.add(dropped_late_rows=1)
            return
        if epoch_s < self._watermark:
            self.counters.add(reordered_rows=1)
        self._pending.append((epoch_s, validated))
        self._watermark = max(self._watermark, epoch_s)
        self._commit_ready()

    def _merge_rows(
        self,
        existing: Dict[Channel, np.ndarray],
        incoming: Dict[Channel, np.ndarray],
    ) -> Dict[Channel, np.ndarray]:
        """Resolve two rows with the same timestamp per the policy."""
        mode = self.policy.duplicate_policy
        if mode == "first":
            return existing
        if mode == "last":
            merged = dict(existing)
            merged.update(incoming)
            return merged
        merged = dict(existing)
        for channel, values in incoming.items():
            current = merged.get(channel)
            if current is None:
                merged[channel] = values
            else:
                holes = ~np.isfinite(current)
                if holes.any():
                    filled = current.copy()
                    filled[holes] = values[holes]
                    merged[channel] = filled
        return merged

    def _merge_committed(
        self, index: int, incoming: Dict[Channel, np.ndarray]
    ) -> None:
        """Resolve a duplicate against an already-committed row."""
        mode = self.policy.duplicate_policy
        if mode == "first":
            return
        for channel, values in incoming.items():
            column = self._columns[channel]
            if mode == "last":
                column[index] = values
            else:  # merge: fill only the holes
                holes = ~np.isfinite(column[index])
                if holes.any():
                    column[index, holes] = values[holes]
            if self._quality is not None:
                self._quality[channel][index] = np.where(
                    np.isfinite(column[index]),
                    int(Quality.OK),
                    int(Quality.MISSING),
                )
        self._invalidate_digest_rows(index, index + 1)

    def _commit_ready(self, force: bool = False) -> None:
        """Commit buffered rows that can no longer be reordered."""
        if not self._pending:
            return
        cutoff = (
            np.inf if force else self._watermark - self.policy.reorder_window_s
        )
        ready = [row for row in self._pending if row[0] <= cutoff]
        if not ready:
            return
        self._pending = [row for row in self._pending if row[0] > cutoff]
        ready.sort(key=lambda row: row[0])
        for epoch_s, values in ready:
            self._append_row(epoch_s, values)
        self.counters.add(accepted_rows=len(ready))

    def flush(self) -> None:
        """Commit every buffered row (end of stream, or before a query)."""
        self._commit_ready(force=True)

    def append_block(
        self, epoch_s: np.ndarray, channel_values: Dict[Channel, np.ndarray]
    ) -> None:
        """Append a whole block of samples in one bulk write.

        The fast path for the vectorized simulation engine: one call
        ingests ``(steps, racks)`` matrices per channel instead of
        ``steps`` dict-validated rows.  Under a lenient policy the
        block is routed row-by-row through the reorder/duplicate
        machinery instead.

        Args:
            epoch_s: Sample timestamps, shape ``(steps,)``; under the
                strict policy they must be ascending and the first must
                not precede the last stored sample.
            channel_values: Per-channel matrices of shape
                ``(steps, num_racks)``.  Channels not supplied are
                stored as NaN.

        Raises:
            ValueError: on wrong-shape matrices; under the strict
                policy, also on out-of-order timestamps.
        """
        epochs = np.asarray(epoch_s, dtype="float64")
        if epochs.ndim != 1:
            raise ValueError(f"epoch_s must be 1-D, got shape {epochs.shape}")
        count = epochs.shape[0]
        if count == 0:
            return
        matrices = {}
        for channel, values in channel_values.items():
            matrix = np.asarray(values, dtype="float64")
            if matrix.shape != (count, self._num_racks):
                raise ValueError(
                    f"{channel}: expected shape ({count}, {self._num_racks}), "
                    f"got {matrix.shape}"
                )
            matrices[channel] = matrix
        if not self.policy.strict:
            for i in range(count):
                self._lenient_ingest(
                    float(epochs[i]),
                    {ch: matrix[i].copy() for ch, matrix in matrices.items()},
                )
            return
        if np.any(np.diff(epochs) < 0):
            raise ValueError("block timestamps must be non-decreasing")
        if self._size > 0 and epochs[0] < self._epoch[self._size - 1]:
            raise ValueError(
                f"out-of-order block: {epochs[0]} after {self._epoch[self._size - 1]}"
            )
        while self._size + count > self._capacity:
            self._grow()
        start, end = self._size, self._size + count
        self._epoch[start:end] = epochs
        for channel, matrix in matrices.items():
            self._columns[channel][start:end] = matrix
            if self._quality is not None:
                self._quality[channel][start:end] = np.where(
                    np.isfinite(matrix), int(Quality.OK), int(Quality.MISSING)
                )
        self._size = end
        self.counters.add(accepted_rows=count)
        self._watermark = max(self._watermark, float(epochs[-1]))

    def ingest_reading(
        self, reading: "SensorReading", utilization: float = np.nan
    ) -> None:
        """Ingest a single-rack :class:`SensorReading` (slow path).

        Creates a new snapshot row in which all racks other than the
        reading's are NaN.  Under a lenient ``merge`` policy, readings
        from *different* racks at the same timestamp merge into one
        row.  Intended for unit tests and small-scale monitor
        exercises, not the bulk simulation path.
        """
        row = {
            Channel.DC_TEMPERATURE: reading.dc_temperature_f,
            Channel.DC_HUMIDITY: reading.dc_humidity_rh,
            Channel.FLOW: reading.flow_gpm,
            Channel.INLET_TEMPERATURE: reading.inlet_temperature_f,
            Channel.OUTLET_TEMPERATURE: reading.outlet_temperature_f,
            Channel.POWER: reading.power_kw,
            Channel.UTILIZATION: utilization,
        }
        snapshot = {}
        for channel, value in row.items():
            vector = np.full(self._num_racks, np.nan)
            vector[reading.rack_id.flat_index] = value
            snapshot[channel] = vector
        self.append_snapshot(reading.epoch_s, snapshot)

    # -- queries ---------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        self.flush()
        return self._size

    @property
    def committed_samples(self) -> int:
        """Rows committed so far, **without** flushing the reorder buffer.

        :attr:`num_samples` force-commits pending rows first, which is
        right for end-of-stream queries but wrong for a live ingest
        path that must let the reorder window keep doing its job.  The
        HTTP ingest gateway polls this to learn how many rows are
        final and safe to fold into downstream rollups.
        """
        return self._size

    def committed_rows(
        self, start: int, stop: int
    ) -> Tuple[np.ndarray, Dict[Channel, np.ndarray], Dict[Channel, np.ndarray]]:
        """Read-only views of committed rows ``[start, stop)``, no flush.

        Returns ``(epoch_s, values, quality)`` shaped like one
        :meth:`iter_blocks` item.  Unlike the query accessors this does
        not force-commit the lenient reorder buffer, so a live ingest
        path can hand finalized rows to rollups while late samples are
        still in flight.

        Raises:
            IndexError: when the range reaches past the committed rows.
        """
        if not 0 <= start <= stop <= self._size:
            raise IndexError(
                f"committed rows [{start}, {stop}) out of range "
                f"(committed: {self._size})"
            )
        epochs = _readonly(self._epoch[start:stop])
        values = {ch: _readonly(self._columns[ch][start:stop]) for ch in CHANNELS}
        quality = {
            ch: _readonly(self._quality_matrix(ch)[start:stop]) for ch in CHANNELS
        }
        return epochs, values, quality

    @property
    def num_racks(self) -> int:
        return self._num_racks

    def __len__(self) -> int:
        return self.num_samples

    @property
    def epoch_s(self) -> np.ndarray:
        """All sample timestamps (read-only)."""
        self.flush()
        return _readonly(self._epoch[: self._size])

    def channel(self, channel: Channel) -> TimeSeries:
        """Full per-rack series for one channel (values read-only)."""
        self.flush()
        return TimeSeries(
            _readonly(self._epoch[: self._size]),
            _readonly(self._columns[channel][: self._size]),
            name=channel.column,
            unit=channel.unit,
        )

    def rack_channel(self, channel: Channel, rack_id: RackId) -> TimeSeries:
        """One rack's series for one channel (values read-only)."""
        self.flush()
        return TimeSeries(
            _readonly(self._epoch[: self._size]),
            _readonly(self._columns[channel][: self._size, rack_id.flat_index]),
            name=f"{channel.column}@{rack_id.label}",
            unit=channel.unit,
        )

    def window(
        self, channel: Channel, start_epoch_s: float, end_epoch_s: float
    ) -> TimeSeries:
        """Per-rack series for a channel restricted to a time window.

        An empty window (no samples in ``[start, end)``) returns an
        empty series; downstream aggregates reduce it to NaN without
        raising or warning.
        """
        return self.channel(channel).between(start_epoch_s, end_epoch_s)

    def iter_blocks(
        self,
        block_size: int,
        start_epoch_s: float = -np.inf,
        end_epoch_s: float = np.inf,
    ) -> Iterator[
        Tuple[np.ndarray, Dict[Channel, np.ndarray], Dict[Channel, np.ndarray]]
    ]:
        """Yield committed rows as contiguous columnar blocks.

        Each item is ``(epoch_s, values, quality)`` where ``epoch_s``
        is a ``(timesteps,)`` slice of the timestamp column and
        ``values``/``quality`` map every channel to the matching
        ``(timesteps, num_racks)`` slice of its column matrix.  All
        arrays are zero-copy read-only views into the store — no row
        materialization, no dict-per-sample allocation.

        This is the replay surface used by
        :class:`repro.service.ReplayBus` and the block fold behind
        :meth:`repro.service.RollupStore.from_database`.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.flush()
        epochs = self._epoch[: self._size]
        lo = int(np.searchsorted(epochs, start_epoch_s, side="left"))
        hi = int(np.searchsorted(epochs, end_epoch_s, side="left"))
        columns = {ch: self._columns[ch] for ch in CHANNELS}
        qualities = {ch: self._quality_matrix(ch) for ch in CHANNELS}
        for i in range(lo, hi, block_size):
            j = min(i + block_size, hi)
            values = {ch: _readonly(columns[ch][i:j]) for ch in CHANNELS}
            quality = {ch: _readonly(qualities[ch][i:j]) for ch in CHANNELS}
            yield _readonly(epochs[i:j]), values, quality

    # -- quality ---------------------------------------------------------------

    def _quality_matrix(self, channel: Channel) -> np.ndarray:
        """The live (writable) quality matrix for one channel."""
        if self._quality is not None:
            return self._quality[channel][: self._size]
        # Archived stores carry no quality files; derive from NaN-ness
        # once and cache so scrubbers can still annotate in memory.
        cached = self._derived_quality.get(channel)
        if cached is None or cached.shape[0] != self._size:
            values = self._columns[channel][: self._size]
            cached = np.where(
                np.isfinite(values), int(Quality.OK), int(Quality.MISSING)
            ).astype(np.uint8)
            self._derived_quality[channel] = cached
        return cached

    def quality(self, channel: Channel) -> np.ndarray:
        """Per-cell :class:`Quality` flags, shape ``(n, racks)`` (read-only)."""
        self.flush()
        return _readonly(self._quality_matrix(channel))

    def rack_quality(self, channel: Channel, rack_id: RackId) -> np.ndarray:
        """One rack's :class:`Quality` flags, shape ``(n,)`` (read-only)."""
        self.flush()
        return _readonly(self._quality_matrix(channel)[:, rack_id.flat_index])

    def update_quality(
        self,
        channel: Channel,
        mask: np.ndarray,
        quality: Quality,
        only_ok: bool = True,
    ) -> int:
        """Escalate quality flags for the cells selected by ``mask``.

        Args:
            channel: The channel whose flags to update.
            mask: Boolean matrix of shape ``(num_samples, num_racks)``.
            quality: The flag to write (typically ``SUSPECT`` or
                ``SCRUBBED``).
            only_ok: Only escalate cells currently flagged ``OK`` —
                never relabel a cell already known missing or worse.

        Returns:
            The number of cells updated.
        """
        self.flush()
        matrix = self._quality_matrix(channel)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != matrix.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match quality shape {matrix.shape}"
            )
        if only_ok:
            mask = mask & (matrix == int(Quality.OK))
        matrix[mask] = int(quality)
        touched = np.flatnonzero(mask.any(axis=1))
        if touched.size:
            self._invalidate_digest_rows(int(touched[0]), int(touched[-1]) + 1)
        return int(mask.sum())

    def overwrite_quality(
        self, channel: Channel, start_row: int, flags: np.ndarray
    ) -> None:
        """Replace quality flags for committed rows starting at ``start_row``.

        Unlike :meth:`update_quality` this neither flushes the reorder
        buffer nor masks by current flag — it is the ingest gateway's
        path for applying a collector's explicit per-cell verdicts to
        rows it just committed (e.g. re-posting a scrubbed export with
        its SUSPECT/SCRUBBED cells intact).

        Raises:
            IndexError: when the block reaches past the committed rows.
            ValueError: on a wrong-width block.
        """
        block = np.asarray(flags, dtype=np.uint8)
        if block.ndim != 2 or block.shape[1] != self._num_racks:
            raise ValueError(
                f"flags must be (rows, {self._num_racks}), got {block.shape}"
            )
        stop = start_row + block.shape[0]
        if not 0 <= start_row <= stop <= self._size:
            raise IndexError(
                f"quality rows [{start_row}, {stop}) out of range "
                f"(committed: {self._size})"
            )
        if self._quality is not None:
            self._quality[channel][start_row:stop] = block
        else:
            # Archived store: annotate the derived-quality cache.
            self._quality_matrix(channel)[start_row:stop] = block
        self._invalidate_digest_rows(start_row, stop)

    def missing_cells(self, channel: Channel) -> int:
        """Number of cells flagged ``MISSING`` for one channel."""
        return int(np.count_nonzero(self.quality(channel) == int(Quality.MISSING)))

    def coverage(self, channel: Channel) -> TimeSeries:
        """Fraction of racks with a usable value per sample.

        Usable means quality ``OK`` or ``SUSPECT`` — present and not
        scrubbed.  This is what the system-level aggregates report
        alongside their values under partial coverage.
        """
        self.flush()
        flags = self._quality_matrix(channel)
        usable = (flags == int(Quality.OK)) | (flags == int(Quality.SUSPECT))
        return TimeSeries(
            _readonly(self._epoch[: self._size]),
            usable.mean(axis=1) if self._size else np.empty(0),
            name=f"{channel.column}_coverage",
            unit="fraction",
        )

    # -- system-level aggregates -------------------------------------------------

    def _covered_sum(self, channel: Channel) -> Tuple[TimeSeries, np.ndarray]:
        """One channel's series and its :func:`covered_sum` over racks."""
        series = self.channel(channel)
        return series, covered_sum(series.values, self._num_racks)

    def system_power_mw(self) -> TimeSeries:
        """Total facility power (MW) over time (Fig 2a).

        Coverage-corrected: non-reporting racks are estimated at the
        reporting-rack mean, and samples with no coverage are NaN.
        """
        power, total_kw = self._covered_sum(Channel.POWER)
        return TimeSeries(power.epoch_s, total_kw / 1000.0, name="system_power", unit="MW")

    def system_utilization(self) -> TimeSeries:
        """System utilization (fraction of nodes busy) over time (Fig 2b).

        Coverage-aware: samples where every rack is NaN yield NaN
        without a ``Mean of empty slice`` warning.
        """
        util = self.channel(Channel.UTILIZATION)
        return TimeSeries(
            util.epoch_s,
            nanstats.nanmean(util.values, axis=1),
            name="system_utilization",
            unit="fraction",
        )

    def total_flow_gpm(self) -> TimeSeries:
        """Total facility coolant flow (GPM) over time (Fig 3a).

        Coverage-corrected like :meth:`system_power_mw`.
        """
        flow, total = self._covered_sum(Channel.FLOW)
        return TimeSeries(flow.epoch_s, total, name="total_flow", unit="GPM")

    # -- content addressing --------------------------------------------------------

    def _digest_cache_for(self, chunk_rows: int) -> Dict[int, str]:
        """The per-chunk digest cache, reset on a chunk-size change.

        Lazily attached so subclasses that bypass ``__init__`` (the
        memory-mapped archive view) get one too.
        """
        cache: Optional[Dict[int, str]] = getattr(self, "_digest_chunks", None)
        if cache is None or getattr(self, "_digest_chunk_rows", None) != chunk_rows:
            cache = {}
            self._digest_chunks = cache
            self._digest_chunk_rows = chunk_rows
        return cache

    def _invalidate_digest_rows(self, start: int, stop: int) -> None:
        """Drop cached chunk digests overlapping rows ``[start, stop)``."""
        cache: Optional[Dict[int, str]] = getattr(self, "_digest_chunks", None)
        if not cache or stop <= start:
            return
        chunk_rows = self._digest_chunk_rows
        for index in range(start // chunk_rows, (stop - 1) // chunk_rows + 1):
            cache.pop(index, None)

    def hash_row_range(self, start: int, stop: int) -> str:
        """Content hash of committed rows ``[start, stop)`` (no flush).

        The row-range primitive behind :meth:`digest_info`; the
        incremental-analytics layer also calls it directly to validate
        that a cached reducer state's fold watermark still addresses a
        prefix of this store.

        Raises:
            IndexError: when the range reaches past the committed rows.
        """
        if not 0 <= start <= stop <= self._size:
            raise IndexError(
                f"hash rows [{start}, {stop}) out of range "
                f"(committed: {self._size})"
            )
        values = {ch: self._columns[ch][start:stop] for ch in CHANNELS}
        quality = {ch: self._quality_matrix(ch)[start:stop] for ch in CHANNELS}
        return hash_block(self._epoch[start:stop], values, quality)

    def digest_info(
        self, flush: bool = True, chunk_rows: int = DIGEST_CHUNK_ROWS
    ) -> DigestInfo:
        """The store's Merkle-style content address, with chunk layout.

        Chunks whose digests were computed before are answered from an
        in-memory cache; only chunks never hashed — or invalidated by a
        quality escalation or duplicate merge — are rehashed.  The
        partial tail chunk is always rehashed, so appending rows costs
        one tail chunk, never a full-store pass.

        Args:
            flush: Commit the lenient reorder buffer first (the right
                call at a query boundary).  ``flush=False`` addresses
                only the committed rows — what a live ingest path wants
                while late samples are still in flight.
            chunk_rows: Rows per chunk; changing it resets the cache.
        """
        if flush:
            self.flush()
        cache = self._digest_cache_for(chunk_rows)
        rows = self._size
        hashes: List[str] = []
        hashed = reused = 0
        for index in range(chunk_count(rows, chunk_rows)):
            lo = index * chunk_rows
            hi = min(rows, lo + chunk_rows)
            full = hi - lo == chunk_rows
            cached = cache.get(index) if full else None
            if cached is not None:
                hashes.append(cached)
                reused += 1
                continue
            chunk = self.hash_row_range(lo, hi)
            if full:
                cache[index] = chunk
            hashes.append(chunk)
            hashed += 1
        return DigestInfo(
            root=root_digest(rows, self._num_racks, chunk_rows, hashes),
            rows=rows,
            num_racks=self._num_racks,
            chunk_rows=chunk_rows,
            chunk_hashes=tuple(hashes),
            hashed_chunks=hashed,
            reused_chunks=reused,
        )

    def dataset_digest(self, flush: bool = True) -> str:
        """The root content address of the store (hex sha256)."""
        return self.digest_info(flush=flush).root

    # -- maintenance ---------------------------------------------------------------

    def compact(self) -> None:
        """Shrink internal buffers to the exact data size."""
        self.flush()
        self._epoch = self._epoch[: self._size].copy()
        for channel in list(self._columns):
            self._columns[channel] = self._columns[channel][: self._size].copy()
        if self._quality is not None:
            for channel in list(self._quality):
                self._quality[channel] = self._quality[channel][: self._size].copy()
        self._capacity = max(1, self._size)
