"""Multi-resolution telemetry rollups, maintained incrementally.

A dashboard asking "mean facility power last month" must not scan six
years of 300 s samples.  Production monitoring stores therefore keep
*rollups*: per-channel, per-rack downsamples at a ladder of
resolutions (raw cadence -> hourly -> daily here), updated as each
sample arrives rather than recomputed on query.

Each bucket of each level carries, per rack:

* ``min`` / ``max`` — NaN-aware extrema of the finite values,
* ``sum`` / ``count`` — finite-value total and count (mean is
  ``sum/count``, composable across buckets and racks),
* ``usable`` — cells whose quality flag is ``OK`` or ``SUSPECT``
  (present and not scrubbed), the coverage numerator,

plus the bucket's total sample-row count.  ``count`` follows the
*finite* semantics of
:meth:`~repro.telemetry.database.EnvironmentalDatabase._covered_sum`
(a scrubbed-but-present value still contributes to means and
coverage-corrected totals, exactly as in the offline aggregates),
while ``usable`` follows the quality-mask semantics of
:meth:`~repro.telemetry.database.EnvironmentalDatabase.coverage` — so
faulted streams roll up with the same numbers the batch pipeline
reports.

At the finest level every sample lands in its own bucket whenever the
stream cadence is a multiple of the level resolution, which makes
raw-level rollup queries *exactly* equal to offline aggregates over
the environmental database (the streaming/batch equivalence contract
the query engine's tests enforce).

The store is thread-safe (one lock; writers are the bus subscriber
thread, readers the query engine's pool) and versioned: every ingest
bumps :attr:`~RollupStore.version` and records the mutated timestamp
in a bounded history so the query cache can invalidate *only* entries
whose window the new data actually touches.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro import constants
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import CHANNELS, Channel, Quality

#: The default resolution ladder: the coolant monitors' native 300 s
#: cadence, hourly, and daily.
DEFAULT_RESOLUTIONS_S = (300.0, 3600.0, 86400.0)

#: Mutation history depth for targeted cache invalidation; entries
#: older than this force a conservative "invalidate everything".
_MUTATION_HISTORY = 4096

#: Quality flags counting toward coverage (present and not scrubbed).
_USABLE_FLAGS = (int(Quality.OK), int(Quality.SUSPECT))

#: Rows per block when folding a finished database in.
_INGEST_BLOCK_ROWS = 4096


@dataclasses.dataclass(frozen=True)
class _PreparedBlock:
    """Per-channel block derivatives shared by every level's fold.

    Computed once per ingested block (isfinite / zero-fill / usable
    masks are identical at every resolution) so the per-level work is
    only the segment reduction and the bucket writes.  Fully-finite /
    fully-usable blocks — the overwhelmingly common case — carry
    ``None`` masks, letting the fold skip the mask reductions and
    write bucket tallies as broadcast fills.
    """

    zeroed: np.ndarray  # non-finite cells as 0.0 (the block itself when clean)
    finite: Optional[np.ndarray]  # bool mask; None = every cell finite
    usable: Optional[np.ndarray]  # bool mask; None = every cell usable


@dataclasses.dataclass
class _ChannelBuckets:
    """Growable per-channel accumulator matrices for one level.

    Rows at or beyond the level's ``size`` are uninitialized — every
    bucket row is explicitly written when it is created (``locate`` for
    buckets behind the newest one, the tail writes of ``add_block``
    otherwise), so fresh capacity is allocated with ``np.empty`` and
    never padded.
    """

    minimum: np.ndarray  # (cap, racks) float64
    maximum: np.ndarray  # (cap, racks) float64
    total: np.ndarray  # (cap, racks) float64
    count: np.ndarray  # (cap, racks) int32
    usable: np.ndarray  # (cap, racks) int32


class _Level:
    """One resolution of the rollup ladder."""

    def __init__(self, resolution_s: float, num_racks: int, capacity: int = 64):
        self.resolution_s = float(resolution_s)
        self.num_racks = num_racks
        self.capacity = capacity
        self.size = 0
        self.epoch = np.empty(capacity, dtype="float64")
        self.samples = np.zeros(capacity, dtype="int64")
        self.channels: Dict[Channel, _ChannelBuckets] = {
            ch: self._new_buckets(capacity) for ch in CHANNELS
        }

    def _new_buckets(self, capacity: int) -> _ChannelBuckets:
        shape = (capacity, self.num_racks)
        return _ChannelBuckets(
            minimum=np.empty(shape),
            maximum=np.empty(shape),
            total=np.empty(shape),
            count=np.empty(shape, dtype="int32"),
            usable=np.empty(shape, dtype="int32"),
        )

    def _grow(self, needed: Optional[int] = None) -> None:
        """Reallocate to at least ``needed`` (default: double) in one go."""
        new_capacity = self.capacity * 2
        while new_capacity < (needed or 0):
            new_capacity *= 2
        grown = new_capacity - self.capacity
        self.epoch = np.concatenate([self.epoch, np.empty(grown)])
        self.samples = np.concatenate(
            [self.samples, np.empty(grown, dtype=self.samples.dtype)]
        )
        for channel, buckets in self.channels.items():
            fresh = self._new_buckets(new_capacity)
            for field in dataclasses.fields(_ChannelBuckets):
                getattr(fresh, field.name)[: self.size] = getattr(
                    buckets, field.name
                )[: self.size]
            self.channels[channel] = fresh
        self.capacity = new_capacity

    def bucket_start(self, epoch_s: float) -> float:
        return float(np.floor(epoch_s / self.resolution_s) * self.resolution_s)

    def locate(self, epoch_s: float) -> int:
        """Index of the bucket holding ``epoch_s``, creating it if new."""
        start = self.bucket_start(epoch_s)
        if self.size and start == self.epoch[self.size - 1]:
            return self.size - 1  # the common in-order fast path
        index = int(np.searchsorted(self.epoch[: self.size], start))
        if index < self.size and self.epoch[index] == start:
            return index
        if self.size == self.capacity:
            self._grow()
        if index < self.size:
            # Out-of-order bucket creation (late sample): shift right.
            self.epoch[index + 1 : self.size + 1] = self.epoch[index : self.size]
            self.samples[index + 1 : self.size + 1] = self.samples[index : self.size]
            for buckets in self.channels.values():
                for field in dataclasses.fields(_ChannelBuckets):
                    matrix = getattr(buckets, field.name)
                    matrix[index + 1 : self.size + 1] = matrix[index : self.size]
        self.epoch[index] = start
        self.samples[index] = 0
        for buckets in self.channels.values():
            buckets.minimum[index] = np.nan
            buckets.maximum[index] = np.nan
            buckets.total[index] = 0.0
            buckets.count[index] = 0
            buckets.usable[index] = 0
        self.size += 1
        return index

    def _ensure_capacity(self, needed: int) -> None:
        if self.capacity < needed:
            self._grow(needed)

    def add_block(
        self,
        epochs: np.ndarray,
        values: Mapping[Channel, np.ndarray],
        prepared: Mapping[Channel, "_PreparedBlock"],
    ) -> None:
        """Fold a block of rows (non-decreasing epochs) in one pass.

        Rows are grouped into per-bucket segments, each segment reduced
        with ``np.{fmin,fmax,add}.reduceat``.  Extrema and the integer
        tallies are exact whatever the grouping; ``np.add.reduceat``
        sums a float segment pairwise, so a bucket's total depends on
        how its rows were split into blocks and agrees with a
        row-by-row sum to rounding, not bit for bit.

        Two structural fast paths keep the in-order streaming case at
        memory-copy speed: when every row lands in its own bucket (a
        stream cadence at or above the level resolution) the reduceats
        collapse to the block itself, and brand-new tail buckets are
        written directly — no NaN/zero reset pass, no fold against the
        freshly reset rows.  Only a bucket merged with the previous
        block's tail folds against existing state.  A block reaching
        behind the newest bucket falls back to per-segment
        :meth:`locate` plus a full fold.
        """
        n = len(epochs)
        starts = np.floor(epochs / self.resolution_s) * self.resolution_s
        if n == 1:
            seg_idx = np.zeros(1, dtype=np.intp)
        else:
            seg_idx = np.concatenate(
                [[0], np.flatnonzero(starts[1:] != starts[:-1]) + 1]
            ).astype(np.intp)
        ustarts = starts[seg_idx]  # strictly increasing
        singles = len(ustarts) == n  # every row is its own bucket
        seg_rows = np.diff(np.append(seg_idx, n))
        # Per-bucket tallies when every cell counts: a (nseg, 1) column
        # broadcast across racks (scalar 1 in the singles case), so the
        # bucket writes are fills with no mask reduction at all.
        full_tally = 1 if singles else seg_rows[:, None].astype(np.int32)

        def reduce_segments(channel):
            block = values[channel]
            ready = prepared[channel]
            if singles:
                count = 1 if ready.finite is None else ready.finite
                usable = 1 if ready.usable is None else ready.usable
                return block, block, ready.zeroed, count, usable
            count = (
                full_tally
                if ready.finite is None
                else np.add.reduceat(
                    ready.finite, seg_idx, axis=0, dtype=np.int32
                )
            )
            usable = (
                full_tally
                if ready.usable is None
                else np.add.reduceat(
                    ready.usable, seg_idx, axis=0, dtype=np.int32
                )
            )
            return (
                np.fmin.reduceat(block, seg_idx, axis=0),
                np.fmax.reduceat(block, seg_idx, axis=0),
                np.add.reduceat(ready.zeroed, seg_idx, axis=0),
                count,
                usable,
            )

        def head(segments):
            """Row 0 of a per-segment tally (or its scalar broadcast)."""
            return segments if np.isscalar(segments) else segments[0]

        def tail(segments, skip):
            return segments if np.isscalar(segments) else segments[skip:]

        if self.size == 0 or ustarts[0] >= self.epoch[self.size - 1]:
            merge_first = bool(self.size) and ustarts[0] == self.epoch[self.size - 1]
            skip = int(merge_first)
            lo = self.size
            hi = lo + len(ustarts) - skip
            self._ensure_capacity(hi)
            self.epoch[lo:hi] = ustarts[skip:]
            if merge_first:
                self.samples[lo - 1] += seg_rows[0]
            self.samples[lo:hi] = seg_rows[skip:]
            for channel, buckets in self.channels.items():
                if channel not in values:
                    # Untouched channel: its fresh tail rows stay clean.
                    buckets.minimum[lo:hi] = np.nan
                    buckets.maximum[lo:hi] = np.nan
                    buckets.total[lo:hi] = 0.0
                    buckets.count[lo:hi] = 0
                    buckets.usable[lo:hi] = 0
                    continue
                seg_min, seg_max, seg_sum, seg_count, seg_usable = (
                    reduce_segments(channel)
                )
                if merge_first:
                    prev = lo - 1
                    buckets.minimum[prev] = np.fmin(
                        buckets.minimum[prev], seg_min[0]
                    )
                    buckets.maximum[prev] = np.fmax(
                        buckets.maximum[prev], seg_max[0]
                    )
                    buckets.total[prev] += seg_sum[0]
                    buckets.count[prev] += head(seg_count)
                    buckets.usable[prev] += head(seg_usable)
                # New tail buckets: direct writes, nothing to fold with.
                buckets.minimum[lo:hi] = seg_min[skip:]
                buckets.maximum[lo:hi] = seg_max[skip:]
                buckets.total[lo:hi] = seg_sum[skip:]
                buckets.count[lo:hi] = tail(seg_count, skip)
                buckets.usable[lo:hi] = tail(seg_usable, skip)
            self.size = hi
            return

        # Late block: locate (and possibly insert) per segment.
        # Inserts happen at strictly increasing positions, so
        # earlier indices stay valid.
        index = np.array([self.locate(float(s)) for s in ustarts], dtype=np.intp)
        self.samples[index] += seg_rows
        for channel in values:
            buckets = self.channels[channel]
            seg_min, seg_max, seg_sum, seg_count, seg_usable = (
                reduce_segments(channel)
            )
            buckets.minimum[index] = np.fmin(buckets.minimum[index], seg_min)
            buckets.maximum[index] = np.fmax(buckets.maximum[index], seg_max)
            buckets.total[index] += seg_sum
            # Scalar/column tallies broadcast across the fancy index.
            buckets.count[index] += seg_count
            buckets.usable[index] += seg_usable


@dataclasses.dataclass(frozen=True)
class BucketWindow:
    """A consistent copy of one level's buckets inside a time window.

    All arrays share the bucket axis; per-rack matrices have shape
    ``(buckets, racks)``.  ``version`` is the store version the copy
    was taken at (for cache stamping).
    """

    resolution_s: float
    version: int
    epoch: np.ndarray
    samples: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    total: np.ndarray
    count: np.ndarray
    usable: np.ndarray


class RollupStore:
    """Incremental multi-resolution rollups of every per-rack channel.

    Args:
        num_racks: Width of the rack axis.
        resolutions_s: Strictly ascending bucket lengths, finest
            first.  The finest level should divide the stream cadence
            (300 s divides every cadence the simulator emits) so that
            raw-level queries are sample-exact.
    """

    def __init__(
        self,
        num_racks: int = constants.NUM_RACKS,
        resolutions_s: Tuple[float, ...] = DEFAULT_RESOLUTIONS_S,
    ) -> None:
        if num_racks <= 0:
            raise ValueError("num_racks must be positive")
        if not resolutions_s:
            raise ValueError("at least one resolution is required")
        if any(r <= 0 for r in resolutions_s):
            raise ValueError("resolutions must be positive")
        if list(resolutions_s) != sorted(set(resolutions_s)):
            raise ValueError("resolutions must be strictly ascending")
        self.num_racks = num_racks
        self.resolutions_s = tuple(float(r) for r in resolutions_s)
        self._levels = [_Level(r, num_racks) for r in self.resolutions_s]
        self._lock = threading.RLock()
        self._version = 0
        self._mutations: collections.deque = collections.deque(
            maxlen=_MUTATION_HISTORY
        )
        self.ingested_rows = 0

    # -- ingest -------------------------------------------------------------------

    def add(
        self,
        epoch_s: float,
        values: Mapping[Channel, np.ndarray],
        quality: Optional[Mapping[Channel, np.ndarray]] = None,
    ) -> None:
        """Fold one whole-floor sample in: :meth:`add_block` of one row.

        Args:
            epoch_s: Sample timestamp.
            values: Channel -> per-rack vector.  Channels not supplied
                contribute nothing (their counts stay put).
            quality: Optional parallel quality flags; without them
                coverage falls back to finite-ness.
        """
        self.add_block(
            np.array([epoch_s], dtype=np.float64),
            {ch: np.asarray(vector)[None, :] for ch, vector in values.items()},
            None
            if quality is None
            else {ch: np.asarray(flags)[None, :] for ch, flags in quality.items()},
        )

    def add_block(
        self,
        epoch_s: np.ndarray,
        values: Mapping[Channel, np.ndarray],
        quality: Optional[Mapping[Channel, np.ndarray]] = None,
    ) -> None:
        """Fold a whole block of samples into every level at once.

        Args:
            epoch_s: ``(timesteps,)`` sample timestamps.
            values: Channel -> ``(timesteps, racks)`` block.
            quality: Optional parallel quality-flag blocks.

        The store version bumps **once per block** (one mutation-
        history entry stamped at the block's earliest timestamp), so
        downstream cache invalidation scales with chunks rather than
        samples.  A block whose timestamps go backwards is stable-sorted
        first; buckets behind the newest one are then located (and
        inserted when new) per segment, so late rows land where they
        belong.
        """
        epochs = np.asarray(epoch_s, dtype=np.float64)
        if epochs.ndim != 1:
            raise ValueError(f"epoch_s must be 1-D, got shape {epochs.shape}")
        n = len(epochs)
        if n == 0:
            return
        if n > 1 and np.any(epochs[1:] < epochs[:-1]):
            order = np.argsort(epochs, kind="stable")
            epochs = epochs[order]
            values = {ch: np.asarray(block)[order] for ch, block in values.items()}
            if quality is not None:
                quality = {
                    ch: np.asarray(flags)[order] for ch, flags in quality.items()
                }
        prepared = {}
        for channel, block in values.items():
            finite = np.isfinite(block)
            clean = bool(finite.all())
            if quality is not None and channel in quality:
                flags = quality[channel]
                usable = (flags == _USABLE_FLAGS[0]) | (flags == _USABLE_FLAGS[1])
                if usable.all():
                    usable = None
            else:
                usable = None if clean else finite
            prepared[channel] = _PreparedBlock(
                zeroed=block if clean else np.where(finite, block, 0.0),
                finite=None if clean else finite,
                usable=usable,
            )
        with self._lock:
            for level in self._levels:
                level.add_block(epochs, values, prepared)
            self._version += 1
            self._mutations.append((self._version, float(epochs[0])))
            self.ingested_rows += n

    def ingest_database(
        self,
        database: EnvironmentalDatabase,
        start_epoch_s: float = -np.inf,
        end_epoch_s: float = np.inf,
    ) -> int:
        """Fold every committed row of a database in; returns the count.

        Rows go in as 4096-row :meth:`add_block` calls, so the store
        version advances once per block, not once per row.
        """
        rows = 0
        for epoch_s, values, quality in database.iter_blocks(
            _INGEST_BLOCK_ROWS, start_epoch_s, end_epoch_s
        ):
            self.add_block(epoch_s, values, quality)
            rows += len(epoch_s)
        return rows

    @classmethod
    def from_database(
        cls,
        database: EnvironmentalDatabase,
        resolutions_s: Tuple[float, ...] = DEFAULT_RESOLUTIONS_S,
    ) -> "RollupStore":
        """The offline construction: one pass over a finished store."""
        store = cls(database.num_racks, resolutions_s)
        store.ingest_database(database)
        return store

    # -- durability ---------------------------------------------------------------

    def get_state(self) -> Dict:
        """A picklable deep copy of every level (see :meth:`set_state`).

        Taken under the store lock, so a snapshot observed mid-stream
        is always a consistent whole-store state at some ingest
        boundary.
        """
        with self._lock:
            levels = []
            for level in self._levels:
                channels = {}
                for channel, buckets in level.channels.items():
                    channels[channel] = {
                        field.name: getattr(buckets, field.name)[: level.size].copy()
                        for field in dataclasses.fields(_ChannelBuckets)
                    }
                levels.append(
                    {
                        "resolution_s": level.resolution_s,
                        "epoch": level.epoch[: level.size].copy(),
                        "samples": level.samples[: level.size].copy(),
                        "channels": channels,
                    }
                )
            return {
                "num_racks": self.num_racks,
                "resolutions_s": self.resolutions_s,
                "levels": levels,
                "version": self._version,
                "mutations": list(self._mutations),
                "ingested_rows": self.ingested_rows,
            }

    def set_state(self, state: Mapping) -> None:
        """Restore a :meth:`get_state` copy bit for bit.

        Version and mutation history are restored too, so query-cache
        stamps taken before a crash stay coherent after recovery.

        Raises:
            ValueError: when the saved shape (racks / resolution
                ladder) does not match this store.
        """
        if (
            tuple(state["resolutions_s"]) != self.resolutions_s
            or int(state["num_racks"]) != self.num_racks
        ):
            raise ValueError(
                "rollup state does not match this store: saved "
                f"({state['num_racks']} racks, {tuple(state['resolutions_s'])}), "
                f"store ({self.num_racks} racks, {self.resolutions_s})"
            )
        with self._lock:
            for level, saved in zip(self._levels, state["levels"]):
                size = len(saved["epoch"])
                level._ensure_capacity(size)
                level.size = size
                level.epoch[:size] = saved["epoch"]
                level.samples[:size] = saved["samples"]
                for channel, fields in saved["channels"].items():
                    buckets = level.channels[channel]
                    for name, matrix in fields.items():
                        getattr(buckets, name)[:size] = matrix
            self._version = int(state["version"])
            self._mutations = collections.deque(
                state["mutations"], maxlen=_MUTATION_HISTORY
            )
            self.ingested_rows = int(state["ingested_rows"])

    # -- versioning / invalidation ------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic ingest counter: one bump per :meth:`add_block` call
        (:meth:`add` is a one-row block), so after :meth:`from_database`
        it counts blocks, not rows."""
        with self._lock:
            return self._version

    def earliest_mutation_since(self, version: int) -> float:
        """Oldest timestamp touched by any ingest after ``version``.

        Returns ``+inf`` when nothing changed and ``-inf`` when the
        bounded history no longer covers ``version`` (callers must
        then treat everything as potentially stale).
        """
        with self._lock:
            if version >= self._version:
                return np.inf if version == self._version else -np.inf
            earliest = np.inf
            complete = False
            for mutated_version, epoch_s in reversed(self._mutations):
                if mutated_version <= version:
                    complete = True
                    break
                earliest = min(earliest, epoch_s)
            if not complete:
                # History must reach back to version + 1 to be trusted.
                if not self._mutations or self._mutations[0][0] > version + 1:
                    return -np.inf
            return earliest

    # -- query surface ------------------------------------------------------------

    def epoch_bounds(self) -> Optional[Tuple[float, float]]:
        """Covered time range ``(first, last)`` on the finest level.

        ``first`` is the start of the earliest bucket and ``last`` the
        end of the latest, so ``[first, last)`` tiles exactly onto
        finest-level buckets; ``None`` while the store is empty.  The
        HTTP ``/healthz`` route advertises this so remote clients
        (perfbench's ``dashboard`` workload in particular) can aim
        queries at real data.
        """
        with self._lock:
            level = self._levels[0]
            if level.size == 0:
                return None
            return (
                float(level.epoch[0]),
                float(level.epoch[level.size - 1] + level.resolution_s),
            )

    def snap_resolution(self, start_epoch_s: float, end_epoch_s: float) -> float:
        """The coarsest resolution whose buckets tile ``[start, end)``.

        Falls back to the finest level for windows aligned to no
        level (answers are then bucket-start selected, i.e. exact
        whenever the stream cadence is a multiple of the finest
        resolution).
        """
        for resolution in reversed(self.resolutions_s):
            if (
                start_epoch_s % resolution == 0.0
                and end_epoch_s % resolution == 0.0
            ):
                return resolution
        return self.resolutions_s[0]

    def _level(self, resolution_s: float) -> _Level:
        for level in self._levels:
            if level.resolution_s == resolution_s:
                return level
        raise KeyError(
            f"no rollup level at {resolution_s}s; have {self.resolutions_s}"
        )

    def window(
        self,
        resolution_s: float,
        channel: Channel,
        start_epoch_s: float,
        end_epoch_s: float,
    ) -> BucketWindow:
        """A consistent copy of one channel's buckets in ``[start, end)``.

        Buckets are selected by bucket *start* timestamp.  An empty
        window returns zero-length arrays rather than raising.

        Raises:
            KeyError: when no level exists at ``resolution_s``.
        """
        with self._lock:
            level = self._level(resolution_s)
            epochs = level.epoch[: level.size]
            lo = int(np.searchsorted(epochs, start_epoch_s, side="left"))
            hi = int(np.searchsorted(epochs, end_epoch_s, side="left"))
            buckets = level.channels[channel]
            return BucketWindow(
                resolution_s=level.resolution_s,
                version=self._version,
                epoch=epochs[lo:hi].copy(),
                samples=level.samples[lo:hi].copy(),
                minimum=buckets.minimum[lo:hi].copy(),
                maximum=buckets.maximum[lo:hi].copy(),
                total=buckets.total[lo:hi].copy(),
                count=buckets.count[lo:hi].copy(),
                usable=buckets.usable[lo:hi].copy(),
            )

    def bucket_counts(self) -> Dict[float, int]:
        """Buckets held per resolution (observability)."""
        with self._lock:
            return {level.resolution_s: level.size for level in self._levels}
