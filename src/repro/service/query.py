"""The thread-safe, cached query engine over the rollup store.

Serves the three query shapes a facility dashboard needs:

* **point** — one statistic at one instant (the finest bucket holding
  the timestamp),
* **series** — per-bucket statistics across a window (the dashboard
  chart payload),
* **aggregate** — one statistic reduced over a whole window.

Scopes select the rack axis: one ``rack``, one ``row`` (Mira's 16-rack
rows), or the whole ``facility``.  Windows snap to the coarsest rollup
resolution that tiles them exactly (or an explicit ``resolution_s``).

Statistics
----------

``mean``/``min``/``max``/``sum`` compose from the rollup accumulators
with the same finite-value semantics as the offline
:class:`~repro.telemetry.database.EnvironmentalDatabase` aggregates;
``coverage`` is the usable-cell fraction
(quality ``OK``/``SUSPECT``); ``covered_sum`` is the
coverage-corrected facility total of
:meth:`~repro.telemetry.database.EnvironmentalDatabase._covered_sum` —
non-reporting racks estimated at the reporting mean, no-coverage
buckets NaN.  At the finest resolution (one sample per bucket)
``covered_sum`` reproduces the offline series exactly.

Caching
-------

Results live in a keyed LRU cache with hit/miss/eviction counters.
Invalidation is *windowed*: each entry is stamped with the store
version it was computed at, and on lookup the engine asks the store
for the earliest timestamp mutated since that version.  Entries whose
window ends before any new data stay valid (and are re-stamped);
entries the new data touches are recomputed.  Appending live samples
therefore invalidates "today's" queries but leaves last month's
dashboards cached.

The engine is safe to call from many threads at once: the HTTP
server's handler threads all share one engine, its one concurrent
read path.  A failing query raises to its caller.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro import constants
from repro.metrics import Counters
from repro.service.rollup import BucketWindow, RollupStore
from repro.telemetry import nanstats
from repro.telemetry.records import Channel

QUERY_KINDS = ("point", "series", "aggregate")
QUERY_STATS = ("mean", "min", "max", "sum", "coverage", "covered_sum")
QUERY_SCOPES = ("facility", "rack", "row")


@dataclasses.dataclass(frozen=True)
class Query:
    """One immutable, hashable query (it is its own cache key).

    Attributes:
        kind: ``"point"``, ``"series"``, or ``"aggregate"``.
        channel: The telemetry channel.
        start_epoch_s: Window start (for a point, the instant).
        end_epoch_s: Window end, exclusive (ignored for points).
        stat: One of :data:`QUERY_STATS`.
        scope: ``"facility"``, ``"rack"``, or ``"row"``.
        rack: Flat rack index, required when ``scope == "rack"``.
        row: Row index, required when ``scope == "row"``.
        resolution_s: Explicit rollup resolution; ``None`` snaps to
            the coarsest level tiling the window.
    """

    kind: str
    channel: Channel
    start_epoch_s: float
    end_epoch_s: float = 0.0
    stat: str = "mean"
    scope: str = "facility"
    rack: Optional[int] = None
    row: Optional[int] = None
    resolution_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"kind must be one of {QUERY_KINDS}, got {self.kind!r}")
        if self.stat not in QUERY_STATS:
            raise ValueError(f"stat must be one of {QUERY_STATS}, got {self.stat!r}")
        if self.scope not in QUERY_SCOPES:
            raise ValueError(
                f"scope must be one of {QUERY_SCOPES}, got {self.scope!r}"
            )
        if self.scope == "rack" and self.rack is None:
            raise ValueError("rack scope requires a rack index")
        if self.scope == "row" and self.row is None:
            raise ValueError("row scope requires a row index")
        if self.kind != "point" and self.end_epoch_s <= self.start_epoch_s:
            raise ValueError("window end must exceed its start")


@dataclasses.dataclass(frozen=True)
class QueryResult:
    """Answer to one query.

    ``value`` holds the scalar for point/aggregate queries; series
    queries fill ``epoch_s``/``values`` (read-only, one entry per
    bucket).  ``resolution_s`` is the level that actually served it.
    """

    query: Query
    resolution_s: float
    value: float = np.nan
    epoch_s: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None


class CacheCounters(Counters):
    """Cache observability."""

    hits: int
    misses: int
    evictions: int
    #: Entries recomputed because new data touched their window.
    invalidations: int
    #: Entries kept after a version check proved their window clean.
    revalidations: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclasses.dataclass
class _CacheEntry:
    result: QueryResult
    version: int


def _scope_slice(query: Query) -> slice:
    if query.scope == "rack":
        return slice(query.rack, query.rack + 1)
    if query.scope == "row":
        start = query.row * constants.RACKS_PER_ROW
        return slice(start, start + constants.RACKS_PER_ROW)
    return slice(None)


def _bucket_stats(window: BucketWindow, stat: str, racks: slice) -> np.ndarray:
    """Per-bucket statistic over the scoped racks, shape (buckets,)."""
    count = window.count[:, racks]
    total = window.total[:, racks]
    if stat == "mean":
        c = count.sum(axis=1)
        return np.divide(
            total.sum(axis=1), c, out=np.full(len(c), np.nan), where=c > 0
        )
    if stat == "min":
        return nanstats.nanmin(window.minimum[:, racks], axis=1)
    if stat == "max":
        return nanstats.nanmax(window.maximum[:, racks], axis=1)
    if stat == "sum":
        return total.sum(axis=1)
    if stat == "coverage":
        width = count.shape[1]
        denominator = window.samples * width
        return np.divide(
            window.usable[:, racks].sum(axis=1),
            denominator,
            out=np.full(len(denominator), np.nan, dtype="float64"),
            where=denominator > 0,
        )
    # covered_sum: scale the scoped total so non-reporting racks are
    # estimated at the reporting-rack mean; no-coverage buckets NaN.
    width = total.shape[1]
    c = count.sum(axis=1)
    return np.divide(
        total.sum(axis=1) * float(width),
        c,
        out=np.full(len(c), np.nan),
        where=c > 0,
    )


def _reduce_window(window: BucketWindow, stat: str, racks: slice) -> float:
    """One scalar over the whole window (aggregate queries)."""
    if window.epoch.size == 0:
        return float("nan")
    if stat == "mean":
        count = int(window.count[:, racks].sum())
        if count == 0:
            return float("nan")
        return float(window.total[:, racks].sum() / count)
    if stat == "min":
        return float(nanstats.nanmin(window.minimum[:, racks]))
    if stat == "max":
        return float(nanstats.nanmax(window.maximum[:, racks]))
    if stat == "sum":
        return float(window.total[:, racks].sum())
    if stat == "coverage":
        width = window.count[:, racks].shape[1]
        cells = int(window.samples.sum()) * width
        if cells == 0:
            return float("nan")
        return float(window.usable[:, racks].sum() / cells)
    # covered_sum aggregates as the per-bucket series mean, matching
    # the offline "mean of the coverage-corrected total series".
    return float(nanstats.nanmean(_bucket_stats(window, "covered_sum", racks)))


class QueryEngine:
    """Cached, thread-safe queries over a :class:`RollupStore`.

    Args:
        store: The rollup store to serve from.
        cache_size: Maximum cached results (LRU beyond that).
    """

    def __init__(self, store: RollupStore, cache_size: int = 1024) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.store = store
        self.cache_size = cache_size
        self.counters = CacheCounters()
        self._cache: "collections.OrderedDict[Query, _CacheEntry]" = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()
        # Memoized earliest-mutation answers for the current store
        # version: chunked ingest bumps the version once per chunk, so
        # validating many cached entries against one new chunk costs a
        # single mutation-history scan per distinct entry version.
        self._mutation_memo: Dict[int, float] = {}
        self._mutation_memo_version = -1

    # -- cache machinery ----------------------------------------------------------

    def _window_end(self, query: Query) -> float:
        if query.kind == "point":
            resolution = query.resolution_s or self.store.resolutions_s[0]
            return (
                np.floor(query.start_epoch_s / resolution) * resolution + resolution
            )
        return query.end_epoch_s

    def _lookup(self, query: Query) -> Optional[Tuple[QueryResult, int]]:
        with self._lock:
            entry = self._cache.get(query)
            if entry is None:
                self.counters.add(misses=1)
                return None
            current = self.store.version
            if entry.version != current:
                earliest = self._earliest_since(entry.version, current)
                if earliest < self._window_end(query):
                    # New data landed inside the window: recompute.
                    del self._cache[query]
                    self.counters.add(invalidations=1, misses=1)
                    return None
                entry.version = current
                self.counters.add(revalidations=1)
            self._cache.move_to_end(query)
            self.counters.add(hits=1)
            return entry.result, entry.version

    def _earliest_since(self, version: int, current: int) -> float:
        """Memoized ``store.earliest_mutation_since`` (lock held)."""
        if self._mutation_memo_version != current:
            self._mutation_memo.clear()
            self._mutation_memo_version = current
        earliest = self._mutation_memo.get(version)
        if earliest is None:
            earliest = self.store.earliest_mutation_since(version)
            self._mutation_memo[version] = earliest
        return earliest

    def _store_entry(self, query: Query, result: QueryResult, version: int) -> None:
        with self._lock:
            self._cache[query] = _CacheEntry(result=result, version=version)
            self._cache.move_to_end(query)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self.counters.add(evictions=1)

    def cache_info(self) -> Dict[str, float]:
        """The cache counters plus ``entries`` (currently cached),
        ``capacity`` (maximum entries, the LRU bound) and the derived
        ``hit_rate``, as one plain dict."""
        counters = self.counters.copy()
        return {
            **counters.as_dict(),
            "entries": len(self._cache),
            "capacity": self.cache_size,
            "hit_rate": counters.hit_rate,
        }

    # -- execution ----------------------------------------------------------------

    def _compute(self, query: Query) -> Tuple[QueryResult, int]:
        if query.kind == "point":
            resolution = query.resolution_s or self.store.resolutions_s[0]
            start = float(
                np.floor(query.start_epoch_s / resolution) * resolution
            )
            end = start + resolution
        else:
            resolution = query.resolution_s or self.store.snap_resolution(
                query.start_epoch_s, query.end_epoch_s
            )
            start, end = query.start_epoch_s, query.end_epoch_s
        window = self.store.window(resolution, query.channel, start, end)
        racks = _scope_slice(query)
        if query.kind == "series":
            values = _bucket_stats(window, query.stat, racks)
            epoch = window.epoch
            epoch.flags.writeable = False
            values.flags.writeable = False
            result = QueryResult(
                query=query,
                resolution_s=resolution,
                epoch_s=epoch,
                values=values,
            )
        else:
            result = QueryResult(
                query=query,
                resolution_s=resolution,
                value=_reduce_window(window, query.stat, racks),
            )
        return result, window.version

    def execute(self, query: Query) -> QueryResult:
        """Serve one query, from cache when valid.

        Raises:
            KeyError: when an explicit ``resolution_s`` names no level.
        """
        return self.execute_versioned(query)[0]

    def execute_versioned(self, query: Query) -> Tuple[QueryResult, int]:
        """:meth:`execute`, plus the store version the answer is valid at.

        The version is the stamp of the cache entry that served (or
        now holds) the result — the rollup-store version whose data
        the answer reflects.  The HTTP API returns it with every
        response so concurrent clients can correlate answers with
        ingest progress.
        """
        cached = self._lookup(query)
        if cached is not None:
            return cached
        result, version = self._compute(query)
        self._store_entry(query, result, version)
        return result, version
