"""The streaming replay bus: finished telemetry re-served as live data.

The paper's environmental database was not a static file — ALCF
operators queried it *continuously*, and every downstream consumer
(dashboards, weekly reports, the CMF response workflow) rode a live
stream.  :class:`ReplayBus` turns a finished
:class:`~repro.telemetry.database.EnvironmentalDatabase` realization
back into that stream: whole-floor snapshots are published in
timestamp order, paced at a configurable speedup over simulated time
(or as fast as the machine allows), through a pub/sub dispatcher.

Delivery is **columnar and chunked**: the bus batches ``chunk_size``
consecutive snapshots into a :class:`BusChunk` — one contiguous
``(timesteps, racks)`` block per channel, built zero-copy from the
environmental database's column matrices — and publishes whole chunks.
Every callback receives :class:`BusChunk` objects and does one
vectorized update per chunk; a ``chunk_size`` of 1 delivers one-row
chunks, the per-sample stream.

Every subscriber gets its **own bounded queue and worker thread**, so
one slow consumer cannot corrupt another's view of the stream.  What
happens when a queue fills is the subscriber's declared
**backpressure policy** (queues hold whole chunks, so lossy policies
evict whole chunks at a time):

* ``"block"`` — the publisher waits for space.  Nothing is lost, but a
  slow subscriber throttles the whole bus (every other subscriber
  advances at the slow one's pace).  The right choice for consumers
  that must see every sample, e.g. the rollup store.
* ``"drop_oldest"`` — the oldest queued chunk is evicted to make
  room.  The subscriber sees a gapped but *fresh* stream; the
  publisher never stalls.
* ``"coalesce"`` — the newest queued chunk is replaced by the
  incoming one.  The subscriber sees the latest state with intermediate
  chunks superseded — dashboard semantics.

Every degraded decision is counted per subscriber
(:class:`SubscriberCounters`) in **both sample and chunk units**,
including the maximum observed queue depth (chunks) and *lag* (samples
published but not yet processed), so tests and operators can see
exactly what each consumer missed.

Payload blocks in a :class:`BusChunk` are read-only views into the
source store; subscribers that retain them across callbacks must copy.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.metrics import Counters
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import Channel

#: Accepted backpressure policies.
BACKPRESSURE_POLICIES = ("block", "drop_oldest", "coalesce")

#: A source row: (epoch_s, channel -> values, channel -> quality).
SourceRow = Tuple[float, Mapping[Channel, np.ndarray], Mapping[Channel, np.ndarray]]


@dataclasses.dataclass(frozen=True)
class BusChunk:
    """A contiguous block of published snapshots, columnar per channel.

    Attributes:
        seq: Chunk sequence number (0-based, gap-free at the bus).
        start_seq: Sample sequence number of the chunk's first row.
        epoch_s: ``(timesteps,)`` sample timestamps (read-only view).
        values: Channel -> ``(timesteps, racks)`` block (read-only
            view into the source store — zero-copy for database
            replays).
        quality: Channel -> parallel quality-flag block.
    """

    seq: int
    start_seq: int
    epoch_s: np.ndarray
    values: Mapping[Channel, np.ndarray]
    quality: Mapping[Channel, np.ndarray]

    def __len__(self) -> int:
        return len(self.epoch_s)

    @property
    def end_seq(self) -> int:
        """Sample sequence number of the chunk's last row."""
        return self.start_seq + len(self.epoch_s) - 1


class SubscriberCounters(Counters):
    """Observability counters for one subscription.

    ``enqueued``/``delivered``/``dropped``/``coalesced`` count
    **samples** (rows), so they read the same at any chunk size; their
    ``*_chunks`` twins count the same events in whole-chunk units.
    ``enqueued == delivered + dropped + coalesced`` holds in both
    units once a replay drains.
    """

    #: Samples appended to the subscriber's queue.
    enqueued: int
    #: Samples whose callback completed.
    delivered: int
    #: Samples evicted under ``drop_oldest``.
    dropped: int
    #: Samples superseded under ``coalesce``.
    coalesced: int
    #: Chunks appended to the subscriber's queue.
    enqueued_chunks: int
    #: Chunks fully processed by the consumer.
    delivered_chunks: int
    #: Whole chunks evicted under ``drop_oldest``.
    dropped_chunks: int
    #: Whole chunks superseded under ``coalesce``.
    coalesced_chunks: int
    #: Callback exceptions (swallowed; the stream continues).
    errors: int
    #: Deepest queue backlog observed at publish time, in chunks.
    max_queue_depth: int
    #: Largest published-but-unprocessed sample count observed.
    max_lag: int


class Subscription:
    """One subscriber's queue, worker thread, and counters.

    The queue holds whole :class:`BusChunk` objects; the callback
    receives each one verbatim.
    """

    def __init__(
        self,
        name: str,
        callback: Callable[[BusChunk], None],
        capacity: int,
        policy: str,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"policy must be one of {BACKPRESSURE_POLICIES}, got {policy!r}"
            )
        self.name = name
        self.callback = callback
        self.capacity = capacity
        self.policy = policy
        self.counters = SubscriberCounters()
        self._queue: collections.deque = collections.deque()
        self._cond = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name=f"bus-sub-{name}", daemon=True
        )
        self._worker.start()

    # -- publisher side -----------------------------------------------------------

    def _offer(self, chunk: BusChunk) -> None:
        """Enqueue one chunk per the backpressure policy.

        The policy is re-read on every wait iteration so a supervisor
        can degrade a blocked subscription to ``drop_oldest`` mid-wait
        (see :meth:`set_policy`) and unwedge the publisher.
        """
        counters = self.counters
        size = len(chunk)
        with self._cond:
            while (
                self.policy == "block"
                and len(self._queue) >= self.capacity
                and not self._closed
            ):
                self._cond.wait(timeout=0.2)
            if len(self._queue) >= self.capacity and self.policy != "block":
                if self.policy == "drop_oldest":
                    evicted = self._queue.popleft()
                    counters.add(dropped=len(evicted), dropped_chunks=1)
                else:  # coalesce: the incoming chunk supersedes the newest
                    evicted = self._queue.pop()
                    counters.add(coalesced=len(evicted), coalesced_chunks=1)
            self._queue.append(chunk)
            counters.add(enqueued=size, enqueued_chunks=1)
            processed = counters.delivered + counters.dropped + counters.coalesced
            counters.peak(
                max_queue_depth=len(self._queue),
                max_lag=chunk.end_seq + 1 - processed,
            )
            self._cond.notify()

    def set_policy(self, policy: str) -> None:
        """Swap the backpressure policy at runtime (thread-safe).

        Used by the supervisor's watchdog to degrade a hung blocking
        subscriber to ``drop_oldest`` (and restore it afterwards); a
        publisher blocked in :meth:`_offer` re-checks the policy and
        unwedges immediately.
        """
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"policy must be one of {BACKPRESSURE_POLICIES}, got {policy!r}"
            )
        with self._cond:
            self.policy = policy
            self._cond.notify_all()

    def _close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def _abort(self) -> None:
        """Close *discarding* the backlog (simulated process death)."""
        with self._cond:
            self._queue.clear()
            self._closed = True
            self._cond.notify_all()

    def _join(self, timeout_s: float) -> None:
        self._worker.join(timeout=timeout_s)

    # -- consumer side ------------------------------------------------------------

    def _drain(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait(timeout=0.2)
                if self._queue:
                    chunk = self._queue.popleft()
                    # Wake a publisher waiting for space (block policy).
                    self._cond.notify_all()
                elif self._closed:
                    return
                else:
                    continue
            try:
                self.callback(chunk)
            except Exception:
                self.counters.add(errors=1)
            self.counters.add(delivered=len(chunk), delivered_chunks=1)

    @property
    def backlog(self) -> int:
        """Samples currently queued and unprocessed."""
        with self._cond:
            return sum(len(chunk) for chunk in self._queue)


@dataclasses.dataclass(frozen=True)
class BusReport:
    """What one replay produced."""

    #: Whole-floor snapshots published.
    published: int
    #: Wall-clock replay duration, seconds.
    duration_s: float
    #: Simulated seconds covered by the replay.
    simulated_span_s: float
    #: Final per-subscriber counters, by subscriber name.
    subscribers: Dict[str, SubscriberCounters]
    #: Chunks published (== ``published`` when ``chunk_size == 1``).
    published_chunks: int = 0

    @property
    def rows_per_sec(self) -> float:
        return self.published / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def achieved_speedup(self) -> float:
        """Simulated seconds replayed per wall-clock second."""
        if self.duration_s <= 0:
            return float("inf")
        return self.simulated_span_s / self.duration_s


class ReplayBus:
    """Streams telemetry rows in timestamp order to subscribers.

    Args:
        source: An :class:`EnvironmentalDatabase` (replayed via
            zero-copy column-block slices) or any iterable of
            ``(epoch_s, values, quality)`` rows in ascending timestamp
            order.
        speedup: Simulated seconds streamed per wall-clock second.
            ``inf`` (the default) paces not at all — every row is
            published as fast as subscribers' policies allow.
        start_epoch_s / end_epoch_s: Restrict a database source to a
            replay window ``[start, end)``.
        chunk_size: Snapshots batched per published :class:`BusChunk`.
            The default of 1 reproduces per-sample publishing exactly
            (one chunk per snapshot, pacing and drop accounting
            included); live deployments should use hundreds.
        base_seq: Sample sequence number of the first published row.
            A recovered service resumes its replay mid-stream with the
            sequence numbering of the original run, so write-ahead-log
            records and subscriber ack positions stay aligned.
        on_publish: Optional hook invoked with each :class:`BusChunk`
            *before* it is offered to any subscriber — the write-ahead
            ordering point (the durability layer appends the chunk to
            its log here, and the chaos injector raises its simulated
            process kill here).  An exception from the hook aborts the
            replay without publishing the chunk.
    """

    def __init__(
        self,
        source: "EnvironmentalDatabase | Iterable[SourceRow]",
        speedup: float = float("inf"),
        start_epoch_s: float = -np.inf,
        end_epoch_s: float = np.inf,
        chunk_size: int = 1,
        base_seq: int = 0,
        on_publish: Optional[Callable[[BusChunk], None]] = None,
    ) -> None:
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if base_seq < 0:
            raise ValueError(f"base_seq must be >= 0, got {base_seq}")
        self._source = source
        self.speedup = float(speedup)
        self._start = start_epoch_s
        self._end = end_epoch_s
        self.chunk_size = int(chunk_size)
        self.base_seq = int(base_seq)
        self.on_publish = on_publish
        self._subscriptions: List[Subscription] = []
        self.published = 0
        self.published_chunks = 0

    def subscribe(
        self,
        name: str,
        callback: Callable[[BusChunk], None],
        capacity: int = 256,
        policy: str = "block",
    ) -> Subscription:
        """Register a consumer; its worker thread starts immediately.

        ``callback`` is invoked once per :class:`BusChunk`.

        Raises:
            ValueError: on a duplicate name, non-positive capacity, or
                unknown policy.
        """
        if any(s.name == name for s in self._subscriptions):
            raise ValueError(f"duplicate subscriber name: {name!r}")
        subscription = Subscription(name, callback, capacity, policy)
        self._subscriptions.append(subscription)
        return subscription

    def _chunks(self) -> Iterator[Tuple[np.ndarray, Mapping, Mapping]]:
        """Yield ``(epoch_s, values, quality)`` column blocks.

        Database sources slice their column matrices directly —
        zero-copy read-only views.  Generic row iterables are batched
        by stacking up to ``chunk_size`` consecutive rows (flushing
        early if the channel set changes mid-batch).
        """
        if isinstance(self._source, EnvironmentalDatabase):
            yield from self._source.iter_blocks(
                self.chunk_size, self._start, self._end
            )
            return
        pending: List[SourceRow] = []
        pending_key: Optional[Tuple] = None
        for row in iter(self._source):
            key = (tuple(row[1].keys()), tuple(row[2].keys()))
            if pending and (key != pending_key or len(pending) >= self.chunk_size):
                yield self._stack_rows(pending)
                pending = []
            pending.append(row)
            pending_key = key
        if pending:
            yield self._stack_rows(pending)

    @staticmethod
    def _stack_rows(rows: List[SourceRow]) -> Tuple[np.ndarray, Mapping, Mapping]:
        epochs = np.array([row[0] for row in rows], dtype=np.float64)
        epochs.flags.writeable = False
        values: Dict[Channel, np.ndarray] = {}
        quality: Dict[Channel, np.ndarray] = {}
        for channel in rows[0][1]:
            block = np.stack([row[1][channel] for row in rows])
            block.flags.writeable = False
            values[channel] = block
        for channel in rows[0][2]:
            block = np.stack([row[2][channel] for row in rows])
            block.flags.writeable = False
            quality[channel] = block
        return epochs, values, quality

    def abort(self, join_timeout_s: float = 10.0) -> None:
        """Tear the bus down *discarding* every subscriber backlog.

        Models the process dying mid-replay: queued-but-unprocessed
        chunks are lost (exactly what a kill loses), worker threads
        exit, and no further state mutation happens.  Used by the
        chaos harness after :class:`ChaosProcessKill` escapes
        :meth:`run`.
        """
        for subscription in self._subscriptions:
            subscription._abort()
        for subscription in self._subscriptions:
            subscription._join(join_timeout_s)

    def run(self, join_timeout_s: float = 60.0) -> BusReport:
        """Publish every source row, drain all queues, and report.

        Blocks until the stream is exhausted and every subscriber has
        processed its backlog (subscribers under lossy policies only
        process what survived their queues).
        """
        pace = np.isfinite(self.speedup)
        started = time.perf_counter()
        next_wall = started
        previous_epoch: Optional[float] = None
        first_epoch = last_epoch = 0.0
        for epochs, values, quality in self._chunks():
            if len(epochs) == 0:
                continue
            if previous_epoch is None:
                first_epoch = float(epochs[0])
            elif pace:
                next_wall += (float(epochs[0]) - previous_epoch) / self.speedup
                delay = next_wall - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            previous_epoch = last_epoch = float(epochs[-1])
            chunk = BusChunk(
                seq=self.published_chunks,
                start_seq=self.base_seq + self.published,
                epoch_s=epochs,
                values=values,
                quality=quality,
            )
            if self.on_publish is not None:
                self.on_publish(chunk)
            for subscription in self._subscriptions:
                subscription._offer(chunk)
            self.published += len(epochs)
            self.published_chunks += 1
        for subscription in self._subscriptions:
            subscription._close()
        for subscription in self._subscriptions:
            subscription._join(join_timeout_s)
        duration = time.perf_counter() - started
        return BusReport(
            published=self.published,
            duration_s=duration,
            simulated_span_s=(last_epoch - first_epoch) if self.published else 0.0,
            subscribers={s.name: s.counters.copy() for s in self._subscriptions},
            published_chunks=self.published_chunks,
        )
