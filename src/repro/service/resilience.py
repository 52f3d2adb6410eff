"""Subscriber supervision: isolate crashes, unwedge hangs, repair gaps.

PR 3/6 gave every subscriber its own queue and worker thread, so a
*slow* consumer could not corrupt a peer's stream — but a consumer
that **raises** silently loses its chunk (the bus swallows callback
errors), and one that **hangs** under the ``block`` policy wedges the
publisher and stalls every other subscriber.  This module puts a
supervision layer between the bus and each consumer:

* :class:`SupervisedSubscriber` wraps the consumer callable.  Every
  delivery runs inside an exception boundary; a crash moves the
  subscriber into a bounded-exponential-backoff restart cycle
  (``backoff_base_s * factor ** (crashes-1)``, capped, at most
  ``max_restarts`` restarts before the subscriber is declared failed
  and further deliveries are skipped-and-counted).  Deliveries that
  arrive while backed off are skipped, not queued — they become a
  sequence gap the next successful delivery repairs.
* A **watchdog thread** (:class:`Supervisor`) polls each wrapper's
  busy timestamp; a delivery stuck past ``deadline_s`` is flagged as a
  hang and, when the subscription's policy is ``block``, the policy is
  degraded to ``drop_oldest`` so the publisher (and every peer)
  unwedges.  When the hung delivery finally returns, the original
  policy is restored and the dropped chunks are repaired.
* **Gap repair**: the wrapper tracks the last *acked* (successfully
  consumed) sample sequence.  When a delivery starts past
  ``acked + 1`` — because chunks were evicted, skipped during
  backoff, or dropped while degraded — the missing rows are rebuilt
  from the source database by :class:`SourceReplayer` and fed through
  the consumer *before* the triggering delivery, so the consumer
  always observes an in-order, gap-free stream.  Chaos-injected
  crashes fire before the consumer touches a chunk, so repair never
  double-applies state.

Everything observable lands in per-subscriber
:class:`SupervisorCounters` and a time-ordered :class:`ServiceEvent`
log exposed on the service report.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.chaos import ChaosInjector
from repro.metrics import Counters
from repro.service.bus import BusChunk, Subscription
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import CHANNELS

__all__ = [
    "SupervisorConfig",
    "SupervisorCounters",
    "ServiceEvent",
    "SourceReplayer",
    "SupervisedSubscriber",
    "Supervisor",
]


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy shared by every wrapped subscriber.

    Attributes:
        deadline_s: A delivery busy longer than this is a hang.
        poll_interval_s: Watchdog sampling period.
        max_restarts: Crash budget; the ``max_restarts + 1``-th crash
            marks the subscriber failed (no further deliveries).
        backoff_base_s / backoff_factor / backoff_max_s: Restart
            delay ``min(base * factor**(n-1), max)`` after the n-th
            crash.  A base of ``0`` restarts on the next delivery —
            the deterministic setting the equivalence tests use.
        repair_gaps: Rebuild missed sample ranges from the source
            database before the next delivery (needs a database-backed
            bus; generic iterable sources skip repair).
    """

    deadline_s: float = 5.0
    poll_interval_s: float = 0.05
    max_restarts: int = 5
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    repair_gaps: bool = True

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts cannot be negative, got {self.max_restarts}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, crashes: int) -> float:
        """Restart delay after the ``crashes``-th consecutive crash."""
        if crashes < 1:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor ** (crashes - 1),
            self.backoff_max_s,
        )


class SupervisorCounters(Counters):
    """Per-subscriber supervision observability."""

    #: Deliveries that completed (gap repairs excluded).
    deliveries: int
    #: Samples those deliveries carried.
    samples_delivered: int
    #: Exceptions caught at the supervision boundary.
    crashes: int
    #: Times the subscriber came back from backoff.
    restarts: int
    #: Deliveries skipped while backed off or failed.
    skipped: int
    #: Samples those skipped deliveries carried.
    samples_skipped: int
    #: Deliveries flagged by the watchdog as hung.
    hangs: int
    #: Hung deliveries that eventually returned.
    hang_recoveries: int
    #: Sequence gaps rebuilt from the source.
    gaps_repaired: int
    #: Samples re-fed through the consumer by gap repair.
    samples_repaired: int
    #: Snapshots taken (durable subscribers only).
    snapshots: int
    #: Crash budget exhausted (1): the subscriber is dead for this run.
    gave_up: int


@dataclasses.dataclass(frozen=True)
class ServiceEvent:
    """One supervision event, in wall-clock order.

    ``kind`` is one of ``crash``, ``restart``, ``gave_up``, ``hang``,
    ``hang_recovered``, ``gap_repaired``, ``snapshot``, ``kill``.
    """

    kind: str
    subscriber: str
    seq: Optional[int]
    detail: str
    wall_s: float


class SourceReplayer:
    """Rebuilds published sample ranges from the source database.

    The bus assigns sample sequence ``base_seq + i`` to the ``i``-th
    row inside the replay window, so any ``[lo_seq, hi_seq]`` range
    maps back to a contiguous row slice of the database's column
    matrices — gap repair is zero-copy view slicing, identical in
    content to what the bus originally published.
    """

    def __init__(
        self,
        database: EnvironmentalDatabase,
        start_epoch_s: float = -np.inf,
        end_epoch_s: float = np.inf,
        base_seq: int = 0,
        chunk_size: int = 256,
    ) -> None:
        database.num_samples  # flush pending appends before slicing
        epochs = database.epoch_s
        self._window_lo = int(np.searchsorted(epochs, start_epoch_s, side="left"))
        self._window_hi = int(np.searchsorted(epochs, end_epoch_s, side="left"))
        self.base_seq = int(base_seq)
        self.chunk_size = int(chunk_size)
        self._epochs = epochs
        self._values = {ch: database.channel(ch).values for ch in CHANNELS}
        self._quality = {ch: database.quality(ch) for ch in CHANNELS}

    def blocks(self, lo_seq: int, hi_seq: int) -> Iterator[BusChunk]:
        """Yield the range ``[lo_seq, hi_seq]`` as read-only chunks.

        Rebuilt chunks carry ``seq == -1`` (they are synthetic, not
        bus-published) but real ``start_seq`` sample numbering.
        """
        if lo_seq > hi_seq:
            return
        row_lo = self._window_lo + (lo_seq - self.base_seq)
        row_hi = self._window_lo + (hi_seq - self.base_seq)
        if row_lo < self._window_lo or row_hi >= self._window_hi:
            raise ValueError(
                f"sequence range [{lo_seq}, {hi_seq}] is outside the replay "
                f"window (seqs [{self.base_seq}, "
                f"{self.base_seq + self._window_hi - self._window_lo - 1}])"
            )
        for start in range(row_lo, row_hi + 1, self.chunk_size):
            stop = min(start + self.chunk_size, row_hi + 1)
            yield BusChunk(
                seq=-1,
                start_seq=self.base_seq + (start - self._window_lo),
                epoch_s=self._epochs[start:stop],
                values={ch: block[start:stop] for ch, block in self._values.items()},
                quality={ch: block[start:stop] for ch, block in self._quality.items()},
            )


class SupervisedSubscriber:
    """The supervision wrapper registered as the bus callback.

    States: ``running`` → (crash) → ``backoff`` → (next delivery past
    the restart time) → ``running``; ``max_restarts + 1`` crashes →
    ``failed`` (terminal for the run — a recovered service starts a
    fresh wrapper).
    """

    def __init__(
        self,
        name: str,
        inner: Callable[..., None],
        supervisor: "Supervisor",
        base_seq: int = 0,
        snapshotter: Optional[Callable[[int], None]] = None,
        snapshot_every: int = 0,
    ) -> None:
        self.name = name
        self.inner = inner
        self.supervisor = supervisor
        self.counters = SupervisorCounters()
        self.state = "running"
        self.last_acked_seq = base_seq - 1
        self.snapshotter = snapshotter
        self.snapshot_every = int(snapshot_every)
        self._last_snapshot_seq = base_seq - 1
        self.subscription: Optional[Subscription] = None
        self._original_policy: Optional[str] = None
        self._crashes = 0
        self._restart_at = 0.0
        self._busy_since: Optional[float] = None
        self._hang_flagged = False
        self._degraded = False
        self._lock = threading.Lock()

    # -- wiring -------------------------------------------------------------------

    def attach(self, subscription: Subscription) -> None:
        """Bind the bus subscription (for watchdog policy degrades)."""
        self.subscription = subscription
        self._original_policy = subscription.policy

    # -- the delivery boundary ----------------------------------------------------

    def __call__(self, chunk: BusChunk) -> None:
        start, end, count = chunk.start_seq, chunk.end_seq, len(chunk)
        with self._lock:
            if self.state == "failed":
                self.counters.add(skipped=1, samples_skipped=count)
                return
            if self.state == "backoff":
                if time.monotonic() < self._restart_at:
                    self.counters.add(skipped=1, samples_skipped=count)
                    return
                self.state = "running"
                self.counters.add(restarts=1)
                self.supervisor.record(
                    "restart",
                    self.name,
                    seq=start,
                    detail=f"after crash #{self._crashes}",
                )
            self._busy_since = time.monotonic()
        try:
            chaos = self.supervisor.chaos
            if chaos is not None:
                chaos.before_delivery(self.name, start)
            if start > self.last_acked_seq + 1:
                self._repair(self.last_acked_seq + 1, start - 1)
            self.inner(chunk)
        except Exception as exc:  # noqa: BLE001 - the supervision boundary
            self._on_crash(exc, start)
        else:
            with self._lock:
                self.last_acked_seq = end
                self._crashes = 0
                self.counters.add(deliveries=1, samples_delivered=count)
            self._maybe_snapshot()
        finally:
            self._settle()

    def _repair(self, lo_seq: int, hi_seq: int) -> None:
        """Rebuild and consume the missed range before the trigger."""
        supervisor = self.supervisor
        if not supervisor.config.repair_gaps or supervisor.replayer is None:
            return
        for chunk in supervisor.replayer.blocks(lo_seq, hi_seq):
            self.inner(chunk)
        self.counters.add(gaps_repaired=1, samples_repaired=hi_seq - lo_seq + 1)
        supervisor.record(
            "gap_repaired",
            self.name,
            seq=lo_seq,
            detail=f"seqs [{lo_seq}, {hi_seq}]",
        )

    def _on_crash(self, exc: Exception, start: int) -> None:
        with self._lock:
            self.counters.add(crashes=1)
            self._crashes += 1
            if self._crashes > self.supervisor.config.max_restarts:
                self.state = "failed"
                self.counters.add(gave_up=1)
                self.supervisor.record(
                    "gave_up",
                    self.name,
                    seq=start,
                    detail=(
                        f"crash budget exhausted after {self._crashes} "
                        f"consecutive crashes: {exc!r}"
                    ),
                )
            else:
                backoff = self.supervisor.config.backoff_s(self._crashes)
                self._restart_at = time.monotonic() + backoff
                self.state = "backoff"
                self.supervisor.record(
                    "crash",
                    self.name,
                    seq=start,
                    detail=f"{exc!r} (restart in {backoff:g}s)",
                )

    def _maybe_snapshot(self) -> None:
        if self.snapshotter is None or self.snapshot_every <= 0:
            return
        acked = self.last_acked_seq
        if acked - self._last_snapshot_seq < self.snapshot_every:
            return
        try:
            self.snapshotter(acked)
        except Exception as exc:  # noqa: BLE001 - snapshot failure is non-fatal
            self.counters.add(crashes=1)
            self.supervisor.record(
                "crash", self.name, seq=acked, detail=f"snapshot failed: {exc!r}"
            )
            return
        self._last_snapshot_seq = acked
        self.counters.add(snapshots=1)
        self.supervisor.record("snapshot", self.name, seq=acked, detail="")

    def snapshot_now(self) -> None:
        """Force a snapshot at the current ack (graceful shutdown)."""
        if self.snapshotter is None:
            return
        self.snapshotter(self.last_acked_seq)
        self._last_snapshot_seq = self.last_acked_seq
        self.counters.add(snapshots=1)
        self.supervisor.record(
            "snapshot", self.name, seq=self.last_acked_seq, detail="final"
        )

    def _settle(self) -> None:
        """Clear busy/hang state once the delivery attempt ends."""
        with self._lock:
            self._busy_since = None
            if not self._hang_flagged:
                return
            self._hang_flagged = False
            self.counters.add(hang_recoveries=1)
            degraded = self._degraded
            self._degraded = False
        if degraded and self.subscription is not None:
            self.subscription.set_policy(self._original_policy)
        self.supervisor.record(
            "hang_recovered", self.name, seq=self.last_acked_seq, detail=""
        )

    # -- watchdog side ------------------------------------------------------------

    def _check_deadline(self, now: float, deadline_s: float) -> None:
        with self._lock:
            busy = self._busy_since
            if busy is None or self._hang_flagged or now - busy <= deadline_s:
                return
            self._hang_flagged = True
            self.counters.add(hangs=1)
            degrade = (
                self.subscription is not None
                and self.subscription.policy == "block"
            )
            if degrade:
                self._degraded = True
        if degrade:
            self.subscription.set_policy("drop_oldest")
        self.supervisor.record(
            "hang",
            self.name,
            seq=self.last_acked_seq,
            detail=f"busy > {deadline_s:g}s"
            + (" (degraded block -> drop_oldest)" if degrade else ""),
        )


class Supervisor:
    """Owns the wrappers, the watchdog thread, and the event log."""

    def __init__(
        self,
        config: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosInjector] = None,
        replayer: Optional[SourceReplayer] = None,
    ) -> None:
        self.config = config if config is not None else SupervisorConfig()
        self.chaos = chaos
        self.replayer = replayer
        self.subscribers: Dict[str, SupervisedSubscriber] = {}
        self._events: List[ServiceEvent] = []
        self._events_lock = threading.Lock()
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None

    def supervise(
        self,
        name: str,
        inner: Callable[..., None],
        base_seq: int = 0,
        snapshotter: Optional[Callable[[int], None]] = None,
        snapshot_every: int = 0,
    ) -> SupervisedSubscriber:
        if name in self.subscribers:
            raise ValueError(f"duplicate supervised subscriber: {name!r}")
        wrapper = SupervisedSubscriber(
            name,
            inner,
            self,
            base_seq=base_seq,
            snapshotter=snapshotter,
            snapshot_every=snapshot_every,
        )
        self.subscribers[name] = wrapper
        return wrapper

    def record(
        self, kind: str, subscriber: str, seq: Optional[int] = None, detail: str = ""
    ) -> None:
        event = ServiceEvent(
            kind=kind,
            subscriber=subscriber,
            seq=seq,
            detail=detail,
            wall_s=time.monotonic(),
        )
        with self._events_lock:
            self._events.append(event)

    @property
    def events(self) -> Tuple[ServiceEvent, ...]:
        with self._events_lock:
            return tuple(self._events)

    @property
    def counters(self) -> Dict[str, SupervisorCounters]:
        return {
            name: wrapper.counters.copy() for name, wrapper in self.subscribers.items()
        }

    # -- watchdog -----------------------------------------------------------------

    def start(self) -> None:
        if self._watchdog is not None:
            return
        self._stop.clear()
        self._watchdog = threading.Thread(
            target=self._watch, name="service-watchdog", daemon=True
        )
        self._watchdog.start()

    def stop(self, join_timeout_s: float = 5.0) -> None:
        if self._watchdog is None:
            return
        self._stop.set()
        self._watchdog.join(timeout=join_timeout_s)
        self._watchdog = None

    def _watch(self) -> None:
        deadline = self.config.deadline_s
        while not self._stop.wait(self.config.poll_interval_s):
            now = time.monotonic()
            for wrapper in list(self.subscribers.values()):
                wrapper._check_deadline(now, deadline)
