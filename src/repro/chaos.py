"""Deterministic chaos injection for the service layer.

Where :mod:`repro.faults` degrades the *data* (sensor dropouts,
spikes, delivery skew), this module degrades the *components*: it
makes subscribers crash and hang, consumers stall, the whole process
"die" mid-stream, and :mod:`repro.parallel` workers disappear — the
failure modes "Operational Data Analytics in Practice" reports as the
hard part of keeping monitoring pipelines alive in production.

Like the fault injector, chaos is **seed-derived and deterministic**:
a :class:`ChaosInjector` draws every rate-based decision from
per-subscriber generators spawned off one master seed, so the same
config injects the same events into the same delivery sequence.
Tests that need exact placement use the explicit ``crash_at`` /
``hang_at`` / ``kill_at_seq`` schedules, which key off bus sequence
numbers and are independent of timing entirely.

Injection points:

* :meth:`ChaosInjector.before_delivery` — called by the supervisor's
  wrapper on the subscriber's worker thread before each delivery; it
  raises :class:`ChaosCrash` (subscriber exception), sleeps past the
  watchdog deadline (hang), or sleeps briefly (slow consumer).
* :meth:`ChaosInjector.on_publish` — called on the publisher thread
  before a chunk reaches the write-ahead log or any queue; it raises
  :class:`ChaosProcessKill` to model the process dying, losing every
  in-flight queue (the harness then aborts the bus and recovers from
  the WAL).
* :class:`WorkerCrasher` — a picklable wrapper that SIGKILLs a
  process-pool worker the first time it sees a scheduled task index,
  exercising the :func:`repro.parallel.pmap` broken-pool retry path.
* :meth:`ChaosInjector.on_http_request` — called by the
  :mod:`repro.service.http` server per arriving request; it injects
  structured 500s or connection resets on a seeded (or explicit)
  schedule, exercising the collector adapters' retry/backoff paths
  deterministically.

:func:`run_chaos_matrix` drives the full crash/hang/kill x chunk-size
grid against :class:`~repro.service.live.LiveOperationsService` and
verifies recovery equivalence; the ``repro chaos`` CLI and the CI
chaos-smoke job are thin wrappers over it.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics import Counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.bus import BusChunk


class ChaosCrash(RuntimeError):
    """An injected subscriber exception (isolated by the supervisor)."""


class ChaosProcessKill(RuntimeError):
    """An injected mid-stream process death.

    Raised from the bus's publish hook; callers must treat the service
    instance as dead (abort the bus, recover from the WAL).  It is
    *not* a subscriber error and the supervisor never catches it.
    """


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """What to inject, and how often.

    Rate-based fields draw one uniform per category per delivery from
    a per-subscriber seeded stream; explicit schedules key off bus
    sample sequence numbers and fire exactly once each.

    Attributes:
        seed: Master seed for every rate-based decision.
        crash_rate: Probability a delivery raises :class:`ChaosCrash`.
        hang_rate: Probability a delivery sleeps ``hang_s`` (long
            enough to trip the supervisor's watchdog).
        slow_rate: Probability a delivery sleeps ``slow_s`` (a slow
            consumer, below the hang deadline).
        hang_s / slow_s: The respective stall durations.
        crash_at: Explicit ``(subscriber, start_seq)`` crash schedule.
        hang_at: Explicit ``(subscriber, start_seq)`` hang schedule.
        kill_at_seq: Kill the "process" when the chunk containing this
            sample sequence number is about to publish (the chunk is
            neither logged nor delivered).
        subscribers: Restrict rate-based injection to these subscriber
            names (``None`` = all supervised subscribers).
        http_error_rate: Probability an HTTP request is answered with
            a structured 500 instead of being served (the
            :mod:`repro.service.http` server's fault hook).
        http_reset_rate: Probability an HTTP request's connection is
            dropped without any response (a mid-flight reset).
        http_error_at / http_reset_at: Explicit request indices (the
            server's arrival counter) that fire exactly once each —
            the deterministic schedule collector retry tests use.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    hang_s: float = 0.2
    slow_s: float = 0.02
    crash_at: Tuple[Tuple[str, int], ...] = ()
    hang_at: Tuple[Tuple[str, int], ...] = ()
    kill_at_seq: Optional[int] = None
    subscribers: Optional[Tuple[str, ...]] = None
    http_error_rate: float = 0.0
    http_reset_rate: float = 0.0
    http_error_at: Tuple[int, ...] = ()
    http_reset_at: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name, rate in (
            ("crash_rate", self.crash_rate),
            ("hang_rate", self.hang_rate),
            ("slow_rate", self.slow_rate),
            ("http_error_rate", self.http_error_rate),
            ("http_reset_rate", self.http_reset_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_s < 0 or self.slow_s < 0:
            raise ValueError("stall durations cannot be negative")


class ChaosCounters(Counters):
    """Injected events per subscriber (kills are counted bus-wide)."""

    crashes_injected: int
    hangs_injected: int
    slowdowns_injected: int
    kills_injected: int
    http_errors_injected: int
    http_resets_injected: int


class ChaosInjector:
    """Applies a :class:`ChaosConfig` at the supervisor's hook points.

    Determinism contract: each subscriber name maps to its own
    generator seeded by ``(config.seed, crc32(name))``, and every
    delivery draws the rate categories in a fixed order (crash, hang,
    slow) — so two injectors with the same config make identical
    decisions for identical per-subscriber delivery sequences,
    regardless of how deliveries interleave across subscribers.
    """

    def __init__(self, config: Optional[ChaosConfig] = None) -> None:
        self.config = config if config is not None else ChaosConfig()
        self.counters: Dict[str, ChaosCounters] = {}
        self._rngs: Dict[str, np.random.Generator] = {}
        self._crash_at = set(self.config.crash_at)
        self._hang_at = set(self.config.hang_at)
        self._fired: set = set()
        self._killed = False

    def _counters(self, name: str) -> ChaosCounters:
        counters = self.counters.get(name)
        if counters is None:
            # setdefault: concurrent HTTP handler threads share one group.
            counters = self.counters.setdefault(name, ChaosCounters())
        return counters

    def _rng(self, name: str) -> np.random.Generator:
        rng = self._rngs.get(name)
        if rng is None:
            entropy = (self.config.seed, zlib.crc32(name.encode()))
            rng = self._rngs[name] = np.random.default_rng(
                np.random.SeedSequence(entropy)
            )
        return rng

    def _targeted(self, name: str) -> bool:
        return self.config.subscribers is None or name in self.config.subscribers

    # -- supervisor hook points ---------------------------------------------------

    def before_delivery(self, name: str, start_seq: int) -> None:
        """Maybe crash, hang, or slow the delivery starting at ``start_seq``.

        Called on the subscriber's worker thread.  Raises
        :class:`ChaosCrash` for an injected exception; stalls inline
        for hangs and slowdowns.
        """
        cfg = self.config
        key = (name, start_seq)
        if key in self._crash_at and key not in self._fired:
            self._fired.add(key)
            self._counters(name).add(crashes_injected=1)
            raise ChaosCrash(f"injected crash in {name!r} at seq {start_seq}")
        if key in self._hang_at and key not in self._fired:
            self._fired.add(key)
            self._counters(name).add(hangs_injected=1)
            time.sleep(cfg.hang_s)
            return
        if not self._targeted(name):
            return
        if cfg.crash_rate > 0.0 and self._rng(name).random() < cfg.crash_rate:
            self._counters(name).add(crashes_injected=1)
            raise ChaosCrash(f"injected crash in {name!r} at seq {start_seq}")
        if cfg.hang_rate > 0.0 and self._rng(name).random() < cfg.hang_rate:
            self._counters(name).add(hangs_injected=1)
            time.sleep(cfg.hang_s)
        if cfg.slow_rate > 0.0 and self._rng(name).random() < cfg.slow_rate:
            self._counters(name).add(slowdowns_injected=1)
            time.sleep(cfg.slow_s)

    def on_publish(self, chunk: "BusChunk") -> None:
        """Kill the "process" when the scheduled chunk reaches publish.

        Runs before the WAL append and before any queue sees the
        chunk, so a kill loses the chunk entirely — the recovered
        service replays it from the source on resume.
        """
        kill_at = self.config.kill_at_seq
        if kill_at is None or self._killed:
            return
        if chunk.end_seq >= kill_at:
            self._killed = True
            self._counters("__bus__").add(kills_injected=1)
            raise ChaosProcessKill(
                f"injected process kill at chunk seqs "
                f"[{chunk.start_seq}, {chunk.end_seq}]"
            )

    # -- HTTP-server chaos --------------------------------------------------------

    def on_http_request(self, index: int) -> Optional[str]:
        """Fault decision for the ``index``-th HTTP request to arrive.

        Called by the :mod:`repro.service.http` server with its
        monotonically increasing arrival counter.  Returns ``"error"``
        (answer with a structured 500), ``"reset"`` (drop the
        connection without a response), or ``None`` (serve normally).

        Explicit ``http_error_at`` / ``http_reset_at`` indices fire
        exactly once each and take priority; rate-based decisions draw
        from the dedicated ``__http__`` stream in a fixed order
        (error, then reset), so a given seed produces the same fault
        schedule for the same request arrival order regardless of what
        the subscriber-side chaos streams consumed.
        """
        cfg = self.config
        key = ("__http__", index)
        if index in cfg.http_error_at and key not in self._fired:
            self._fired.add(key)
            self._counters("__http__").add(http_errors_injected=1)
            return "error"
        if index in cfg.http_reset_at and (key, "reset") not in self._fired:
            self._fired.add((key, "reset"))
            self._counters("__http__").add(http_resets_injected=1)
            return "reset"
        if cfg.http_error_rate > 0.0 and (
            self._rng("__http__").random() < cfg.http_error_rate
        ):
            self._counters("__http__").add(http_errors_injected=1)
            return "error"
        if cfg.http_reset_rate > 0.0 and (
            self._rng("__http__").random() < cfg.http_reset_rate
        ):
            self._counters("__http__").add(http_resets_injected=1)
            return "reset"
        return None

    # -- parallel-worker chaos ----------------------------------------------------

    def worker_crash_indices(self, num_tasks: int, rate: float) -> Tuple[int, ...]:
        """Deterministic task indices whose first execution dies.

        Drawn from the injector's ``__workers__`` stream so the
        schedule depends only on the seed, the task count, and the
        rate — never on pool size or completion order.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if num_tasks <= 0 or rate == 0.0:
            return ()
        draws = self._rng("__workers__").random(num_tasks)
        return tuple(int(i) for i in np.flatnonzero(draws < rate))


class WorkerCrasher:
    """Picklable wrapper that SIGKILLs a pool worker on schedule.

    Wraps a single-argument function for use with
    :func:`repro.parallel.pmap` over ``enumerate(items)``: each task is
    one ``(index, item)`` pair.  The first time a scheduled task index
    executes, a marker file is written and the worker process kills
    itself, breaking the pool; on resubmission the marker suppresses
    the crash, so the retried pool (or the serial fallback) completes
    the work.
    """

    def __init__(
        self,
        fn: Callable[..., object],
        crash_indices: Sequence[int],
        marker_dir: "str | Path",
    ) -> None:
        self.fn = fn
        self.crash_indices = tuple(int(i) for i in crash_indices)
        self.marker_dir = str(marker_dir)

    def __call__(self, pair: Tuple[int, object]) -> object:
        index, item = pair
        if index in self.crash_indices:
            marker = Path(self.marker_dir) / f"crashed-{index}"
            if not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return self.fn(item)


# -- the chaos matrix (CLI / CI smoke) --------------------------------------------

#: Scenarios the matrix knows how to run.
CHAOS_SCENARIOS = ("crash", "hang", "kill")


def _rollup_fingerprint(service) -> Dict[float, np.ndarray]:
    """Per-level (epoch, samples, totals) fingerprint for equivalence."""
    from repro.telemetry.records import CHANNELS

    fingerprint = {}
    for resolution in service.rollups.resolutions_s:
        parts = []
        for channel in CHANNELS:
            window = service.rollups.window(
                resolution, channel, -np.inf, np.inf
            )
            parts.append(
                np.concatenate(
                    [
                        window.epoch,
                        window.samples.astype("float64"),
                        window.total.ravel(),
                        window.count.astype("float64").ravel(),
                        window.usable.astype("float64").ravel(),
                    ]
                )
            )
        fingerprint[resolution] = np.concatenate(parts)
    return fingerprint


def _fingerprints_match(
    baseline: Dict[float, np.ndarray], candidate: Dict[float, np.ndarray]
) -> bool:
    if baseline.keys() != candidate.keys():
        return False
    return all(
        baseline[k].shape == candidate[k].shape
        and np.allclose(baseline[k], candidate[k], rtol=1e-9, atol=1e-9, equal_nan=True)
        for k in baseline
    )


def run_chaos_matrix(
    days: int = 4,
    seed: int = 7,
    dt_s: float = 1800.0,
    chunk_sizes: Sequence[int] = (1, 64),
    scenarios: Sequence[str] = CHAOS_SCENARIOS,
    workdir: "str | Path | None" = None,
) -> Dict[str, object]:
    """Run the crash/hang/kill x chunk-size grid and verify recovery.

    For every scenario and chunk size the matrix replays the same
    simulated realization through a supervised
    :class:`~repro.service.live.LiveOperationsService` (rollups +
    CUSUM) with chaos injected, then checks the final rollup store —
    and, for kills, the post-:meth:`recover` store — against an
    undisturbed baseline replay.  Returns a summary dict (also the
    ``repro chaos`` JSON payload) whose ``"ok"`` field gates CI.
    """
    import shutil
    import tempfile

    from repro.service.live import (
        DurabilityConfig,
        LiveOperationsService,
        ServiceConfig,
        SupervisorConfig,
    )
    from repro.simulation import FacilityEngine, MiraScenario

    unknown = [s for s in scenarios if s not in CHAOS_SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; choose from {CHAOS_SCENARIOS}")
    result = FacilityEngine(
        MiraScenario.demo(days=days, seed=seed, dt_s=dt_s)
    ).run()
    database = result.database
    num_samples = database.num_samples
    owned_workdir = workdir is None
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-")) if owned_workdir else Path(workdir)
    root.mkdir(parents=True, exist_ok=True)

    supervision = SupervisorConfig(
        deadline_s=0.05, backoff_base_s=0.0, poll_interval_s=0.01
    )
    matrix: List[Dict[str, object]] = []
    try:
        for chunk_size in chunk_sizes:
            config = ServiceConfig(
                chunk_size=int(chunk_size),
                analytics_policy="block",
                supervision=supervision,
            )
            baseline = LiveOperationsService(database, cusum=True, config=config)
            baseline.run()
            expected = _rollup_fingerprint(baseline)
            expected_alarms = tuple(baseline.cusum_subscriber.alarms)

            for scenario in scenarios:
                cell: Dict[str, object] = {
                    "scenario": scenario,
                    "chunk_size": int(chunk_size),
                }
                target_seq = num_samples // 2
                aligned = (target_seq // int(chunk_size)) * int(chunk_size)
                if scenario == "crash":
                    chaos = ChaosInjector(
                        ChaosConfig(crash_at=(("rollups", aligned),))
                    )
                elif scenario == "hang":
                    chaos = ChaosInjector(
                        ChaosConfig(hang_at=(("rollups", aligned),), hang_s=0.2)
                    )
                else:
                    chaos = ChaosInjector(ChaosConfig(kill_at_seq=target_seq))

                if scenario == "kill":
                    state_dir = root / f"kill-{chunk_size}"
                    shutil.rmtree(state_dir, ignore_errors=True)
                    durable = dataclasses.replace(
                        config,
                        durability=DurabilityConfig(directory=state_dir),
                    )
                    service = LiveOperationsService(
                        database, cusum=True, config=durable, chaos=chaos
                    )
                    killed = False
                    try:
                        service.run()
                    except ChaosProcessKill:
                        killed = True
                        service.abort()
                    cell["killed"] = killed
                    recovered = LiveOperationsService.recover(
                        database, cusum=True, config=durable
                    )
                    report = recovered.run()
                    cell["wal_records_replayed"] = (
                        recovered.recovery.wal_records if recovered.recovery else 0
                    )
                    candidate = _rollup_fingerprint(recovered)
                    alarms = tuple(recovered.cusum_subscriber.alarms)
                    ok = (
                        killed
                        and _fingerprints_match(expected, candidate)
                        and alarms == expected_alarms
                    )
                else:
                    service = LiveOperationsService(
                        database, cusum=True, config=config, chaos=chaos
                    )
                    report = service.run()
                    counters = report.supervision.get("rollups")
                    candidate = _rollup_fingerprint(service)
                    alarms = tuple(service.cusum_subscriber.alarms)
                    injected = (
                        counters is not None
                        and (counters.crashes + counters.hangs) >= 1
                    )
                    cell["events"] = [
                        (event.kind, event.subscriber) for event in report.events
                    ]
                    ok = (
                        injected
                        and _fingerprints_match(expected, candidate)
                        and alarms == expected_alarms
                    )
                cell["rollups_match"] = _fingerprints_match(expected, candidate)
                cell["alarms_match"] = alarms == expected_alarms
                cell["ok"] = bool(ok)
                matrix.append(cell)
    finally:
        if owned_workdir:
            shutil.rmtree(root, ignore_errors=True)

    return {
        "scenario": f"demo(days={days}, seed={seed}, dt_s={dt_s:g})",
        "samples": int(num_samples),
        "chunk_sizes": [int(c) for c in chunk_sizes],
        "cells": matrix,
        "ok": all(cell["ok"] for cell in matrix),
    }
