"""The live operations service: bus -> rollups -> query engine.

:class:`LiveOperationsService` assembles the full service layer over a
finished simulation: a :class:`~repro.service.bus.ReplayBus` streams
the environmental database; the rollup store and (optionally) the
online CMF predictor + alert policy and the CUSUM detector ride the
stream as subscribers; the :class:`~repro.service.query.QueryEngine`
serves dashboard queries over the rollups — during the replay or
after it.

The rollup subscriber uses the ``block`` policy (the store must see
every sample for streaming/batch equivalence); the analytics
subscribers default to ``drop_oldest`` so a slow model can never stall
ingest.  Every subscriber, first-class or added ad hoc to
:attr:`LiveOperationsService.bus`, receives whole chunks
(``ServiceConfig.chunk_size`` snapshots per vectorized update).

Resilience (see :mod:`repro.service.resilience` and
:mod:`repro.service.durability`): every first-class subscriber is
wrapped by a supervisor that isolates crashes, restarts with bounded
backoff, degrades hung blocking consumers, and repairs sequence gaps
from the source database.  With ``ServiceConfig.durability`` set, a
write-ahead log records every published chunk before fan-out and each
subscriber snapshots its component state periodically;
:meth:`LiveOperationsService.recover` rebuilds a killed service —
snapshot load + idempotent WAL replay — bit-identical to an
uninterrupted run, and resumes the stream where the log ends.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos import ChaosCounters, ChaosInjector, ChaosProcessKill
from repro.monitoring.alerts import Alert, AlertEngine, AlertLog, AlertPolicy
from repro.monitoring.anomaly import CusumAlarm, CusumDetector
from repro.monitoring.online import OnlineCmfPredictor
from repro.service.bus import BusChunk, BusReport, ReplayBus
from repro.service.durability import (
    DurabilityConfig,
    RecoveryReport,
    SnapshotCounters,
    SnapshotStore,
    WriteAheadLog,
    replay_component,
)
from repro.service.query import QueryEngine
from repro.service.resilience import (
    ServiceEvent,
    SourceReplayer,
    Supervisor,
    SupervisorConfig,
    SupervisorCounters,
)
from repro.service.rollup import DEFAULT_RESOLUTIONS_S, RollupStore
from repro.service.subscribers import (
    CusumSubscriber,
    PredictorSubscriber,
    RollupSubscriber,
)
from repro.telemetry.database import EnvironmentalDatabase


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the service layer."""

    #: Simulated seconds replayed per wall-clock second (inf = flat out).
    speedup: float = float("inf")
    #: Per-subscriber queue capacity.
    queue_capacity: int = 512
    #: Backpressure policy for the analytics subscribers (the rollup
    #: subscriber always blocks: it must see every sample).
    analytics_policy: str = "drop_oldest"
    #: Rollup resolution ladder, finest first.
    resolutions_s: Tuple[float, ...] = DEFAULT_RESOLUTIONS_S
    #: Query-cache capacity.
    cache_size: int = 1024
    #: Snapshots per published chunk.  The service subscribers consume
    #: whole chunks vectorized; results are identical at any chunk
    #: size (1 delivers one-row chunks, the per-sample stream).
    chunk_size: int = 256
    #: Supervision policy applied to every first-class subscriber.
    supervision: SupervisorConfig = SupervisorConfig()
    #: Crash durability (WAL + snapshots).  ``None`` = volatile, the
    #: historical behavior.
    durability: Optional[DurabilityConfig] = None


@dataclasses.dataclass(frozen=True)
class ServiceReport:
    """Everything one replay produced."""

    bus: BusReport
    alerts: Tuple[Alert, ...]
    alarms: Tuple[CusumAlarm, ...]
    predictions: int
    rollup_buckets: Dict[float, int]
    cache: Dict[str, float]
    #: Per-subscriber supervision counters.
    supervision: Dict[str, SupervisorCounters] = dataclasses.field(
        default_factory=dict
    )
    #: Time-ordered supervision event log.
    events: Tuple[ServiceEvent, ...] = ()
    #: Per-subscriber chaos-injection counters (chaos runs only).
    chaos: Dict[str, ChaosCounters] = dataclasses.field(default_factory=dict)
    #: How this service instance was recovered (``None`` = fresh start).
    recovery: Optional[RecoveryReport] = None
    #: What snapshot loads found wrong, from recovery through this run
    #: (``None`` without durability).
    snapshots: Optional[SnapshotCounters] = None


class LiveOperationsService:
    """Replay a realization through the full online stack.

    Args:
        database: The telemetry to re-serve as a live stream.
        model: Optional trained classifier
            (:func:`~repro.monitoring.online.train_online_predictor`);
            when given, the streaming predictor and alert engine ride
            the bus.
        alert_policy: Alert policy for the predictor stream.
        cusum: Attach the classical CUSUM detector as a subscriber.
        config: Service tunables.
        start_epoch_s / end_epoch_s: Replay window ``[start, end)``.
        chaos: Optional :class:`~repro.chaos.ChaosInjector` whose
            schedule is applied at the supervision and publish hooks.
    """

    #: Supervised first-class subscriber names, in wiring order.
    _COMPONENTS = ("rollups", "predictor", "cusum")

    def __init__(
        self,
        database: EnvironmentalDatabase,
        model=None,
        alert_policy: Optional[AlertPolicy] = None,
        cusum: bool = False,
        config: Optional[ServiceConfig] = None,
        start_epoch_s: float = -np.inf,
        end_epoch_s: float = np.inf,
        chaos: Optional[ChaosInjector] = None,
    ) -> None:
        self._init_components(
            database, model, alert_policy, cusum, config, start_epoch_s,
            end_epoch_s, chaos,
        )
        self._build_runtime(base_seq=0, wal_resume=False)

    def _init_components(
        self,
        database: EnvironmentalDatabase,
        model,
        alert_policy: Optional[AlertPolicy],
        cusum: bool,
        config: Optional[ServiceConfig],
        start_epoch_s: float,
        end_epoch_s: float,
        chaos: Optional[ChaosInjector],
    ) -> None:
        """Build the stateful components (everything but bus/supervisor)."""
        self.config = config if config is not None else ServiceConfig()
        self.database = database
        self.chaos = chaos
        self._start_epoch_s = start_epoch_s
        self._end_epoch_s = end_epoch_s
        self.recovery: Optional[RecoveryReport] = None
        self.rollups = RollupStore(
            num_racks=database.num_racks, resolutions_s=self.config.resolutions_s
        )
        self.engine = QueryEngine(self.rollups, cache_size=self.config.cache_size)
        self.rollup_subscriber = RollupSubscriber(self.rollups)
        self.predictor_subscriber: Optional[PredictorSubscriber] = None
        if model is not None:
            predictor = OnlineCmfPredictor(model)
            self.predictor_subscriber = PredictorSubscriber(
                predictor,
                alert_engine=AlertEngine(alert_policy),
                alert_log=AlertLog(),
            )
        self.cusum_subscriber: Optional[CusumSubscriber] = None
        if cusum:
            self.cusum_subscriber = CusumSubscriber(CusumDetector())

    def _component_items(self):
        """(name, consumer) pairs for every attached component."""
        items = [("rollups", self.rollup_subscriber)]
        if self.predictor_subscriber is not None:
            items.append(("predictor", self.predictor_subscriber))
        if self.cusum_subscriber is not None:
            items.append(("cusum", self.cusum_subscriber))
        return items

    def _snapshotter(
        self, name: str, component
    ) -> Optional[Callable[[int], None]]:
        if self._snapshots is None:
            return None

        def snapshot(acked_seq: int) -> None:
            self._snapshots.save(name, acked_seq, component.get_state())

        return snapshot

    def _build_runtime(
        self,
        base_seq: int,
        wal_resume: bool,
        start_epoch_s: Optional[float] = None,
        snapshots: Optional[SnapshotStore] = None,
    ) -> None:
        """Wire bus, durability hooks, and supervision around the
        (possibly recovered) components; ``snapshots`` is the store
        recovery loaded from, kept so its counters reach the report."""
        config = self.config
        start = self._start_epoch_s if start_epoch_s is None else start_epoch_s
        self._wal: Optional[WriteAheadLog] = None
        self._snapshots: Optional[SnapshotStore] = None
        durability = config.durability
        if durability is not None:
            self._snapshots = (
                snapshots if snapshots is not None else SnapshotStore(durability.root)
            )
            self._wal = WriteAheadLog(
                durability.wal_path, fsync=durability.fsync, resume=wal_resume
            )

        on_publish = None
        if self.chaos is not None or self._wal is not None:
            chaos, wal = self.chaos, self._wal

            def on_publish(chunk: BusChunk) -> None:
                # The kill fires before the log append: a killed chunk
                # is lost entirely, exactly like a real process death
                # between read and write.
                if chaos is not None:
                    chaos.on_publish(chunk)
                if wal is not None:
                    wal.append(chunk)

        self.bus = ReplayBus(
            self.database,
            speedup=config.speedup,
            start_epoch_s=start,
            end_epoch_s=self._end_epoch_s,
            chunk_size=config.chunk_size,
            base_seq=base_seq,
            on_publish=on_publish,
        )
        replayer = SourceReplayer(
            self.database,
            start_epoch_s=start,
            end_epoch_s=self._end_epoch_s,
            base_seq=base_seq,
            chunk_size=config.chunk_size,
        )
        self.supervisor = Supervisor(
            config.supervision, chaos=self.chaos, replayer=replayer
        )
        snapshot_every = (
            durability.snapshot_every_samples if durability is not None else 0
        )
        for name, consumer in self._component_items():
            wrapper = self.supervisor.supervise(
                name,
                consumer,
                base_seq=base_seq,
                snapshotter=self._snapshotter(name, consumer),
                snapshot_every=snapshot_every,
            )
            subscription = self.bus.subscribe(
                name,
                wrapper,
                capacity=config.queue_capacity,
                policy="block" if name == "rollups" else config.analytics_policy,
            )
            wrapper.attach(subscription)

    # -- lifecycle ----------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Replay the stream to completion and summarize.

        Raises:
            ChaosProcessKill: when the chaos schedule kills the
                "process" mid-stream.  The service is torn down first
                (queues discarded, WAL closed) — exactly the state a
                real death leaves on disk — so the caller can
                :meth:`recover`.
        """
        self.supervisor.start()
        try:
            bus_report = self.bus.run()
        except ChaosProcessKill as exc:
            self.supervisor.record("kill", "__bus__", seq=None, detail=repr(exc))
            self.abort()
            raise
        finally:
            self.supervisor.stop()
        durability = self.config.durability
        if (
            self._snapshots is not None
            and durability is not None
            and durability.snapshot_every_samples > 0
        ):
            for wrapper in self.supervisor.subscribers.values():
                wrapper.snapshot_now()
        if self._wal is not None:
            self._wal.close()
        alerts: List[Alert] = []
        predictions = 0
        if self.predictor_subscriber is not None:
            alerts = self.predictor_subscriber.alerts
            predictions = len(self.predictor_subscriber.predictions)
        alarms: List[CusumAlarm] = []
        if self.cusum_subscriber is not None:
            alarms = self.cusum_subscriber.alarms
        return ServiceReport(
            bus=bus_report,
            alerts=tuple(alerts),
            alarms=tuple(alarms),
            predictions=predictions,
            rollup_buckets=self.rollups.bucket_counts(),
            cache=self.engine.cache_info(),
            supervision=self.supervisor.counters,
            events=self.supervisor.events,
            chaos=(
                {k: v.copy() for k, v in self.chaos.counters.items()}
                if self.chaos is not None
                else {}
            ),
            recovery=self.recovery,
            snapshots=(
                self._snapshots.counters.copy()
                if self._snapshots is not None
                else None
            ),
        )

    def abort(self, join_timeout_s: float = 10.0) -> None:
        """Tear down after a (simulated) process death.

        Discards every subscriber backlog — a killed process loses its
        in-memory queues — stops the watchdog, and closes the WAL file
        handle without final snapshots.  On-disk state is exactly what
        :meth:`recover` expects to find.
        """
        self.supervisor.stop()
        self.bus.abort(join_timeout_s)
        if self._wal is not None and not self._wal.closed:
            self._wal.close()

    @classmethod
    def recover(
        cls,
        database: EnvironmentalDatabase,
        model=None,
        alert_policy: Optional[AlertPolicy] = None,
        cusum: bool = False,
        config: Optional[ServiceConfig] = None,
        start_epoch_s: float = -np.inf,
        end_epoch_s: float = np.inf,
        chaos: Optional[ChaosInjector] = None,
    ) -> "LiveOperationsService":
        """Rebuild a killed service from its durability directory.

        Each component loads its latest snapshot (if any), then
        replays the write-ahead log idempotently past its acked
        sequence — restoring rollup buckets, predictor history and
        emissions, CUSUM statistics, and alert state exactly as the
        uninterrupted run would have them at the log's end.  The
        returned service's bus resumes the source stream at the first
        unlogged sample with the original sequence numbering;
        :meth:`run` then finishes the replay.  A snapshot that fails
        verification is quarantined, its component replays the whole
        log, and the report flags it (``snapshot_quarantined``).

        Raises:
            ValueError: when ``config.durability`` is unset.
            RecoveryError: on a corrupt WAL or a snapshot/WAL gap.
        """
        config = config if config is not None else ServiceConfig()
        if config.durability is None:
            raise ValueError("recover() needs config.durability to locate state")
        service = cls.__new__(cls)
        service._init_components(
            database, model, alert_policy, cusum, config, start_epoch_s,
            end_epoch_s, chaos,
        )
        durability = config.durability
        records, _, torn = WriteAheadLog.scan(durability.wal_path)
        snapshots = SnapshotStore(durability.root)
        wal_start = records[0].start_seq if records else 0
        recovered = []
        for name, consumer in service._component_items():
            quarantined_before = snapshots.counters.quarantined
            snapshot = snapshots.load(name)
            if snapshot is not None:
                consumer.set_state(snapshot.state)
                acked = snapshot.acked_seq
                snapshot_seq: Optional[int] = snapshot.acked_seq
            else:
                acked = wal_start - 1
                snapshot_seq = None
            quarantined = snapshots.counters.quarantined > quarantined_before
            recovered.append(
                replay_component(
                    name, records, acked, consumer, snapshot_seq, quarantined
                )
            )
        resume_seq = records[-1].end_seq + 1 if records else 0
        service.recovery = RecoveryReport(
            wal_records=len(records),
            wal_samples=sum(len(r) for r in records),
            wal_torn_tail=torn,
            resume_seq=resume_seq,
            components=tuple(recovered),
        )
        if records:
            # Resume strictly after the last logged timestamp.
            resume_start = float(np.nextafter(records[-1].epoch_s[-1], np.inf))
        else:
            resume_start = None
        service._build_runtime(
            base_seq=resume_seq,
            wal_resume=True,
            start_epoch_s=resume_start,
            snapshots=snapshots,
        )
        return service
