"""The live operations-data service layer.

Turns a finished simulation into the system the paper's operators
actually ran: telemetry re-served as a live stream, analytics riding
it, and an aggregated store answering dashboard queries.

* :mod:`repro.service.bus` — :class:`ReplayBus`, a paced pub/sub
  dispatcher publishing columnar :class:`BusChunk` blocks through
  bounded per-subscriber queues and explicit backpressure policies
  (block / drop-oldest / coalesce),
* :mod:`repro.service.rollup` — :class:`RollupStore`, incremental
  multi-resolution min/mean/max/count downsamples with quality-aware
  coverage,
* :mod:`repro.service.query` — :class:`QueryEngine`, point/series/
  aggregate queries behind a version-validated LRU cache, safe to
  share across threads,
* :mod:`repro.service.subscribers` — adapters wiring the online CMF
  predictor, CUSUM detector, and alert engine onto the bus,
* :mod:`repro.service.resilience` — :class:`Supervisor` and the
  per-subscriber wrappers: crash isolation, bounded-backoff restarts,
  hang watchdog with policy degradation, source-replay gap repair,
* :mod:`repro.service.durability` — :class:`WriteAheadLog` +
  :class:`SnapshotStore`, the kill-safe persistence behind
  :meth:`LiveOperationsService.recover`,
* :mod:`repro.service.live` — :class:`LiveOperationsService`, the
  assembled bus -> rollups -> query-engine stack with supervision,
  durability, and chaos hooks,
* :mod:`repro.service.http` — the operations HTTP API: versioned
  query routes, ``/healthz``/``/metrics``, the collector ingest
  gateway, and the threaded server around them.
"""

from repro.service.bus import (
    BACKPRESSURE_POLICIES,
    BusChunk,
    BusReport,
    ReplayBus,
    SubscriberCounters,
    Subscription,
)
from repro.service.http import (
    IngestClient,
    IngestGateway,
    IngestServerConfig,
    OperationsApp,
    OperationsHttpServer,
)
from repro.service.durability import (
    ComponentRecovery,
    DurabilityConfig,
    RecoveryError,
    RecoveryReport,
    SnapshotCounters,
    SnapshotStore,
    WriteAheadLog,
)
from repro.service.live import LiveOperationsService, ServiceConfig, ServiceReport
from repro.service.query import (
    CacheCounters,
    Query,
    QueryEngine,
    QueryResult,
)
from repro.service.resilience import (
    ServiceEvent,
    SourceReplayer,
    SupervisedSubscriber,
    Supervisor,
    SupervisorConfig,
    SupervisorCounters,
)
from repro.service.rollup import (
    DEFAULT_RESOLUTIONS_S,
    BucketWindow,
    RollupStore,
)
from repro.service.subscribers import (
    CountingSubscriber,
    CusumSubscriber,
    PredictorSubscriber,
    RollupSubscriber,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BusChunk",
    "BusReport",
    "ReplayBus",
    "SubscriberCounters",
    "Subscription",
    "ComponentRecovery",
    "DurabilityConfig",
    "RecoveryError",
    "RecoveryReport",
    "SnapshotCounters",
    "SnapshotStore",
    "WriteAheadLog",
    "LiveOperationsService",
    "ServiceConfig",
    "ServiceReport",
    "CacheCounters",
    "IngestClient",
    "IngestGateway",
    "IngestServerConfig",
    "OperationsApp",
    "OperationsHttpServer",
    "Query",
    "QueryEngine",
    "QueryResult",
    "ServiceEvent",
    "SourceReplayer",
    "SupervisedSubscriber",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorCounters",
    "DEFAULT_RESOLUTIONS_S",
    "BucketWindow",
    "RollupStore",
    "CountingSubscriber",
    "CusumSubscriber",
    "PredictorSubscriber",
    "RollupSubscriber",
]
