"""The HTTP operations API and collector ingest gateway.

A dependency-free (stdlib ``http.server``) JSON API over the service
layer's query engine, plus the ingest front door remote collectors
post telemetry through:

* :mod:`repro.service.http.protocol` — wire formats: versioned
  envelopes, float/NaN encoding, query parsing, batch decoding, and
  the seeded dashboard query mix,
* :mod:`repro.service.http.app` — :class:`OperationsApp`, the
  socket-free route dispatcher (tests drive it directly),
* :mod:`repro.service.http.server` — :class:`OperationsHttpServer`,
  one threaded process around one shared app (query and ingest),
* :mod:`repro.service.http.ingest` — :class:`IngestGateway`: auth,
  backpressure, policy-routed appends, incremental rollup folding,
* :mod:`repro.service.http.collectors` — :class:`IngestClient` with
  bounded-backoff retries, the CSV replayer, the simulated poller.
"""

from repro.service.http.app import MAX_SERIES_POINTS, OperationsApp, RequestCounters
from repro.service.http.collectors import (
    ClientCounters,
    FileImportCollector,
    IngestClient,
    IngestClientError,
    RetryPolicy,
    SimulatedPollerCollector,
)
from repro.service.http.ingest import (
    GatewayCounters,
    IngestGateway,
    IngestServerConfig,
)
from repro.service.http.protocol import (
    API_VERSION,
    SUPPORTED_API_VERSIONS,
    ApiError,
    IngestBatch,
    decode_batch,
    encode_batch,
    encode_result,
    generate_query_paths,
    parse_query,
    query_path,
)
from repro.service.http.server import MAX_BODY_BYTES, OperationsHttpServer

__all__ = [
    "MAX_SERIES_POINTS",
    "OperationsApp",
    "RequestCounters",
    "ClientCounters",
    "FileImportCollector",
    "IngestClient",
    "IngestClientError",
    "RetryPolicy",
    "SimulatedPollerCollector",
    "GatewayCounters",
    "IngestGateway",
    "IngestServerConfig",
    "API_VERSION",
    "SUPPORTED_API_VERSIONS",
    "ApiError",
    "IngestBatch",
    "decode_batch",
    "encode_batch",
    "encode_result",
    "generate_query_paths",
    "parse_query",
    "query_path",
    "MAX_BODY_BYTES",
    "OperationsHttpServer",
]
