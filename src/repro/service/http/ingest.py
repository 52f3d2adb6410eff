"""The collector ingest gateway.

Sits between ``POST /v1/ingest`` and the hardened
:class:`~repro.telemetry.database.EnvironmentalDatabase` ingest path.
Every accepted batch is routed through the database's
:class:`~repro.telemetry.database.IngestPolicy` — the reorder buffer,
duplicate resolution, and per-channel quality masks behave exactly as
they do for direct :meth:`append_block` ingest, which the equivalence
tests pin — and newly *committed* rows are folded incrementally into
the query tier's :class:`~repro.service.rollup.RollupStore` so
dashboards see collector data as it lands.

Admission control:

* **auth** — per-collector bearer tokens
  (``Authorization: Bearer <token>``, compared with
  :func:`hmac.compare_digest`); an empty token table disables auth
  (the open dev-server mode).
* **backpressure** — a bounded admission semaphore: when more than
  ``max_pending`` batches are inside the gateway simultaneously, the
  request is refused with a structured 429 carrying ``Retry-After``,
  and the collector's bounded-backoff retry takes it from there.
  Refusal is cheap (no decode, no lock wait), so an overloaded server
  sheds load instead of queueing unboundedly.
"""

from __future__ import annotations

import dataclasses
import hmac
import threading
from typing import Dict, Mapping, Optional

from repro.metrics import Counters
from repro.service.http.protocol import API_VERSION, ApiError, IngestBatch
from repro.service.rollup import RollupStore
from repro.telemetry.database import EnvironmentalDatabase


@dataclasses.dataclass(frozen=True)
class IngestServerConfig:
    """Admission-control tunables of the ingest gateway.

    Attributes:
        tokens: collector name -> bearer token.  Empty = auth off.
        max_batch_samples: Samples per POST beyond which the batch is
            refused with 413.
        max_pending: Concurrent batches allowed inside the gateway;
            the 429 backpressure bound.
        retry_after_s: ``Retry-After`` hint attached to 429 responses.
    """

    tokens: Mapping[str, str] = dataclasses.field(default_factory=dict)
    max_batch_samples: int = 4096
    max_pending: int = 4
    retry_after_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch_samples < 1:
            raise ValueError("max_batch_samples must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")


class GatewayCounters(Counters):
    """Observability counters for the ingest front door."""

    batches_accepted: int
    rows_received: int
    rows_committed: int
    quality_override_rows: int
    rejected_unauthorized: int
    rejected_backpressure: int


class IngestGateway:
    """Routes authenticated collector batches into the database.

    Args:
        database: The ingest target; its
            :class:`~repro.telemetry.database.IngestPolicy` governs
            reorder/duplicate semantics.
        rollups: Optional query-tier rollup store.  Newly committed
            rows are folded in after each batch (and on
            :meth:`finalize`), so the HTTP query routes serve
            collector data incrementally.  Rows still held in a
            lenient policy's reorder buffer are folded only once they
            commit.
        config: Admission-control tunables.

    Thread safety: one gateway lock serializes ingest (the database is
    not internally locked); the admission semaphore bounds how many
    handler threads may wait on it.
    """

    def __init__(
        self,
        database: EnvironmentalDatabase,
        rollups: Optional[RollupStore] = None,
        config: Optional[IngestServerConfig] = None,
    ) -> None:
        self.database = database
        self.rollups = rollups
        self.config = config if config is not None else IngestServerConfig()
        self.counters = GatewayCounters()
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.config.max_pending)
        #: Committed rows already folded into the rollup store.  Rows
        #: present at construction are assumed covered (the server
        #: builds its store with ``RollupStore.from_database`` first).
        self._folded = database.committed_samples

    # -- admission ---------------------------------------------------------------

    def authorize(self, collector: str, token: Optional[str]) -> None:
        """Check the collector's bearer token.

        Raises:
            ApiError: 401 when auth is enabled and the token is
                missing or wrong (one counter bump, constant-time
                comparison, and a deliberately uninformative message).
        """
        tokens = self.config.tokens
        if not tokens:
            return
        expected = tokens.get(collector)
        if (
            expected is None
            or token is None
            or not hmac.compare_digest(expected, token)
        ):
            self.counters.add(rejected_unauthorized=1)
            raise ApiError(
                401, "unauthorized", "unknown collector or bad token"
            )

    # -- ingest ------------------------------------------------------------------

    def ingest(self, batch: IngestBatch) -> Dict:
        """Admit one decoded batch; returns the success payload.

        Raises:
            ApiError: 429 when ``max_pending`` batches are already in
                flight (with ``Retry-After``); 400 when the database's
                strict policy rejects delivery order, forwarded as a
                structured error.
        """
        if not self._slots.acquire(blocking=False):
            self.counters.add(rejected_backpressure=1)
            raise ApiError(
                429,
                "backpressure",
                f"ingest gateway at capacity ({self.config.max_pending} "
                "batches in flight); retry with backoff",
                headers={"Retry-After": f"{self.config.retry_after_s:g}"},
            )
        try:
            with self._lock:
                return self._ingest_locked(batch)
        finally:
            self._slots.release()

    def _ingest_locked(self, batch: IngestBatch) -> Dict:
        database = self.database
        if batch.quality and not database.policy.strict:
            # Under a lenient policy rows may sit in the reorder buffer
            # or merge into earlier rows, so no committed row index is
            # known for a batch's explicit flags.  Refuse up front,
            # before any values are appended.
            raise ApiError(
                400,
                "bad_request",
                "explicit quality flags require a strict ingest policy",
            )
        before = database.committed_samples
        try:
            database.append_block(batch.epoch_s, batch.channels)
        except ValueError as exc:
            # The strict policy's delivery-order contract, surfaced as
            # a structured client error rather than a 500.
            raise ApiError(400, "rejected_by_policy", str(exc)) from None
        self.counters.add(batches_accepted=1, rows_received=batch.num_samples)
        if batch.quality:
            # Strict commit is contiguous: the batch occupies rows
            # [before, before + n).
            for channel, flags in batch.quality.items():
                database.overwrite_quality(channel, before, flags)
            self.counters.add(quality_override_rows=batch.num_samples)
        self._fold_committed()
        return {
            "api_version": API_VERSION,
            "accepted_rows": batch.num_samples,
            "committed_samples": database.committed_samples,
            "counters": database.counters.as_dict(),
            "store_version": (
                self.rollups.version if self.rollups is not None else None
            ),
        }

    def _fold_committed(self) -> None:
        if self.rollups is None:
            return
        committed = self.database.committed_samples
        if committed <= self._folded:
            return
        epochs, values, quality = self.database.committed_rows(
            self._folded, committed
        )
        self.rollups.add_block(epochs, values, quality)
        self.counters.add(rows_committed=committed - self._folded)
        self._folded = committed

    def finalize(self) -> None:
        """End of stream: flush the reorder buffer and fold the tail."""
        with self._lock:
            self.database.flush()
            self._fold_committed()

    def metrics(self) -> Dict:
        """Gateway + database ingest counters for ``/metrics``."""
        with self._lock:
            payload = self.counters.as_dict()
            payload["database"] = self.database.counters.as_dict()
            payload["committed_samples"] = self.database.committed_samples
            payload["auth_enabled"] = bool(self.config.tokens)
            payload["max_pending"] = self.config.max_pending
            payload["max_batch_samples"] = self.config.max_batch_samples
            return payload
