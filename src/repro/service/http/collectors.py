"""Collector adapters: sources that feed ``POST /v1/ingest``.

Two adapters over one transport client:

* :class:`FileImportCollector` — replays an exported telemetry CSV
  (the :func:`~repro.telemetry.export.export_telemetry_csv` format,
  quality columns included) through the HTTP ingest path, batch by
  batch.  The acceptance tests use it to pin that a file imported over
  HTTP yields a database equal to :func:`import_telemetry_csv`'s.
* :class:`SimulatedPollerCollector` — a redfish/ipmi-style poller
  stand-in: every ``interval_s`` it "reads" one sample of plausible
  per-rack sensor values from a seeded generator and posts them in
  bounded batches.  Deterministic per seed, so tests and demos replay
  exactly.

The shared :class:`IngestClient` does the HTTP legwork: bearer auth,
JSON encoding via the canonical protocol, and **bounded-backoff
retries** — 429 backpressure (honouring ``Retry-After``), 5xx, and
connection resets are retried up to ``RetryPolicy.max_attempts`` with
exponentially growing, capped delays; any other 4xx is the client's
own bug and raises immediately.
"""

from __future__ import annotations

import dataclasses
import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro import constants
from repro.metrics import Counters
from repro.service.http.protocol import API_VERSION, encode_batch
from repro.telemetry.export import iter_telemetry_csv
from repro.telemetry.records import CHANNELS, Channel

PathLike = Union[str, Path]


class IngestClientError(Exception):
    """The client gave up: a non-retryable refusal or retries exhausted.

    Attributes:
        status: HTTP status when the server answered, else ``None``
            (transport failure).
        error_type: The structured error's ``type`` slug when one was
            decoded, else ``None``.
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        error_type: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient ingest failures.

    Attributes:
        max_attempts: Total tries per batch (first attempt included).
        base_delay_s: Sleep before the first retry.
        multiplier: Growth factor per retry.
        max_delay_s: Ceiling on any single sleep.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_s(self, retry_index: int) -> float:
        """Sleep before retry number ``retry_index`` (0-based)."""
        return min(
            self.max_delay_s, self.base_delay_s * self.multiplier**retry_index
        )


class ClientCounters(Counters):
    """What one client did, for tests and collector logs."""

    batches_posted: int
    rows_posted: int
    retries: int
    backpressure_hits: int
    transport_failures: int
    server_errors: int
    give_ups: int


class IngestClient:
    """Posts collector batches to an operations server, with retries.

    Args:
        base_url: e.g. ``http://127.0.0.1:8080`` (no trailing slash).
        collector: This collector's name (the auth principal).
        token: Bearer token; ``None`` when the server runs open.
        retry: Backoff policy for 429/5xx/transport failures.
        timeout_s: Per-request socket timeout.
        sleep: Injection point for the backoff sleep (tests pass a
            recorder; production uses :func:`time.sleep`).
    """

    def __init__(
        self,
        base_url: str,
        collector: str,
        token: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        timeout_s: float = 10.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.collector = collector
        self.token = token
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self._sleep = sleep
        self.counters = ClientCounters()

    # -- transport ---------------------------------------------------------------

    def post_batch(
        self,
        epoch_s: np.ndarray,
        channels: Mapping[Channel, np.ndarray],
        quality: Optional[Mapping[Channel, np.ndarray]] = None,
    ) -> Dict:
        """Encode and post one columnar batch; returns the response.

        Raises:
            IngestClientError: on a non-retryable 4xx, or once the
                retry budget is exhausted.
        """
        payload = encode_batch(self.collector, epoch_s, channels, quality)
        response = self._post_with_retries("/v1/ingest", payload)
        self.counters.add(
            batches_posted=1, rows_posted=int(np.asarray(epoch_s).shape[0])
        )
        return response

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _post_with_retries(self, path: str, payload: Dict) -> Dict:
        body = json.dumps(payload).encode("utf-8")
        retries = 0
        while True:
            delay = None
            try:
                request = urllib.request.Request(
                    self.base_url + path,
                    data=body,
                    headers=self._headers(),
                    method="POST",
                )
                with urllib.request.urlopen(
                    request, timeout=self.timeout_s
                ) as reply:
                    return json.loads(reply.read())
            except urllib.error.HTTPError as exc:
                status, error_type, message = _decode_http_error(exc)
                if status == 429:
                    self.counters.add(backpressure_hits=1)
                    retry_after = exc.headers.get("Retry-After")
                    if retry_after is not None:
                        try:
                            delay = float(retry_after)
                        except ValueError:
                            delay = None
                elif status >= 500:
                    self.counters.add(server_errors=1)
                else:
                    # A non-transient refusal (bad batch, bad auth):
                    # retrying cannot help.
                    raise IngestClientError(
                        f"{status} {error_type}: {message}",
                        status=status,
                        error_type=error_type,
                    ) from None
            except (urllib.error.URLError, ConnectionError, TimeoutError):
                # Connection refused/reset mid-exchange (chaos drills
                # inject exactly this) — retryable.
                self.counters.add(transport_failures=1)
                status, error_type, message = None, None, "transport failure"
            if retries >= self.retry.max_attempts - 1:
                self.counters.add(give_ups=1)
                raise IngestClientError(
                    f"gave up after {self.retry.max_attempts} attempts "
                    f"(last: {message})",
                    status=status,
                    error_type=error_type,
                )
            self._sleep(delay if delay is not None else self.retry.delay_s(retries))
            retries += 1
            self.counters.add(retries=1)


def _decode_http_error(exc: urllib.error.HTTPError) -> Tuple[int, str, str]:
    """Pull the structured error out of an HTTP failure reply."""
    try:
        envelope = json.loads(exc.read())
        error = envelope.get("error", {})
        return exc.code, str(error.get("type", "unknown")), str(
            error.get("message", exc.reason)
        )
    except (ValueError, AttributeError):
        return exc.code, "unknown", str(exc.reason)


# -- file import -------------------------------------------------------------------


class FileImportCollector:
    """Replays an exported telemetry CSV through HTTP ingest.

    Parses the canonical CSV format (with or without quality columns)
    into columnar ``(samples, racks)`` batches and posts them in
    delivery order, so a strict-policy server reconstructs the file's
    database exactly — explicit SUSPECT/SCRUBBED verdicts included.

    Args:
        path: The CSV to replay.
        client: Transport (carries collector name, auth, retries).
        num_racks: Rack-axis width of the target database.
        batch_samples: Samples per POST (bounded by the server's
            ``max_batch_samples``).
    """

    def __init__(
        self,
        path: PathLike,
        client: IngestClient,
        num_racks: int = constants.NUM_RACKS,
        batch_samples: int = 256,
    ) -> None:
        if batch_samples < 1:
            raise ValueError("batch_samples must be >= 1")
        self.path = Path(path)
        self.client = client
        self.num_racks = num_racks
        self.batch_samples = batch_samples

    def run(self) -> int:
        """Post the whole file; returns the number of samples sent.

        Quality matrices ride along only for batches containing at
        least one explicit flag — pristine stretches post as plain
        value batches (which lenient-policy servers also accept).
        """
        sent = 0
        epochs: list = []
        value_rows: Dict[Channel, list] = {ch: [] for ch in CHANNELS}
        flag_rows: Dict[Channel, list] = {ch: [] for ch in CHANNELS}
        batch_explicit = False

        def flush() -> None:
            nonlocal sent, batch_explicit
            if not epochs:
                return
            channels = {
                ch: np.stack(value_rows[ch], axis=0) for ch in CHANNELS
            }
            quality = (
                {ch: np.stack(flag_rows[ch], axis=0) for ch in CHANNELS}
                if batch_explicit
                else None
            )
            self.client.post_batch(np.array(epochs), channels, quality)
            sent += len(epochs)
            epochs.clear()
            for ch in CHANNELS:
                value_rows[ch].clear()
                flag_rows[ch].clear()
            batch_explicit = False

        for epoch, values, flags, explicit in iter_telemetry_csv(
            self.path, self.num_racks
        ):
            epochs.append(epoch)
            for ch in CHANNELS:
                value_rows[ch].append(values[ch])
                flag_rows[ch].append(flags[ch])
            batch_explicit = batch_explicit or explicit
            if len(epochs) >= self.batch_samples:
                flush()
        flush()
        return sent


# -- simulated poller --------------------------------------------------------------

#: Per-channel (mean, spread) for the simulated sensor walk — loosely
#: the operating envelope Table II of the paper reports for Mira.
_POLLER_ENVELOPE: Dict[Channel, Tuple[float, float]] = {
    Channel.DC_TEMPERATURE: (65.0, 2.0),
    Channel.DC_HUMIDITY: (40.0, 6.0),
    Channel.FLOW: (30.0, 1.5),
    Channel.INLET_TEMPERATURE: (60.0, 1.0),
    Channel.OUTLET_TEMPERATURE: (71.0, 3.0),
    Channel.POWER: (75.0, 12.0),
    Channel.UTILIZATION: (0.85, 0.1),
}


class SimulatedPollerCollector:
    """A redfish/ipmi-style poller over synthetic rack sensors.

    Each poll draws one ``(racks,)`` reading per channel from a seeded
    generator — a stand-in for walking BMC endpoints — and readings
    accumulate into bounded batches posted through the shared client.
    Identical seeds produce identical batches, so ingest tests and
    chaos drills replay byte-for-byte.

    Args:
        client: Transport (name, auth, retries).
        num_racks: Rack-axis width.
        start_epoch_s: Timestamp of the first poll.
        interval_s: Poll cadence (timestamps advance by this).
        seed: Generator seed; same seed, same telemetry.
        batch_samples: Polls accumulated per POST.
        dropout_rate: Probability a rack misses a poll entirely
            (its cells post as NaN, like a BMC timeout).
    """

    def __init__(
        self,
        client: IngestClient,
        num_racks: int = constants.NUM_RACKS,
        start_epoch_s: float = 0.0,
        interval_s: float = 60.0,
        seed: int = 0,
        batch_samples: int = 64,
        dropout_rate: float = 0.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        self.client = client
        self.num_racks = num_racks
        self.interval_s = float(interval_s)
        self.batch_samples = batch_samples
        self.dropout_rate = dropout_rate
        self._rng = np.random.default_rng(seed)
        self._next_epoch = float(start_epoch_s)

    def poll_once(self) -> Tuple[float, Dict[Channel, np.ndarray]]:
        """One synchronous sweep across all racks' sensors."""
        epoch = self._next_epoch
        self._next_epoch += self.interval_s
        sample: Dict[Channel, np.ndarray] = {}
        dropped = (
            self._rng.random(self.num_racks) < self.dropout_rate
            if self.dropout_rate > 0.0
            else None
        )
        for channel in CHANNELS:
            mean, spread = _POLLER_ENVELOPE[channel]
            reading = self._rng.normal(mean, spread, size=self.num_racks)
            if channel is Channel.UTILIZATION:
                reading = np.clip(reading, 0.0, 1.0)
            if dropped is not None:
                reading = np.where(dropped, np.nan, reading)
            sample[channel] = reading
        return epoch, sample

    def run(self, num_samples: int) -> int:
        """Poll ``num_samples`` times, posting in bounded batches."""
        sent = 0
        epochs: list = []
        rows: Dict[Channel, list] = {ch: [] for ch in CHANNELS}
        for _ in range(num_samples):
            epoch, sample = self.poll_once()
            epochs.append(epoch)
            for ch in CHANNELS:
                rows[ch].append(sample[ch])
            if len(epochs) >= self.batch_samples:
                self.client.post_batch(
                    np.array(epochs),
                    {ch: np.stack(rows[ch], axis=0) for ch in CHANNELS},
                )
                sent += len(epochs)
                epochs.clear()
                for ch in CHANNELS:
                    rows[ch].clear()
        if epochs:
            self.client.post_batch(
                np.array(epochs),
                {ch: np.stack(rows[ch], axis=0) for ch in CHANNELS},
            )
            sent += len(epochs)
        return sent


#: Wire-visible API version, re-exported so collector scripts need only
#: this module.
COLLECTOR_API_VERSION = API_VERSION
