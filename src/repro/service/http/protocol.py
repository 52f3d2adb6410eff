"""Wire protocol of the operations HTTP API.

Everything that crosses the network boundary is defined here — the
API version, the JSON envelopes, float/NaN encoding, query-parameter
parsing, ingest-batch decoding, and the seeded query mix a dashboard
client sends — so the server, the collector adapters, perfbench's
``dashboard`` client, and the tests all speak from one definition.

Encoding rules
--------------

* Responses are JSON objects; every success payload carries
  ``"api_version"``.
* Floats are emitted by :func:`json.dumps` (``repr`` shortest
  round-trip), so a finite value survives HTTP **bit-identically**.
* NaN and infinities have no JSON spelling; they are encoded as
  ``null`` and decoded back to NaN (:func:`encode_float`,
  :func:`decode_float`).  The equivalence tests pin this mapping.
* Errors are structured, never tracebacks::

      {"api_version": 1,
       "error": {"status": 400, "type": "bad_request", "message": "..."}}

Versioning policy
-----------------

Query/ingest routes live under ``/v1/``.  Breaking payload changes
get a new prefix; ``/v1/`` keeps serving until removed in a major
release.  An unknown ``/v<N>/`` prefix is answered with 404
``unsupported_version`` naming the supported set; ingest bodies carry
their own ``api_version`` field checked against
:data:`SUPPORTED_API_VERSIONS`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlencode

import numpy as np

from repro.service.query import Query, QueryResult
from repro.telemetry.records import CHANNELS, Channel, Quality
from repro.telemetry.schema import CHANNEL_UNITS, channel_for_column

#: The one API version this tree serves.
API_VERSION = 1
#: Ingest-body versions the gateway accepts.
SUPPORTED_API_VERSIONS = (1,)

#: Query shapes exposed as ``/v1/query/<kind>`` routes.
QUERY_ROUTES = ("point", "series", "aggregate")


class ApiError(Exception):
    """A structured, client-visible failure.

    Carries the HTTP status, a machine-readable ``type`` slug, and a
    human message; the server renders it as the error envelope above
    (plus any extra headers, e.g. ``Retry-After`` on backpressure).
    """

    def __init__(
        self,
        status: int,
        error_type: str,
        message: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.error_type = error_type
        self.message = message
        self.headers = dict(headers or {})

    def payload(self) -> Dict:
        return {
            "api_version": API_VERSION,
            "error": {
                "status": self.status,
                "type": self.error_type,
                "message": self.message,
            },
        }


def encode_float(value: float) -> Optional[float]:
    """A JSON-safe scalar: finite floats pass through, NaN/inf -> None."""
    value = float(value)
    return value if math.isfinite(value) else None


def decode_float(value: Optional[float]) -> float:
    """Inverse of :func:`encode_float` (``None`` -> NaN)."""
    return float("nan") if value is None else float(value)


def encode_array(values: np.ndarray) -> List[Optional[float]]:
    """A float vector as a JSON list, non-finite cells as ``null``."""
    array = np.asarray(values, dtype="float64")
    finite = np.isfinite(array)
    return [float(v) if ok else None for v, ok in zip(array, finite)]


def decode_array(values: Sequence[Optional[float]]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    return np.array(
        [float("nan") if v is None else float(v) for v in values], dtype="float64"
    )


def dumps(payload: Dict) -> bytes:
    """Canonical response serialization (compact separators, UTF-8).

    ``allow_nan=False`` is a tripwire: any NaN that reaches the
    serializer un-encoded is a protocol bug, and we want it to fail
    loudly server-side (as a structured 500) rather than emit the
    non-standard ``NaN`` literal clients cannot parse.
    """
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()


# -- query parsing ----------------------------------------------------------------


def _require(params: Mapping[str, str], name: str) -> str:
    value = params.get(name)
    if value is None or value == "":
        raise ApiError(400, "bad_request", f"missing required parameter {name!r}")
    return value


def _parse_float(params: Mapping[str, str], name: str, required: bool) -> Optional[float]:
    raw = _require(params, name) if required else params.get(name)
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ApiError(
            400, "bad_request", f"parameter {name!r} must be a number, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise ApiError(400, "bad_request", f"parameter {name!r} must be finite")
    return value


def _parse_int(params: Mapping[str, str], name: str) -> Optional[int]:
    raw = params.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ApiError(
            400, "bad_request", f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def parse_query(kind: str, params: Mapping[str, str]) -> Query:
    """Build a :class:`~repro.service.query.Query` from URL parameters.

    Parameters: ``channel`` (always), ``epoch_s`` (point) or
    ``start_s``/``end_s`` (series/aggregate), and optional ``stat``,
    ``scope``, ``rack``, ``row``, ``resolution_s``.

    Raises:
        ApiError: 400 on missing/malformed/inconsistent parameters,
            with the constructor's own message forwarded verbatim.
    """
    try:
        channel = channel_for_column(_require(params, "channel"))
    except ValueError as exc:
        raise ApiError(400, "unknown_channel", str(exc)) from None
    if kind == "point":
        start = _parse_float(params, "epoch_s", required=True)
        end = 0.0
    else:
        start = _parse_float(params, "start_s", required=True)
        end = _parse_float(params, "end_s", required=True)
    try:
        return Query(
            kind,
            channel,
            start,
            end,
            stat=params.get("stat", "mean"),
            scope=params.get("scope", "facility"),
            rack=_parse_int(params, "rack"),
            row=_parse_int(params, "row"),
            resolution_s=_parse_float(params, "resolution_s", required=False),
        )
    except ValueError as exc:
        raise ApiError(400, "bad_request", str(exc)) from None


def encode_result(result: QueryResult, store_version: int) -> Dict:
    """The success envelope for one query answer."""
    query = result.query
    payload: Dict = {
        "api_version": API_VERSION,
        "kind": query.kind,
        "channel": query.channel.column,
        "unit": CHANNEL_UNITS[query.channel.column],
        "stat": query.stat,
        "scope": query.scope,
        "rack": query.rack,
        "row": query.row,
        "resolution_s": result.resolution_s,
        "store_version": int(store_version),
    }
    if query.kind == "series":
        payload["epoch_s"] = encode_array(result.epoch_s)
        payload["values"] = encode_array(result.values)
    else:
        payload["value"] = encode_float(result.value)
    return payload


# -- ingest batches ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class IngestBatch:
    """One decoded, shape-validated collector batch.

    Attributes:
        collector: The posting collector's name (the auth principal).
        epoch_s: ``(n,)`` sample timestamps.
        channels: Column matrices ``(n, racks)``; cells the collector
            did not report are NaN.
        quality: Optional explicit per-cell quality flags (same keys
            and shapes as ``channels``).
    """

    collector: str
    epoch_s: np.ndarray
    channels: Dict[Channel, np.ndarray]
    quality: Dict[Channel, np.ndarray]

    @property
    def num_samples(self) -> int:
        return int(self.epoch_s.shape[0])


def encode_batch(
    collector: str,
    epoch_s: np.ndarray,
    channels: Mapping[Channel, np.ndarray],
    quality: Optional[Mapping[Channel, np.ndarray]] = None,
) -> Dict:
    """The ``POST /v1/ingest`` body for one columnar batch."""
    payload: Dict = {
        "api_version": API_VERSION,
        "collector": collector,
        "epoch_s": [float(t) for t in np.asarray(epoch_s, dtype="float64")],
        "channels": {
            ch.column: [encode_array(row) for row in np.atleast_2d(block)]
            for ch, block in channels.items()
        },
    }
    if quality:
        payload["quality"] = {
            ch.column: [[int(f) for f in row] for row in np.atleast_2d(block)]
            for ch, block in quality.items()
        }
    return payload


def decode_batch(
    body: Dict, num_racks: int, max_batch_samples: int
) -> IngestBatch:
    """Validate and decode an ingest body into an :class:`IngestBatch`.

    Raises:
        ApiError: 400 on structural/typing problems (wrong
            ``api_version``, unknown channels, ragged or wrong-width
            rows, bad quality flags); 413 when the batch exceeds
            ``max_batch_samples``.
    """
    if not isinstance(body, dict):
        raise ApiError(400, "bad_request", "ingest body must be a JSON object")
    version = body.get("api_version")
    if version not in SUPPORTED_API_VERSIONS:
        raise ApiError(
            400,
            "unsupported_version",
            f"api_version {version!r} not supported; "
            f"supported: {list(SUPPORTED_API_VERSIONS)}",
        )
    collector = body.get("collector")
    if not isinstance(collector, str) or not collector:
        raise ApiError(400, "bad_request", "ingest body needs a collector name")
    raw_epoch = body.get("epoch_s")
    if not isinstance(raw_epoch, list) or not raw_epoch:
        raise ApiError(400, "bad_request", "epoch_s must be a non-empty list")
    if len(raw_epoch) > max_batch_samples:
        raise ApiError(
            413,
            "payload_too_large",
            f"batch has {len(raw_epoch)} samples; the limit is "
            f"{max_batch_samples} per POST",
        )
    try:
        epochs = np.array([float(t) for t in raw_epoch], dtype="float64")
    except (TypeError, ValueError):
        raise ApiError(400, "bad_request", "epoch_s must contain numbers") from None
    if not np.isfinite(epochs).all():
        raise ApiError(400, "bad_request", "epoch_s must be finite")
    n = len(epochs)

    raw_channels = body.get("channels")
    if not isinstance(raw_channels, dict) or not raw_channels:
        raise ApiError(400, "bad_request", "channels must be a non-empty object")
    channels: Dict[Channel, np.ndarray] = {}
    for column, rows in raw_channels.items():
        try:
            channel = channel_for_column(str(column))
        except ValueError as exc:
            raise ApiError(400, "unknown_channel", str(exc)) from None
        matrix = _decode_matrix(column, rows, n, num_racks, decode_array)
        channels[channel] = matrix

    quality: Dict[Channel, np.ndarray] = {}
    quality_body = body.get("quality")
    if quality_body is not None:
        if not isinstance(quality_body, dict):
            raise ApiError(400, "bad_request", "quality must be an object")
        valid_flags = {int(q) for q in Quality}
        for column, rows in quality_body.items():
            try:
                channel = channel_for_column(str(column))
            except ValueError as exc:
                raise ApiError(400, "unknown_channel", str(exc)) from None
            if channel not in channels:
                raise ApiError(
                    400,
                    "bad_request",
                    f"quality for {column!r} has no matching channel block",
                )
            matrix = _decode_matrix(
                column + " quality",
                rows,
                n,
                num_racks,
                lambda row: np.asarray(row, dtype="int64"),
            )
            if not np.isin(matrix, list(valid_flags)).all():
                raise ApiError(
                    400,
                    "bad_request",
                    f"quality flags for {column!r} must be in "
                    f"{sorted(valid_flags)}",
                )
            quality[channel] = matrix.astype(np.uint8)
    return IngestBatch(
        collector=collector, epoch_s=epochs, channels=channels, quality=quality
    )


def _decode_matrix(label: str, rows, n: int, num_racks: int, decode_row) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n:
        raise ApiError(
            400,
            "bad_request",
            f"{label}: expected {n} rows to match epoch_s, got "
            f"{len(rows) if isinstance(rows, list) else type(rows).__name__}",
        )
    decoded = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != num_racks:
            raise ApiError(
                400,
                "bad_request",
                f"{label}: row {i} must be a list of {num_racks} values",
            )
        try:
            decoded.append(decode_row(row))
        except (TypeError, ValueError):
            raise ApiError(
                400, "bad_request", f"{label}: row {i} contains non-numeric cells"
            ) from None
    return np.stack(decoded, axis=0)


def query_path(kind: str, query: Query) -> str:
    """The GET path+query-string that round-trips to ``query``.

    The inverse of :func:`parse_query`, used by the query mix and the
    equivalence tests to hit the API with exactly the queries they
    compare against direct engine calls.
    """
    params: List[Tuple[str, str]] = [("channel", query.channel.column)]
    if kind == "point":
        params.append(("epoch_s", repr(float(query.start_epoch_s))))
    else:
        params.append(("start_s", repr(float(query.start_epoch_s))))
        params.append(("end_s", repr(float(query.end_epoch_s))))
    params.append(("stat", query.stat))
    params.append(("scope", query.scope))
    if query.rack is not None:
        params.append(("rack", str(query.rack)))
    if query.row is not None:
        params.append(("row", str(query.row)))
    if query.resolution_s is not None:
        params.append(("resolution_s", repr(float(query.resolution_s))))
    return f"/v1/query/{kind}?{urlencode(params)}"


#: Query kinds and their draw weights: dashboards poll points far
#: more than they redraw.
QUERY_MIX: Tuple[Tuple[str, float], ...] = (
    ("point", 0.6),
    ("aggregate", 0.25),
    ("series", 0.15),
)

_MIX_STATS = ("mean", "min", "max")


def generate_query_paths(
    start_epoch_s: float,
    end_epoch_s: float,
    num_racks: int,
    resolutions_s: Sequence[float],
    num_queries: int,
    seed: int = 0,
) -> List[str]:
    """A reproducible list of GET paths aimed inside the dataset.

    Kinds are drawn by :data:`QUERY_MIX`.  Windows and instants are
    snapped to the finest resolution so every query lands on real
    buckets; scopes rotate across facility, row, and rack.  Identical
    arguments produce identical paths, which is what lets cold-vs-warm
    cache passes replay the same traffic.
    """
    if end_epoch_s <= start_epoch_s:
        raise ValueError("end_epoch_s must exceed start_epoch_s")
    rng = np.random.default_rng(seed)
    finest = float(min(resolutions_s))
    span_buckets = max(1, int((end_epoch_s - start_epoch_s) / finest))
    kinds = [kind for kind, _ in QUERY_MIX]
    weights = np.array([weight for _, weight in QUERY_MIX], dtype="float64")
    weights /= weights.sum()
    paths: List[str] = []
    for _ in range(num_queries):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        channel = CHANNELS[int(rng.integers(len(CHANNELS)))]
        scope_draw = rng.random()
        if scope_draw < 0.5:
            scope, rack, row = "facility", None, None
        elif scope_draw < 0.75:
            scope, rack, row = "rack", int(rng.integers(num_racks)), None
        else:
            scope, rack, row = "row", None, int(rng.integers(max(1, num_racks // 16)))
        stat = _MIX_STATS[int(rng.integers(len(_MIX_STATS)))]
        if kind == "point":
            bucket = int(rng.integers(span_buckets))
            query = Query(
                "point",
                channel,
                start_epoch_s + bucket * finest,
                0.0,
                stat=stat,
                scope=scope,
                rack=rack,
                row=row,
            )
        else:
            lo = int(rng.integers(span_buckets))
            width = int(rng.integers(1, max(2, span_buckets - lo + 1)))
            query = Query(
                kind,
                channel,
                start_epoch_s + lo * finest,
                start_epoch_s + min(span_buckets, lo + width) * finest,
                stat=stat,
                scope=scope,
                rack=rack,
                row=row,
            )
        paths.append(query_path(kind, query))
    return paths


#: Channels in canonical order, re-exported for collector adapters.
WIRE_CHANNELS = CHANNELS
