"""Crash durability for the live service: write-ahead log + snapshots.

The bus is a replay of a database the service does not own, so
durability here is not about the *data* — it is about the *derived
state* (rollup buckets, predictor history, CUSUM statistics, alert
streaks) that PR 3/6 rebuilt from scratch on every restart.  Two
pieces make that state crash-safe:

* A chunk-granular :class:`WriteAheadLog` appended on the publisher
  thread *before* any subscriber queue sees the chunk (the bus's
  ``on_publish`` hook), so every chunk a subscriber could have
  consumed is on disk first.  Records are CRC-framed pickles of the
  chunk's columns keyed by the bus sequence numbers; a torn tail
  (process died mid-write) is detected and truncated, never treated
  as corruption of the preceding records.
* Per-component :class:`SnapshotStore` snapshots taken on the
  subscriber's own worker thread at chunk boundaries, so each
  snapshot's ``acked_seq`` always equals some WAL record's
  ``end_seq`` and replay can resume exactly at the next record.

Recovery (:meth:`~repro.service.live.LiveOperationsService.recover`)
loads each component's latest snapshot, replays WAL records with
``end_seq > acked_seq`` through the same consume paths the live bus
uses, and resumes the bus at ``last_wal_seq + 1`` — the combination
the tests pin as bit-identical to an uninterrupted run.  Replay is
idempotent across the snapshot boundary: records at or below the
snapshot's ack are skipped, never re-applied.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.service.bus import BusChunk

__all__ = [
    "DurabilityConfig",
    "WalRecord",
    "WriteAheadLog",
    "SnapshotStore",
    "RecoveryError",
    "ComponentRecovery",
    "RecoveryReport",
]

#: File magic; bump when the frame layout changes.
WAL_MAGIC = b"RWAL1\n"

#: Frame header: little-endian payload length + CRC32 of the payload.
_FRAME = struct.Struct("<II")


class RecoveryError(RuntimeError):
    """Recovery state is inconsistent (corrupt snapshot, WAL gap, ...)."""


@dataclasses.dataclass(frozen=True)
class DurabilityConfig:
    """Where and how often to persist service state.

    Attributes:
        directory: Root for ``wal.bin`` and per-component snapshots.
        snapshot_every_samples: Take a component snapshot each time at
            least this many samples were consumed since the last one.
            ``0`` disables snapshots entirely (including the final
            graceful-shutdown snapshot), forcing full-WAL replay on
            recovery — the recovery benchmark uses this.
        fsync: Force every WAL append to stable storage.  Off by
            default: the threat model here is process death, not
            power loss, and fsync-per-chunk costs an order of
            magnitude in stream throughput.
    """

    directory: "str | Path"
    snapshot_every_samples: int = 4096
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_every_samples < 0:
            raise ValueError(
                "snapshot_every_samples cannot be negative, got "
                f"{self.snapshot_every_samples}"
            )

    @property
    def root(self) -> Path:
        return Path(self.directory)

    @property
    def wal_path(self) -> Path:
        return self.root / "wal.bin"


@dataclasses.dataclass(frozen=True)
class WalRecord:
    """One logged bus chunk, reconstructable as a :class:`BusChunk`."""

    seq: int
    start_seq: int
    epoch_s: np.ndarray
    values: Dict[str, np.ndarray]
    quality: Dict[str, np.ndarray]

    @property
    def end_seq(self) -> int:
        return self.start_seq + len(self.epoch_s) - 1

    @property
    def num_samples(self) -> int:
        return len(self.epoch_s)

    def chunk(self) -> BusChunk:
        return BusChunk(
            seq=self.seq,
            start_seq=self.start_seq,
            epoch_s=self.epoch_s,
            values=self.values,
            quality=self.quality,
        )


def _encode(chunk: BusChunk) -> bytes:
    payload = pickle.dumps(
        {
            "seq": int(chunk.seq),
            "start_seq": int(chunk.start_seq),
            "epoch_s": np.asarray(chunk.epoch_s),
            "values": {k: np.asarray(v) for k, v in chunk.values.items()},
            "quality": {k: np.asarray(v) for k, v in chunk.quality.items()},
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode(payload: bytes) -> WalRecord:
    raw = pickle.loads(payload)
    return WalRecord(
        seq=int(raw["seq"]),
        start_seq=int(raw["start_seq"]),
        epoch_s=raw["epoch_s"],
        values=raw["values"],
        quality=raw["quality"],
    )


class WriteAheadLog:
    """Append-only chunk log with CRC framing and torn-tail recovery.

    The log is continuous across recoveries: opening in ``resume``
    mode truncates a torn tail (an append interrupted by the injected
    kill) and appends after the last valid frame, so components whose
    snapshots predate earlier kills can still replay everything since
    the original stream start.
    """

    def __init__(
        self, path: "str | Path", fsync: bool = False, resume: bool = False
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.appended = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            _, valid_bytes, torn = self.scan(self.path)
            if torn:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_bytes)
            self._handle = open(self.path, "ab")
        else:
            self._handle = open(self.path, "wb")
            self._handle.write(WAL_MAGIC)
            self._flush()

    def append(self, chunk: BusChunk) -> None:
        """Log one chunk; flushed to the OS before returning."""
        self._handle.write(_encode(chunk))
        self._flush()
        self.appended += 1

    def _flush(self) -> None:
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._flush()
            self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    @staticmethod
    def scan(path: "str | Path") -> Tuple[List[WalRecord], int, bool]:
        """Read every valid record.

        Returns ``(records, valid_bytes, torn)`` where ``valid_bytes``
        is the prefix length covered by intact frames and ``torn`` is
        True when trailing bytes exist past it (an interrupted
        append).  A bad magic raises :class:`RecoveryError`; a torn
        tail does not — it is the expected signature of a kill.
        """
        path = Path(path)
        data = path.read_bytes()
        if not data.startswith(WAL_MAGIC):
            raise RecoveryError(f"{path} is not a write-ahead log (bad magic)")
        records: List[WalRecord] = []
        offset = len(WAL_MAGIC)
        while True:
            header = data[offset : offset + _FRAME.size]
            if len(header) < _FRAME.size:
                break
            length, crc = _FRAME.unpack(header)
            payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            records.append(_decode(payload))
            offset += _FRAME.size + length
        return records, offset, offset < len(data)


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """A component's pickled state as of a consumed bus sequence."""

    component: str
    acked_seq: int
    state: object


class SnapshotStore:
    """Atomic per-component snapshot files under the durability root.

    ``save`` writes to a temp file and :func:`os.replace`\\ s it into
    place, so a kill mid-snapshot leaves the previous snapshot (or
    none) intact; ``load`` treats a corrupt or truncated file as "no
    snapshot" rather than failing recovery — the WAL replays from the
    stream start instead.
    """

    _SUFFIX = ".snapshot.pkl"

    def __init__(self, directory: "str | Path") -> None:
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, component: str) -> Path:
        return self.root / f"{component}{self._SUFFIX}"

    def save(self, component: str, acked_seq: int, state: object) -> None:
        target = self._path(component)
        tmp = target.with_suffix(target.suffix + ".tmp")
        payload = pickle.dumps(
            {"component": component, "acked_seq": int(acked_seq), "state": state},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        framed = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with open(tmp, "wb") as handle:
            handle.write(framed)
            handle.flush()
        os.replace(tmp, target)

    def load(self, component: str) -> Optional[Snapshot]:
        path = self._path(component)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if len(data) < _FRAME.size:
            return None
        length, crc = _FRAME.unpack(data[: _FRAME.size])
        payload = data[_FRAME.size : _FRAME.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return None
        try:
            raw = pickle.loads(payload)
        except Exception:
            return None
        return Snapshot(
            component=str(raw["component"]),
            acked_seq=int(raw["acked_seq"]),
            state=raw["state"],
        )


@dataclasses.dataclass(frozen=True)
class ComponentRecovery:
    """How one component was restored."""

    component: str
    snapshot_seq: Optional[int]
    records_skipped: int
    records_replayed: int
    samples_replayed: int


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`LiveOperationsService.recover` did."""

    wal_records: int
    wal_samples: int
    wal_torn_tail: bool
    resume_seq: int
    components: Tuple[ComponentRecovery, ...]

    def component(self, name: str) -> ComponentRecovery:
        for entry in self.components:
            if entry.component == name:
                return entry
        raise KeyError(name)


def replay_component(
    component: str,
    records: List[WalRecord],
    acked_seq: int,
    apply,
    snapshot_seq: Optional[int] = None,
) -> ComponentRecovery:
    """Replay WAL ``records`` past ``acked_seq`` through ``apply``.

    Records wholly at or below the ack are skipped, and a record
    straddling it (an ack inside a logged chunk; the service acks only
    at chunk ends, so this is a defensive path) is sliced so only the
    unacked rows re-apply — idempotent replay across the snapshot
    boundary either way.  Past that, the applied records must be
    gap-free from ``acked_seq + 1``: a hole means the WAL and snapshot
    disagree and the derived state cannot be trusted.
    """
    skipped = 0
    replayed = 0
    samples = 0
    expected = acked_seq + 1
    for record in records:
        if record.end_seq <= acked_seq:
            skipped += 1
            continue
        chunk = record.chunk()
        if record.start_seq <= acked_seq:
            offset = acked_seq + 1 - record.start_seq
            chunk = BusChunk(
                seq=record.seq,
                start_seq=acked_seq + 1,
                epoch_s=record.epoch_s[offset:],
                values={ch: block[offset:] for ch, block in record.values.items()},
                quality={
                    ch: block[offset:] for ch, block in record.quality.items()
                },
            )
        elif record.start_seq != expected:
            raise RecoveryError(
                f"WAL gap replaying {component!r}: expected record starting at "
                f"seq {expected}, found [{record.start_seq}, {record.end_seq}]"
            )
        apply(chunk)
        replayed += 1
        samples += len(chunk)
        expected = record.end_seq + 1
    return ComponentRecovery(
        component=component,
        snapshot_seq=snapshot_seq,
        records_skipped=skipped,
        records_replayed=replayed,
        samples_replayed=samples,
    )
