"""Process-kill durability for the live service: WAL + snapshots.

The bus is a replay of a database the service does not own, so
durability here is not about the *data* — it is about the *derived
state* (rollup buckets, predictor history, CUSUM statistics, alert
streaks) that PR 3/6 rebuilt from scratch on every restart.  Two
pieces let that state survive a killed process:

* A chunk-granular :class:`WriteAheadLog` appended on the publisher
  thread *before* any subscriber queue sees the chunk (the bus's
  ``on_publish`` hook), so every chunk a subscriber could have
  consumed has reached the OS first.  Records are pickles of the
  chunk's columns in :mod:`repro.blobfile` frames; a torn tail
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
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro import blobfile
from repro.metrics import Counters
from repro.service.bus import BusChunk

__all__ = [
    "DurabilityConfig",
    "WriteAheadLog",
    "SnapshotStore",
    "SnapshotCounters",
    "RecoveryError",
    "ComponentRecovery",
    "RecoveryReport",
]

#: WAL file magic; bump when the record layout changes.
WAL_MAGIC = b"RWAL1\n"

#: Snapshot file magic; bump when the snapshot record changes.
SNAPSHOT_MAGIC = b"repro-snapshot-v2"


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


def _encode(chunk: BusChunk) -> bytes:
    return pickle.dumps(
        {
            "seq": int(chunk.seq),
            "start_seq": int(chunk.start_seq),
            "epoch_s": np.asarray(chunk.epoch_s),
            "values": {k: np.asarray(v) for k, v in chunk.values.items()},
            "quality": {k: np.asarray(v) for k, v in chunk.quality.items()},
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


class WriteAheadLog:
    """Append-only chunk log with framed records and torn-tail recovery.

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
        payload = _encode(chunk)
        self._handle.write(blobfile.frame(payload))
        self._handle.write(payload)
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
    def scan(path: "str | Path") -> Tuple[List[BusChunk], int, bool]:
        """Read every valid record back as the chunk it logged.

        Returns ``(chunks, valid_bytes, torn)`` where ``valid_bytes``
        is the prefix length covered by intact frames and ``torn`` is
        True when trailing bytes exist past it (an interrupted
        append).  A bad magic raises :class:`RecoveryError`; a torn
        tail does not — it is the expected signature of a kill.
        """
        data = memoryview(Path(path).read_bytes())
        if data[: len(WAL_MAGIC)] != WAL_MAGIC:
            raise RecoveryError(f"{path} is not a write-ahead log (bad magic)")
        chunks: List[BusChunk] = []
        offset = len(WAL_MAGIC)
        while True:
            payload = blobfile.read_frame(data, offset)
            if payload is None:
                break
            chunks.append(BusChunk(**pickle.loads(payload)))
            offset += blobfile.HEADER.size + len(payload)
        return chunks, offset, offset < len(data)


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """A component's pickled state as of a consumed bus sequence."""

    component: str
    acked_seq: int
    state: object


class SnapshotCounters(Counters):
    """What :class:`SnapshotStore` loads found wrong."""

    #: Snapshots that failed verification and were quarantined.
    quarantined: int


class SnapshotStore:
    """Per-component :mod:`repro.blobfile` snapshots under the root.

    ``save`` publishes by rename, so a kill mid-snapshot leaves the
    previous snapshot (or none) intact.  ``load`` answers "no snapshot"
    for a missing file and for one that fails verification; the latter
    is quarantined and counted in :attr:`counters`, and recovery
    replays that component's WAL from the stream start.
    """

    _SUFFIX = ".snapshot.pkl"

    def __init__(self, directory: "str | Path") -> None:
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = SnapshotCounters()

    def _path(self, component: str) -> Path:
        return self.root / f"{component}{self._SUFFIX}"

    def save(self, component: str, acked_seq: int, state: object) -> None:
        snapshot = Snapshot(component, int(acked_seq), state)
        blobfile.write(self._path(component), SNAPSHOT_MAGIC, snapshot)

    def load(self, component: str) -> Optional[Snapshot]:
        try:
            return blobfile.read(self._path(component), SNAPSHOT_MAGIC)
        except FileNotFoundError:
            return None
        except blobfile.CorruptBlob:
            self.counters.add(quarantined=1)
            return None


@dataclasses.dataclass(frozen=True)
class ComponentRecovery:
    """How one component was restored."""

    component: str
    snapshot_seq: Optional[int]
    records_skipped: int
    records_replayed: int
    samples_replayed: int
    #: Its snapshot failed verification, so it replayed the whole WAL.
    snapshot_quarantined: bool = False


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
    records: List[BusChunk],
    acked_seq: int,
    apply,
    snapshot_seq: Optional[int] = None,
    snapshot_quarantined: bool = False,
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
    for chunk in records:
        if chunk.end_seq <= acked_seq:
            skipped += 1
            continue
        if chunk.start_seq <= acked_seq:
            offset = acked_seq + 1 - chunk.start_seq
            chunk = dataclasses.replace(
                chunk,
                start_seq=acked_seq + 1,
                epoch_s=chunk.epoch_s[offset:],
                values={ch: block[offset:] for ch, block in chunk.values.items()},
                quality={ch: block[offset:] for ch, block in chunk.quality.items()},
            )
        elif chunk.start_seq != expected:
            raise RecoveryError(
                f"WAL gap replaying {component!r}: expected record starting at "
                f"seq {expected}, found [{chunk.start_seq}, {chunk.end_seq}]"
            )
        apply(chunk)
        replayed += 1
        samples += len(chunk)
        expected = chunk.end_seq + 1
    return ComponentRecovery(
        component=component,
        snapshot_seq=snapshot_seq,
        records_skipped=skipped,
        records_replayed=replayed,
        samples_replayed=samples,
        snapshot_quarantined=snapshot_quarantined,
    )
