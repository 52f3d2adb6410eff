"""A persistent on-disk telemetry archive.

Mira's environmental data lived in an IBM DB2 database; six years at
monitor cadence is far too large to re-simulate for every analysis
session.  :class:`TelemetryArchive` is the persistence layer: it
stores an :class:`~repro.telemetry.database.EnvironmentalDatabase` as
a directory of raw ``float64`` matrices plus a JSON manifest, and
reopens them *memory-mapped*, so loading a multi-gigabyte archive
costs no RAM until columns are touched.

Layout::

    archive_dir/
      manifest.json        # schema, shapes, dtype, format version
      epoch_s.npy          # (n,) float64 timestamps
      <channel>.npy        # (n, racks) float64 per channel

Files are plain ``.npy`` (readable by any numpy) and the manifest is
human-readable; nothing is pickled.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.telemetry.database import (
    EnvironmentalDatabase,
    IngestCounters,
    IngestPolicy,
)
from repro.telemetry.records import CHANNELS, Channel

PathLike = Union[str, Path]

#: Format version written into every manifest.
FORMAT_VERSION = 1

_MANIFEST = "manifest.json"


class ArchiveError(ValueError):
    """A telemetry archive is inconsistent with its manifest.

    Raised when the manifest's channel list disagrees with the schema
    or with the ``.npy`` files actually on disk, so a stale or
    half-copied archive fails at load time with the offending column
    named, rather than as a bare ``FileNotFoundError`` halfway through
    an analysis.  Subclasses ``ValueError`` so the dataset cache treats
    a bad entry as corrupt and rebuilds it.
    """


class TelemetryArchive:
    """Save/load environmental databases as memory-mapped archives."""

    @staticmethod
    def save(database: EnvironmentalDatabase, directory: PathLike) -> Path:
        """Write a database to ``directory`` (created if needed).

        Returns:
            The archive directory path.

        Raises:
            ValueError: if the database is empty.
        """
        if database.num_samples == 0:
            raise ValueError("refusing to archive an empty database")
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        np.save(out / "epoch_s.npy", np.asarray(database.epoch_s, dtype="float64"))
        for channel in CHANNELS:
            values = database.channel(channel).values.astype("float64")
            np.save(out / f"{channel.column}.npy", values)
        manifest = {
            "format_version": FORMAT_VERSION,
            "num_samples": database.num_samples,
            "num_racks": database.num_racks,
            "channels": [channel.column for channel in CHANNELS],
        }
        (out / _MANIFEST).write_text(json.dumps(manifest, indent=2))
        return out

    @staticmethod
    def load(directory: PathLike, mmap: bool = True) -> EnvironmentalDatabase:
        """Reopen an archive as an :class:`EnvironmentalDatabase`.

        Args:
            directory: Archive directory written by :meth:`save`.
            mmap: Memory-map the column files (default) instead of
                reading them into RAM.

        Raises:
            FileNotFoundError: if the manifest is missing.
            ArchiveError: if the manifest's channel list disagrees with
                the schema or with the ``.npy`` files present.
            ValueError: on version/shape mismatches.
        """
        root = Path(directory)
        manifest_path = root / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(f"no telemetry manifest in {root}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported archive format {manifest.get('format_version')}"
            )
        _validate_channels(root, manifest)
        mmap_mode = "r" if mmap else None
        epoch = np.load(root / "epoch_s.npy", mmap_mode=mmap_mode)
        num_samples = int(manifest["num_samples"])
        num_racks = int(manifest["num_racks"])
        if epoch.shape != (num_samples,):
            raise ValueError("epoch column does not match the manifest")
        columns: Dict[Channel, np.ndarray] = {}
        for channel in CHANNELS:
            path = root / f"{channel.column}.npy"
            values = np.load(path, mmap_mode=mmap_mode)
            if values.shape != (num_samples, num_racks):
                raise ValueError(f"{path.name} does not match the manifest")
            columns[channel] = values
        return _ArchivedDatabase(epoch, columns, num_racks)


def _validate_channels(root: Path, manifest: dict) -> None:
    """Cross-check the manifest's channel list against schema and disk.

    Raises:
        ArchiveError: naming the first missing/extra column found.
    """
    listed = list(manifest.get("channels", []))
    expected = [channel.column for channel in CHANNELS]
    missing_from_manifest = sorted(set(expected) - set(listed))
    if missing_from_manifest:
        raise ArchiveError(
            f"archive {root} manifest is missing channel "
            f"{missing_from_manifest[0]!r} (schema expects {expected})"
        )
    extra_in_manifest = sorted(set(listed) - set(expected))
    if extra_in_manifest:
        raise ArchiveError(
            f"archive {root} manifest lists unknown channel "
            f"{extra_in_manifest[0]!r} (schema expects {expected})"
        )
    if not (root / "epoch_s.npy").exists():
        raise ArchiveError(f"archive {root} is missing the epoch_s column file")
    for column in expected:
        if not (root / f"{column}.npy").exists():
            raise ArchiveError(
                f"archive {root} is missing the {column!r} column file "
                "listed in its manifest"
            )


class _ArchivedDatabase(EnvironmentalDatabase):
    """A read-only database view over memory-mapped columns."""

    def __init__(
        self,
        epoch: np.ndarray,
        columns: Dict[Channel, np.ndarray],
        num_racks: int,
    ) -> None:
        # Bypass the parent's buffer allocation entirely.
        self._num_racks = num_racks
        self._size = int(epoch.shape[0])
        self._capacity = self._size
        self._epoch = epoch
        self._columns = columns
        # Archives carry no quality files; flags are derived from
        # NaN-ness on demand (see EnvironmentalDatabase._quality_matrix).
        self._quality = None
        self._derived_quality = {}
        self.policy = IngestPolicy()
        self.counters = IngestCounters()
        self._pending = []
        self._watermark = float(epoch[-1]) if self._size else -np.inf

    def append_snapshot(self, epoch_s, channel_values) -> None:
        raise TypeError("archived databases are read-only")

    def append_block(self, epoch_s, channel_values) -> None:
        raise TypeError("archived databases are read-only")

    def ingest_reading(self, reading, utilization=np.nan) -> None:
        raise TypeError("archived databases are read-only")

    def compact(self) -> None:
        """No-op: an archive is already exactly sized."""
