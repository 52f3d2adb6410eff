"""Cached canonical datasets shared by tests, benchmarks, and examples.

The six-year simulation takes tens of seconds; analyses, benchmarks,
and examples all need the *same* realization (the study analyzed one
Mira, not fifty).  These builders memoize at two levels:

* **in process** via :func:`functools.lru_cache`, so one Python
  session pays the cost once, and
* **on disk** under ``~/.cache/repro/`` (override with
  ``REPRO_CACHE_DIR``), so *subsequent sessions* skip the simulation
  entirely and reopen the telemetry as a memory-mapped
  :class:`~repro.telemetry.archive.TelemetryArchive`.

Cache entries are keyed by the package version plus a hash of the
simulation configuration, so a new release or a changed config never
serves stale telemetry.  Only the environmental database and the job
counters are persisted; the failure schedule, RAS log, machine, and
weather models are rebuilt from the (cheap, deterministic) engine
constructor.  Set ``REPRO_DATASET_CACHE=0`` to disable the disk layer.

Entries carry a per-file SHA-256 manifest written at store time and
verified at load time: a flipped bit or truncated column (the cache
lives for months on scratch filesystems), or a missing manifest,
quarantines the entry aside (:func:`repro.blobfile.quarantine`) and
the dataset is rematerialized from the simulation — corruption costs
a rebuild, never a silently wrong analysis.  Both that and a store
that fails are counted in :data:`CACHE_FAILURES`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from repro import __version__, blobfile
from repro.metrics import Counters
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import FacilityEngine, SimulationResult
from repro.simulation.scenarios import MiraScenario

#: Environment variable: set to ``0`` to disable the on-disk cache.
CACHE_ENV = "REPRO_DATASET_CACHE"
#: Environment variable: overrides the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_META_FILE = "result.json"
_TELEMETRY_DIR = "telemetry"


class DatasetCacheCounters(Counters):
    """What a process's dataset cache survived."""

    #: Entries that failed verification and were quarantined.
    quarantined: int
    #: Builds left uncached by an I/O error.
    store_failed: int


#: This process's dataset-cache failures; ``repro report --stats`` and
#: the ``/metrics`` ``dataset_cache`` block print it.
CACHE_FAILURES = DatasetCacheCounters()


def cache_root() -> Path:
    """The dataset cache directory (not necessarily existing yet)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _disk_cache_enabled() -> bool:
    return os.environ.get(CACHE_ENV, "1") != "0"


def _config_digest(config: SimulationConfig) -> str:
    """Cache key: package version + full configuration repr.

    ``SimulationConfig`` is a frozen dataclass of plain values, so its
    ``repr`` is a complete, stable description of the run.
    """
    payload = f"{__version__}\n{config!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest(entry: Path) -> Dict[str, str]:
    """Per-file SHA-256 digests of the entry's telemetry columns."""
    telemetry = entry / _TELEMETRY_DIR
    return {
        path.relative_to(entry).as_posix(): _file_digest(path)
        for path in sorted(telemetry.rglob("*"))
        if path.is_file()
    }


def _load_from_disk(
    config: SimulationConfig, entry: Path
) -> Optional[SimulationResult]:
    """Reassemble a cached result, or ``None`` if absent/corrupt.

    A corrupt entry — a missing manifest or a checksum mismatch against
    it, unreadable metadata, or an archive that fails to open — is
    quarantined before returning ``None``, so the caller's rebuild
    cannot collide with the bad directory.
    """
    # Imported lazily so importing this module never costs archive I/O.
    from repro.telemetry.archive import TelemetryArchive

    meta_path = entry / _META_FILE
    if not meta_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
        if meta["files"] != _manifest(entry):
            raise ValueError("manifest mismatch")
        database = TelemetryArchive.load(entry / _TELEMETRY_DIR)
    except (OSError, ValueError, KeyError):
        CACHE_FAILURES.add(quarantined=1)
        blobfile.quarantine(entry)
        return None
    # The engine constructor is deterministic and cheap relative to a
    # run: it regenerates the failure schedule, RAS log, machine, and
    # weather models that the archive does not persist.
    engine = FacilityEngine(config)
    return SimulationResult(
        config=config,
        database=database,
        ras_log=engine.ras_log,
        schedule=engine.schedule,
        noncmf_failures=engine.noncmf_failures,
        machine=engine.machine,
        weather=engine.weather,
        jobs_completed=int(meta["jobs_completed"]),
        jobs_killed=int(meta["jobs_killed"]),
    )


def _store_to_disk(result: SimulationResult, entry: Path) -> None:
    """Atomically publish a result into the cache (best effort).

    The archive is written to a temp directory next to the entry and
    renamed into place, so concurrent sessions never observe a
    half-written cache; an I/O failure skips caching and is counted.
    """
    from repro.telemetry.archive import TelemetryArchive

    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=entry.parent, prefix=blobfile.TEMP_PREFIX))
    except OSError:
        CACHE_FAILURES.add(store_failed=1)
        return
    try:
        TelemetryArchive.save(result.database, tmp / _TELEMETRY_DIR)
        (tmp / _META_FILE).write_text(
            json.dumps(
                {
                    "version": __version__,
                    "jobs_completed": result.jobs_completed,
                    "jobs_killed": result.jobs_killed,
                    "files": _manifest(tmp),
                }
            )
        )
        os.replace(tmp, entry)
    except OSError:
        # Another session may have won the rename race, or the disk is
        # full/read-only; either way the in-memory result stands.
        CACHE_FAILURES.add(store_failed=1)
        shutil.rmtree(tmp, ignore_errors=True)


def build_dataset(config: SimulationConfig) -> SimulationResult:
    """Build (or load from the disk cache) the realization of ``config``.

    Fault-injecting configs skip the disk layer: the archive format
    persists neither quality masks nor fault ground truth, and a
    reloaded entry would silently lose :attr:`SimulationResult.fault_truth`.
    """
    if not _disk_cache_enabled() or config.faults is not None:
        return FacilityEngine(config).run()
    entry = cache_root() / _config_digest(config)
    cached = _load_from_disk(config, entry)
    if cached is not None:
        return cached
    result = FacilityEngine(config).run()
    _store_to_disk(result, entry)
    return result


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One on-disk dataset-cache entry (for ``repro cache info``)."""

    digest: str
    path: Path
    version: str
    size_bytes: int

    @property
    def size_mb(self) -> float:
        return self.size_bytes / 1e6


def _tree_size(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def cache_entries() -> List[CacheEntry]:
    """Describe every complete dataset-cache entry, newest first."""
    root = cache_root()
    if not root.is_dir():
        return []
    entries: List[CacheEntry] = []
    for child in sorted(root.iterdir()):
        if child.name.startswith("."):  # temp or quarantined, not an entry
            continue
        meta_path = child / _META_FILE
        if not meta_path.is_file():
            continue
        try:
            version = str(json.loads(meta_path.read_text()).get("version", "?"))
            size = _tree_size(child)
        except (OSError, ValueError):
            version, size = "corrupt", 0
        entries.append(
            CacheEntry(
                digest=child.name, path=child, version=version, size_bytes=size
            )
        )
    entries.sort(key=lambda e: e.path.stat().st_mtime, reverse=True)
    return entries


def quarantined_count() -> int:
    """How many quarantined dataset entries sit under the cache root
    (:func:`cache_entries` does not list them)."""
    root = cache_root()
    if not root.is_dir():
        return 0
    return sum(
        1
        for child in root.iterdir()
        if child.is_dir() and child.name.startswith(blobfile.QUARANTINE_PREFIX)
    )


def clear_cache() -> int:
    """Remove every dataset-cache entry (plus stale temp and
    quarantined dirs).

    Returns:
        The number of entries removed.
    """
    root = cache_root()
    if not root.is_dir():
        return 0
    removed = 0
    for child in root.iterdir():
        if not child.is_dir():
            continue
        stale = child.name.startswith(blobfile.STALE_PREFIXES)
        is_entry = not stale and (child / _META_FILE).is_file()
        if is_entry or stale:
            shutil.rmtree(child, ignore_errors=True)
            removed += int(is_entry)
    return removed


@functools.lru_cache(maxsize=1)
def canonical_dataset() -> SimulationResult:
    """The canonical six-year Mira realization (hourly cadence).

    This is the dataset every figure reproduction runs against.  It is
    deterministic: the same package version always produces the same
    telemetry and failure schedule.
    """
    return build_dataset(MiraScenario.full_study())


@functools.lru_cache(maxsize=1)
def small_dataset() -> SimulationResult:
    """A fast ~4-month realization for unit tests (30 min cadence)."""
    return build_dataset(MiraScenario.demo(days=120, seed=11))
