"""The on-disk section memo store.

Caches finished report-section rows and incremental reducer states
under the existing ``~/.cache/repro`` layout (``sections/`` subtree),
keyed by ``(root_digest, section_id, config_digest, code_epoch)``:

* ``root_digest`` — the dataset's chunked content address
  (:meth:`~repro.telemetry.database.EnvironmentalDatabase.dataset_digest`),
  so any value *or quality* change misses;
* ``section_id`` — the section builder's name (``fig2_rows`` ...);
* ``config_digest`` — sha256 of the ``SimulationConfig`` repr, so any
  report-relevant config change misses (worker counts and other
  runtime knobs are not part of the config and correctly hit);
* ``code_epoch`` — the package version, so a release never serves
  rows computed by older analysis code.

Every file is a :mod:`repro.blobfile` blob, the codec the service's
WAL and snapshots share: a CRC32-framed pickle published by rename.
A load that fails verification moves the file aside, counts it as
``corrupt`` and reports a miss, so corruption costs a recompute,
never a silently wrong report.  Set
``REPRO_SECTION_CACHE=0`` to disable the layer entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import __version__, blobfile
from repro.metrics import Counters

#: Environment variable: set to ``0`` to disable the section memo store.
SECTION_CACHE_ENV = "REPRO_SECTION_CACHE"

#: File magic; bump on a format change (each old entry is then
#: quarantined once, counted as corrupt, and recomputed).  v3: rows
#: carry their band, which a v2 row would unpickle without.
_MAGIC = b"repro-section-memo-v3"

#: Sentinel root for sections whose inputs carry no telemetry at all
#: (e.g. the RAS-log-only aftermath section): their rows survive an
#: append untouched, so keying them by the dataset digest would force
#: a pointless recompute on every new row.
CONFIG_ONLY_ROOT = "config-only"


def config_digest(config: Any) -> str:
    """Cache-key digest of a simulation configuration.

    ``SimulationConfig`` is a frozen dataclass of plain values, so its
    ``repr`` is a complete, stable description of the run (the same
    idiom as the dataset cache).  The package version is *not* mixed
    in here — ``code_epoch`` is its own key component.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class SectionKey:
    """The full cache key of one memoized section."""

    root_digest: str
    section_id: str
    config_digest: str
    code_epoch: str

    @property
    def scope(self) -> str:
        """Digest of the dataset-independent key half.

        Entries sharing a scope describe the same config and code but
        (possibly) different dataset contents — exactly the siblings
        that go stale when the dataset advances.
        """
        payload = f"{self.config_digest}\n{self.code_epoch}"
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    @property
    def digest(self) -> str:
        payload = "\n".join(
            (self.root_digest, self.section_id, self.config_digest, self.code_epoch)
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    @property
    def filename(self) -> str:
        return f"{self.section_id}-{self.scope}-{self.digest}.rows.pkl"


class SectionCacheCounters(Counters):
    """Hit/miss/invalidation observability for ``--stats``/``/metrics``."""

    #: Finished-row entries served from disk.
    hits: int
    #: Row lookups that found nothing usable.
    misses: int
    #: Row entries written.
    stores: int
    #: Reducer states reused as-is (dataset unchanged).
    state_hits: int
    #: Reducer states advanced by folding only appended rows.
    state_appends: int
    #: Reducer states built from scratch (no prior state).
    state_misses: int
    #: Stored entries rejected: stale prefix, key mismatch, or corrupt.
    invalidations: int
    #: Files that failed verification (magic, length, CRC32 or unpickle)
    #: and were quarantined.
    corrupt: int


@dataclasses.dataclass(frozen=True)
class SectionCacheEntry:
    """One on-disk memo entry (for ``repro cache info``)."""

    path: Path
    section: str
    kind: str  # "rows" or "state"
    key_digest: str
    size_bytes: int
    age_s: float


class SectionMemoStore:
    """Atomic, verified, quarantining disk cache for report sections.

    Args:
        root: Directory for the entries.  Defaults to
            ``<dataset cache root>/sections`` — resolved lazily, so a
            later ``REPRO_CACHE_DIR`` change is honored.
        enabled: Force the store on/off; defaults to the
            ``REPRO_SECTION_CACHE`` environment gate (lazy as well).
        code_epoch: Key component tying entries to the analysis code;
            defaults to the package version.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        enabled: Optional[bool] = None,
        code_epoch: Optional[str] = None,
    ) -> None:
        self._root_override = Path(root) if root is not None else None
        self._enabled_override = enabled
        self.code_epoch = code_epoch if code_epoch is not None else __version__
        self.counters = SectionCacheCounters()

    @property
    def root(self) -> Path:
        if self._root_override is not None:
            return self._root_override
        from repro.simulation.datasets import cache_root

        return cache_root() / "sections"

    @property
    def enabled(self) -> bool:
        if self._enabled_override is not None:
            return self._enabled_override
        return os.environ.get(SECTION_CACHE_ENV, "1") != "0"

    # -- keys -----------------------------------------------------------------

    def key(
        self, root_digest: str, section_id: str, config_digest: str
    ) -> SectionKey:
        return SectionKey(
            root_digest=root_digest,
            section_id=section_id,
            config_digest=config_digest,
            code_epoch=self.code_epoch,
        )

    # -- verified file I/O ----------------------------------------------------

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        """Load one verified entry; ``None`` on a miss (a corrupt file
        is quarantined by the codec and counted here)."""
        try:
            return blobfile.read(path, _MAGIC)
        except OSError:
            return None
        except blobfile.CorruptBlob:
            self.counters.add(corrupt=1)
            return None

    def _write(self, path: Path, record: Dict[str, Any]) -> bool:
        """Atomically publish one entry (best effort; False on failure)."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            blobfile.write(path, _MAGIC, record)
        except OSError:
            return False
        return True

    # -- finished-row entries -------------------------------------------------

    def load_rows(self, key: SectionKey) -> Optional[List[Any]]:
        """The cached rows for ``key``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        record = self._read(self.root / key.filename)
        if record is None:
            self.counters.add(misses=1)
            return None
        if record.get("kind") != "rows" or record.get("key") != dataclasses.asdict(key):
            # A filename collision or a foreign entry: never serve it.
            self.counters.add(invalidations=1, misses=1)
            return None
        self.counters.add(hits=1)
        return record["rows"]

    def store_rows(self, key: SectionKey, rows: List[Any]) -> None:
        """Publish rows for ``key`` and prune same-scope stale roots.

        An append-only dataset leaves a trail of entries for superseded
        roots; keeping only the newest per ``(section, config, code)``
        scope bounds the cache instead of growing it per append.
        """
        if not self.enabled:
            return
        record = {"kind": "rows", "key": dataclasses.asdict(key), "rows": rows}
        if self._write(self.root / key.filename, record):
            self.counters.add(stores=1)
            self._prune_siblings(key)

    def _prune_siblings(self, key: SectionKey) -> None:
        pattern = f"{key.section_id}-{key.scope}-*.rows.pkl"
        try:
            for path in self.root.glob(pattern):
                if path.name != key.filename:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        except OSError:
            pass

    # -- reducer-state entries ------------------------------------------------

    def _state_path(self, state_id: str, config_digest: str) -> Path:
        scope = self.key("", state_id, config_digest).scope
        return self.root / f"{state_id}-{scope}.state.pkl"

    def load_state(self, state_id: str, config_digest: str) -> Optional[Any]:
        """The cached reducer state blob, or ``None``.

        States are keyed by scope only (config + code epoch): unlike
        finished rows they are *designed* to be reused across dataset
        roots — validation against the current data happens via the
        state's own chunk-prefix watermark.
        """
        if not self.enabled:
            return None
        record = self._read(self._state_path(state_id, config_digest))
        if record is None:
            return None
        if (
            record.get("kind") != "state"
            or record.get("state_id") != state_id
            or record.get("config_digest") != config_digest
            or record.get("code_epoch") != self.code_epoch
        ):
            self.counters.add(invalidations=1)
            return None
        return record["state"]

    def store_state(self, state_id: str, config_digest: str, state: Any) -> None:
        if not self.enabled:
            return
        record = {
            "kind": "state",
            "state_id": state_id,
            "config_digest": config_digest,
            "code_epoch": self.code_epoch,
            "state": state,
        }
        self._write(self._state_path(state_id, config_digest), record)

    # -- maintenance ----------------------------------------------------------

    def entries(self) -> List[SectionCacheEntry]:
        """Describe every memo entry on disk, newest first."""
        root = self.root
        if not root.is_dir():
            return []
        now = time.time()
        found: List[SectionCacheEntry] = []
        for path in sorted(root.iterdir()):
            if path.name.startswith("."):
                continue
            if path.suffixes[-2:] == [".rows", ".pkl"]:
                kind = "rows"
            elif path.suffixes[-2:] == [".state", ".pkl"]:
                kind = "state"
            else:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            stem = path.name[: -len(f".{kind}.pkl")]
            parts = stem.rsplit("-", 2 if kind == "rows" else 1)
            section = parts[0]
            key_digest = parts[-1] if len(parts) > 1 else ""
            found.append(
                SectionCacheEntry(
                    path=path,
                    section=section,
                    kind=kind,
                    key_digest=key_digest,
                    size_bytes=stat.st_size,
                    age_s=max(0.0, now - stat.st_mtime),
                )
            )
        found.sort(key=lambda e: e.age_s)
        return found

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def clear(self) -> int:
        """Remove every memo entry plus stale temp/quarantine files.

        Returns:
            The number of entries removed.
        """
        root = self.root
        if not root.is_dir():
            return 0
        removed = 0
        for path in root.iterdir():
            if not path.is_file():
                continue
            is_entry = not path.name.startswith(".") and path.suffix == ".pkl"
            stale = path.name.startswith(blobfile.STALE_PREFIXES)
            if is_entry or stale:
                try:
                    path.unlink()
                    removed += int(is_entry)
                except OSError:
                    pass
        return removed


_DEFAULT_STORE: Optional[SectionMemoStore] = None


def default_store() -> SectionMemoStore:
    """The process-wide store (counters accumulate across reports)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = SectionMemoStore()
    return _DEFAULT_STORE


def reset_default_store() -> None:
    """Forget the process-wide store (tests re-point the cache root)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = None
