"""One codec for derived-state files: WAL records, snapshots, memos.

A frame is a ``<II`` header (little-endian payload length, CRC32 of
the payload) before the payload: the length catches every truncation
and the CRC every flipped bit, but not a writer who also rewrites the
header.  :func:`write` publishes magic + one frame of pickle by rename
(a killed writer leaves the previous file; nothing is fsynced, so
power loss is not covered).  :func:`read` moves a file that fails
verification aside and raises :class:`CorruptBlob` for the caller to
count: damage costs a recompute, never a silently wrong answer.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Any, Optional

#: Frame header: little-endian payload length + CRC32 of the payload.
HEADER = struct.Struct("<II")

#: Name prefixes of a blob being written and of one moved aside; a
#: cache's ``clear`` sweeps both (:data:`STALE_PREFIXES`).
TEMP_PREFIX = ".tmp-"
QUARANTINE_PREFIX = ".quarantine-"
STALE_PREFIXES = (TEMP_PREFIX, QUARANTINE_PREFIX)


class CorruptBlob(ValueError):
    """A blob failed verification; the file is already quarantined."""


def frame(payload: bytes) -> bytes:
    """The frame header that precedes ``payload``."""
    return HEADER.pack(len(payload), zlib.crc32(payload))


def read_frame(data: memoryview, offset: int) -> Optional[memoryview]:
    """The payload (a zero-copy view) of the frame at ``offset``, or
    ``None`` when the bytes there are short of a frame or fail the CRC."""
    start = offset + HEADER.size
    if len(data) < start:
        return None
    length, crc = HEADER.unpack_from(data, offset)
    payload = data[start : start + length]
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    return payload


def write(path: "str | Path", magic: bytes, obj: Any) -> None:
    """Atomically publish ``obj`` at ``path``: magic, frame, pickle.

    On an ``OSError`` the temp file is removed and the previous file
    at ``path`` stays intact.
    """
    path = Path(path)
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=TEMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(magic + frame(payload))
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        _remove(Path(tmp))
        raise


def read(path: "str | Path", magic: bytes) -> Any:
    """Load and verify the object :func:`write` published at ``path``.

    Raises ``OSError`` when the file cannot be read (``FileNotFoundError``
    when nothing is published), and :class:`CorruptBlob`, with the file
    quarantined, on a bad magic, a short or trailing frame, a CRC
    mismatch or an unpicklable payload.
    """
    data = memoryview(Path(path).read_bytes())
    try:
        if data[: len(magic)] != magic:
            raise ValueError("bad magic")
        payload = read_frame(data, len(magic))
        if payload is None or len(magic) + HEADER.size + len(payload) != len(data):
            raise ValueError("short, corrupt or trailing frame")
        return pickle.loads(payload)
    except Exception as exc:
        quarantine(path)
        raise CorruptBlob(f"{path}: {exc}") from exc


def quarantine(path: "str | Path") -> None:
    """Move a file or directory aside as ``.quarantine-<name>-<pid>``
    (kept for a post-mortem, freeing the name for a clean rebuild), or
    delete it if the rename fails."""
    path = Path(path)
    try:
        os.replace(path, path.parent / f"{QUARANTINE_PREFIX}{path.name}-{os.getpid()}")
    except OSError:
        _remove(path)


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            path.unlink()
        except OSError:
            pass
