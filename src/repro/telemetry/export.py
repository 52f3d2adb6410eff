"""Telemetry and RAS log export/import.

A downstream user of the real Mira study would have received CSV dumps
of the environmental database; this module provides the same interface
for the synthetic one, plus a faithful re-import so analyses can run
on exported files.

Formats:

* **telemetry CSV** — one row per (timestamp, rack), columns for every
  channel; NaNs exported as empty fields.  One trailing quality column
  per channel carries the :class:`~repro.telemetry.records.Quality`
  flag whenever it differs from what NaN-ness alone would imply, so a
  scrubbed/faulted dataset round-trips losslessly (legacy files
  without quality columns still import);
* **RAS JSONL** — one JSON object per event.

The telemetry exporter streams the store in bounded chunks of samples
rather than materializing every channel's full ``(n_samples, racks)``
matrix up front, so exporting a six-year faulted dataset holds only
``chunk_size`` rows of each channel in flight at a time.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from repro import constants
from repro.facility.topology import RackId
from repro.telemetry.database import EnvironmentalDatabase, presence_flags
from repro.telemetry.ras import RasEvent, RasLog, Severity
from repro.telemetry.records import CHANNELS, Channel, Quality
from repro.telemetry.schema import telemetry_header

PathLike = Union[str, Path]

# Both headers come from the canonical schema (shared with the HTTP
# JSON serializer and the collector adapters).
_TELEMETRY_HEADER = telemetry_header(include_quality=False)
_QUALITY_HEADER = telemetry_header(include_quality=True)

#: Samples per export chunk; bounds peak memory at
#: ``chunk x racks x channels`` cells regardless of dataset length.
_EXPORT_CHUNK_SAMPLES = 1024


def export_telemetry_csv(
    database: EnvironmentalDatabase,
    path: PathLike,
    include_quality: bool = True,
    chunk_size: int = _EXPORT_CHUNK_SAMPLES,
) -> int:
    """Write the database as CSV; returns the number of data rows.

    Args:
        database: The store to export.
        path: Destination file.
        include_quality: Append one ``<channel>_q`` column per channel
            holding the quality flag for every cell where it differs
            from the NaN-derived default (``OK`` when finite,
            ``MISSING`` when NaN).  Pristine datasets therefore export
            empty quality cells; scrubbed/faulted ones keep their
            SUSPECT/SCRUBBED verdicts across a round-trip.
        chunk_size: Samples processed per chunk (memory bound).
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    n = database.num_samples
    num_racks = database.num_racks
    epochs = database.epoch_s
    # Read-only whole-store *views* (no copies); per-chunk slices below
    # are the only materialized working set.
    columns = {ch: database.channel(ch).values for ch in CHANNELS}
    qualities = (
        {ch: database.quality(ch) for ch in CHANNELS} if include_quality else None
    )
    labels = [RackId.from_flat_index(r).label for r in range(num_racks)]
    header = _QUALITY_HEADER if include_quality else _TELEMETRY_HEADER
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            chunk = {ch: np.asarray(columns[ch][start:stop]) for ch in CHANNELS}
            finite = {ch: np.isfinite(chunk[ch]) for ch in CHANNELS}
            keep = np.zeros((stop - start, num_racks), dtype=bool)
            for ch in CHANNELS:
                keep |= finite[ch]
            if qualities is not None:
                qchunk = {
                    ch: np.asarray(qualities[ch][start:stop]) for ch in CHANNELS
                }
                nondefault = {
                    ch: qchunk[ch] != presence_flags(chunk[ch]) for ch in CHANNELS
                }
                for ch in CHANNELS:
                    keep |= nondefault[ch]
            for i in range(stop - start):
                racks = np.flatnonzero(keep[i])
                if racks.size == 0:
                    continue
                epoch_text = f"{epochs[start + i]:.1f}"
                for rack in racks:
                    record = [epoch_text, labels[rack]]
                    for ch in CHANNELS:
                        value = chunk[ch][i, rack]
                        record.append("" if np.isnan(value) else f"{value:.6g}")
                    if qualities is not None:
                        for ch in CHANNELS:
                            record.append(
                                str(int(qchunk[ch][i, rack]))
                                if nondefault[ch][i, rack]
                                else ""
                            )
                    writer.writerow(record)
                    rows += 1
    return rows


def iter_telemetry_csv(
    path: PathLike, num_racks: int = constants.NUM_RACKS
) -> Iterator[
    Tuple[float, Dict[Channel, np.ndarray], Dict[Channel, np.ndarray], bool]
]:
    """Yield ``(epoch, values, flags, explicit)`` per sample of a CSV.

    Consecutive rows sharing a timestamp form one sample.  ``values``
    holds one ``(num_racks,)`` vector per channel, NaN where the file
    is empty; ``flags`` the matching quality vectors, derived from
    NaN-ness (``OK``/``MISSING``) unless a quality column spells a flag
    out, and ``explicit`` marks samples with at least one such cell.
    Accepts the legacy header (values only) and the current one with
    trailing per-channel quality columns.

    Raises:
        ValueError: on a malformed header.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header == _QUALITY_HEADER:
            with_quality = True
        elif header == _TELEMETRY_HEADER:
            with_quality = False
        else:
            raise ValueError(f"unexpected telemetry header: {header}")
        channel_count = len(CHANNELS)
        ok, missing = int(Quality.OK), int(Quality.MISSING)
        pending: Optional[float] = None
        values: Dict[Channel, np.ndarray] = {}
        flags: Dict[Channel, np.ndarray] = {}
        explicit = False
        for row in reader:
            epoch = float(row[0])
            rack = RackId.parse(row[1]).flat_index
            if epoch != pending:
                if pending is not None:
                    yield pending, values, flags, explicit
                pending = epoch
                values = {ch: np.full(num_racks, np.nan) for ch in CHANNELS}
                flags = {
                    ch: np.full(num_racks, missing, dtype=np.uint8) for ch in CHANNELS
                }
                explicit = False
            for channel, cell in zip(CHANNELS, row[2 : 2 + channel_count]):
                if cell != "":
                    value = float(cell)
                    values[channel][rack] = value
                    flags[channel][rack] = ok if math.isfinite(value) else missing
            if with_quality:
                for channel, cell in zip(CHANNELS, row[2 + channel_count :]):
                    if cell != "":
                        flags[channel][rack] = int(cell)
                        explicit = True
        if pending is not None:
            yield pending, values, flags, explicit


def import_telemetry_csv(path: PathLike) -> EnvironmentalDatabase:
    """Rebuild an :class:`EnvironmentalDatabase` from an exported CSV.

    Accepts both the legacy header (values only) and the current one
    with trailing per-channel quality columns; explicit quality flags
    are re-applied after ingest so SUSPECT/SCRUBBED verdicts survive a
    round-trip.

    Raises:
        ValueError: on a malformed header.
    """
    database = EnvironmentalDatabase()
    for epoch, values, flags, explicit in iter_telemetry_csv(
        path, database.num_racks
    ):
        database.append_snapshot(epoch, values)
        if explicit:
            row = database.committed_samples - 1
            for channel, vector in flags.items():
                database.overwrite_quality(channel, row, vector[None, :])
    database.compact()
    return database


def export_ras_jsonl(ras_log: RasLog, path: PathLike) -> int:
    """Write the RAS log as JSON lines; returns the event count."""
    with open(path, "w") as handle:
        for event in ras_log:
            handle.write(
                json.dumps(
                    {
                        "epoch_s": event.epoch_s,
                        "rack": event.rack_id.label,
                        "severity": event.severity.value,
                        "category": event.category,
                        "message": event.message,
                    }
                )
                + "\n"
            )
    return len(ras_log)


def import_ras_jsonl(path: PathLike) -> RasLog:
    """Rebuild a :class:`RasLog` from exported JSON lines."""
    events = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            events.append(
                RasEvent(
                    epoch_s=float(record["epoch_s"]),
                    rack_id=RackId.parse(record["rack"]),
                    severity=Severity(record["severity"]),
                    category=record["category"],
                    message=record.get("message", ""),
                )
            )
    return RasLog(events)
