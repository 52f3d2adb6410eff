"""The verified-blob codec behind WAL records, snapshots and memos.

Every defect a derived-state file can carry — a torn write, a flipped
bit, a foreign format, a payload that will not unpickle — must read as
:class:`~repro.blobfile.CorruptBlob` with the file moved aside, never
as data; and a publish that fails must leave the previous file as it
was.  The per-format tests (``test_resilience.py``,
``test_section_cache.py``, ``test_datasets.py``) show that each port
keeps these properties.
"""

import os
import pickle

import pytest

from repro import blobfile
from repro.blobfile import CorruptBlob

MAGIC = b"repro-test-v1"
OBJ = {"rows": [("Fig 2a", "power", 4.8)], "acked_seq": 31}


def _quarantined(directory):
    return [p for p in directory.iterdir() if p.name.startswith(".quarantine-")]


@pytest.fixture
def blob(tmp_path):
    path = tmp_path / "entry.pkl"
    blobfile.write(path, MAGIC, OBJ)
    return path


class TestFrame:
    def test_frames_chain_to_the_end(self):
        payloads = [b"", b"abc", bytes(range(256))]
        data = memoryview(b"".join(blobfile.frame(p) + p for p in payloads))
        offset = 0
        for payload in payloads:
            got = blobfile.read_frame(data, offset)
            assert bytes(got) == payload
            offset += blobfile.HEADER.size + len(got)
        assert offset == len(data)
        assert blobfile.read_frame(data, offset) is None

    def test_short_or_flipped_frame_reads_as_none(self):
        payload = b"payload bytes"
        framed = blobfile.frame(payload) + payload
        for cut in range(len(framed)):
            assert blobfile.read_frame(memoryview(framed[:cut]), 0) is None
        flipped = bytearray(framed)
        flipped[-1] ^= 0x01
        assert blobfile.read_frame(memoryview(bytes(flipped)), 0) is None


class TestReadWrite:
    def test_round_trip(self, blob, tmp_path):
        assert blobfile.read(blob, MAGIC) == OBJ
        data = blob.read_bytes()
        assert data.startswith(MAGIC)
        payload = blobfile.read_frame(memoryview(data), len(MAGIC))
        assert pickle.loads(payload) == OBJ
        assert [p.name for p in tmp_path.iterdir()] == [blob.name]

    def test_missing_file_is_not_corrupt(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            blobfile.read(tmp_path / "absent.pkl", MAGIC)
        assert list(tmp_path.iterdir()) == []

    def test_every_truncation_quarantined(self, blob, tmp_path):
        good = blob.read_bytes()
        for cut in range(len(good)):
            blob.write_bytes(good[:cut])
            with pytest.raises(CorruptBlob):
                blobfile.read(blob, MAGIC)
            assert not blob.exists()
            (quarantined,) = _quarantined(tmp_path)
            assert quarantined.read_bytes() == good[:cut]

    def test_every_bit_flip_quarantined(self, blob, tmp_path):
        good = blob.read_bytes()
        for index in range(len(good)):
            for bit in range(8):
                damaged = bytearray(good)
                damaged[index] ^= 1 << bit
                blob.write_bytes(bytes(damaged))
                with pytest.raises(CorruptBlob):
                    blobfile.read(blob, MAGIC)
                assert not blob.exists()
        assert len(_quarantined(tmp_path)) == 1

    def test_trailing_bytes_quarantined(self, blob, tmp_path):
        blob.write_bytes(blob.read_bytes() + b"\x00")
        with pytest.raises(CorruptBlob):
            blobfile.read(blob, MAGIC)
        assert len(_quarantined(tmp_path)) == 1

    def test_wrong_magic_quarantined(self, blob, tmp_path):
        with pytest.raises(CorruptBlob, match="magic"):
            blobfile.read(blob, b"repro-test-v2")
        assert not blob.exists()
        assert len(_quarantined(tmp_path)) == 1

    @pytest.mark.parametrize(
        "payload",
        [b"not a pickle", b"cno_such_module\nThing\n."],
        ids=["garbage", "missing-class"],
    )
    def test_unpicklable_payload_quarantined(self, tmp_path, payload):
        path = tmp_path / "entry.pkl"
        path.write_bytes(MAGIC + blobfile.frame(payload) + payload)
        with pytest.raises(CorruptBlob):
            blobfile.read(path, MAGIC)
        assert not path.exists()
        assert len(_quarantined(tmp_path)) == 1

    def test_failed_publish_keeps_previous_file(self, blob, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            blobfile.write(blob, MAGIC, {"newer": True})
        monkeypatch.undo()
        assert blobfile.read(blob, MAGIC) == OBJ
        assert [p.name for p in tmp_path.iterdir()] == [blob.name]

    def test_unpicklable_object_writes_nothing(self, blob, tmp_path):
        with pytest.raises((pickle.PicklingError, AttributeError)):
            blobfile.write(blob, MAGIC, lambda: None)
        assert blobfile.read(blob, MAGIC) == OBJ
        assert [p.name for p in tmp_path.iterdir()] == [blob.name]


class TestQuarantine:
    def test_file_moved_aside(self, blob, tmp_path):
        good = blob.read_bytes()
        blobfile.quarantine(blob)
        assert not blob.exists()
        (moved,) = _quarantined(tmp_path)
        assert moved.name == f".quarantine-{blob.name}-{os.getpid()}"
        assert moved.read_bytes() == good

    def test_directory_moved_aside(self, tmp_path):
        entry = tmp_path / "entry"
        (entry / "telemetry").mkdir(parents=True)
        (entry / "telemetry" / "power.npy").write_bytes(b"columns")
        blobfile.quarantine(entry)
        assert not entry.exists()
        (moved,) = _quarantined(tmp_path)
        assert (moved / "telemetry" / "power.npy").read_bytes() == b"columns"

    def test_directory_deleted_when_rename_fails(self, tmp_path):
        """A second quarantine of the same name in one process cannot
        rename over the first (non-empty) one; the entry is deleted."""
        entry = tmp_path / "entry"
        for _ in range(2):
            entry.mkdir()
            (entry / "result.json").write_text("{}")
            blobfile.quarantine(entry)
            assert not entry.exists()
        assert len(_quarantined(tmp_path)) == 1
