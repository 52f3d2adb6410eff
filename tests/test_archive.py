"""The memory-mapped telemetry archive."""

import json

import numpy as np
import pytest

from repro.core.trends import coolant_trends, yearly_trends
from repro.telemetry.archive import ArchiveError, TelemetryArchive
from repro.telemetry.database import EnvironmentalDatabase
from repro.telemetry.records import Channel


class TestRoundtrip:
    def test_values_identical(self, demo_result, tmp_path):
        TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        restored = TelemetryArchive.load(tmp_path / "arch")
        assert restored.num_samples == demo_result.database.num_samples
        for channel in Channel:
            original = demo_result.database.channel(channel).values
            back = restored.channel(channel).values
            assert np.array_equal(original, back, equal_nan=True)

    def test_analyses_run_on_archive(self, demo_result, tmp_path):
        TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        restored = TelemetryArchive.load(tmp_path / "arch")
        live = coolant_trends(demo_result.database)
        archived = coolant_trends(restored)
        assert archived.inlet_mean_f == pytest.approx(live.inlet_mean_f)
        assert archived.flow_std_gpm == pytest.approx(live.flow_std_gpm)

    def test_memory_mapped_by_default(self, demo_result, tmp_path):
        TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        restored = TelemetryArchive.load(tmp_path / "arch")
        assert isinstance(
            restored.channel(Channel.POWER).values.base, np.memmap
        ) or isinstance(restored.channel(Channel.POWER).values, np.memmap)

    def test_eager_load_option(self, demo_result, tmp_path):
        TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        restored = TelemetryArchive.load(tmp_path / "arch", mmap=False)
        values = restored.channel(Channel.POWER).values
        assert not isinstance(values, np.memmap)


class TestReadOnly:
    def test_append_rejected(self, demo_result, tmp_path):
        TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        restored = TelemetryArchive.load(tmp_path / "arch")
        with pytest.raises(TypeError):
            restored.append_snapshot(0.0, {})

    def test_compact_is_noop(self, demo_result, tmp_path):
        TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        restored = TelemetryArchive.load(tmp_path / "arch")
        restored.compact()
        assert restored.num_samples == demo_result.database.num_samples


class TestValidation:
    def test_empty_database_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryArchive.save(EnvironmentalDatabase(), tmp_path / "arch")

    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "arch").mkdir()
        with pytest.raises(FileNotFoundError):
            TelemetryArchive.load(tmp_path / "arch")

    def test_version_mismatch_rejected(self, demo_result, tmp_path):
        root = TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format_version"] = 999
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            TelemetryArchive.load(root)

    def test_shape_mismatch_rejected(self, demo_result, tmp_path):
        root = TelemetryArchive.save(demo_result.database, tmp_path / "arch")
        np.save(root / "power_kw.npy", np.zeros((3, 3)))
        with pytest.raises(ValueError):
            TelemetryArchive.load(root)


class TestManifestChannelValidation:
    """Satellite: manifest-vs-disk cross-checks name the offending column."""

    def _saved(self, demo_result, tmp_path):
        return TelemetryArchive.save(demo_result.database, tmp_path / "arch")

    def test_channel_missing_from_manifest(self, demo_result, tmp_path):
        root = self._saved(demo_result, tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["channels"].remove("flow_gpm")
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="flow_gpm"):
            TelemetryArchive.load(root)

    def test_unknown_channel_in_manifest(self, demo_result, tmp_path):
        root = self._saved(demo_result, tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["channels"].append("plasma_flux")
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="plasma_flux"):
            TelemetryArchive.load(root)

    def test_missing_column_file(self, demo_result, tmp_path):
        root = self._saved(demo_result, tmp_path)
        (root / "inlet_temperature_f.npy").unlink()
        with pytest.raises(ArchiveError, match="inlet_temperature_f"):
            TelemetryArchive.load(root)

    def test_missing_epoch_file(self, demo_result, tmp_path):
        root = self._saved(demo_result, tmp_path)
        (root / "epoch_s.npy").unlink()
        with pytest.raises(ArchiveError, match="epoch_s"):
            TelemetryArchive.load(root)

    def test_archive_error_is_value_error(self):
        # The dataset cache catches ValueError to rebuild corrupt
        # entries; ArchiveError must ride that path.
        assert issubclass(ArchiveError, ValueError)
