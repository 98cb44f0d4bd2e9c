"""Multi-field archive API."""

import numpy as np
import pytest

from repro import AbsoluteBound, RelativeBound
from repro.archive import archive_manifest, compress_dataset, decompress_dataset


@pytest.fixture()
def fields(smooth_positive_3d, signed_2d):
    return {"density": smooth_positive_3d, "velocity": signed_2d}


class TestArchive:
    def test_roundtrip_uniform_settings(self, fields):
        blob = compress_dataset(fields, RelativeBound(1e-2))
        out = decompress_dataset(blob)
        assert list(out) == ["density", "velocity"]
        for name, data in fields.items():
            x = data.astype(np.float64)
            xd = out[name].astype(np.float64)
            nz = x != 0
            assert (np.abs(xd[nz] - x[nz]) / np.abs(x[nz])).max() <= 1e-2

    def test_per_field_settings(self, fields):
        blob = compress_dataset(
            fields,
            bound={"density": RelativeBound(1e-3),
                   "velocity": AbsoluteBound(1.0)},
            compressor={"density": "SZ_T", "velocity": "ZFP_A"},
        )
        manifest = archive_manifest(blob)
        assert manifest["density"]["codec"] == "SZ_T"
        assert manifest["velocity"]["codec"] == "ZFP_A"
        out = decompress_dataset(blob)
        assert np.abs(out["velocity"].astype(np.float64)
                      - fields["velocity"].astype(np.float64)).max() <= 1.0

    def test_manifest_metadata(self, fields):
        blob = compress_dataset(fields, RelativeBound(1e-2))
        manifest = archive_manifest(blob)
        assert manifest["density"]["shape"] == fields["density"].shape
        assert manifest["density"]["dtype"] == "float32"
        assert manifest["density"]["nbytes"] > 0

    def test_manifest_raises_on_damage(self, fields):
        from repro import ChecksumError, Container
        from repro.inspection import inspect_stream
        from repro.testing import flip_bit

        blob = compress_dataset(fields, RelativeBound(1e-2))
        field = inspect_stream(blob).section("field:velocity")
        damaged = flip_bit(blob, 8 * field.payload_start + 100)
        with pytest.raises(ChecksumError):
            archive_manifest(damaged)
        # Outer CRCs made whole again: the field's own CRC still fails.
        box = Container.from_bytes(damaged, verify_checksums=False)
        rehashed = Container(box.codec)
        for key in box.keys():
            rehashed.put(key, box.get(key))
        with pytest.raises(ChecksumError):
            archive_manifest(rehashed.to_bytes())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compress_dataset({}, RelativeBound(1e-2))

    def test_non_archive_stream_rejected(self, fields):
        from repro import compress

        plain = compress(fields["density"], RelativeBound(1e-2))
        with pytest.raises(ValueError, match="archive"):
            decompress_dataset(plain)
        with pytest.raises(ValueError, match="archive"):
            archive_manifest(plain)


class TestArchiveCommands:
    """Inspection commands read ARCHIVE streams through their fields."""

    @pytest.fixture()
    def archive(self, fields, tmp_path):
        path = tmp_path / "a.rpz"
        path.write_bytes(
            compress_dataset(
                fields, RelativeBound(1e-2),
                {"density": "SZ_T", "velocity": "ZFP_T"},
            )
        )
        return str(path)

    def test_info_lists_fields(self, archive, capsys):
        from repro.cli import main

        assert main(["info", archive]) == 0
        out = capsys.readouterr().out
        assert "fields: 2" in out
        assert "field density" in out and "SZ_T" in out
        assert "field velocity" in out and "ZFP_T" in out

    def test_explain_attributes_field_bytes_to_inner_kinds(self, archive):
        from pathlib import Path

        from repro.observe.quality import explain_stream

        report = explain_stream(Path(archive).read_bytes())
        assert report.ok
        totals = report.kind_totals
        assert any(kind.startswith("entropy") for kind in totals)
        assert totals.get("metadata", 0) < 0.05 * report.nbytes

    @pytest.mark.parametrize("command", ["stats", "audit", "decompress"])
    def test_decoding_commands_point_to_decompress_dataset(
        self, archive, command, tmp_path, capsys
    ):
        from repro.cli import main

        argv = [command, archive]
        if command == "decompress":
            argv.append(str(tmp_path / "out.npy"))
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "repro.archive.decompress_dataset" in err
        assert "unknown codec" not in err
