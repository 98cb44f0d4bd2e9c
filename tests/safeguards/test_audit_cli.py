"""Offline audit + CLI acceptance for the safeguards layer.

The headline acceptance case: ZFP_P under a coarse precision violates a
rel:1e-3 bound on lognormal data, while the SAFE wrap over the identical
inner codec passes the offline audit (exit 0) -- and a SAFE stream whose
patches were stripped by a buggy writer fails the audit with the violated
safeguard called out by name (exit 2).
"""

import json
import zlib

import numpy as np
import pytest

from repro import AbsoluteBound, Container, PrecisionBound, decompress
from repro.cli import main
from repro.compressors.base import get_compressor
from repro.observe.audit import audit_stream
from repro.report import stream_bound
from repro.safeguards import SafeguardedCompressor

from .conftest import EvilCodec


@pytest.fixture()
def lognormal(tmp_path):
    rng = np.random.default_rng(4)
    data = np.exp(rng.normal(0, 2, size=(32, 32))).astype(np.float32)
    path = str(tmp_path / "field.npy")
    np.save(path, data)
    return path, data


def strip_patches(blob: bytes) -> bytes:
    """Re-serialize a SAFE stream with an emptied patch channel.

    Checksums are recomputed, so only the offline audit (against the
    original) can notice the missing repairs -- the model of a buggy or
    malicious writer, not wire damage.
    """
    box = Container.from_bytes(blob)
    out = Container(box.codec)
    out.version = box.version
    empty = zlib.compress(b"")
    for k in box.keys():
        if k in ("patch_idx", "patch_val"):
            out.put(k, empty)
        elif k == "n_patch":
            out.put_u64("n_patch", 0)
        else:
            out.put(k, box.get(k))
    return out.to_bytes(version=box.version)


class TestZfpAcceptance:
    def test_unwrapped_zfp_violates_rel_bound(self, lognormal):
        _, data = lognormal
        zfp = get_compressor("ZFP_P")
        recon = zfp.decompress(zfp.compress(data, PrecisionBound(14)))
        rel = np.abs(recon.astype(np.float64) - data) / np.abs(data)
        assert rel.max() > 1e-3  # the defect SAFE must repair

    def test_safe_wrap_passes_audit(self, lognormal):
        path, data = lognormal
        safe = SafeguardedCompressor("ZFP_P", ["rel:1e-3"])
        blob = safe.compress(data, PrecisionBound(14))
        assert stream_bound(Container.from_bytes(blob)) == ("rel", 1e-3)
        report = audit_stream(blob, data)
        assert report.ok
        assert report.max_rel is not None and report.max_rel <= 1e-3
        assert "rel:0.001" in report.safeguards

    def test_cli_audit_exit_0(self, lognormal, tmp_path, capsys):
        path, _ = lognormal
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--precision", "14",
                     "--compressor", "ZFP_P", "--safeguard", "rel:1e-3"]) == 0
        assert main(["audit", out, "--original", path]) == 0
        text = capsys.readouterr().out
        assert "safeguards:" in text and "all hold" in text


class TestViolationNaming:
    def make_stripped(self, tmp_path, lognormal):
        path, data = lognormal
        signed = data * np.where(np.arange(data.size) % 5 == 0, -1.0, 1.0
                                 ).reshape(data.shape).astype(np.float32)
        orig = str(tmp_path / "signed.npy")
        np.save(orig, signed)
        blob = SafeguardedCompressor(EvilCodec("negate"), ["sign"]).compress(
            signed, AbsoluteBound(1e30)
        )
        bad = str(tmp_path / "stripped.rpz")
        with open(bad, "wb") as fh:
            fh.write(strip_patches(blob))
        return orig, bad

    def test_exit_2_names_the_safeguard(self, tmp_path, lognormal, capsys):
        orig, bad = self.make_stripped(tmp_path, lognormal)
        assert main(["audit", bad, "--original", orig]) == 2
        text = capsys.readouterr().out
        assert "safeguard sign violated" in text
        assert "FAIL" in text

    def test_json_carries_per_safeguard_counts(self, tmp_path, lognormal,
                                               capsys):
        orig, bad = self.make_stripped(tmp_path, lognormal)
        report = str(tmp_path / "audit.json")
        assert main(["audit", bad, "--original", orig, "--json", report]) == 2
        capsys.readouterr()
        payload = json.load(open(report))
        assert payload["safeguard_violations"]["sign"] > 0
        assert "sign" in payload["safeguards"]

    def test_intact_stream_counts_zero_violations(self, tmp_path, lognormal):
        path, data = lognormal
        blob = SafeguardedCompressor(EvilCodec("negate"), ["sign"]).compress(
            data, AbsoluteBound(1e30)
        )
        report = audit_stream(blob, data)
        assert report.ok
        assert report.safeguard_violations.get("sign", 0) == 0


class TestCliSurface:
    def test_bad_spec_rejected_at_parse_time(self, lognormal, tmp_path):
        path, _ = lognormal
        out = str(tmp_path / "f.rpz")
        with pytest.raises(SystemExit):
            main(["compress", path, out, "--precision", "14",
                  "--compressor", "ZFP_P", "--safeguard", "frob"])

    def test_info_lists_safeguards(self, lognormal, tmp_path, capsys):
        path, _ = lognormal
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--precision", "14",
                     "--compressor", "ZFP_P", "--safeguard", "rel:1e-3",
                     "--safeguard", "sign"]) == 0
        assert main(["info", out]) == 0
        text = capsys.readouterr().out
        assert "inner:  ZFP_P" in text
        assert "rel:0.001; sign" in text
        assert "patched:" in text

    def test_stats_reports_safeguards(self, lognormal, tmp_path, capsys):
        path, _ = lognormal
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--precision", "14",
                     "--compressor", "ZFP_P", "--safeguard", "rel:1e-3"]) == 0
        assert main(["stats", out]) == 0
        text = capsys.readouterr().out
        assert "over ZFP_P" in text

    def test_compress_reports_rel_stats_under_precision_bound(
        self, lognormal, tmp_path, capsys
    ):
        path, _ = lognormal
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--precision", "14",
                     "--compressor", "ZFP_P", "--safeguard", "rel:1e-3"]) == 0
        text = capsys.readouterr().out
        assert "bounded 100%" in text

    def test_faults_corrupt_safeguards_mode(self, lognormal, tmp_path, capsys):
        path, _ = lognormal
        out = str(tmp_path / "f.rpz")
        bad = str(tmp_path / "bad.rpz")
        back = str(tmp_path / "back.npy")
        assert main(["compress", path, out, "--precision", "14",
                     "--compressor", "ZFP_P", "--safeguard", "rel:1e-3"]) == 0
        assert main(["faults", "corrupt-safeguards", out, bad, "--seed", "1"]) == 0
        assert main(["decompress", bad, back]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chunked_safeguard_round_trip(self, lognormal, tmp_path, capsys):
        path, data = lognormal
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--precision", "14",
                     "--compressor", "ZFP_P", "--safeguard", "rel:1e-3",
                     "--chunk-size", "1K", "--workers", "2"]) == 0
        assert "chunks" in capsys.readouterr().out
        recon = decompress(open(out, "rb").read())
        rel = np.abs(recon.astype(np.float64) - data) / np.abs(data)
        assert rel.max() <= 1e-3
