"""File-level CLI (repro-compress) end-to-end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.data.io import load_array, write_raw


@pytest.fixture()
def field(tmp_path):
    data = np.exp(np.random.default_rng(0).normal(0, 2, size=(16, 16, 16))).astype(np.float32)
    path = str(tmp_path / "field.f32")
    write_raw(path, data)
    return path, data


class TestCompressCommand:
    def test_roundtrip_rel_bound(self, field, tmp_path, capsys):
        path, data = field
        out = str(tmp_path / "field.rpz")
        back = str(tmp_path / "back.f32")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2"]) == 0
        assert "bounded 100%" in capsys.readouterr().out
        assert main(["decompress", out, back]) == 0
        recon = load_array(back, (16, 16, 16))
        assert np.all(np.abs(recon - data) <= 1e-2 * np.abs(data))

    def test_abs_bound_and_named_compressor(self, field, tmp_path):
        path, data = field
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--abs-bound", "0.5", "--compressor", "ZFP_A"]) == 0

    def test_precision_compressor(self, field, tmp_path):
        path, _ = field
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--precision", "19", "--compressor", "FPZIP"]) == 0

    def test_exactly_one_bound_required(self, field, tmp_path, capsys):
        path, _ = field
        out = str(tmp_path / "f.rpz")
        for prefix in ((), ("profile",)):
            for bounds in ((), ("--rel-bound", "1e-2", "--abs-bound", "1.0")):
                argv = [*prefix, "compress", path, out, "--shape", "16,16,16", *bounds]
                assert main(argv) == 1, argv
                assert capsys.readouterr().err.splitlines()[-1] == (
                    "error: specify exactly one of --rel-bound / --abs-bound / --precision"
                ), argv

    def test_chunked_flags_roundtrip(self, field, tmp_path, capsys):
        path, data = field
        out = str(tmp_path / "f.rpz")
        back = str(tmp_path / "b.f32")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--chunk-size", "4K",
                     "--workers", "2"]) == 0
        assert "chunks" in capsys.readouterr().out
        assert main(["decompress", out, back]) == 0
        recon = load_array(back, (16, 16, 16))
        assert np.all(np.abs(recon - data) <= 1e-2 * np.abs(data))

    def test_chunked_report_grades_the_chunks_bound(self, tmp_path, capsys):
        src = str(tmp_path / "f.npy")
        rng = np.random.default_rng(0)
        np.save(src, np.exp(rng.normal(0, 2, 4096)).astype(np.float32))
        assert main(["compress", src, str(tmp_path / "o.rpz"), "--rel-bound", "1e-3",
                     "--chunk-size", "4K", "--report"]) == 0
        out = capsys.readouterr().out
        assert "(4 chunks x" in out
        assert "bound:            rel 0.001   bounded: 100%" in out
        assert "point-wise error:" in out
        assert "error shape:" in out

    def test_bad_chunk_size_rejected(self, field, tmp_path):
        path, _ = field
        with pytest.raises(SystemExit):
            main(["compress", path, str(tmp_path / "o"), "--shape", "16,16,16",
                  "--rel-bound", "1e-2", "--chunk-size", "huge"])

    def test_npy_input_no_shape_needed(self, tmp_path):
        data = np.abs(np.random.default_rng(1).normal(1, 0.1, (8, 8))).astype(np.float32)
        src = str(tmp_path / "f.npy")
        np.save(src, data)
        out = str(tmp_path / "f.rpz")
        assert main(["compress", src, out, "--rel-bound", "1e-2"]) == 0

    def test_bad_shape_rejected(self, field, tmp_path):
        path, _ = field
        with pytest.raises(SystemExit):
            main(["compress", path, str(tmp_path / "o"), "--shape", "16,x",
                  "--rel-bound", "1e-2"])


class TestInfoCommand:
    def test_describes_stream(self, field, tmp_path, capsys):
        path, _ = field
        out = str(tmp_path / "f.rpz")
        main(["compress", path, out, "--shape", "16,16,16", "--rel-bound", "1e-2"])
        capsys.readouterr()
        assert main(["info", out]) == 0
        text = capsys.readouterr().out
        assert "SZ_T" in text
        assert "(16, 16, 16)" in text
        assert "float32" in text
        assert "checksummed" in text


@pytest.fixture()
def stream(field, tmp_path):
    """A compressed CHUNKED stream on disk, plus its source array."""
    path, data = field
    out = str(tmp_path / "field.rpz")
    assert main(["compress", path, out, "--shape", "16,16,16",
                 "--rel-bound", "1e-2", "--chunk-size", "4K"]) == 0
    return out, data


class TestExitCodes:
    """Corrupt/unreadable inputs: one-line stderr diagnostic, exit 2."""

    def test_decompress_corrupt_stream_exits_2(self, stream, tmp_path, capsys):
        out, _ = stream
        with open(out, "r+b") as fh:
            fh.seek(100)
            byte = fh.read(1)
            fh.seek(100)
            fh.write(bytes([byte[0] ^ 0xFF]))
        capsys.readouterr()
        assert main(["decompress", out, str(tmp_path / "b.f32")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "checksum" in err
        assert "Traceback" not in err

    def test_decompress_truncated_stream_exits_2(self, stream, tmp_path, capsys):
        out, _ = stream
        with open(out, "rb") as fh:
            blob = fh.read()
        cut = str(tmp_path / "cut.rpz")
        with open(cut, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert main(["decompress", cut, str(tmp_path / "b.f32")]) == 2

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["decompress", str(tmp_path / "nope.rpz"),
                     str(tmp_path / "b.f32")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("journal", [False, True], ids=["plain", "journal"])
    def test_decompress_chunk_table_mismatch_exits_2(self, mismatched_chunks, journal,
                                                     tmp_path, capsys):
        bad = tmp_path / "bad.rpz"
        bad.write_bytes(mismatched_chunks)
        argv = ["decompress", str(bad), str(tmp_path / "b.f32")]
        if journal:
            argv += ["--journal", str(tmp_path / "b.journal")]
        assert main(argv) == 2
        assert "chunk element mismatch" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "b.f32")

    def test_info_on_garbage_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "garbage.rpz")
        with open(bad, "wb") as fh:
            fh.write(b"this is not a compressed stream")
        assert main(["info", bad]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_clean_stream_verifies(self, stream, capsys):
        out, _ = stream
        assert main(["verify", out]) == 0
        assert "OK" in capsys.readouterr().out

    def test_damaged_stream_exits_2_with_localized_report(self, stream, tmp_path, capsys):
        out, _ = stream
        bad = str(tmp_path / "bad.rpz")
        assert main(["faults", "corrupt-chunk", out, bad, "--index", "1"]) == 0
        capsys.readouterr()
        assert main(["verify", bad]) == 2
        text = capsys.readouterr().out
        assert "problem" in text
        assert "chunk 1" in text

    def test_chunk_table_mismatch_is_a_problem(self, mismatched_chunks, tmp_path,
                                               capsys):
        bad = tmp_path / "bad.rpz"
        bad.write_bytes(mismatched_chunks)
        assert main(["verify", str(bad)]) == 2
        text = capsys.readouterr().out
        assert "chunk 0: holds 5 elements, chunk table says 6" in text


class TestStatsCommand:
    def test_reports_chunks_sections_and_crc_time(self, stream, capsys):
        out, _ = stream
        capsys.readouterr()
        assert main(["stats", out]) == 0
        text = capsys.readouterr().out
        assert "CHUNKED" in text
        assert "chunks:" in text
        assert "sections:" in text
        assert "payload" in text  # per-section sizes listed
        assert "CRC verification" in text

    def test_garbage_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "garbage.rpz")
        with open(bad, "wb") as fh:
            fh.write(b"not a stream")
        assert main(["stats", bad]) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceFlags:
    def test_compress_trace_prints_span_tree(self, field, tmp_path, capsys):
        path, _ = field
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--trace"]) == 0
        text = capsys.readouterr().out
        assert "compress[SZ_T]" in text
        assert "%" in text
        assert "stage coverage" in text

    def test_stage_coverage_at_least_95_percent(self, field, tmp_path):
        from repro.observe import get_tracer

        path, _ = field
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--trace"]) == 0
        roots = [sp for sp in get_tracer().roots() if sp.name == "compress"]
        assert roots
        assert roots[0].coverage() >= 0.95

    def test_trace_json_schema(self, field, tmp_path):
        import json

        path, _ = field
        out = str(tmp_path / "f.rpz")
        trace = str(tmp_path / "trace.json")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--trace-json", trace]) == 0
        doc = json.load(open(trace))
        assert doc["version"] == 1
        names = [sp["name"] for sp in doc["spans"]]
        assert "compress" in names
        comp = doc["spans"][names.index("compress")]
        assert comp["attrs"]["codec"] == "SZ_T"
        assert comp["wall_s"] > 0
        assert any(c["name"] == "log-transform" for c in comp["children"])

    def test_decompress_trace(self, stream, tmp_path, capsys):
        out, _ = stream
        capsys.readouterr()
        assert main(["decompress", out, str(tmp_path / "b.npy"), "--trace"]) == 0
        text = capsys.readouterr().out
        assert "decompress[CHUNKED]" in text

    def test_trace_json_written_even_on_failure(self, tmp_path):
        import json

        bad = str(tmp_path / "garbage.rpz")
        with open(bad, "wb") as fh:
            fh.write(b"not a stream")
        trace = str(tmp_path / "trace.json")
        assert main(["stats", bad, "--trace-json", trace]) == 2
        assert json.load(open(trace))["version"] == 1


class TestFaultsCommand:
    def test_bit_flip_then_tolerant_decompress(self, stream, tmp_path, capsys):
        out, data = stream
        bad = str(tmp_path / "bad.rpz")
        back = str(tmp_path / "back.npy")
        assert main(["faults", "corrupt-chunk", out, bad, "--index", "0",
                     "--seed", "3"]) == 0
        assert main(["decompress", bad, back]) == 2
        assert main(["decompress", bad, back, "--tolerate-corruption"]) == 0
        recon = np.load(back).reshape(-1)
        err = capsys.readouterr().err
        assert "lost 1/" in err
        good = ~np.isnan(recon)
        assert good.any() and not good.all()
        flat = data.reshape(-1)
        assert np.all(np.abs(recon[good] - flat[good]) <= 1e-2 * np.abs(flat[good]))

    def test_truncate_fraction(self, stream, tmp_path):
        out, _ = stream
        cut = str(tmp_path / "cut.rpz")
        assert main(["faults", "truncate", out, cut, "--keep", "0.25"]) == 0
        assert main(["verify", cut]) == 2

    def test_drop_section(self, stream, tmp_path):
        out, _ = stream
        bad = str(tmp_path / "bad.rpz")
        assert main(["faults", "drop-section", out, bad, "--key", "lens"]) == 0
        assert main(["decompress", bad, str(tmp_path / "b.npy")]) == 2


class TestAuditCommand:
    def test_clean_stream_passes(self, stream, field, capsys):
        out, _ = stream
        path, _ = field
        capsys.readouterr()
        assert main(["audit", out, "--original", path, "--shape", "16,16,16"]) == 0
        text = capsys.readouterr().out
        assert "verdict:" in text and "PASS" in text
        assert "max rel error" in text

    def test_without_original_checks_internals(self, stream, capsys):
        out, _ = stream
        capsys.readouterr()
        assert main(["audit", out]) == 0
        text = capsys.readouterr().out
        assert "no original supplied" in text
        assert "PASS" in text

    def test_wrong_original_exits_2(self, stream, field, tmp_path, capsys):
        from repro.data.io import write_raw

        out, data = stream
        wrong = str(tmp_path / "wrong.f32")
        write_raw(wrong, (data * 1.5).astype(np.float32))
        capsys.readouterr()
        assert main(["audit", out, "--original", wrong, "--shape", "16,16,16"]) == 2
        text = capsys.readouterr().out
        assert "VIOLATION" in text and "FAIL" in text

    def test_json_dump(self, stream, field, tmp_path):
        import json

        out, _ = stream
        path, _ = field
        dest = str(tmp_path / "audit.json")
        assert main(["audit", out, "--original", path, "--shape", "16,16,16",
                     "--json", dest]) == 0
        doc = json.load(open(dest))
        assert doc["codec"] == "CHUNKED"
        assert doc["violations"] == 0
        assert doc["n_points"] == 16 ** 3

    @pytest.mark.parametrize("original", [False, True], ids=["bare", "original"])
    def test_empty_stream_passes(self, original, tmp_path, capsys):
        # An empty SZ_T stream records plain g(b_r) and bounds its zero
        # points vacuously.
        path = str(tmp_path / "e.npy")
        np.save(path, np.zeros(0, np.float32))
        out = str(tmp_path / "e.rpz")
        assert main(["compress", path, out, "--rel-bound", "1e-3"]) == 0
        capsys.readouterr()
        argv = ["audit", out] + (["--original", path] if original else [])
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "VIOLATION" not in text and "PASS" in text
        if original:
            assert "bounded: 100.0000%" in text

    def test_garbage_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "garbage.rpz")
        with open(bad, "wb") as fh:
            fh.write(b"not a stream")
        assert main(["audit", bad]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("original", [False, True], ids=["bare", "original"])
    def test_chunk_table_mismatch_exits_2(self, mismatched_chunks, original, tmp_path,
                                          capsys):
        bad = tmp_path / "bad.rpz"
        bad.write_bytes(mismatched_chunks)
        argv = ["audit", str(bad)]
        if original:
            path = tmp_path / "orig.npy"
            np.save(path, np.linspace(1.0, 2.0, 12, dtype=np.float32))
            argv += ["--original", str(path)]
        assert main(argv) == 2
        assert "chunk element mismatch" in capsys.readouterr().err


class TestExplainCommand:
    def test_clean_stream_markdown(self, stream, field, capsys):
        out, _ = stream
        path, _ = field
        capsys.readouterr()
        assert main(["explain", out, "--original", path, "--shape", "16,16,16"]) == 0
        text = capsys.readouterr().out
        assert "repro explain" in text
        assert "Byte attribution" in text
        assert "Point-wise error quality" in text

    def test_json_and_out_files(self, stream, field, tmp_path):
        import json

        out, _ = stream
        path, _ = field
        js = str(tmp_path / "explain.json")
        md = str(tmp_path / "explain.md")
        assert main(["explain", out, "--original", path, "--shape", "16,16,16",
                     "--json", js, "--out", md]) == 0
        doc = json.load(open(js))
        assert doc["codec"] == "CHUNKED"
        assert doc["ok"] is True
        assert sum(doc["kind_totals"].values()) == doc["nbytes"]
        assert "Byte attribution" in open(md).read()

    def test_truncated_stream_exits_2_but_renders(self, stream, tmp_path, capsys):
        out, _ = stream
        cut = str(tmp_path / "cut.rpz")
        with open(out, "rb") as fh:
            blob = fh.read()
        with open(cut, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        capsys.readouterr()
        assert main(["explain", cut]) == 2
        text = capsys.readouterr().out
        assert "DAMAGED" in text
        assert "StreamError" in text

    def test_info_shows_attribution_kinds(self, stream, capsys):
        out, _ = stream
        capsys.readouterr()
        assert main(["info", out]) == 0
        text = capsys.readouterr().out
        assert "container overhead" in text
        assert "[chunk-table]" in text or "[payload]" in text


class TestMetricsExportFlags:
    def test_openmetrics_to_file(self, stream, tmp_path):
        from repro.observe import parse_openmetrics

        out, _ = stream
        dest = str(tmp_path / "metrics.om")
        assert main(["stats", out, "--metrics-out", "openmetrics",
                     "--metrics-path", dest]) == 0
        families = parse_openmetrics(open(dest).read())
        assert families  # the decode moved at least one metric

    def test_jsonl_to_stdout(self, stream, tmp_path, capsys):
        import json

        out, _ = stream
        back = str(tmp_path / "b.f32")
        assert main(["decompress", out, back, "--metrics-out", "jsonl"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("{")]
        assert lines
        recs = [json.loads(ln) for ln in lines]
        assert all("metric" in r for r in recs)
        assert any(r["metric"].startswith("chunks.") for r in recs)

    def test_compress_exports_audit_counters(self, field, tmp_path):
        from repro.observe import parse_openmetrics

        path, data = field
        out = str(tmp_path / "f.rpz")
        dest = str(tmp_path / "metrics.om")
        # Whole, and in 4K chunks on a 2-worker pool, whose workers' counters
        # come back with the rest of the telemetry.
        for chunking in ([], ["--chunk-size", "4K", "--workers", "2"]):
            assert main(["compress", path, out, "--shape", "16,16,16",
                         "--rel-bound", "1e-2", "--metrics-out", "openmetrics",
                         "--metrics-path", dest, *chunking]) == 0
            families = parse_openmetrics(open(dest).read())
            assert "repro_audit_points" in families
            for family in ("repro_audit_points", "repro_quality_points"):
                (value,) = [v for _, _, v in families[family]["samples"]]
                assert value == data.size, (chunking, family)


class TestResilienceFlags:
    """--journal/--policy/--ladder plumbing and the resume subcommand."""

    def test_journaled_compress_matches_plain(self, field, tmp_path, capsys):
        path, _ = field
        plain = str(tmp_path / "plain.rpz")
        journaled = str(tmp_path / "j.rpz")
        assert main(["compress", path, plain, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--chunk-size", "4K",
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["compress", path, journaled, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--chunk-size", "4K",
                     "--workers", "1", "--journal",
                     str(tmp_path / "wal")]) == 0
        assert "completed" in capsys.readouterr().out
        assert open(journaled, "rb").read() == open(plain, "rb").read()
        assert not (tmp_path / "wal").exists()

    @pytest.mark.parametrize(
        "extra", [(), ("--compressor", "ZFP_P", "--ladder", "GZIP")],
        ids=["SZ_T", "ladder"],
    )
    def test_journaled_compress_reports_like_plain(self, field, tmp_path, capsys, extra):
        """A job that compresses every chunk prints the plain command's
        resilience line and ``bounded …`` suffix."""
        path, _ = field
        argv = ["--shape", "16,16,16", "--rel-bound", "1e-3", "--chunk-size", "4K", *extra]
        assert main(["compress", path, str(tmp_path / "p.rpz"), *argv]) == 0
        plain = capsys.readouterr()
        assert main(["compress", path, str(tmp_path / "j.rpz"), *argv,
                     "--journal", str(tmp_path / "wal")]) == 0
        journaled = capsys.readouterr()
        suffix = plain.out[plain.out.index(", bounded "):]
        assert journaled.out.startswith(f"{path}: completed: 4 chunks (4 compressed)")
        assert journaled.out.endswith(suffix)
        assert journaled.err == plain.err
        if extra:
            assert plain.err == "resilience: 4 chunks: 4 fell back down the codec ladder\n"

    def test_kill_and_resume_via_cli(self, field, tmp_path, capsys):
        from repro.testing import CrashPoint, kill_at

        path, data = field
        out = str(tmp_path / "f.rpz")
        jdir = str(tmp_path / "wal")
        with pytest.raises(CrashPoint):
            with kill_at(5):
                main(["compress", path, out, "--shape", "16,16,16",
                      "--rel-bound", "1e-2", "--chunk-size", "4K",
                      "--workers", "1", "--journal", jdir])
        capsys.readouterr()
        assert main(["resume", jdir]) == 0
        assert "resumed" in capsys.readouterr().out
        back = str(tmp_path / "b.f32")
        assert main(["decompress", out, back]) == 0
        recon = load_array(back, (16, 16, 16))
        assert np.all(np.abs(recon - data) <= 1e-2 * np.abs(data))

    def test_policy_and_ladder_compress(self, field, tmp_path, capsys):
        path, data = field
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--chunk-size", "4K",
                     "--policy", "retries=1;backoff=0.01",
                     "--ladder", "SZ_T>GZIP"]) == 0
        capsys.readouterr()
        assert main(["info", out]) == 0
        text = capsys.readouterr().out
        assert "SZ_T>GZIP" in text
        back = str(tmp_path / "b.f32")
        assert main(["decompress", out, back]) == 0
        recon = load_array(back, (16, 16, 16))
        assert np.all(np.abs(recon - data) <= 1e-2 * np.abs(data))

    @pytest.mark.parametrize(
        "flags, chain",
        [(("--ladder", "SZ_T>GZIP", "--policy", "ladder=ZFP_T"), "SZ_T>GZIP>ZFP_T"),
         (("--policy", "ladder=ZFP_T"), "SZ_T>ZFP_T")],
        ids=["ladder-and-policy", "policy"],
    )
    def test_policy_ladder_joins_the_chain(self, tmp_path, capsys, flags, chain):
        """The policy's rungs follow the --ladder's in one chain, which the
        compress line prints; a journaled job with both resumes to the
        same bytes."""
        from repro.testing import CrashPoint, kill_at

        path = str(tmp_path / "f.npy")
        x = np.linspace(0.0, 4 * np.pi, 64 * 64).reshape(64, 64)
        np.save(path, (2.0 + np.sin(x)).astype(np.float32))
        plain = str(tmp_path / "p.rpz")
        assert main(["compress", path, plain, "--rel-bound", "1e-3", *flags]) == 0
        assert f" with {chain} (1 chunks x " in capsys.readouterr().out
        assert main(["info", plain]) == 0
        assert f"ladder: {chain}\n" in capsys.readouterr().out
        journaled, jdir = str(tmp_path / "j.rpz"), str(tmp_path / "wal")
        with pytest.raises(CrashPoint):
            with kill_at(6):
                main(["compress", path, journaled, "--rel-bound", "1e-3", *flags,
                      "--journal", jdir])
        assert main(["resume", jdir]) == 0
        assert open(journaled, "rb").read() == open(plain, "rb").read()

    def test_journaled_decompress(self, field, tmp_path):
        path, data = field
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2", "--chunk-size", "4K"]) == 0
        back = str(tmp_path / "b.f32")
        assert main(["decompress", out, back, "--journal",
                     str(tmp_path / "dwal")]) == 0
        recon = load_array(back, (16, 16, 16))
        assert np.all(np.abs(recon - data) <= 1e-2 * np.abs(data))

    def test_journal_excludes_tolerate_corruption(self, field, tmp_path, capsys):
        path, _ = field
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--shape", "16,16,16",
                     "--rel-bound", "1e-2"]) == 0
        capsys.readouterr()
        assert main(["decompress", out, str(tmp_path / "b.f32"),
                     "--journal", str(tmp_path / "w"),
                     "--tolerate-corruption"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_policy_spec_is_an_argparse_error(self, field, tmp_path):
        path, _ = field
        with pytest.raises(SystemExit):
            main(["compress", path, str(tmp_path / "o"), "--shape", "16,16,16",
                  "--rel-bound", "1e-2", "--policy", "nonsense=1"])

    def test_unknown_ladder_rung_is_an_argparse_error(self, field, tmp_path):
        path, _ = field
        with pytest.raises(SystemExit):
            main(["compress", path, str(tmp_path / "o"), "--shape", "16,16,16",
                  "--rel-bound", "1e-2", "--ladder", "SZ_T>NOPE"])


class TestFailureContract:
    """Every failure exits 1 or 2 with a one-line diagnostic -- never a
    traceback.  Exit 2 = bad data/environment; exit 1 = bad request."""

    CASES = [
        ("compress-missing-input", 2, lambda d: [
            "compress", str(d / "nope.f32"), str(d / "o.rpz"),
            "--shape", "4,4", "--rel-bound", "1e-2"]),
        ("decompress-missing-input", 2, lambda d: [
            "decompress", str(d / "nope.rpz"), str(d / "o.f32")]),
        ("decompress-garbage", 2, lambda d: [
            "decompress", str(d / "garbage.bin"), str(d / "o.f32")]),
        ("info-garbage", 2, lambda d: ["info", str(d / "garbage.bin")]),
        ("stats-garbage", 2, lambda d: ["stats", str(d / "garbage.bin")]),
        ("verify-missing", 2, lambda d: ["verify", str(d / "nope.rpz")]),
        ("resume-missing-journal", 1, lambda d: [
            "resume", str(d / "nope.journal")]),
        ("unsupported-bound", 1, lambda d: [
            "compress", str(d / "tiny.f32"), str(d / "o.rpz"),
            "--shape", "4,4", "--precision", "16"]),
        ("compress-int-npy", 1, lambda d: [
            "compress", str(d / "ints.npy"), str(d / "o.rpz"), "--rel-bound", "1e-2"]),
        ("compress-int-npy-chunked", 1, lambda d: [
            "compress", str(d / "ints.npy"), str(d / "o.rpz"), "--rel-bound", "1e-2",
            "--chunk-size", "4K"]),
        ("compress-int-npy-journal", 1, lambda d: [
            "compress", str(d / "ints.npy"), str(d / "o.rpz"), "--rel-bound", "1e-2",
            "--journal", str(d / "o.journal")]),
    ]

    @pytest.mark.parametrize("name,code,argv", CASES,
                             ids=[c[0] for c in CASES])
    def test_exit_code_and_clean_diagnostic(self, name, code, argv,
                                            tmp_path, capsys):
        (tmp_path / "garbage.bin").write_bytes(b"not a stream at all")
        np.ones((4, 4), dtype=np.float32).tofile(tmp_path / "tiny.f32")
        np.save(tmp_path / "ints.npy", np.arange(16, dtype=np.int32).reshape(4, 4))
        assert main(argv(tmp_path)) == code
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err + captured.out


_NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
from repro.cli import main

rng = np.random.default_rng(0)
np.save("field.npy", np.exp(rng.normal(0, 1, (32, 32, 32))).astype(np.float32))
runs = {
    "SZ_T": ["--rel-bound", "1e-3"],
    "ZFP_T": ["--compressor", "ZFP_T", "--rel-bound", "1e-3"],
    "SZ3_T": ["--compressor", "SZ3_T", "--rel-bound", "1e-3"],
    "SZ_PWR": ["--compressor", "SZ_PWR", "--rel-bound", "1e-3"],
    "FPZIP": ["--compressor", "FPZIP", "--precision", "19"],
    "chunked": ["--rel-bound", "1e-3", "--chunk-size", "32K",
                "--workers", "2", "--parity", "2"],
}
for name, flags in runs.items():
    out = name + ".rpz"
    for argv in (["compress", "field.npy", out, *flags],
                 ["decompress", out, name + ".npy"],
                 ["verify", out], ["info", out], ["explain", out]):
        assert main(argv) == 0, argv
"""


class TestNoScipy:
    """scipy serves only ISABELA and error-distribution statistics, so
    every other command runs in a process where importing it fails."""

    def test_commands_run_without_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


_LOADED_SCRIPT = """
import json, sys
from repro.cli import main

runs = [[]]
for arg in sys.argv[1:]:
    if arg == "+":
        runs.append([])
    else:
        runs[-1].append(arg)
try:
    code = max(main(argv) for argv in runs) if sys.argv[1:] else 0
except SystemExit as exc:  # --help
    code = exc.code
crc = sys.modules.get("repro.encoding.crc")
crc32c_built = crc is not None and (
    crc._POS64 is not None or bool(crc._WORD_TABLES) or bool(crc._ADVANCE)
    or crc._POLY in crc._BYTE_TABLES
)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
                  crc32c_built]))
"""
#: Machinery no plain compress, decompress or read of a stream runs.
_NOT_LOADED = ("repro.observe.profile", "repro.observe.ledger", "repro.parallel.cluster",
               "repro.resilience.jobs", "repro.experiments")
#: The chunk pipeline and the error measurement it imports, which reading an
#: unchunked stream without decoding it does not need.
_CHUNK_PIPELINE = ("repro.core.chunked", "repro.observe.audit", "repro.observe.quality",
                   "repro.observe.propagate", "repro.metrics.error")
_CODECS = ("repro.compressors.sz", "repro.compressors.zfp", "repro.compressors.fpzip",
           "repro.compressors.isabela")


def _within(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


class TestImportBoundary:
    """A command imports what it runs: a fresh process running one command
    loads none of the subsystems that command does not use."""

    @staticmethod
    def _fresh(cwd, *argv: str) -> tuple[list[str], bool]:
        """The ``repro`` modules a fresh process loaded running ``argv`` (one
        command, or several joined by ``+``), and whether it built any
        CRC-32C table."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_SCRIPT, *argv], cwd=cwd,
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        code, loaded, crc32c_built = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr[-2000:]
        return loaded, crc32c_built

    @classmethod
    def _loaded(cls, cwd, *argv: str) -> list[str]:
        return cls._fresh(cwd, *argv)[0]

    @pytest.fixture()
    def streams(self, tmp_path):
        """``field.npy`` and its unchunked SZ_T stream ``field.rpz``."""
        data = np.exp(np.random.default_rng(0).normal(0, 1, (16, 16, 16))).astype(np.float32)
        np.save(tmp_path / "field.npy", data)
        (tmp_path / "field.rpz").write_bytes(repro.compress(data, repro.RelativeBound(1e-3)))
        return tmp_path

    @pytest.mark.parametrize("argv", [(), ("compress", "--help")],
                             ids=["import", "compress-help"])
    def test_cli_loads_no_codec_until_one_runs(self, tmp_path, argv):
        # compress --help lists every registered codec by name.
        loaded = self._loaded(tmp_path, *argv)
        assert [m for m in loaded if _within(m, _CODECS)] == []

    @pytest.mark.parametrize("argv", [
        ("compress", "field.npy", "new.rpz", "--rel-bound", "1e-3"),
        ("decompress", "field.rpz", "back.npy"),
        ("verify", "field.rpz"),
        ("info", "field.rpz"),
    ], ids=lambda argv: argv[0])
    def test_command_loads_only_what_it_runs(self, streams, argv):
        loaded = self._loaded(streams, *argv)
        assert [m for m in loaded if _within(m, _NOT_LOADED)] == []

    @pytest.mark.parametrize("command", ["verify", "info"])
    def test_reading_a_stream_loads_no_chunk_pipeline(self, streams, command):
        loaded = self._loaded(streams, command, "field.rpz")
        assert "repro.core.chunk_table" in loaded
        assert [m for m in loaded if _within(m, _CHUNK_PIPELINE)] == []

    def test_v5_round_trip_builds_no_crc32c_table(self, streams):
        loaded, crc32c_built = self._fresh(
            streams, "compress", "field.npy", "new.rpz", "--rel-bound", "1e-3",
            "+", "decompress", "new.rpz", "back.npy", "+", "verify", "new.rpz",
        )
        assert (streams / "new.rpz").read_bytes()[4] == 5
        assert "repro.encoding.crc" in loaded and not crc32c_built
        # A v2 stream does build them: the check can fail.
        from tests.test_legacy_corpus import CORPUS

        assert self._fresh(streams, "verify", str(CORPUS / "sz_v2.rpz"))[1]
