"""Journaled jobs: byte-identity, kill/resume, fingerprint guard."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro.compressors.base import RelativeBound
from repro.core.chunked import ChunkedCompressor
from repro.encoding.container import ContainerError
from repro.resilience import (
    JobJournal,
    JournalError,
    build_job_compressor,
    resume_job,
    run_compress_job,
    run_decompress_job,
)
from repro.resilience.jobs import _fingerprint
from repro.testing import CrashPoint, kill_at

BOUND = RelativeBound(1e-3)


def compress_spec(**extra):
    spec = {"compressor": "SZ_T", "chunk_bytes": 1024, "executor": "serial",
            "workers": 1}
    spec.update(extra)
    return spec


class TestCompressJob:
    def test_byte_identical_to_plain_compress(self, tmp_path, field_2d, field_file):
        out = str(tmp_path / "out.rpz")
        result = run_compress_job(field_file, out, BOUND,
                                  shape=field_2d.shape, **compress_spec())
        assert result.n_chunks == 4 and result.redone == 4 and not result.resumed
        plain = ChunkedCompressor(
            "SZ_T", chunk_bytes=1024, executor="serial"
        ).compress(field_2d, BOUND)
        with open(out, "rb") as fh:
            assert fh.read() == plain
        assert not os.path.exists(out + ".journal")

    def test_journal_dir_override(self, tmp_path, field_2d, field_file):
        out = str(tmp_path / "out.rpz")
        jdir = str(tmp_path / "elsewhere.journal")
        run_compress_job(field_file, out, BOUND, journal_dir=jdir,
                         shape=field_2d.shape, **compress_spec())
        assert os.path.exists(out) and not os.path.exists(jdir)

    def test_killed_job_resumes_only_pending_chunks(self, tmp_path, field_2d,
                                                    field_file):
        out = str(tmp_path / "out.rpz")
        jdir = out + ".journal"
        # Kill after the first wave's manifest append: chunk 0 recorded.
        with pytest.raises(CrashPoint):
            with kill_at(5):
                run_compress_job(field_file, out, BOUND,
                                 shape=field_2d.shape, **compress_spec())
        assert os.path.exists(jdir) and not os.path.exists(out)
        result = resume_job(jdir)
        assert result.resumed
        assert result.redone < result.n_chunks  # journaled chunks reused
        assert "reused from journal" in result.summary()
        reference = ChunkedCompressor(
            "SZ_T", chunk_bytes=1024, executor="serial"
        ).compress(field_2d, BOUND)
        with open(out, "rb") as fh:
            assert fh.read() == reference
        assert not os.path.exists(jdir)

    def test_resume_after_commit_is_idempotent_cleanup(self, tmp_path, field_2d,
                                                       field_file):
        out = str(tmp_path / "out.rpz")
        jdir = out + ".journal"
        # Enumerate points to find the commit-recorded index dynamically,
        # then kill right after it: output complete, journal left behind.
        from repro.testing import record_crash_points

        ref_out = str(tmp_path / "ref.rpz")
        _, points = record_crash_points(
            run_compress_job, field_file, ref_out, BOUND,
            shape=field_2d.shape, **compress_spec(),
        )
        idx = points.index("journal.commit-recorded")
        with pytest.raises(CrashPoint):
            with kill_at(idx):  # commit record durable, cleanup never runs
                run_compress_job(field_file, out, BOUND,
                                 shape=field_2d.shape, **compress_spec())
        result = resume_job(jdir)
        assert result.redone == 0
        with open(out, "rb") as fh, open(ref_out, "rb") as ref:
            assert fh.read() == ref.read()
        assert not os.path.exists(jdir)

    def test_refuses_resume_against_changed_input(self, tmp_path, field_2d,
                                                  field_file):
        out = str(tmp_path / "out.rpz")
        with pytest.raises(CrashPoint):
            with kill_at(3):
                run_compress_job(field_file, out, BOUND,
                                 shape=field_2d.shape, **compress_spec())
        (field_2d + 1.0).tofile(field_file)
        with pytest.raises(JournalError, match="changed since the journal"):
            resume_job(out + ".journal")

    def test_refuses_resume_with_missing_input(self, tmp_path, field_2d,
                                               field_file):
        out = str(tmp_path / "out.rpz")
        with pytest.raises(CrashPoint):
            with kill_at(3):
                run_compress_job(field_file, out, BOUND,
                                 shape=field_2d.shape, **compress_spec())
        os.remove(field_file)
        with pytest.raises(JournalError, match="missing input"):
            resume_job(out + ".journal")

    def test_ladder_and_policy_survive_resume(self, tmp_path, field_2d,
                                              field_file, brittle):
        """The journal header rebuilds the full pipeline: a resumed job
        uses the same ladder, and the container records it."""
        from repro.encoding.container import Container

        out = str(tmp_path / "out.rpz")
        spec = compress_spec(compressor="BRITTLE", ladder=["GZIP"])
        with pytest.raises(CrashPoint):
            with kill_at(6):
                run_compress_job(field_file, out, BOUND,
                                 shape=field_2d.shape, **spec)
        resume_job(out + ".journal")
        box = Container.from_bytes(open(out, "rb").read())
        assert box.get_str("ladder") == "BRITTLE>GZIP"
        np.testing.assert_array_equal(repro.decompress(open(out, "rb").read()),
                                      field_2d)

    def test_legacy_chunk_timeout_header_resumes_with_its_watchdog(
        self, tmp_path, field_2d, field_file
    ):
        """Journals started with the retired ``--chunk-timeout`` flag hold
        the watchdog deadline as a ``chunk_timeout`` header key; resuming
        one must keep that deadline."""
        out = str(tmp_path / "out.rpz")
        jdir = out + ".journal"
        # The header such a journal carries: the job fields plus the key.
        header = {
            "kind": "compress",
            "input": os.path.abspath(field_file),
            "output": os.path.abspath(out),
            "shape": list(field_2d.shape),
            "dtype": "float32",
            "bound": {"kind": "rel", "value": 1e-3},
            "fingerprint": _fingerprint(field_file),
            **compress_spec(chunk_timeout=30.0),
        }
        JobJournal.create(jdir, header)
        header = JobJournal.open(jdir).header
        assert header["chunk_timeout"] == 30.0 and "policy" not in header
        assert build_job_compressor(header)[0].policy.chunk_timeout_s == 30.0
        assert resume_job(jdir).resumed
        reference = ChunkedCompressor(
            "SZ_T", chunk_bytes=1024, executor="serial"
        ).compress(field_2d, BOUND)
        with open(out, "rb") as fh:
            assert fh.read() == reference
        assert not os.path.exists(jdir)

    def test_policy_chunk_timeout_wins_over_legacy_header_key(self):
        header = {"policy": "retries=1;chunk-timeout=5", "chunk_timeout": 30.0}
        policy = build_job_compressor(header)[0].policy
        assert policy.chunk_timeout_s == 5.0 and policy.retries == 1

    def test_chunk_timeout_spec_key_rejected(self, tmp_path, field_2d, field_file):
        out = str(tmp_path / "out.rpz")
        with pytest.raises(TypeError, match='policy="chunk-timeout=S"'):
            run_compress_job(field_file, out, BOUND, shape=field_2d.shape,
                             **compress_spec(chunk_timeout=30.0))
        assert not os.path.exists(out + ".journal")

    @pytest.mark.parametrize("dtype,shape,exc", [
        ("int32", (0,), TypeError),
        ("float32", (0, 2, 2, 2), ValueError),
    ])
    def test_rejects_empty_input_compress_rejects(self, tmp_path, dtype, shape, exc):
        src = tmp_path / "empty.raw"
        src.write_bytes(b"")
        out = str(tmp_path / "out.rpz")
        plain = ChunkedCompressor("SZ_T", chunk_bytes=1024, executor="serial")
        with pytest.raises(exc):
            plain.compress(np.zeros(shape, dtype=dtype), BOUND)
        with pytest.raises(exc):
            run_compress_job(str(src), out, BOUND, shape=shape, dtype=dtype,
                             **compress_spec())
        assert not os.path.exists(out)

    def test_rejects_non_float_npy(self, tmp_path):
        src = str(tmp_path / "ints.npy")
        np.save(src, np.arange(64, dtype=np.int32))
        out = str(tmp_path / "out.rpz")
        with pytest.raises(ValueError, match="float32/float64"):
            run_compress_job(src, out, BOUND, **compress_spec())
        assert not os.path.exists(out)


class TestDecompressJob:
    def test_round_trip_raw_output(self, tmp_path, field_2d, field_file):
        rpz = str(tmp_path / "a.rpz")
        run_compress_job(field_file, rpz, BOUND,
                         shape=field_2d.shape, **compress_spec())
        out = str(tmp_path / "back.raw")
        result = run_decompress_job(rpz, out)
        assert result.n_chunks == 4
        recon = np.fromfile(out, dtype=np.float32).reshape(field_2d.shape)
        assert np.all(np.abs(recon - field_2d) <= BOUND.value * np.abs(field_2d))
        assert not os.path.exists(out + ".journal")

    def test_round_trip_npy_output(self, tmp_path, field_2d, field_file):
        rpz = str(tmp_path / "a.rpz")
        run_compress_job(field_file, rpz, BOUND,
                         shape=field_2d.shape, **compress_spec())
        out = str(tmp_path / "back.npy")
        run_decompress_job(rpz, out)
        recon = np.load(out)
        assert recon.shape == field_2d.shape and recon.dtype == np.float32

    def test_monolithic_stream_decompress_job(self, tmp_path, field_2d):
        rpz = str(tmp_path / "mono.rpz")
        with open(rpz, "wb") as fh:
            fh.write(repro.compress(field_2d, BOUND))
        out = str(tmp_path / "back.raw")
        result = run_decompress_job(rpz, out)
        assert result.n_chunks == 1
        recon = np.fromfile(out, dtype=np.float32).reshape(field_2d.shape)
        assert np.all(np.abs(recon - field_2d) <= BOUND.value * np.abs(field_2d))

    def test_killed_decompress_resumes(self, tmp_path, field_2d, field_file):
        rpz = str(tmp_path / "a.rpz")
        run_compress_job(field_file, rpz, BOUND,
                         shape=field_2d.shape, **compress_spec())
        out = str(tmp_path / "back.raw")
        with pytest.raises(CrashPoint):
            with kill_at(6):
                run_decompress_job(rpz, out)
        result = resume_job(out + ".journal")
        assert result.resumed
        recon = np.fromfile(out, dtype=np.float32).reshape(field_2d.shape)
        assert np.all(np.abs(recon - field_2d) <= BOUND.value * np.abs(field_2d))

    def test_chunk_table_mismatch_rejected_like_decompress(self, tmp_path,
                                                         mismatched_chunks):
        rpz = tmp_path / "bad.rpz"
        rpz.write_bytes(mismatched_chunks)
        out = str(tmp_path / "back.raw")
        with pytest.raises(ContainerError, match="chunk element mismatch"):
            repro.decompress(mismatched_chunks)
        with pytest.raises(ContainerError, match="chunk element mismatch"):
            run_decompress_job(str(rpz), out)
        assert not os.path.exists(out)


class TestResumeErrors:
    def test_unknown_kind_raises(self, tmp_path):
        from repro.resilience import JobJournal

        src = tmp_path / "input.bin"
        src.write_bytes(b"x")
        JobJournal.create(str(tmp_path / "j"),
                          {"kind": "transmogrify", "input": str(src)})
        with pytest.raises(JournalError, match="unknown job kind"):
            resume_job(str(tmp_path / "j"))
