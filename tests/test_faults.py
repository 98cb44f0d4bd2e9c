"""Fault-injection suite: checksums, recovery, retry, and the injectors.

Deterministic by construction: every random choice derives from
``REPRO_FAULT_SEED`` (default 0), which CI sweeps over a small matrix.  A
failure reproduces exactly by exporting the same seed locally.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    ChecksumError,
    RelativeBound,
    StreamError,
    compress,
    decompress,
    recover_array,
    verify_stream,
)
from repro.core.chunked import ChunkedCompressor
from repro.observe import call_report
from repro.parallel.runner import atomic_write_bytes, dump_file_per_process
from repro.testing import (
    CrashingExecutor,
    FlakyFilesystem,
    StallingExecutor,
    corrupt_chunk,
    corrupt_section,
    drop_section,
    flip_bit,
    flip_random_bits,
    truncate,
)

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
BOUND = RelativeBound(1e-2)


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(SEED)
    return rng.lognormal(0.0, 1.0, size=4000).astype(np.float32)


@pytest.fixture(scope="module")
def chunked_blob(field):
    cc = ChunkedCompressor(chunk_bytes=4000, executor="serial")
    blob = cc.compress(field, BOUND)
    assert cc.last_chunk_count >= 3
    return blob


class TestBitFlipDetection:
    def test_every_single_bit_flip_is_caught(self, field):
        """Acceptance: no single-bit flip in a v2 stream decodes silently.

        Bits inside the 5-byte magic/version header fail structurally
        (ContainerError); every bit from byte 5 onward is covered by the
        stream CRC and must surface as ChecksumError.
        """
        blob = compress(field[:200], BOUND)
        baseline = decompress(blob)
        for bit in range(8 * len(blob)):
            damaged = flip_bit(blob, bit)
            if bit < 8 * 5:
                with pytest.raises(StreamError):
                    decompress(damaged)
            else:
                with pytest.raises(ChecksumError):
                    decompress(damaged)
            # The one reader never raises: every flip is a reported problem.
            assert verify_stream(damaged).problems, bit
        np.testing.assert_array_equal(decompress(blob), baseline)

    def test_multi_bit_flips_caught(self, chunked_blob):
        damaged = flip_random_bits(chunked_blob, n=8, seed=SEED, start=5)
        with pytest.raises(ChecksumError):
            decompress(damaged)
        assert not verify_stream(damaged).ok

    def test_flip_bit_is_an_involution(self, chunked_blob):
        bit = (SEED * 2654435761 + 7) % (8 * len(chunked_blob))
        assert flip_bit(flip_bit(chunked_blob, bit), bit) == chunked_blob


def _containers(model):
    """``model`` and every container nested in it: ``inner``, chunks, fields."""
    yield model
    for sec in model.sections:
        if sec.child is not None:
            yield from _containers(sec.child)
    for chunk in model.chunks:
        yield from _containers(chunk)


class TestHeaderFlips:
    """Every bit of every container's first 16 bytes -- magic, version,
    codec name, section count, first section framing -- flipped in turn:
    the reader reports each flip as a problem and never raises, and
    repair rebuilds a flip inside a parity-covered chunk byte-exactly."""

    @pytest.fixture(scope="class")
    def streams(self, field):
        from repro.archive import compress_dataset
        from repro.safeguards import SafeguardedCompressor

        small = field[:300]
        safe = SafeguardedCompressor("SZ_T", ["rel:0.01", "sign"]).compress(small, BOUND)
        archive = compress_dataset({"a": small, "b": field[300:500]}, BOUND)
        v3 = ChunkedCompressor(
            chunk_bytes=600, parity=1, group_size=2, executor="serial"
        ).compress(small, BOUND)
        return {"SAFE": safe, "ARCHIVE": archive, "CHUNKED": v3}

    @pytest.mark.parametrize("kind", ["SAFE", "ARCHIVE", "CHUNKED"])
    def test_every_header_bit(self, streams, kind):
        from repro.inspection import inspect_stream
        from repro.integrity import repair_stream

        blob = streams[kind]
        containers = list(_containers(inspect_stream(blob)))
        assert len(containers) >= 3
        for sub in containers:
            for bit in range(8 * min(16, sub.nbytes)):
                damaged = flip_bit(blob, 8 * sub.start + bit)
                assert verify_stream(damaged).problems, (sub.name, bit)
                if kind != "CHUNKED" or sub is containers[0]:
                    continue
                # Inside chunk[i]: one damaged chunk per parity group.
                fixed, report = repair_stream(damaged)
                assert report.ok and fixed == blob, (sub.name, bit)


class TestChunkRecovery:
    @pytest.mark.parametrize("lost", [0, 1, 2])
    def test_one_corrupt_chunk_recovers_the_rest(self, field, chunked_blob, lost):
        """Acceptance: damage to chunk N loses only chunk N's span."""
        damaged = corrupt_chunk(chunked_blob, lost, n_bits=3, seed=SEED)
        with pytest.raises(ChecksumError):
            decompress(damaged)
        cc = ChunkedCompressor(executor="serial")
        arr, report = cc.decompress_partial(damaged)
        assert report.n_lost_chunks == 1
        assert report.failures[0].index == lost
        start, stop = report.failures[0].span
        assert report.lost_elements == stop - start
        assert np.isnan(arr[start:stop]).all()
        intact = np.ones(arr.size, dtype=bool)
        intact[start:stop] = False
        clean = decompress(chunked_blob)
        np.testing.assert_array_equal(arr[intact], clean[intact])

    def test_recover_array_on_clean_stream(self, chunked_blob):
        arr, report = recover_array(chunked_blob)
        assert report is None
        np.testing.assert_array_equal(arr, decompress(chunked_blob))

    def test_recover_array_custom_fill(self, chunked_blob):
        damaged = corrupt_chunk(chunked_blob, 1, seed=SEED)
        arr, report = recover_array(damaged, fill=-1.0)
        start, stop = report.failures[0].span
        assert (arr.ravel()[start:stop] == -1.0).all()

    def test_corrupt_metadata_is_not_recoverable(self, chunked_blob):
        # Damage to the chunk table itself must refuse, not fabricate data.
        damaged = corrupt_section(chunked_blob, "lens", n_bits=1, seed=SEED)
        cc = ChunkedCompressor(executor="serial")
        with pytest.raises(StreamError):
            cc.decompress_partial(damaged)

    def test_report_summary_mentions_loss(self, chunked_blob):
        _, report = recover_array(corrupt_chunk(chunked_blob, 0, seed=SEED))
        assert "lost 1/" in report.summary()
        assert not report.complete
        assert report.recovered_elements + report.lost_elements == report.total_elements


class TestPrefixTruncation:
    def test_every_prefix_fails_or_recovers(self, field):
        """Property: any prefix of a CHUNKED stream either raises a
        StreamError or partially recovers -- never crashes, hangs, or
        returns undamaged-looking data from damaged bytes."""
        cc = ChunkedCompressor(chunk_bytes=1200, executor="serial")
        blob = cc.compress(field[:1200], BOUND)
        clean = decompress(blob)
        for keep in range(len(blob)):
            cut = truncate(blob, keep)
            with pytest.raises(StreamError):
                decompress(cut)
            arr, report = recover_array(cut)
            if arr is None:
                assert report.failures[0].span is None
                continue
            assert arr.shape == clean.shape
            # every element is either recovered exactly or filled with NaN
            good = ~np.isnan(arr)
            np.testing.assert_array_equal(arr[good], clean[good])
            assert report is not None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sampled_prefixes_across_dtypes_and_executors(self, dtype, executor):
        rng = np.random.default_rng(SEED + 17)
        data = rng.lognormal(size=900).astype(dtype)
        cc = ChunkedCompressor(chunk_bytes=1500, workers=2, executor=executor)
        blob = cc.compress(data, BOUND)
        for keep in rng.integers(0, len(blob), size=40):
            cut = truncate(blob, int(keep))
            with pytest.raises(StreamError):
                decompress(cut)
            arr, _ = recover_array(cut)
            if arr is not None:
                assert arr.dtype == dtype


class TestSectionFaults:
    @pytest.mark.parametrize(
        "key", ["dtype", "shape", "n_chunks", "offs", "lens", "elems", "payload"]
    )
    def test_dropped_section_raises_stream_error(self, chunked_blob, key):
        with pytest.raises(StreamError):
            decompress(drop_section(chunked_blob, key))

    def test_drop_unknown_section_rejected(self, chunked_blob):
        with pytest.raises(StreamError):
            drop_section(chunked_blob, "no_such_section")

    def test_corrupt_section_localized_by_verify(self, chunked_blob):
        report = verify_stream(corrupt_section(chunked_blob, "elems", seed=SEED))
        assert any("'elems'" in p for p in report.problems)


class TestWorkerCrashRetry:
    def test_compression_survives_worker_crash(self, field):
        """Acceptance: a crashed chunk worker degrades to serial retry and
        the bytes are identical to an undisturbed run."""
        reference = ChunkedCompressor(chunk_bytes=4000, executor="serial")
        want = reference.compress(field, BOUND)

        crash_on = 1 + SEED % reference.last_chunk_count
        cc = ChunkedCompressor(
            chunk_bytes=4000,
            workers=2,
            executor=lambda n: CrashingExecutor(
                ThreadPoolExecutor(max_workers=n), crash_on=crash_on
            ),
        )
        with call_report() as rec:
            assert cc.compress(field, BOUND) == want
        assert rec.resilience.retried == 1

    def test_decompression_survives_worker_crash(self, field, chunked_blob):
        cc = ChunkedCompressor(
            workers=2,
            executor=lambda n: CrashingExecutor(
                ThreadPoolExecutor(max_workers=n), crash_on=(1, 2)
            ),
        )
        with call_report() as rec:
            np.testing.assert_allclose(
                cc.decompress(chunked_blob), field, rtol=1.01e-2
            )
        assert rec.resilience.retried == 2

    def test_corrupt_chunk_still_raises_under_crashy_pool(self, chunked_blob):
        # Deterministic damage must not be mistaken for a transient fault.
        damaged = corrupt_chunk(chunked_blob, 0, seed=SEED)
        cc = ChunkedCompressor(
            workers=2,
            executor=lambda n: CrashingExecutor(
                ThreadPoolExecutor(max_workers=n), crash_on=2
            ),
        )
        with pytest.raises(ChecksumError):
            cc.decompress(damaged)


class TestFlakyFilesystem:
    def test_atomic_write_retries_through_transient_failures(self, tmp_path, chunked_blob):
        path = str(tmp_path / "x.rpz")
        with FlakyFilesystem(failures=2) as fs:
            atomic_write_bytes(path, chunked_blob, policy="retries=3;backoff=0",
                               _sleep=lambda s: None)
        assert fs.calls == 3
        with open(path, "rb") as fh:
            assert fh.read() == chunked_blob

    def test_exhausted_retries_propagate(self, tmp_path, chunked_blob):
        with FlakyFilesystem(failures=10):
            with pytest.raises(OSError, match="injected"):
                atomic_write_bytes(str(tmp_path / "y.rpz"), chunked_blob,
                                   policy="retries=2;backoff=0", _sleep=lambda s: None)

    def test_no_partial_file_left_behind(self, tmp_path, chunked_blob):
        target = tmp_path / "z.rpz"
        with FlakyFilesystem(failures=10):
            with pytest.raises(OSError):
                atomic_write_bytes(str(target), chunked_blob,
                                   policy="retries=1;backoff=0", _sleep=lambda s: None)
        assert not target.exists()

    def test_dump_survives_flaky_writes(self, tmp_path, field):
        from repro import get_compressor

        shards = [field[:2000], field[2000:]]
        with FlakyFilesystem(failures=1):
            dump_file_per_process(shards, get_compressor("SZ_T"), BOUND,
                                  str(tmp_path), policy="backoff=0")
        for rank in range(2):
            assert (tmp_path / f"rank_{rank}.rpz").exists()


class TestNonFiniteInput:
    def test_nan_and_inf_counted_up_front(self, field):
        data = field.copy()
        data[10] = np.nan
        data[20] = np.nan
        data[30] = np.inf
        with pytest.raises(ValueError, match=r"2 NaN and 1 Inf .*of 4000"):
            compress(data, BOUND)

    def test_chunked_rejects_non_finite_before_splitting(self, field):
        data = field.copy()
        data[-1] = -np.inf
        cc = ChunkedCompressor(chunk_bytes=4000, executor="serial")
        with pytest.raises(ValueError, match="non-finite"):
            cc.compress(data, BOUND)


class TestVerifyStream:
    def test_clean_chunked_stream_verifies(self, chunked_blob):
        report = verify_stream(chunked_blob)
        assert report.ok
        assert report.codec == "CHUNKED"
        assert report.checksummed
        assert report.n_chunks >= 3
        assert "OK" in report.summary()

    def test_v1_stream_verifies_with_note(self, field):
        from repro.encoding.container import Container

        blob = compress(field[:100], BOUND)
        box = Container.from_bytes(blob)
        v1 = box.to_bytes(checksums=False)
        report = verify_stream(v1)
        assert report.ok and not report.checksummed
        assert any("no checksums" in n for n in report.notes)

    def test_archive_fields_verified_recursively(self, field):
        from repro.archive import compress_dataset

        blob = compress_dataset({"a": field[:500], "b": field[500:900]}, BOUND)
        assert verify_stream(blob).ok
        damaged = corrupt_section(blob, "field:b", n_bits=1, seed=SEED)
        report = verify_stream(damaged)
        assert not report.ok
        assert any("field 'b'" in p for p in report.problems)

    def test_garbage_is_a_structure_problem(self):
        report = verify_stream(b"not a stream at all")
        assert not report.ok
        assert report.problems[0].startswith("structure:")

class TestStallingExecutor:
    def test_stalled_future_is_pending_and_cancellable(self):
        ex = StallingExecutor(ThreadPoolExecutor(1), stall_on=1)
        fut = ex.submit(lambda: 42)
        assert not fut.done()
        assert fut.cancel()
        assert ex.submit(lambda: 42).result(timeout=5) == 42
        ex.shutdown()

    def test_stall_on_tuple_counts_submissions(self):
        ex = StallingExecutor(ThreadPoolExecutor(2), stall_on=(2, 3))
        futs = [ex.submit(lambda i=i: i) for i in range(4)]
        assert futs[0].result(timeout=5) == 0
        assert futs[3].result(timeout=5) == 3
        assert not futs[1].done() and not futs[2].done()
        for f in futs[1:3]:
            f.cancel()
        ex.shutdown()

    def test_delay_mode_eventually_completes(self):
        ex = StallingExecutor(ThreadPoolExecutor(1), stall_on=1, delay_s=0.05)
        assert ex.submit(lambda: "late").result(timeout=5) == "late"
        ex.shutdown()


class TestFillModes:
    def test_fill_zero(self, chunked_blob):
        damaged = corrupt_chunk(chunked_blob, 1, seed=SEED)
        cc = ChunkedCompressor(executor="serial")
        arr, report = cc.decompress_partial(damaged, fill="zero")
        start, stop = report.failures[0].span
        assert (arr.ravel()[start:stop] == 0.0).all()
        assert not np.isnan(arr).any()
        assert report.fill_mode == "zero"
        assert report.lost_elements == stop - start

    def test_fill_nearest_copies_survivors(self, field, chunked_blob):
        damaged = corrupt_chunk(chunked_blob, 1, seed=SEED)
        cc = ChunkedCompressor(executor="serial")
        arr, report = cc.decompress_partial(damaged, fill="nearest")
        start, stop = report.failures[0].span
        assert not np.isnan(arr).any()
        # Each filled element equals its nearest surviving neighbour.
        assert arr.ravel()[start] == arr.ravel()[start - 1]
        assert report.fill_mode == "nearest"

    def test_fill_float_via_recover_array(self, chunked_blob):
        damaged = corrupt_chunk(chunked_blob, 0, seed=SEED)
        arr, report = recover_array(damaged, fill=7.5)
        start, stop = report.failures[0].span
        assert (arr.ravel()[start:stop] == 7.5).all()
        assert report.fill_mode == "7.5"

    def test_bad_fill_mode_rejected(self, chunked_blob):
        cc = ChunkedCompressor(executor="serial")
        with pytest.raises(ValueError, match="fill"):
            cc.decompress_partial(chunked_blob, fill="interpolate")

    def test_nearest_on_whole_stream_loss_keeps_nan(self, field):
        blob = compress(field[:200], BOUND)
        arr, report = recover_array(truncate(blob, len(blob) - 2), fill="nearest")
        assert arr is not None and np.isnan(arr).all()
        assert report is not None and not report.complete


class TestDropSectionVersions:
    def test_drop_section_preserves_v3(self, field):
        from repro.encoding.container import Container

        cc = ChunkedCompressor(chunk_bytes=4000, parity=1, executor="serial")
        blob = cc.compress(field, BOUND)
        assert Container.from_bytes(blob).version == 3
        out = drop_section(blob, "parity_lens")
        box = Container.from_bytes(out, partial=True)
        assert box.version == 3
        assert "parity_lens" not in box


class TestFailingFilesystem:
    def test_budget_counts_down(self, tmp_path):
        from repro.testing import FailingFilesystem

        path = str(tmp_path / "x.bin")
        with FailingFilesystem(failures=2) as fs:
            with pytest.raises(OSError) as exc:
                with open(path, "wb") as fh:
                    fh.write(b"a")
            assert exc.value.errno == 28  # ENOSPC
            with pytest.raises(OSError):
                with open(path, "wb") as fh:
                    fh.write(b"b")
            with open(path, "wb") as fh:  # budget spent: writes succeed
                fh.write(b"c")
        assert fs.write_calls == 3
        assert open(path, "rb").read() == b"c"

    def test_eio_code(self, tmp_path):
        import errno

        from repro.testing import FailingFilesystem

        with FailingFilesystem(failures=1, code=errno.EIO):
            with pytest.raises(OSError) as exc:
                with open(str(tmp_path / "x"), "wb") as fh:
                    fh.write(b"a")
        assert exc.value.errno == errno.EIO

    def test_match_filters_paths(self, tmp_path):
        from repro.testing import FailingFilesystem

        safe, doomed = str(tmp_path / "safe.bin"), str(tmp_path / "doomed.bin")
        with FailingFilesystem(failures=9, match="doomed"):
            with open(safe, "wb") as fh:
                fh.write(b"fine")
            with pytest.raises(OSError):
                with open(doomed, "wb") as fh:
                    fh.write(b"nope")
        assert open(safe, "rb").read() == b"fine"

    def test_reads_never_fail(self, tmp_path):
        from repro.testing import FailingFilesystem

        path = str(tmp_path / "x.bin")
        with open(path, "wb") as fh:
            fh.write(b"payload")
        with FailingFilesystem(failures=9):
            with open(path, "rb") as fh:
                assert fh.read() == b"payload"

    def test_atomic_write_retries_through_transient_enospc(self, tmp_path):
        from repro.testing import FailingFilesystem

        dest = str(tmp_path / "x.bin")
        with FailingFilesystem(failures=1, match="x.bin"):
            atomic_write_bytes(dest, b"payload", policy="backoff=0.001")
        assert open(dest, "rb").read() == b"payload"

    def test_atomic_write_propagates_persistent_enospc(self, tmp_path):
        from repro.testing import FailingFilesystem

        dest = str(tmp_path / "x.bin")
        with FailingFilesystem(failures=99, match="x.bin"):
            with pytest.raises(OSError) as exc:
                atomic_write_bytes(dest, b"payload", policy="backoff=0.001")
        assert exc.value.errno == 28
        assert not os.path.exists(dest)
