"""Self-healing streams: Reed-Solomon repair matrix, watchdog, deadlines.

The repair tests are the PR's acceptance proof: a v3 stream with ``k``
parity blocks per group survives any ``k`` corrupted or truncated chunks
per group with *byte-exact* ``repair_stream`` output (asserted against
the pristine stream, whose CRC trailer makes the comparison meaningful),
and degrades cleanly -- per-chunk outcomes, fill-based recovery -- when
losses exceed the parity.  Deterministic: every random choice derives
from ``REPRO_FAULT_SEED`` like the rest of the fault suite.
"""

import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    AbsoluteBound,
    PrecisionBound,
    RateBound,
    RelativeBound,
    StreamError,
    available_compressors,
    decompress,
    get_compressor,
    recover_array,
    verify_stream,
)
from repro.core.chunked import ChunkedCompressor, ChunkTimeoutError
from repro.integrity import RepairReport, repair_stream
from repro.observe import call_report
from repro.observe.metrics import metrics
from repro.parallel.runner import dump_file_per_process, load_file_per_process
from repro.resilience import JobDeadlineError
from repro.testing import StallingExecutor, corrupt_chunk, corrupt_section, truncate

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
BOUND = RelativeBound(1e-2)


def _bound_for(comp):
    sb = comp.supported_bounds
    if RelativeBound in sb:
        return RelativeBound(1e-2)
    if AbsoluteBound in sb:
        return AbsoluteBound(1e-3)
    if PrecisionBound in sb:
        return PrecisionBound(16)
    return RateBound(16)


def _rehashed(blob: bytes) -> bytes:
    """``blob`` written again with every CRC hashed from its current bytes,
    the way earlier releases wrote a repair that lost chunks."""
    from repro import Container

    box = Container.from_bytes(blob, verify_checksums=False)
    out = Container(box.codec)
    for key in box.keys():
        out.put(key, box.get(key))
    return out.to_bytes(version=box.version)


def _silent_flip(chunk: bytes, key: str) -> int:
    """First bit of section ``key`` whose flip still decodes, to other values.

    The chunk is decoded the way a checked CHUNKED stream decodes its
    chunks (no CRC of its own), so the damage is invisible to the decoder.
    """
    from repro.encoding.container import peek_codec, section_byte_ranges
    from repro.testing import flip_bit

    codec = get_compressor(peek_codec(chunk))
    want = codec.decompress(chunk).view(np.uint32)
    start, stop = section_byte_ranges(chunk)[key]
    for bit in range(8 * start, 8 * stop):
        try:
            got = codec.decompress_trusted(flip_bit(chunk, bit))
        except StreamError:
            continue
        if got.shape != want.shape or (got.view(np.uint32) != want).any():
            return bit
    raise AssertionError(f"no flip in {key!r} decodes silently")


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(SEED)
    return rng.lognormal(0.0, 1.0, size=8000).astype(np.float32)


@pytest.fixture(scope="module")
def parity_blob(field):
    """k=2 parity per 8-chunk group -- the acceptance-criteria geometry."""
    cc = ChunkedCompressor(chunk_bytes=4000, parity=2, group_size=8, executor="serial")
    blob = cc.compress(field, BOUND)
    assert cc.last_chunk_count == 8
    return blob


class TestSingleLossEveryCodec:
    """Corrupt every chunk position in turn, for every registered codec."""

    @pytest.mark.parametrize(
        "name", [n for n in available_compressors() if n != "CHUNKED"]
    )
    def test_single_loss_repairs_byte_exact(self, name, field):
        if name == "SAFE":
            # The registry entry is decode-only; exercise a wrapped codec.
            from repro.safeguards import SafeguardedCompressor

            inner = SafeguardedCompressor("SZ_T", ["rel:1e-2"])
        else:
            inner = get_compressor(name)
        bound = _bound_for(inner)
        data = field[:3000]
        cc = ChunkedCompressor(
            inner, chunk_bytes=3000, parity=1, group_size=4, executor="serial"
        )
        blob = cc.compress(data, bound)
        n = cc.last_chunk_count
        assert n >= 3
        for index in range(n):
            damaged = corrupt_chunk(blob, index, n_bits=4, seed=SEED)
            assert not verify_stream(damaged).ok
            fixed, report = repair_stream(damaged)
            assert report.ok and report.repaired == (index,)
            assert fixed == blob
            assert verify_stream(fixed).ok


class TestDoubleLossMatrix:
    """k=2 / m=8: any two lost chunks per group come back byte-exactly."""

    def test_every_corrupt_pair(self, field, parity_blob):
        for i, j in itertools.combinations(range(8), 2):
            damaged = corrupt_chunk(parity_blob, i, n_bits=3, seed=SEED)
            damaged = corrupt_chunk(damaged, j, n_bits=3, seed=SEED + 1)
            fixed, report = repair_stream(damaged)
            assert report.ok and set(report.repaired) == {i, j}
            assert fixed == parity_blob
            assert verify_stream(fixed).ok
            np.testing.assert_array_equal(
                decompress(fixed), decompress(parity_blob)
            )

    def test_tail_truncation_within_parity(self, parity_blob):
        """Parity precedes the payload, so a tail cut erases only chunks."""
        from repro import Container

        box = Container.from_bytes(parity_blob)
        lens = box.get_array("lens").astype(int)
        # Cut into the last chunk (one loss), then into the last two.
        for n_lost in (1, 2):
            keep = len(parity_blob) - int(lens[-n_lost:].sum()) - 4
            fixed, report = repair_stream(truncate(parity_blob, keep))
            assert report.ok and len(report.repaired) == n_lost
            assert fixed == parity_blob

    def test_losses_beyond_parity_degrade_cleanly(self, field, parity_blob):
        damaged = parity_blob
        for index, seed in ((1, SEED), (3, SEED + 1), (5, SEED + 2)):
            damaged = corrupt_chunk(damaged, index, n_bits=3, seed=seed)
        fixed, report = repair_stream(damaged)
        assert not report.ok
        assert report.n_damaged == 3 and report.n_repaired == 0
        assert set(report.lost) == {1, 3, 5}
        # Partial recovery still salvages the intact chunks of the output.
        arr, rec = recover_array(fixed)
        assert rec is not None and rec.n_lost_chunks == 3
        lost = np.isnan(arr)
        assert 0 < lost.sum() < arr.size
        np.testing.assert_allclose(
            arr[~lost], field[~lost], rtol=2e-2, atol=0
        )

    @pytest.mark.parametrize("rehash", [False, True], ids=["repaired", "rehashed"])
    @pytest.mark.parametrize(
        "name, key", [("SZ_T", "inner"), ("SZ_T", "all_nonneg"), ("ZFP_T", "inner")]
    )
    def test_lost_chunk_damage_the_decoder_cannot_see(self, name, key, rehash):
        """A lost chunk whose damage still decodes stays detectable.

        Some bit flips -- in the nested codec's payload, in a header flag --
        leave a chunk that decodes without a structural error, so only a
        CRC reveals them.  With two such chunks in one k=1 group the
        repair loses both; its output must still fail strict decoding, and
        recovery must fill the two chunks instead of returning their
        silently wrong values.  ``rehash``: the output as earlier releases
        wrote it, every CRC a fresh hash of the damaged bytes, so the
        stream CRC passes and only the chunks' own CRCs tell.
        """
        from repro import ChecksumError, Container
        from repro.testing import flip_bit

        rng = np.random.default_rng(SEED)
        data = rng.lognormal(0.0, 1.0, size=8000).astype(np.float32)
        data *= rng.choice(np.float32([-1, 1]), size=data.size)
        cc = ChunkedCompressor(
            get_compressor(name), chunk_bytes=4000, parity=1, group_size=8,
            executor="serial",
        )
        blob = cc.compress(data, BOUND)
        box = Container.from_bytes(blob)
        payload_at = box.spans["payload"][1]
        offs = box.get_array("offs").astype(int)
        lens = box.get_array("lens").astype(int)
        damaged = blob
        for index in (2, 5):
            chunk = box.get("payload")[offs[index] : offs[index] + lens[index]]
            bit = _silent_flip(chunk, key)
            damaged = flip_bit(damaged, 8 * (payload_at + offs[index]) + bit)
        fixed, report = repair_stream(damaged)
        assert not report.ok and set(report.lost) == {2, 5}
        if rehash:
            fixed = _rehashed(fixed)
        else:
            # The repair's own output fails even the stream CRC check.
            with pytest.raises(ChecksumError):
                Container.from_bytes(fixed)
        assert not verify_stream(fixed).ok
        with pytest.raises(ChecksumError):
            decompress(fixed)
        arr, rec = recover_array(fixed)
        assert rec is not None
        assert {f.index for f in rec.failures} == {2, 5}
        flat, want = arr.ravel(), decompress(blob).ravel()
        for f in rec.failures:
            assert np.isnan(flat[slice(*f.span)]).all()
        keep = ~np.isnan(flat)
        np.testing.assert_array_equal(flat[keep], want[keep])

    def test_corrupt_parity_section_heals_on_repair(self, parity_blob):
        """Damage to the parity bytes themselves re-encodes byte-exactly."""
        damaged = corrupt_section(parity_blob, "parity", n_bits=4, seed=SEED)
        fixed, report = repair_stream(damaged)
        assert report.ok and report.n_damaged == 0
        assert fixed == parity_blob

    def test_corrupt_chunk_plus_corrupt_parity_block(self, parity_blob):
        """A bad parity block costs attempts, not correctness (k=2, 1 loss)."""
        damaged = corrupt_chunk(parity_blob, 2, n_bits=3, seed=SEED)
        # One flipped bit damages exactly one of the two parity blocks.
        damaged = corrupt_section(damaged, "parity", n_bits=1, seed=SEED + 3)
        fixed, report = repair_stream(damaged)
        assert report.ok and report.repaired == (2,)
        assert fixed == parity_blob

    def test_repair_report_round_trips_json(self, parity_blob):
        damaged = corrupt_chunk(parity_blob, 0, seed=SEED)
        _, report = repair_stream(damaged)
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["ok"] and decoded["n_repaired"] == 1
        assert decoded["chunks"][0]["outcome"] == "repaired"
        assert isinstance(report, RepairReport)
        assert "rebuilt 1/1" in report.summary()

    def test_repair_requires_parity(self, field):
        plain = ChunkedCompressor(chunk_bytes=4000, executor="serial").compress(
            field, BOUND
        )
        with pytest.raises(StreamError):
            repair_stream(plain)


class TestDecompressPartialRepairs:
    def test_recover_array_uses_parity(self, field, parity_blob):
        damaged = corrupt_chunk(parity_blob, 4, n_bits=2, seed=SEED)
        arr, report = recover_array(damaged)
        assert report is not None
        assert report.complete and report.repaired_chunks == (4,)
        np.testing.assert_array_equal(arr, decompress(parity_blob))

    def test_recover_array_rebuilds_chunk_with_empty_codec_name(self, parity_blob):
        from repro.inspection import inspect_stream

        damaged = bytearray(parity_blob)
        damaged[inspect_stream(parity_blob).chunks[3].start + 5] = 0  # name length
        arr, report = recover_array(bytes(damaged))
        assert report is not None
        assert report.complete and report.repaired_chunks == (3,)
        np.testing.assert_array_equal(arr, decompress(parity_blob))
        assert repair_stream(bytes(damaged))[0] == parity_blob

    def test_v2_and_v1_streams_still_parse(self, field):
        from repro import Container

        from tests.test_legacy_corpus import reframe

        v5 = ChunkedCompressor(chunk_bytes=4000, executor="serial").compress(
            field, BOUND
        )
        want = decompress(v5)
        v2 = reframe(v5, 2)
        v1 = Container.from_bytes(v5).to_bytes(version=1)  # v5 chunks inside
        for legacy, version in ((v2, 2), (v1, 1)):
            assert Container.from_bytes(legacy).version == version
            np.testing.assert_array_equal(decompress(legacy), want)


class TestWatchdog:
    def test_hung_worker_retried_within_budget(self, field):
        timeout = 1.0
        cc = ChunkedCompressor(
            chunk_bytes=4000, policy=f"chunk-timeout={timeout};retries=2",
            executor=lambda n: StallingExecutor(ThreadPoolExecutor(n), stall_on=2),
        )
        reference = ChunkedCompressor(chunk_bytes=4000, executor="serial").compress(
            field, BOUND
        )
        t0 = time.perf_counter()
        with call_report() as rec:
            blob = cc.compress(field, BOUND)
        wall = time.perf_counter() - t0
        assert rec.resilience.timed_out == 1
        # Acceptance: killed and retried within 2x the timeout.
        assert wall < 2 * timeout
        assert blob == reference

    def test_exhausted_retries_raise_chunk_timeout(self, field):
        cc = ChunkedCompressor(
            chunk_bytes=4000, policy="chunk-timeout=0.2;retries=1;backoff=0.01",
            executor=lambda n: StallingExecutor(ThreadPoolExecutor(n), stall_on=1),
        )
        cc._fresh_worker = lambda: StallingExecutor(
            ThreadPoolExecutor(1), stall_on=1
        )
        with pytest.raises(ChunkTimeoutError, match="deadline"):
            cc.compress(field, BOUND)
        assert not isinstance(ChunkTimeoutError("x"), StreamError)

    def test_delayed_straggler_completes(self, field):
        cc = ChunkedCompressor(
            chunk_bytes=4000, policy="chunk-timeout=10",
            executor=lambda n: StallingExecutor(
                ThreadPoolExecutor(n), stall_on=1, delay_s=0.05
            ),
        )
        with call_report() as rec:
            blob = cc.compress(field, BOUND)
        assert rec.resilience.timed_out == 0
        np.testing.assert_array_equal(decompress(blob), decompress(blob))

    def test_serial_mode_with_timeout_enforces_deadline(self, field):
        cc = ChunkedCompressor(chunk_bytes=field.nbytes, executor="serial",
                               policy="chunk-timeout=30")
        blob = cc.compress(field, BOUND)
        assert decompress(blob).shape == field.shape

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ChunkedCompressor(policy="chunk-timeout=0")
        with pytest.raises(ValueError):
            ChunkedCompressor(policy="retries=-1")
        with pytest.raises(ValueError):
            ChunkedCompressor(parity=2, group_size=254)


class TestRankDeadlines:
    def test_dump_deadline_fires(self, field, tmp_path):
        before = metrics().counter("rank.deadline_exceeded").value
        with pytest.raises(JobDeadlineError, match="deadline"):
            dump_file_per_process(
                [field, field], get_compressor("SZ_T"), BOUND,
                str(tmp_path), policy="job-timeout=1e-9",
            )
        assert metrics().counter("rank.deadline_exceeded").value > before

    def test_chunked_rank_deadline_counted_per_rank(self, field, tmp_path):
        """Chunked ranks share one ChunkedCompressor; the job-timeout is
        still enforced per rank, with the rank-deadline event and counter."""
        before = metrics().counter("rank.deadline_exceeded").value
        with pytest.raises(JobDeadlineError, match=r"rank \d exceeded"):
            dump_file_per_process(
                [field, field], get_compressor("SZ_T"), BOUND, str(tmp_path),
                chunk_bytes=2000, policy="job-timeout=1e-9",
            )
        assert metrics().counter("rank.deadline_exceeded").value > before

    def test_dump_load_with_parity_and_deadline(self, field, tmp_path):
        summary = dump_file_per_process(
            [field, field[:4000]], get_compressor("SZ_T"), BOUND, str(tmp_path),
            chunk_bytes=2000, parity=1, group_size=4,
            policy="chunk-timeout=60;job-timeout=120",
        )
        assert summary.total_bytes_out > 0
        # Damage one rank file; the parity repairs it at load time.
        path = os.path.join(str(tmp_path), "rank_0.rpz")
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(corrupt_chunk(blob, 1, seed=SEED))
        shards, _, reports = load_file_per_process(
            str(tmp_path), 2, tolerate_corruption=True, policy="job-timeout=120"
        )
        assert reports[0] is not None and reports[0].complete
        assert reports[0].repaired_chunks == (1,)
        np.testing.assert_array_equal(shards[0], decompress(blob))

    def test_parity_without_chunking_rejected(self, field, tmp_path):
        with pytest.raises(ValueError, match="chunk_bytes"):
            dump_file_per_process(
                [field], get_compressor("SZ_T"), BOUND, str(tmp_path), parity=1
            )


class TestParityOverheadGate:
    def test_parity_encode_under_15_percent(self):
        """Benchmark gate: parity encode < 15% of compression wall time."""
        rng = np.random.default_rng(SEED)
        data = rng.lognormal(0.0, 1.0, size=1_000_000).astype(np.float32)
        cc = ChunkedCompressor(parity=2, executor="serial")  # default geometry
        before = metrics().snapshot()
        t0 = time.perf_counter()
        cc.compress(data, BOUND)
        wall = time.perf_counter() - t0
        delta = metrics().diff(before)
        parity_s = delta.get("parity.encode_s", {}).get("value", 0.0)
        assert parity_s > 0.0
        assert parity_s < 0.15 * wall, (
            f"parity encode took {parity_s:.4f}s of {wall:.4f}s "
            f"({100 * parity_s / wall:.1f}%)"
        )


class TestRepairCli:
    def test_repair_subcommand_round_trip(self, field, parity_blob, tmp_path):
        from repro.cli import main

        src = tmp_path / "damaged.rpz"
        dst = tmp_path / "repaired.rpz"
        rpt = tmp_path / "report.json"
        src.write_bytes(corrupt_chunk(parity_blob, 6, seed=SEED))
        assert main(["repair", str(src), str(dst), "--json", str(rpt)]) == 0
        assert dst.read_bytes() == parity_blob
        report = json.loads(rpt.read_text())
        assert report["ok"] and report["n_repaired"] == 1

    def test_repair_exit_2_when_losses_remain(self, parity_blob, tmp_path):
        from repro.cli import main

        damaged = parity_blob
        for index, seed in ((0, SEED), (1, SEED + 1), (2, SEED + 2)):
            damaged = corrupt_chunk(damaged, index, seed=seed)
        src = tmp_path / "d.rpz"
        dst = tmp_path / "r.rpz"
        src.write_bytes(damaged)
        assert main(["repair", str(src), str(dst)]) == 2

    def test_compress_parity_flag_writes_parity(self, field, tmp_path):
        from repro import Container
        from repro.cli import main

        raw = tmp_path / "field.npy"
        out = tmp_path / "field.rpz"
        np.save(raw, field)
        rc = main([
            "compress", str(raw), str(out), "--rel-bound", "1e-2",
            "--chunk-size", "4K", "--parity", "2", "--policy", "chunk-timeout=120",
        ])
        assert rc == 0
        box = Container.from_bytes(out.read_bytes())
        assert box.version == 5 and box.get_u64("parity_k") == 2

    def test_decompress_fill_zero(self, field, tmp_path):
        from repro.cli import main

        blob = ChunkedCompressor(chunk_bytes=4000, executor="serial").compress(
            field, BOUND
        )
        src = tmp_path / "d.rpz"
        dst = tmp_path / "out.npy"
        src.write_bytes(corrupt_chunk(blob, 0, seed=SEED))
        rc = main([
            "decompress", str(src), str(dst),
            "--tolerate-corruption", "--fill", "zero",
        ])
        assert rc == 0
        arr = np.load(dst)
        assert not np.isnan(arr).any()
        assert (arr[:1000] == 0.0).all()
