"""Canonical Huffman codec: optimality basics, limits, parallel decode."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding import HuffmanCodec, huffman
from repro.encoding.codecs import deflate, inflate, read_varint, write_varint
from repro.encoding.huffman import _TABLE_BITS, huffman_code_lengths
from tests.encoding.huffman_ref import ReferenceHuffmanCodec, reference_code_lengths


class TestCodeLengths:
    def test_uniform_counts_balanced_tree(self):
        lengths = huffman_code_lengths(np.array([10, 10, 10, 10]))
        assert lengths.tolist() == [2, 2, 2, 2]

    def test_skewed_counts_short_code_for_frequent(self):
        lengths = huffman_code_lengths(np.array([1000, 1, 1, 1]))
        assert lengths[0] == 1
        assert lengths[1:].max() <= 3

    def test_zero_count_symbols_get_no_code(self):
        lengths = huffman_code_lengths(np.array([5, 0, 5]))
        assert lengths[1] == 0
        assert lengths[0] > 0 and lengths[2] > 0

    def test_single_symbol_gets_one_bit(self):
        lengths = huffman_code_lengths(np.array([0, 42, 0]))
        assert lengths.tolist() == [0, 1, 0]

    def test_all_zero_counts(self):
        assert huffman_code_lengths(np.zeros(4, dtype=np.int64)).tolist() == [0] * 4

    def test_length_limit_enforced(self):
        # Fibonacci-like counts force a deep optimal tree.
        counts = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377,
                           610, 987, 1597, 2584, 4181, 6765])
        lengths = huffman_code_lengths(counts, length_limit=8)
        assert lengths.max() <= 8
        # Kraft inequality must still hold (codes remain decodable).
        kraft = sum(2.0 ** -int(l) for l in lengths if l)
        assert kraft <= 1.0 + 1e-12

    def test_kraft_equality_for_optimal_tree(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 1000, size=50)
        lengths = huffman_code_lengths(counts)
        assert sum(2.0 ** -int(l) for l in lengths) == pytest.approx(1.0)


class TestRoundtrip:
    def test_empty(self):
        codec = HuffmanCodec()
        assert codec.decode(codec.encode(np.zeros(0, dtype=np.int64))).size == 0

    def test_single_distinct_symbol(self):
        codec = HuffmanCodec()
        syms = np.full(1000, 7, dtype=np.int64)
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_two_symbols(self):
        codec = HuffmanCodec(chunk_size=16)
        syms = np.array([0, 1] * 100, dtype=np.int64)
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_skewed_distribution_compresses(self):
        rng = np.random.default_rng(1)
        syms = np.where(rng.random(100_000) < 0.95, 5, rng.integers(0, 64, 100_000))
        codec = HuffmanCodec()
        blob = codec.encode(syms)
        assert len(blob) < syms.size  # well under 8 bits/symbol
        np.testing.assert_array_equal(codec.decode(blob), syms)

    def test_large_alphabet(self):
        rng = np.random.default_rng(2)
        syms = rng.integers(0, 60_000, size=50_000)
        codec = HuffmanCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_long_code_fallback_path(self):
        # A huge alphabet of equally-rare symbols plus one dominant one
        # gives 16- and 17-bit codes: longer than the reference decoder's
        # 14-bit table, inside the fast decoder's table (as wide as the
        # longest code up to its cap).
        syms = np.concatenate([
            np.zeros(1 << 18, dtype=np.int64),
            np.arange(1, 40_000, dtype=np.int64),
        ])
        codec = HuffmanCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_chunk_boundary_sizes(self):
        codec = HuffmanCodec(chunk_size=64)
        rng = np.random.default_rng(3)
        for n in (1, 63, 64, 65, 128, 129):
            syms = rng.integers(0, 7, size=n)
            np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_negative_symbols_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCodec().encode(np.array([-1], dtype=np.int64))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HuffmanCodec(chunk_size=0)

    @given(
        st.lists(st.integers(0, 300), min_size=1, max_size=2000),
        st.sampled_from([7, 64, 4096]),
    )
    def test_property_roundtrip(self, raw, chunk):
        syms = np.array(raw, dtype=np.int64)
        codec = HuffmanCodec(chunk_size=chunk)
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_corrupt_payload_raises_value_error(self):
        codec = HuffmanCodec()
        syms = np.arange(64).repeat(np.arange(1, 65))
        blob = bytearray(codec.encode(syms))
        blob[-3] ^= 0xFF  # damage the bit payload, not the tables
        with pytest.raises(ValueError):
            codec.decode(bytes(blob))

    def test_truncated_payload_raises_value_error(self):
        codec = HuffmanCodec()
        syms = np.arange(256).repeat(np.arange(1, 257))
        blob = codec.encode(syms)
        with pytest.raises(ValueError):
            codec.decode(blob[:-4])

    def test_rate_close_to_entropy(self):
        rng = np.random.default_rng(4)
        probs = np.array([0.5, 0.25, 0.125, 0.0625, 0.0625])
        syms = rng.choice(5, size=200_000, p=probs)
        blob = HuffmanCodec().encode(syms)
        entropy = -(probs * np.log2(probs)).sum()
        bits_per_symbol = 8 * len(blob) / syms.size
        assert bits_per_symbol < entropy * 1.1 + 0.1  # dyadic probs: ~optimal


def _fibonacci_symbols(m: int, seed: int) -> np.ndarray:
    """Shuffled symbols with Fibonacci counts: code lengths up to ``m - 1``."""
    counts = [1, 1]
    while len(counts) < m:
        counts.append(counts[-1] + counts[-2])
    syms = np.repeat(np.arange(m), counts)
    np.random.default_rng(seed).shuffle(syms)
    return syms


def _regime_symbols(regime: str) -> np.ndarray:
    """Symbols whose longest code puts the fast decoder in ``regime``."""
    if regime == "short":  # every code within 16 bits
        syms = np.arange(64).repeat(np.arange(1, 65))
        np.random.default_rng(20).shuffle(syms)
        return syms
    if regime == "table":  # longer than 16 bits, within the table cap
        return _fibonacci_symbols(19, seed=21)
    return _fibonacci_symbols(23, seed=22)  # "fixup": past the cap


def _split(blob: bytes) -> dict:
    """The fields of a Huffman blob, its two tables inflated."""
    n, pos = read_varint(blob)
    chunk, pos = read_varint(blob, pos)
    sz, pos = read_varint(blob, pos)
    lengths = np.frombuffer(inflate(blob[pos : pos + sz]), dtype=np.uint8).copy()
    pos += sz
    sz, pos = read_varint(blob, pos)
    deltas = np.frombuffer(inflate(blob[pos : pos + sz]), dtype=np.uint32).copy()
    pos += sz
    total_bits, pos = read_varint(blob, pos)
    return {"n": n, "chunk": chunk, "lengths": lengths, "deltas": deltas,
            "total_bits": total_bits, "payload": blob[pos:]}


def _join(f: dict) -> bytes:
    len_table, offs = deflate(f["lengths"].tobytes()), deflate(f["deltas"].tobytes())
    return b"".join([
        write_varint(f["n"]), write_varint(f["chunk"]),
        write_varint(len(len_table)), len_table, write_varint(len(offs)), offs,
        write_varint(f["total_bits"]), f["payload"],
    ])


class TestCorruptionPerTableRegime:
    """Every corruption check, with the first-level table covering all
    codes (max length <= 16, or between 16 and the cap) and with the
    canonical fixup for codes past the cap."""

    @pytest.fixture(params=["short", "table", "fixup"])
    def blob(self, request) -> bytes:
        syms = _regime_symbols(request.param)
        longest = int(huffman_code_lengths(np.bincount(syms)).max())
        bounds = {"short": (1, 16), "table": (17, _TABLE_BITS),
                  "fixup": (_TABLE_BITS + 1, 25)}[request.param]
        assert bounds[0] <= longest <= bounds[1]  # the premise of the regime
        blob = HuffmanCodec().encode(syms)
        np.testing.assert_array_equal(HuffmanCodec().decode(blob), syms)
        return blob

    def test_payload_bit_flips(self, blob):
        # A flip that only swaps codewords of equal length is undetectable
        # without a checksum; one damaged byte per ~chunk makes some chunk
        # overrun its successor.
        f = _split(blob)
        payload = bytearray(f["payload"])
        for i in range(32, len(payload), 64):
            payload[i] ^= 0xFF
        f["payload"] = bytes(payload)
        with pytest.raises(ValueError, match="corrupt Huffman"):
            HuffmanCodec().decode(_join(f))

    def test_truncation(self, blob):
        with pytest.raises(ValueError, match="corrupt Huffman"):
            HuffmanCodec().decode(blob[:-4])

    def test_kraft_gap_length_table(self, blob):
        # One symbol of the shortest length moved a bit longer: the code
        # space keeps a gap that the payload's prefixes run into.
        f = _split(blob)
        lengths = f["lengths"]
        used = np.flatnonzero(lengths)
        lengths[used[np.argmin(lengths[used])]] += 1
        with pytest.raises(ValueError, match="corrupt Huffman"):
            HuffmanCodec().decode(_join(f))

    def test_chunk_offset_past_total_bits(self, blob):
        f = _split(blob)
        f["deltas"][-1] += np.uint32(f["total_bits"])
        with pytest.raises(ValueError, match="corrupt Huffman"):
            HuffmanCodec().decode(_join(f))


class TestCorruptionSegmented(TestCorruptionPerTableRegime):
    """The same corruption checks with every blob walked in segments of
    a few chunks each (the ``blob`` fixture checks that each regime's
    intact blob, codes past the table cap included, still decodes)."""

    @pytest.fixture(autouse=True)
    def segment_bits(self, monkeypatch):
        monkeypatch.setattr(huffman, "_SEGMENT_BITS", 4096)


class TestSingleWalk:
    """Every blob takes the one vector walk: payloads over
    ``_SEGMENT_BITS`` in segments of whole chunks, alphabets past the
    uint32 table entries through uint64 ones, and anything else is
    rejected as corrupt."""

    @pytest.mark.parametrize("segment_bits", [1, 8, 100, 1000])
    @pytest.mark.parametrize("chunk", [1, 3, 7, 64, 256, 4096])
    def test_segmented_walk_matches_oracle(self, monkeypatch, segment_bits, chunk):
        monkeypatch.setattr(huffman, "_SEGMENT_BITS", segment_bits)
        segments = []  # (chunks, bits) of every walked segment
        walk = huffman._walk

        def spy(raw, starts, total_bits, *rest):
            segments.append((starts.size, total_bits))
            return walk(raw, starts, total_bits, *rest)

        monkeypatch.setattr(huffman, "_walk", spy)
        rng = np.random.default_rng(chunk)
        for _ in range(4):
            n = int(rng.integers(1, 1500))
            alphabet = int(rng.integers(2, 2000))
            syms = np.where(rng.random(n) < 0.7, 1, rng.integers(0, alphabet, n))
            blob = ReferenceHuffmanCodec(chunk_size=chunk).encode(syms)
            segments.clear()
            np.testing.assert_array_equal(HuffmanCodec().decode(blob), syms)
            if len(np.unique(syms)) > 1:  # one symbol decodes without a walk
                assert sum(c for c, _ in segments) == -(-n // chunk)
                assert all(c == 1 or bits <= segment_bits for c, bits in segments)

    @pytest.mark.parametrize("segment_bits", [1, 1 << 29], ids=["chunkwise", "whole"])
    def test_chunk_overrunning_its_successor(self, monkeypatch, segment_bits):
        # Chunk 1 declared to start a bit early: chunk 0 runs past it, and
        # across a segment boundary when every chunk is its own segment.
        monkeypatch.setattr(huffman, "_SEGMENT_BITS", segment_bits)
        f = _split(HuffmanCodec(chunk_size=64).encode(np.arange(128) % 5))
        f["deltas"][1] -= np.uint32(1)
        with pytest.raises(ValueError, match="corrupt Huffman"):
            HuffmanCodec().decode(_join(f))

    def test_alphabet_past_uint32_table_entries(self):
        # (symbol << 6) | length overflows uint32 from symbol 2**26 on.
        syms = np.array([0, 2**26, 5, 2**27 + 3], dtype=np.int64)
        blob = HuffmanCodec().encode(syms)
        np.testing.assert_array_equal(HuffmanCodec().decode(blob), syms)
        # The oracle's dense tables over 2**27 symbols would take
        # gigabytes; canonical codes depend only on the symbols' order,
        # so an order-preserving relabelling must give the same payload.
        small = np.array([0, 2, 1, 3], dtype=np.int64)
        ref_blob = ReferenceHuffmanCodec().encode(small)
        np.testing.assert_array_equal(ReferenceHuffmanCodec().decode(ref_blob), small)
        fast, ref = _split(blob), _split(ref_blob)
        for field in ("n", "chunk", "deltas", "total_bits", "payload"):
            np.testing.assert_array_equal(fast[field], ref[field])
        used = np.flatnonzero(fast["lengths"])
        np.testing.assert_array_equal(used, np.sort(syms))
        np.testing.assert_array_equal(fast["lengths"][used], ref["lengths"])

    def test_code_over_25_bits_rejected(self):
        # Kraft-complete lengths 1, 2, ..., 25, 26, 26.
        lengths = np.append(np.arange(1, 27), 26).astype(np.uint8)
        f = {"n": 2, "chunk": 256, "lengths": lengths,
             "deltas": np.zeros(1, dtype=np.uint32), "total_bits": 3,
             "payload": b"\x40"}
        with pytest.raises(ValueError, match="corrupt Huffman"):
            HuffmanCodec().decode(_join(f))

    def test_chunk_size_zero_rejected(self):
        f = _split(HuffmanCodec().encode(np.arange(10)))
        f["chunk"] = 0
        with pytest.raises(ValueError, match="corrupt Huffman"):
            HuffmanCodec().decode(_join(f))


class TestReferenceEquivalence:
    """The vectorized codec against the retained pre-vectorization one.

    ``huffman_ref`` is the frozen specification of the blob format:
    every stream the fast codec writes must be byte-identical to what the
    reference writes, and each decoder must read the other's output.
    """

    def assert_equivalent(self, syms, chunk=256):
        fast = HuffmanCodec(chunk_size=chunk)
        ref = ReferenceHuffmanCodec(chunk_size=chunk)
        blob_fast = fast.encode(syms)
        blob_ref = ref.encode(syms)
        assert blob_fast == blob_ref
        expect = np.asarray(syms, dtype=np.int64).ravel()
        np.testing.assert_array_equal(fast.decode(blob_ref), expect)
        np.testing.assert_array_equal(ref.decode(blob_fast), expect)

    def test_empty_stream(self):
        self.assert_equivalent(np.zeros(0, dtype=np.int64))

    def test_single_distinct_symbol(self):
        self.assert_equivalent(np.full(1000, 7, dtype=np.int64))
        self.assert_equivalent(np.array([3], dtype=np.int64), chunk=16)

    def test_skewed_distribution(self):
        rng = np.random.default_rng(10)
        syms = np.where(rng.random(50_000) < 0.9, 2, rng.integers(0, 512, 50_000))
        self.assert_equivalent(syms)

    def test_large_alphabet(self):
        rng = np.random.default_rng(11)
        self.assert_equivalent(rng.integers(0, 40_000, size=30_000))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_input_dtypes(self, dtype):
        rng = np.random.default_rng(12)
        self.assert_equivalent(rng.integers(0, 200, size=5000).astype(dtype))

    def test_codes_longer_than_decode_table(self):
        # Fibonacci counts force codeword lengths past the fast decoder's
        # first-level table, exercising its canonical-extension path
        # against the reference's bit-by-bit walk.
        counts = [1, 1]
        while len(counts) < 25:
            counts.append(counts[-1] + counts[-2])
        syms = np.repeat(np.arange(len(counts)), counts)
        lengths = huffman_code_lengths(np.bincount(syms))
        assert lengths.max() > _TABLE_BITS  # the premise of this test
        self.assert_equivalent(syms)

    def test_code_lengths_match_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            counts = rng.integers(0, 2000, size=rng.integers(2, 400))
            np.testing.assert_array_equal(
                huffman_code_lengths(counts), reference_code_lengths(counts)
            )

    @given(
        st.lists(st.integers(0, 1000), min_size=0, max_size=1500),
        st.sampled_from([7, 64, 256, 4096]),
    )
    def test_property_byte_identical(self, raw, chunk):
        self.assert_equivalent(np.array(raw, dtype=np.int64), chunk=chunk)


class TestSegmentedEncode:
    """The encoder packs bits in segments of whole chunks: every segment
    size gives the oracle's blob, and its temporaries stay segment-sized."""

    @staticmethod
    def assert_oracle(syms, chunk):
        blob = HuffmanCodec(chunk_size=chunk).encode(syms)
        assert blob == ReferenceHuffmanCodec(chunk_size=chunk).encode(syms)
        return blob

    @staticmethod
    def segment_residues(blob, per):
        """Bit offsets within their 32-bit word of the segment bases."""
        starts = np.cumsum(_split(blob)["deltas"].astype(np.int64))
        return set((starts[::per] % 32).tolist())

    @pytest.mark.parametrize("per", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1, 3, 7, 256])
    def test_segments_of_whole_chunks_match_oracle(self, monkeypatch, chunk, per):
        monkeypatch.setattr(huffman, "_ENCODE_SYMBOLS", per * chunk)
        rng = np.random.default_rng(chunk * 10 + per)
        n = 400 * per * chunk  # ~400 segments
        syms = np.where(rng.random(n) < 0.6, 3, rng.integers(0, 900, n))
        blob = self.assert_oracle(syms, chunk)
        assert self.segment_residues(blob, per) == set(range(32))

    @pytest.mark.parametrize("per", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, 256])
    def test_24_bit_codes_match_oracle(self, monkeypatch, chunk, per):
        monkeypatch.setattr(huffman, "_ENCODE_SYMBOLS", per * chunk)
        syms = _fibonacci_symbols(25, seed=chunk + per)
        assert huffman_code_lengths(np.bincount(syms)).max() == 24
        blob = self.assert_oracle(syms, chunk)
        assert self.segment_residues(blob, per) == set(range(32))

    @pytest.mark.parametrize("segment", [1, 5, 100])
    def test_segments_inside_long_chunks_match_oracle(self, monkeypatch, segment):
        # Chunks longer than a segment: segments start inside chunks.
        monkeypatch.setattr(huffman, "_ENCODE_SYMBOLS", segment)
        rng = np.random.default_rng(segment)
        syms = np.where(rng.random(3000) < 0.6, 3, rng.integers(0, 900, 3000))
        for chunk in (7, 256, 1000):
            self.assert_oracle(syms, chunk)

    def test_encode_peak_memory_per_symbol(self):
        # Quantization codes of a dense field: a peaked residual spread
        # around the radius.  The packer's temporaries are segment-sized,
        # so the peak is the payload and its copies, not 8-byte arrays
        # over every symbol.
        import tracemalloc

        rng = np.random.default_rng(0)
        n = 1 << 20
        spread = np.clip(np.rint(rng.laplace(0.0, 40.0, n)), -32767, 32767)
        syms = (32768 + spread).astype(np.int64)
        tracemalloc.start()
        try:
            HuffmanCodec().encode(syms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n

    def test_sparse_huge_alphabet_resident_memory(self):
        # Symbols up to 2**27: the dense per-symbol tables are calloc'd
        # and touched only at the used symbols; a table written over the
        # whole alphabet would make over a GiB resident.
        import subprocess
        import sys

        code = (
            "import resource, numpy as np\n"
            "from repro.encoding import HuffmanCodec\n"
            "syms = np.tile(np.array([0, 2**26, 5, 2**27 + 3], dtype=np.int64), 1000)\n"
            "HuffmanCodec().encode(syms)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert int(out.stdout) <= 512 * 1024  # KiB
