"""CRC-32C implementation: known vectors, incrementality, and the
vectorized path vs a bitwise reference; the CRC-32 combine against zlib."""

import struct
import zlib

import numpy as np
import pytest

from repro.encoding.crc import crc32_combine, crc32c, crc32c_combine


def crc32c_reference(data: bytes, value: int = 0) -> int:
    """Textbook reflected bitwise CRC-32C (slow, obviously correct)."""
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


class TestKnownVectors:
    def test_empty(self):
        assert crc32c(b"") == 0

    def test_rfc3720_all_zeros(self):
        # RFC 3720 B.4 test pattern: 32 bytes of zeros.
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_rfc3720_all_ones(self):
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_rfc3720_ascending(self):
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_123456789(self):
        # The classic CRC catalogue check value for CRC-32C.
        assert crc32c(b"123456789") == 0xE3069283

    def test_hello_world(self):
        assert crc32c(b"hello world") == 0xC99465AA


class TestIncremental:
    @pytest.mark.parametrize("split", [0, 1, 7, 64, 1000])
    def test_chained_equals_whole(self, split):
        data = np.random.default_rng(0).integers(0, 256, 3000, np.uint8).tobytes()
        split = min(split, len(data))
        assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)

    def test_zlib_style_initial_value(self):
        # value=0 is the conventional start, like zlib.crc32.
        assert crc32c(b"abc", 0) == crc32c(b"abc")


class TestAgainstReference:
    @pytest.mark.parametrize(
        "length",
        # Straddle the scalar/vector threshold (64) and the 8192-byte block
        # boundary, including off-by-one lengths on both sides.
        [1, 2, 63, 64, 65, 100, 8191, 8192, 8193, 20000],
    )
    def test_matches_bitwise(self, length):
        data = np.random.default_rng(length).integers(0, 256, length, np.uint8).tobytes()
        assert crc32c(data) == crc32c_reference(data)

    def test_matches_bitwise_chained(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 256, 500, np.uint8).tobytes()
        b = rng.integers(0, 256, 500, np.uint8).tobytes()
        assert crc32c(b, crc32c(a)) == crc32c_reference(a + b)

    def test_single_bit_sensitivity(self):
        data = bytes(1000)
        baseline = crc32c(data)
        for bit in (0, 500 * 8 + 3, 999 * 8 + 7):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            assert crc32c(bytes(flipped)) != baseline


class TestCombine:
    """crc32c_combine must agree with hashing the concatenation."""

    @pytest.mark.parametrize("len_a, len_b", [
        (0, 0), (0, 100), (100, 0), (1, 1), (3, 61),
        (63, 64), (64, 65), (500, 1024), (1025, 4096), (10_000, 7),
    ])
    def test_combine_equals_whole(self, len_a, len_b):
        rng = np.random.default_rng(len_a * 131 + len_b)
        a = rng.integers(0, 256, len_a, np.uint8).tobytes()
        b = rng.integers(0, 256, len_b, np.uint8).tobytes()
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c(a + b)

    def test_three_way_combine(self):
        rng = np.random.default_rng(42)
        parts = [rng.integers(0, 256, n, np.uint8).tobytes() for n in (200, 3000, 77)]
        crc = crc32c(parts[0])
        for part in parts[1:]:
            crc = crc32c_combine(crc, crc32c(part), len(part))
        assert crc == crc32c(b"".join(parts))

    def test_matches_bitwise_reference(self):
        a, b = b"hello ", b"world"
        assert crc32c_combine(crc32c(a), crc32c(b), len(b)) == crc32c_reference(a + b)


class TestThreadSafety:
    def test_concurrent_first_use_builds_tables_once(self, monkeypatch):
        """Threads that first need the lazily built advance tables at the
        same moment (chunked ranks framing their streams) must all get
        the right CRC, and leave the tables right for later calls."""
        import threading

        from repro.encoding import crc

        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, 1000, np.uint8).tobytes()
        b = rng.integers(0, 256, 1 << 20, np.uint8).tobytes()
        want = crc32c(a + b)
        crc_a, crc_b = crc32c(a), crc32c(b)
        nthreads = 8
        for _trial in range(20):
            monkeypatch.setattr(crc, "_ADVANCE", [])
            barrier = threading.Barrier(nthreads)
            got: list[int] = []

            def work():
                barrier.wait()
                got.append(crc32c_combine(crc_a, crc_b, len(b)))

            threads = [threading.Thread(target=work) for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert got == [want] * nthreads
            assert crc32c_combine(crc_a, crc_b, len(b)) == want


class TestCrc32Combine:
    """The CRC-32 (zlib polynomial) combine on TestCombine's cases."""

    @pytest.mark.parametrize("len_a, len_b", [
        (0, 0), (0, 100), (100, 0), (1, 1), (3, 61),
        (63, 64), (64, 65), (500, 1024), (1025, 4096), (10_000, 7),
    ])
    def test_combine_equals_zlib_of_the_concatenation(self, len_a, len_b):
        rng = np.random.default_rng(len_a * 131 + len_b)
        a = rng.integers(0, 256, len_a, np.uint8).tobytes()
        b = rng.integers(0, 256, len_b, np.uint8).tobytes()
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    def test_three_way_combine(self):
        rng = np.random.default_rng(42)
        parts = [rng.integers(0, 256, n, np.uint8).tobytes() for n in (200, 3000, 77)]
        crc = zlib.crc32(parts[0])
        for part in parts[1:]:
            crc = crc32_combine(crc, zlib.crc32(part), len(part))
        assert crc == zlib.crc32(b"".join(parts))

    @pytest.mark.parametrize("hash_fn, residue", [
        (zlib.crc32, 0x2144DF1C), (crc32c, 0x48674BC7),
    ], ids=["crc32", "crc32c"])
    def test_residue(self, hash_fn, residue):
        rng = np.random.default_rng(5)
        for n in (0, 1, 9, 300, 5000):
            data = rng.integers(0, 256, n, np.uint8).tobytes()
            assert hash_fn(data + struct.pack("<I", hash_fn(data))) == residue
