"""Container framing: typed sections, serialization, corruption handling."""

import numpy as np
import pytest

from repro.encoding import (
    ChecksumError,
    Container,
    ContainerError,
    StreamError,
    TruncatedStreamError,
    section_byte_ranges,
)


class TestSections:
    def test_basic_roundtrip(self):
        box = Container("TEST")
        box.put("a", b"hello")
        box.put("b", b"")
        out = Container.from_bytes(box.to_bytes())
        assert out.codec == "TEST"
        assert out.get("a") == b"hello"
        assert out.get("b") == b""
        assert list(out.keys()) == ["a", "b"]

    def test_duplicate_key_rejected(self):
        box = Container("TEST")
        box.put("a", b"x")
        with pytest.raises(ContainerError):
            box.put("a", b"y")

    def test_missing_key_raises_with_codec_name(self):
        box = Container("MYCODEC")
        with pytest.raises(ContainerError, match="MYCODEC"):
            box.get("nope")

    def test_contains_and_iter(self):
        box = Container("TEST")
        box.put("k", b"v")
        assert "k" in box and "x" not in box
        assert list(box) == ["k"]

    def test_empty_codec_rejected(self):
        with pytest.raises(ValueError):
            Container("")


class TestTypedHelpers:
    def test_scalars(self):
        box = Container("T")
        box.put_u64("u", 2**40)
        box.put_i64("i", -7)
        box.put_f64("f", 3.5)
        box.put_str("s", "héllo")
        out = Container.from_bytes(box.to_bytes())
        assert out.get_u64("u") == 2**40
        assert out.get_i64("i") == -7
        assert out.get_f64("f") == 3.5
        assert out.get_str("s") == "héllo"

    def test_shape_and_dtype(self):
        box = Container("T")
        box.put_shape("sh", (3, 4, 5))
        box.put_shape("sh0", ())
        box.put_dtype("dt", np.float32)
        out = Container.from_bytes(box.to_bytes())
        assert out.get_shape("sh") == (3, 4, 5)
        assert out.get_shape("sh0") == ()
        assert out.get_dtype("dt") == np.float32

    def test_unsupported_dtype_rejected(self):
        box = Container("T")
        with pytest.raises(ContainerError):
            box.put_dtype("dt", np.complex128)

    def test_array_roundtrip(self):
        box = Container("T")
        arr = np.array([1.5, -2.5, 0.0], dtype=np.float64)
        box.put_array("a", arr)
        out = Container.from_bytes(box.to_bytes()).get_array("a")
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.float64


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            Container.from_bytes(b"XXXX\x01")

    def test_bad_version(self):
        blob = bytearray(Container("T").to_bytes())
        blob[4] = 99
        with pytest.raises(ContainerError, match="version"):
            Container.from_bytes(bytes(blob))

    def test_truncated_section_v1(self):
        box = Container("T")
        box.put("a", b"0123456789")
        blob = box.to_bytes(version=1)[:-5]
        with pytest.raises(ContainerError, match="truncated"):
            Container.from_bytes(blob)

    def test_truncated_v2_fails_checksum(self):
        box = Container("T")
        box.put("a", b"0123456789")
        blob = box.to_bytes()[:-5]
        with pytest.raises(ChecksumError):
            Container.from_bytes(blob)

    def test_truncated_v2_structural_without_verification(self):
        box = Container("T")
        box.put("a", b"0123456789")
        blob = box.to_bytes()[:-5]
        with pytest.raises(TruncatedStreamError):
            Container.from_bytes(blob, verify_checksums=False)

    def test_varint_running_into_crc_trailer_is_truncation(self):
        # One section announced, but its key-length varint's continuation
        # byte is the last body byte: the read must stop at the 4-byte
        # stream CRC instead of borrowing trailer bytes.
        head = Container("T").to_bytes()[:7]  # magic, version, codec "T"
        blob = head + b"\x01" + b"\x80" + b"\x01\x02\x03\x04"
        with pytest.raises(TruncatedStreamError, match="truncated varint"):
            Container.from_bytes(blob, verify_checksums=False)
        box = Container.from_bytes(blob, verify_checksums=False, partial=True)
        assert isinstance(box.error, TruncatedStreamError)

    def test_partial_parse_records_offsets_and_keeps_prefix(self):
        box = Container("T")
        box.put("a", b"0123456789")
        box.put("b", b"abcdefghij")
        blob = box.to_bytes()
        ranges = section_byte_ranges(blob)
        assert blob[slice(*ranges["b"])] == b"abcdefghij"
        cut = Container.from_bytes(blob[: ranges["b"][0] + 4], partial=True)
        assert cut.truncated_key == "b" and cut.get("b") == b"abcd"
        assert isinstance(cut.error, TruncatedStreamError)

    def test_nbytes_matches_serialization(self):
        box = Container("T")
        box.put("a", b"abc")
        assert box.nbytes == len(box.to_bytes())


class TestVersionSelectsPolynomial:
    """v5 streams carry CRC-32, v2-v4 ones CRC-32C; the version byte says
    which, so a stream relabeled across that boundary fails its checksum."""

    @pytest.fixture(scope="class")
    def v5(self):
        box = Container("T")
        box.put("a", bytes(range(256)) * 4)
        box.put("b", b"meta")
        return box.to_bytes()

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_v5_relabeled_as_legacy_raises(self, v5, version):
        assert v5[4] == 5
        with pytest.raises(ChecksumError):
            Container.from_bytes(v5[:4] + bytes([version]) + v5[5:])

    def test_legacy_relabeled_as_v5_raises(self):
        from tests.test_legacy_corpus import legacy_streams

        for label, blob in legacy_streams().items():
            if blob[4] >= 2:
                Container.from_bytes(blob)
                with pytest.raises(ChecksumError):
                    Container.from_bytes(blob[:4] + b"\x05" + blob[5:])

    @pytest.mark.parametrize("version", [2, 3, 4, 5])
    def test_every_checksummed_version_round_trips(self, version):
        box = Container("T")
        box.put("a", b"0123456789" * 10)
        out = Container.from_bytes(box.to_bytes(version=version))
        assert out.version == version and out.get("a") == b"0123456789" * 10
