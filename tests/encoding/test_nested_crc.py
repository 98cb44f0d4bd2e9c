"""Nested streams are hashed once, on both the write and the read side.

Writers take a nested section's CRC from the child stream's own trailer
(``Container.put_nested``) instead of hashing the child again; strict
decoders check the outer stream CRC once and decode the children it
covered without re-checking theirs.  Streams are byte-identical either
way, and damage is still caught.
"""

import numpy as np
import pytest

import repro.encoding.container as container_mod
from repro import (
    AbsoluteBound,
    ChunkedCompressor,
    RelativeBound,
    SZCompressor,
    decompress,
    make_sz_t,
)
from repro.archive import compress_dataset, decompress_dataset
from repro.data.generators import gaussian_random_field
from repro.encoding import ChecksumError, Container
from repro.encoding.crc import crc32


@pytest.fixture()
def hashed(monkeypatch):
    """Bytes passed to the container's ``crc32`` (the v5 hasher) while the
    test runs."""
    seen = [0]

    def counting(data, value=0):
        seen[0] += len(data)
        return crc32(data, value)

    monkeypatch.setattr(container_mod, "crc32", counting)
    return seen


def _field(shape=(64, 64, 64)) -> np.ndarray:
    return gaussian_random_field(shape, beta=3.0, seed=3).astype(np.float32)


def _flip(blob: bytes, pos: int) -> bytes:
    out = bytearray(blob)
    out[pos] ^= 0x10
    return bytes(out)


def _streams() -> list[bytes]:
    data = _field((16, 32, 32))
    return [SZCompressor().compress(part, AbsoluteBound(1e-2)) for part in data[:3]]


class TestWritePath:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_same_bytes_as_put(self, n):
        streams = _streams()[:n]
        plain, nested = Container("T"), Container("T")
        plain.put("inner", b"".join(streams))
        nested.put_nested("inner", *streams)
        assert nested.to_bytes() == plain.to_bytes()
        assert nested.to_bytes(version=3) == plain.to_bytes(version=3)

    def test_streams_without_trailer_are_hashed(self):
        v1 = Container("X")
        v1.put("a", b"payload")
        streams = [v1.to_bytes(version=1), b"not a stream", *_streams()[:1]]
        plain, nested = Container("T"), Container("T")
        plain.put("p", b"".join(streams))
        nested.put_nested("p", *streams)
        assert nested.to_bytes() == plain.to_bytes()

    def test_sz_t_hashes_its_inner_stream_once(self, hashed):
        data = _field()
        assert data.nbytes == 2**20
        blob = make_sz_t().compress(data, RelativeBound(1e-3))
        # Before: the inner bytes once by SZ_ABS and once more by SZ_T.
        assert hashed[0] <= len(blob)
        inner = Container.from_bytes(blob).get("inner")
        assert len(inner) > len(blob) // 2

    @pytest.mark.parametrize("n", [1, 3])
    def test_altered_nested_stream_never_verifies(self, n):
        streams = _streams()[:n]
        # Body byte of the last stream changed after it was serialized,
        # its trailer left as written.
        streams[-1] = _flip(streams[-1], len(streams[-1]) // 2)
        box = Container("T")
        box.put("meta", b"m")
        box.put_nested("inner", *streams)
        with pytest.raises(ChecksumError):
            Container.from_bytes(box.to_bytes())

    def test_archive_fields_are_nested(self, hashed):
        fields = {"a": _field((16, 32, 32)), "b": _field((8, 32, 32))}
        blob = compress_dataset(fields, RelativeBound(1e-3))
        assert hashed[0] <= len(blob)
        for name, recon in decompress_dataset(blob).items():
            assert recon.shape == fields[name].shape


class TestStrictDecode:
    @pytest.fixture(params=[0, 2], ids=["v2", "v3"])
    def chunked(self, request):
        comp = ChunkedCompressor(
            "SZ_T", chunk_bytes=64 * 2**10, executor="serial", parity=request.param
        )
        data = _field((32, 64, 64))
        blob = comp.compress(data, RelativeBound(1e-3))
        assert blob[4] == 5
        return blob, decompress(blob)

    def test_each_byte_hashed_once(self, chunked, hashed):
        blob, want = chunked
        hashed[0] = 0
        got = decompress(blob)
        # The stream CRC covers every byte before the 4-byte trailer.
        assert hashed[0] == len(blob) - 4
        np.testing.assert_array_equal(got, want)

    def test_flipped_chunk_byte_raises(self, chunked):
        blob, _ = chunked
        box = Container.from_bytes(blob)
        _, start, _ = box.spans["payload"]
        with pytest.raises(ChecksumError):
            decompress(_flip(blob, start + box.get_array("offs")[1] + 40))

    def test_v1_outer_keeps_per_chunk_verification(self, chunked):
        blob, want = chunked
        box = Container.from_bytes(blob)
        at = int(box.get_array("offs")[1]) + 40

        def v1(payload: bytes) -> bytes:
            out = Container(box.codec)
            for key in box.keys():
                out.put(key, payload if key == "payload" else box.get(key))
            return out.to_bytes(version=1)

        np.testing.assert_array_equal(decompress(v1(box.get("payload"))), want)
        with pytest.raises(ChecksumError):
            decompress(v1(_flip(box.get("payload"), at)))

    def test_archive_hashed_once(self, hashed):
        blob = compress_dataset({"a": _field((16, 32, 32))}, RelativeBound(1e-3))
        hashed[0] = 0
        decompress_dataset(blob)
        assert hashed[0] == len(blob) - 4

    def test_damaged_archive_field_raises(self):
        blob = compress_dataset({"a": _field((16, 32, 32))}, RelativeBound(1e-3))
        _, start, stop = Container.from_bytes(blob).spans["field:a"]
        with pytest.raises(ChecksumError):
            decompress_dataset(_flip(blob, (start + stop) // 2))


class TestMixedPolynomials:
    """A v5 parent of v2-v4 children, as a journal resumed across releases
    writes: the children's CRC-32C residue does not apply under CRC-32, so
    they are hashed in full, and the parent still verifies and decodes."""

    @staticmethod
    def _rebuild(legacy: bytes, nested: dict[str, list[bytes]]) -> bytes:
        box = Container.from_bytes(legacy)
        out = Container(box.codec)
        for key in box.keys():
            if key in nested:
                out.put_nested(key, *nested[key])
            else:
                out.put(key, box.get(key))
        return out.to_bytes()

    @pytest.fixture(scope="class")
    def parents(self):
        from repro.core.chunked import iter_chunk_blobs
        from tests.test_legacy_corpus import legacy_streams

        legacy = legacy_streams()
        chunked = legacy["chunked_v2"]
        archive = legacy["archive_v2"]
        fields = {
            key: [Container.from_bytes(archive).get(key)]
            for key in Container.from_bytes(archive).keys()
            if key.startswith("field:")
        }
        return {
            "CHUNKED": (chunked, self._rebuild(
                chunked, {"payload": list(iter_chunk_blobs(chunked))}
            )),
            "ARCHIVE": (archive, self._rebuild(archive, fields)),
        }

    @pytest.mark.parametrize("codec", ["CHUNKED", "ARCHIVE"])
    def test_verifies_decodes_and_inspects_clean(self, parents, codec):
        from repro.inspection import inspect_stream
        from repro.integrity import verify_stream
        from tests.test_legacy_corpus import decode

        legacy, mixed = parents[codec]
        assert mixed[4] == 5 and len(mixed) == len(legacy)
        assert verify_stream(mixed).ok
        model = inspect_stream(mixed)
        assert model.damage() is None and model.problems == ()
        children = model.chunks or [s.child for s in model.sections if s.child]
        assert children and all(c.version == 2 for c in children)
        got, want = decode(mixed), decode(legacy)
        assert all(np.array_equal(got[k], want[k]) for k in want)

    @pytest.mark.parametrize("codec", ["CHUNKED", "ARCHIVE"])
    def test_flipped_child_bit_is_caught(self, parents, codec):
        from repro.integrity import verify_stream
        from tests.test_legacy_corpus import decode

        _, mixed = parents[codec]
        key = "payload" if codec == "CHUNKED" else "field:b"
        _, start, stop = Container.from_bytes(mixed).spans[key]
        bad = _flip(mixed, stop - 40)
        with pytest.raises(ChecksumError):
            decode(bad)
        assert not verify_stream(bad).ok
