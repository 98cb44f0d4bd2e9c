"""Chunked pipeline: bound preservation, determinism, v1 compatibility."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    AbsoluteBound,
    ChunkedCompressor,
    RelativeBound,
    StreamError,
    compress,
    decompress,
    get_compressor,
)
from repro.compressors import UnsupportedBound
from repro.core.chunked import chunk_patch_total, iter_chunk_blobs
from repro.encoding import Container


def rel_errors(data, recon):
    x = data.astype(np.float64).ravel()
    xd = recon.astype(np.float64).ravel()
    nz = x != 0
    return np.abs(xd[nz] - x[nz]) / np.abs(x[nz])


def edge_case_field(dtype):
    """Zeros, negative zeros, denormals, near-max and ordinary values."""
    fi = np.finfo(dtype)
    rng = np.random.default_rng(7)
    data = np.exp(rng.normal(0, 2, 4096)).astype(dtype)
    data[::7] = 0.0
    data[1::31] = -0.0
    data[2::31] = fi.tiny / 8  # denormal
    data[3::31] = fi.max
    data[4::31] = fi.max * dtype(0.999)
    data[5::31] *= -1
    return data


class TestBoundGuarantee:
    @pytest.mark.parametrize("chunk_bytes", [1024, 16 * 1024, 1 << 30])
    def test_archetypes_bounded(self, all_archetypes, chunk_bytes):
        for name, data in all_archetypes.items():
            comp = ChunkedCompressor("SZ_T", chunk_bytes=chunk_bytes, executor="serial")
            recon = comp.decompress(comp.compress(data, RelativeBound(1e-2)))
            assert rel_errors(data, recon).max() <= 1e-2, f"{name} @ {chunk_bytes}"
            np.testing.assert_array_equal(recon[data == 0], 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_cases_bounded_and_finite(self, dtype):
        data = edge_case_field(dtype)
        comp = ChunkedCompressor("SZ_T", chunk_bytes=2048, executor="serial")
        recon = comp.decompress(comp.compress(data, RelativeBound(1e-2)))
        assert np.isfinite(recon).all()
        assert rel_errors(data, recon).max() <= 1e-2
        np.testing.assert_array_equal(np.signbit(recon[data == 0]),
                                      np.signbit(data[data == 0]))

    def test_patch_channels_empty_with_lemma2(self, smooth_positive_3d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8 * 1024, executor="serial")
        blob = comp.compress(smooth_positive_3d, RelativeBound(1e-4))
        assert comp.last_chunk_count > 1
        assert chunk_patch_total(blob) == 0

    def test_patch_total_raises_on_a_damaged_chunk(self, smooth_positive_3d):
        from repro.testing import corrupt_chunk

        blob = ChunkedCompressor("SZ_T", chunk_bytes=8 * 1024, executor="serial").compress(
            smooth_positive_3d, RelativeBound(1e-4)
        )
        damaged = corrupt_chunk(blob, 1)
        with pytest.raises(StreamError):
            chunk_patch_total(damaged)
        # Outer CRCs made whole again: the chunk's own CRC still fails.
        box = Container.from_bytes(damaged, verify_checksums=False)
        rehashed = Container(box.codec)
        for key in box.keys():
            rehashed.put(key, box.get(key))
        with pytest.raises(StreamError):
            chunk_patch_total(rehashed.to_bytes())

    @given(st.integers(0, 2**31 - 1), st.sampled_from([512, 4096, 65536]))
    def test_property_chunked_bound_signed_with_zeros(self, seed, chunk_bytes):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 100, size=700).astype(np.float32)
        data[rng.random(700) < 0.2] = 0.0
        comp = ChunkedCompressor("SZ_T", chunk_bytes=chunk_bytes, executor="serial")
        recon = comp.decompress(comp.compress(data, RelativeBound(1e-2)))
        assert rel_errors(data, recon).max() <= 1e-2
        np.testing.assert_array_equal(recon[data == 0], 0.0)


class TestDeterminism:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_identical_across_executors_and_workers(self, dtype):
        data = edge_case_field(dtype)
        blobs = []
        for executor, workers in [("serial", 1), ("thread", 3), ("process", 2)]:
            comp = ChunkedCompressor(
                "SZ_T", chunk_bytes=4096, workers=workers, executor=executor
            )
            blobs.append(comp.compress(data, RelativeBound(1e-3)))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_decode_identical_across_workers(self, signed_2d):
        blob = ChunkedCompressor("SZ_T", chunk_bytes=4096, executor="serial").compress(
            signed_2d, RelativeBound(1e-3)
        )
        recons = [
            ChunkedCompressor(workers=w, executor=ex).decompress(blob)
            for ex, w in [("serial", 1), ("thread", 3), ("process", 2)]
        ]
        np.testing.assert_array_equal(recons[0], recons[1])
        np.testing.assert_array_equal(recons[0], recons[2])


class TestCompatibility:
    def test_v1_monolithic_stream_decodes_unchanged(self, smooth_positive_3d):
        """A pre-chunking stream passes through ChunkedCompressor untouched."""
        v1 = compress(smooth_positive_3d, RelativeBound(1e-3), "SZ_T")
        via_chunked = ChunkedCompressor().decompress(v1)
        np.testing.assert_array_equal(via_chunked, decompress(v1))

    def test_registry_dispatch(self, smooth_positive_3d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8 * 1024, executor="serial")
        blob = comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        recon = decompress(blob)  # generic dispatch from container codec
        assert rel_errors(smooth_positive_3d, recon).max() <= 1e-2
        assert get_compressor("CHUNKED").name == "CHUNKED"

    def test_chunks_are_complete_streams(self, smooth_positive_3d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8 * 1024, executor="serial")
        blob = comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        parts = [decompress(c).ravel() for c in iter_chunk_blobs(blob)]
        merged = np.concatenate(parts).reshape(smooth_positive_3d.shape)
        np.testing.assert_array_equal(merged, comp.decompress(blob))


class TestMechanics:
    def test_empty_array_roundtrip(self):
        for shape in [(0,), (0, 4), (2, 0, 3)]:
            comp = ChunkedCompressor("SZ_T")
            blob = comp.compress(np.zeros(shape, dtype=np.float32), RelativeBound(1e-3))
            recon = decompress(blob)
            assert recon.shape == shape and recon.dtype == np.float32

    def test_single_chunk_when_budget_exceeds_data(self, rough_1d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=1 << 30, executor="serial")
        comp.compress(rough_1d, RelativeBound(1e-2))
        assert comp.last_chunk_count == 1

    def test_multidim_slabs_keep_dimensionality(self, signed_2d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=4096, executor="serial")
        blob = comp.compress(signed_2d, RelativeBound(1e-2))
        chunk = Container.from_bytes(next(iter_chunk_blobs(blob)))
        assert len(chunk.get_shape("shape")) == 2

    def test_oversized_row_falls_back_to_flat_spans(self):
        data = np.abs(np.random.default_rng(0).normal(1, 0.1, (1, 64, 64))).astype(np.float32)
        comp = ChunkedCompressor("SZ_T", chunk_bytes=2048, executor="serial")
        blob = comp.compress(data, RelativeBound(1e-2))
        assert comp.last_chunk_count > 1
        assert rel_errors(data, comp.decompress(blob)).max() <= 1e-2

    def test_inner_bound_kind_enforced(self, smooth_positive_3d):
        with pytest.raises(UnsupportedBound):
            ChunkedCompressor("SZ_T").compress(smooth_positive_3d, AbsoluteBound(0.5))
        comp = ChunkedCompressor("SZ_ABS", chunk_bytes=8 * 1024, executor="serial")
        recon = comp.decompress(comp.compress(smooth_positive_3d, AbsoluteBound(0.5)))
        assert np.abs(recon - smooth_positive_3d).max() <= 0.5 * (1 + 1e-9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ChunkedCompressor(chunk_bytes=0)
        with pytest.raises(ValueError):
            ChunkedCompressor(workers=0)
        with pytest.raises(ValueError):
            ChunkedCompressor(executor="gpu")

    def test_corrupt_chunk_table_rejected(self, smooth_positive_3d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8 * 1024, executor="serial")
        blob = comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        box = Container.from_bytes(blob)
        bad = Container("CHUNKED")
        for key in box.keys():
            payload = box.get(key)
            if key == "payload":
                payload = payload[:-10]
            bad.put(key, payload)
        with pytest.raises(ValueError, match="CHUNKED"):
            ChunkedCompressor().decompress(bad.to_bytes())
