"""SZ_PWR blockwise mode: per-block bounds, zeros, spiky-block weakness."""

import warnings

import numpy as np
import pytest

from repro.compressors import RelativeBound, SZPointwiseRelative
from repro.encoding import Container


def roundtrip(data, br, **kw):
    comp = SZPointwiseRelative(**kw)
    blob = comp.compress(data, RelativeBound(br))
    return blob, comp.decompress(blob)


class TestBound:
    @pytest.mark.parametrize("br", [1e-4, 1e-2, 1e-1])
    def test_relative_bound_on_nonzero_points(self, all_archetypes, br):
        for name, data in all_archetypes.items():
            _, recon = roundtrip(data, br)
            x = data.astype(np.float64)
            xd = recon.astype(np.float64)
            nz = x != 0
            rel = np.abs(xd[nz] - x[nz]) / np.abs(x[nz])
            assert rel.max() <= br, f"{name} violates pw-rel bound {br}"

    def test_zeros_preserved_exactly(self, zero_heavy_3d):
        _, recon = roundtrip(zero_heavy_3d, 1e-2)
        np.testing.assert_array_equal(recon[zero_heavy_3d == 0], 0.0)

    def test_negative_zero_sign_preserved(self):
        # -0.0 quantizes to index 0, which rebuilds +0.0; the patch channel
        # keeps its sign bit, as SZ_T, ZFP_T, SZ3_T, ISABELA and GZIP do.
        data = np.tile(np.array([1.0, -0.0, 0.0, -2.5, -0.0], dtype=np.float32), 200)
        _, recon = roundtrip(data, 1e-3)
        np.testing.assert_array_equal(recon == 0, data == 0)
        np.testing.assert_array_equal(np.signbit(recon), np.signbit(data))

    @pytest.mark.parametrize("shape", [(1000,), (13, 17)], ids=["1d", "2d"])
    def test_padding_replicas_not_patched(self, shape):
        # The last 256-point block (1-D) and the ragged 16x16 edge tiles
        # (2-D) replicate their edge points; only points inside the array
        # are stored in the patch channel.
        if len(shape) == 1:
            data = np.tile(np.array([1.0, -0.0, 0.0, -2.5, -0.0], np.float32), 200)
        else:
            data = np.random.default_rng(5).normal(5.0, 1.0, shape).astype(np.float32)
            data[-1, :] = -0.0
            data[:, -1] = -0.0
        blob, recon = roundtrip(data, 1e-3)
        zero = data == 0
        assert Container.from_bytes(blob).get_u64("n_patch") == np.count_nonzero(
            zero & np.signbit(data)
        )
        # zeros decode bit-exactly, signs included; the rest within the bound
        np.testing.assert_array_equal(recon.view(np.uint32)[zero], data.view(np.uint32)[zero])
        assert (np.abs(recon - data)[~zero] <= 1e-3 * np.abs(data[~zero])).all()

    @pytest.mark.parametrize("br", [1e-2, 1e-3, 1e-4])
    def test_zeros_in_a_block_with_a_subnormal(self, br):
        # b_r * 5e-324 underflows to a zero block bound, so the block's
        # zeros divide 0/0; their NaN index once cast to INT64_MIN.
        data = np.random.default_rng(2).normal(size=(64, 64))
        data[:8, :8] = 0.0
        data[3, 4] = 5e-324
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, recon = roundtrip(data, br)
        nz = data != 0
        assert (np.abs(recon - data)[nz] <= br * np.abs(data[nz])).all()
        np.testing.assert_array_equal(recon[~nz], 0.0)

    def test_all_zero_input(self):
        # 32x32 rather than 16x16: the v2 container's fixed checksum
        # overhead (~4 B/section) would dominate a 1 KiB input.
        data = np.zeros((32, 32), dtype=np.float32)
        blob, recon = roundtrip(data, 1e-3)
        np.testing.assert_array_equal(recon, data)
        assert len(blob) < data.nbytes / 3


class TestBlockwiseWeakness:
    """The paper's criticisms of the blockwise design, reproduced."""

    def test_spiky_block_degrades_ratio(self):
        rng = np.random.default_rng(0)
        base = np.exp(rng.normal(3, 0.1, size=(32, 32, 32))).astype(np.float32)
        spiky = base.copy()
        # One tiny value per block collapses that block's bound.
        spiky[::8, ::8, ::8] = 1e-6
        br = 1e-2
        blob_smooth, _ = roundtrip(base, br)
        blob_spiky, _ = roundtrip(spiky, br)
        assert len(blob_spiky) > 1.5 * len(blob_smooth)

    def test_sz_t_beats_sz_pwr_on_smooth_data(self, smooth_positive_3d):
        from repro import RelativeBound as RB, get_compressor

        br = 1e-3
        blob_pwr, _ = roundtrip(smooth_positive_3d, br)
        sz_t = get_compressor("SZ_T")
        blob_t = sz_t.compress(smooth_positive_3d, RB(br))
        assert len(blob_t) < len(blob_pwr)

    def test_block_bound_table_scales_with_blocks(self, smooth_positive_3d):
        blob, _ = roundtrip(smooth_positive_3d, 1e-2, block=4)
        box = Container.from_bytes(blob)
        edge = box.get_u64("edge")
        assert edge == 4
        nblocks = box.get_u64("nblocks")
        assert nblocks == np.prod([-(-s // 4) for s in smooth_positive_3d.shape])


class TestConfiguration:
    def test_default_edges_by_ndim(self):
        comp = SZPointwiseRelative()
        assert comp._edge(1) == 256
        assert comp._edge(2) == 16
        assert comp._edge(3) == 8

    def test_explicit_block_edge(self, signed_2d):
        _, recon = roundtrip(signed_2d, 1e-2, block=8)
        assert recon.shape == signed_2d.shape

    def test_invalid_block_edge(self):
        with pytest.raises(ValueError):
            SZPointwiseRelative(block=1)

    def test_non_multiple_shapes_padded_and_cropped(self):
        rng = np.random.default_rng(1)
        data = np.abs(rng.normal(5, 1, size=(13, 17))).astype(np.float32)
        _, recon = roundtrip(data, 1e-2, block=8)
        assert recon.shape == data.shape
        rel = np.abs(recon - data) / np.abs(data)
        assert rel.max() <= 1e-2
