"""Algorithm 1 wrapper: SZ_T / ZFP_T end-to-end relative bound."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import RelativeBound, decompress, get_compressor
from repro.compressors import AbsoluteBound, FpzipCompressor, UnsupportedBound
from repro.compressors.sz import SZCompressor
from repro.core import TransformedCompressor, make_sz_t, make_zfp_t
from repro.encoding import Container


def rel_errors(data, recon):
    x = data.astype(np.float64).ravel()
    xd = recon.astype(np.float64).ravel()
    nz = x != 0
    return np.abs(xd[nz] - x[nz]) / np.abs(x[nz])


def _all_transformed_factories():
    from repro import get_compressor

    return [
        make_sz_t,
        make_zfp_t,
        lambda: get_compressor("SZ2_T"),
        lambda: get_compressor("SZ3_T"),
    ]


class TestBoundGuarantee:
    @pytest.mark.parametrize("factory", _all_transformed_factories())
    @pytest.mark.parametrize("br", [1e-4, 1e-2, 0.3])
    def test_archetypes_bounded(self, all_archetypes, factory, br):
        for name, data in all_archetypes.items():
            comp = factory()
            recon = comp.decompress(comp.compress(data, RelativeBound(br)))
            assert rel_errors(data, recon).max() <= br, f"{comp.name} on {name} at {br}"

    @pytest.mark.parametrize("factory", _all_transformed_factories())
    def test_zeros_and_signs_all_generations(self, zero_heavy_3d, signed_2d, factory):
        comp = factory()
        recon = comp.decompress(comp.compress(zero_heavy_3d, RelativeBound(1e-2)))
        np.testing.assert_array_equal(recon[zero_heavy_3d == 0], 0.0)
        comp = factory()
        recon = comp.decompress(comp.compress(signed_2d, RelativeBound(1e-2)))
        nz = signed_2d != 0
        np.testing.assert_array_equal(np.sign(recon[nz]), np.sign(signed_2d[nz]))

    @pytest.mark.parametrize("factory", [make_sz_t, make_zfp_t])
    def test_zeros_decode_to_exact_zero(self, zero_heavy_3d, factory):
        comp = factory()
        recon = comp.decompress(comp.compress(zero_heavy_3d, RelativeBound(1e-2)))
        np.testing.assert_array_equal(recon[zero_heavy_3d == 0], 0.0)

    def test_signs_restored(self, signed_2d):
        comp = make_sz_t()
        recon = comp.decompress(comp.compress(signed_2d, RelativeBound(1e-3)))
        nz = signed_2d != 0
        np.testing.assert_array_equal(np.sign(recon[nz]), np.sign(signed_2d[nz]))

    def test_patch_channel_empty_with_lemma2(self, smooth_positive_3d):
        comp = make_sz_t()
        comp.compress(smooth_positive_3d, RelativeBound(1e-4))
        assert comp.last_patch_count == 0

    def test_all_zero_array(self):
        comp = make_sz_t()
        data = np.zeros((8, 8), dtype=np.float32)
        recon = comp.decompress(comp.compress(data, RelativeBound(1e-3)))
        np.testing.assert_array_equal(recon, data)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_array_roundtrip(self, shape, dtype):
        comp = make_sz_t()
        blob = comp.compress(np.zeros(shape, dtype=dtype), RelativeBound(1e-3))
        recon = comp.decompress(blob)
        assert recon.shape == shape and recon.dtype == dtype
        assert comp.last_patch_count == 0
        np.testing.assert_array_equal(decompress(blob), recon)

    def test_near_max_magnitudes_decode_finite_without_verify(self):
        """exp2 overflow at the exponent-range edge is clipped, so the
        stream decodes finite without the verify pass's patches: an
        unclipped inverse would show up as patched points."""
        fi = np.finfo(np.float32)
        data = np.full(512, fi.max, dtype=np.float32)
        data[1::2] = fi.max * np.float32(0.999)
        blob = make_sz_t().compress(data, RelativeBound(1e-2))
        assert Container.from_bytes(blob).get_u64("n_patch") == 0
        recon = decompress(blob)
        assert np.isfinite(recon).all()
        assert rel_errors(data, recon).max() <= 1e-2

    def test_negative_zero_sign_preserved(self):
        data = np.array([1.0, -0.0, 0.0, -2.5, -0.0], dtype=np.float32)
        comp = make_sz_t()
        recon = comp.decompress(comp.compress(data, RelativeBound(1e-3)))
        np.testing.assert_array_equal(recon == 0, data == 0)
        np.testing.assert_array_equal(np.signbit(recon), np.signbit(data))

    def test_float64_data(self, wide_range_3d):
        comp = make_sz_t()
        recon = comp.decompress(comp.compress(wide_range_3d, RelativeBound(1e-5)))
        assert rel_errors(wide_range_3d, recon).max() <= 1e-5

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 1e-1]))
    def test_property_bound_signed_with_zeros(self, seed, br):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 100, size=300).astype(np.float32)
        data[rng.random(300) < 0.2] = 0.0
        comp = make_sz_t()
        recon = comp.decompress(comp.compress(data, RelativeBound(br)))
        assert rel_errors(data, recon).max() <= br
        np.testing.assert_array_equal(recon[data == 0], 0.0)


class TestBases:
    @pytest.mark.parametrize("base", [2.0, math.e, 10.0])
    def test_all_bases_bounded(self, smooth_positive_3d, base):
        comp = make_sz_t(base=base)
        recon = comp.decompress(comp.compress(smooth_positive_3d, RelativeBound(1e-3)))
        assert rel_errors(smooth_positive_3d, recon).max() <= 1e-3

    def test_base_mismatch_decodes_with_stream_base(self, smooth_positive_3d):
        """The base is recorded in the stream, so a differently-configured
        decompressor decodes with the stream's base instead of raising."""
        blob = make_sz_t(base=2.0).compress(smooth_positive_3d, RelativeBound(1e-2))
        recon = make_sz_t(base=10.0).decompress(blob)
        assert rel_errors(smooth_positive_3d, recon).max() <= 1e-2
        np.testing.assert_array_equal(recon, make_sz_t(base=2.0).decompress(blob))

    def test_base_choice_barely_affects_ratio(self, smooth_positive_3d):
        """Lemma 3 consequence: CR differences across bases stay small."""
        sizes = []
        for base in (2.0, math.e, 10.0):
            blob = make_sz_t(base=base).compress(smooth_positive_3d, RelativeBound(1e-3))
            sizes.append(len(blob))
        assert (max(sizes) - min(sizes)) / min(sizes) < 0.05


class TestWrapperMechanics:
    def test_names(self):
        assert make_sz_t().name == "SZ_T"
        assert make_zfp_t().name == "ZFP_T"
        assert TransformedCompressor(SZCompressor(), name="custom").name == "custom"

    def test_inner_must_support_absolute_bounds(self):
        with pytest.raises(TypeError):
            TransformedCompressor(FpzipCompressor())

    def test_rejects_absolute_bound(self, smooth_positive_3d):
        with pytest.raises(UnsupportedBound):
            make_sz_t().compress(smooth_positive_3d, AbsoluteBound(1e-3))

    def test_registry_dispatch(self, smooth_positive_3d):
        blob = get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-2))
        recon = decompress(blob)  # generic dispatch from container codec
        assert rel_errors(smooth_positive_3d, recon).max() <= 1e-2

    def test_sign_bitmap_skipped_for_positive_data(self, smooth_positive_3d):
        blob = make_sz_t().compress(smooth_positive_3d, RelativeBound(1e-2))
        box = Container.from_bytes(blob)
        assert box.get_u64("all_nonneg") == 1
        assert box.get("signs") == b""

    def test_lemma2_off_still_bounded_thanks_to_patches(self, smooth_positive_3d):
        comp = TransformedCompressor(SZCompressor(), apply_lemma2=False)
        recon = comp.decompress(comp.compress(smooth_positive_3d, RelativeBound(1e-4)))
        assert rel_errors(smooth_positive_3d, recon).max() <= 1e-4
