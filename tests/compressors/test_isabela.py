"""ISABELA: bound guarantee, index overhead ceiling, window handling."""

import warnings

import numpy as np
import pytest

from repro.compressors import IsabelaCompressor, RelativeBound
from repro.encoding import Container


def roundtrip(data, br, **kw):
    comp = IsabelaCompressor(**kw)
    blob = comp.compress(data, RelativeBound(br))
    return blob, comp.decompress(blob)


class TestBound:
    @pytest.mark.parametrize("br", [1e-3, 1e-2, 1e-1])
    def test_archetypes_bounded(self, all_archetypes, br):
        for name, data in all_archetypes.items():
            _, recon = roundtrip(data, br)
            x = data.astype(np.float64)
            xd = recon.astype(np.float64)
            nz = x != 0
            rel = np.abs(xd[nz] - x[nz]) / np.abs(x[nz])
            assert rel.max() <= br, f"{name} violates {br}"

    def test_zeros_preserved(self, zero_heavy_3d):
        _, recon = roundtrip(zero_heavy_3d, 1e-2)
        np.testing.assert_array_equal(recon[zero_heavy_3d == 0], 0.0)

    def test_float32_extremes_compress_without_warnings(self):
        """+-finfo.max overflows two float32 casts in the encoder; the
        points it touches are patched, with no overflow warning."""
        x = np.random.default_rng(3).lognormal(size=1024).astype(np.float32)
        big = np.finfo(np.float32).max
        x[[7, 300, 301, 1000]] = [big, -big, big, -big]
        comp = IsabelaCompressor()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            blob, verified = comp.compress_verified(x, RelativeBound(1e-3))
            recon = comp.decompress(blob)
        assert np.isfinite(recon).all()
        x64 = x.astype(np.float64)
        assert (np.abs(recon.astype(np.float64) - x64) <= 1e-3 * np.abs(x64)).all()
        np.testing.assert_array_equal(recon, verified)

    def test_shapes_and_dtype_restored(self, signed_2d):
        _, recon = roundtrip(signed_2d, 1e-2)
        assert recon.shape == signed_2d.shape
        assert recon.dtype == signed_2d.dtype


class TestIndexOverhead:
    def test_ratio_ceiling_from_index(self, smooth_positive_3d):
        """log2(window) index bits per point cap ISABELA's ratio: the
        paper never observes it much above ~3."""
        blob, _ = roundtrip(smooth_positive_3d, 1e-1)
        ratio = smooth_positive_3d.nbytes / len(blob)
        assert ratio < 3.5

    def test_ratio_insensitive_to_bound(self, smooth_positive_3d):
        sizes = [len(roundtrip(smooth_positive_3d, br)[0]) for br in (1e-3, 1e-1)]
        # bound changes affect only the small correction stream
        assert sizes[0] < 2.0 * sizes[1]

    def test_index_section_dominates(self, smooth_positive_3d):
        blob, _ = roundtrip(smooth_positive_3d, 1e-2)
        box = Container.from_bytes(blob)
        index_bytes = len(box.get("index"))
        assert index_bytes > 0.4 * len(blob)


class TestWindows:
    def test_non_multiple_length(self):
        rng = np.random.default_rng(0)
        data = np.exp(rng.normal(0, 1, size=1234)).astype(np.float32)
        _, recon = roundtrip(data, 1e-2, window=256)
        rel = np.abs(recon.astype(np.float64) - data.astype(np.float64))
        rel /= np.abs(data.astype(np.float64))
        assert rel.max() <= 1e-2

    def test_window_smaller_than_default(self, rough_1d):
        _, recon = roundtrip(rough_1d, 1e-2, window=128, ncoeff=16)
        nz = rough_1d != 0
        rel = np.abs(recon[nz].astype(np.float64) - rough_1d[nz].astype(np.float64))
        rel /= np.abs(rough_1d[nz].astype(np.float64))
        assert rel.max() <= 1e-2

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            IsabelaCompressor(window=100)  # not a power of two
        with pytest.raises(ValueError):
            IsabelaCompressor(window=32)  # too small
        with pytest.raises(ValueError):
            IsabelaCompressor(ncoeff=4)
        with pytest.raises(ValueError):
            IsabelaCompressor(window=128, ncoeff=64)

    def test_sorting_makes_rough_data_splineable(self, rough_1d):
        """The defining trick: sorted windows fit a low-order spline even
        when the raw signal is noise."""
        blob, _ = roundtrip(rough_1d, 1e-2)
        box = Container.from_bytes(blob)
        # correction codes should be cheap (< 4 bits/point on average)
        assert len(box.get("codes")) < rough_1d.size / 2
