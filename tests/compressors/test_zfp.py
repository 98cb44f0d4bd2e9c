"""ZFP end-to-end: accuracy-mode bound, over-preservation, precision mode."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compressors import AbsoluteBound, PrecisionBound, RateBound, ZFPCompressor


def roundtrip(data, bound, mode="accuracy"):
    comp = ZFPCompressor(mode)
    blob = comp.compress(data, bound)
    return blob, comp.decompress(blob)


class TestAccuracyMode:
    @pytest.mark.parametrize("eb", [1e-5, 1e-2, 1.0])
    def test_archetypes_bounded(self, all_archetypes, eb):
        for name, data in all_archetypes.items():
            scaled = eb * max(float(np.abs(data).max()), 1e-30)
            _, recon = roundtrip(data, AbsoluteBound(scaled))
            err = np.abs(recon.astype(np.float64) - data.astype(np.float64))
            assert err.max() <= scaled, f"{name} violates eb={scaled}"

    def test_over_preservation(self, smooth_positive_3d):
        """ZFP characteristically lands well below the requested bound."""
        eb = float(smooth_positive_3d.max()) * 1e-3
        _, recon = roundtrip(smooth_positive_3d, AbsoluteBound(eb))
        err = np.abs(recon.astype(np.float64) - smooth_positive_3d.astype(np.float64))
        assert err.max() <= eb / 2

    def test_larger_bound_smaller_stream(self, smooth_positive_3d):
        m = float(smooth_positive_3d.max())
        sizes = [
            len(roundtrip(smooth_positive_3d, AbsoluteBound(m * eb))[0])
            for eb in (1e-6, 1e-4, 1e-2)
        ]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_all_zero_blocks_almost_free(self):
        data = np.zeros((32, 32, 32), dtype=np.float32)
        blob, recon = roundtrip(data, AbsoluteBound(1e-6))
        np.testing.assert_array_equal(recon, 0.0)
        assert len(blob) < data.nbytes / 100

    def test_partial_blocks_cropped(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, size=(13, 6)).astype(np.float32)
        _, recon = roundtrip(data, AbsoluteBound(1e-3))
        assert recon.shape == data.shape
        assert np.abs(recon - data).max() <= 1e-3

    def test_float64(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0, 1, size=(16, 16, 16))
        _, recon = roundtrip(data, AbsoluteBound(1e-9))
        assert np.abs(recon - data).max() <= 1e-9

    @given(st.integers(0, 2**31 - 1), st.floats(1e-6, 1e2))
    def test_property_bound_1d(self, seed, eb):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 10, size=37).astype(np.float32)
        _, recon = roundtrip(data, AbsoluteBound(eb))
        assert np.abs(recon.astype(np.float64) - data.astype(np.float64)).max() <= eb


class TestPrecisionMode:
    def test_mode_bound_kinds(self):
        data = np.ones(8, dtype=np.float32)
        with pytest.raises(TypeError):
            ZFPCompressor("precision").compress(data, AbsoluteBound(1.0))
        with pytest.raises(TypeError):
            ZFPCompressor("accuracy").compress(data, PrecisionBound(16))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ZFPCompressor("fixed-rate")

    def test_more_planes_more_accuracy(self, smooth_positive_3d):
        errs = []
        for p in (8, 16, 24):
            _, recon = roundtrip(smooth_positive_3d, PrecisionBound(p), "precision")
            errs.append(
                np.abs(recon.astype(np.float64) - smooth_positive_3d.astype(np.float64)).max()
            )
        assert errs[0] > errs[1] > errs[2]

    def test_wide_dynamic_range_breaks_relative_bound(self):
        """The paper's core criticism of ZFP_P: small values inside a
        large-magnitude block lose all their planes."""
        data = np.full((4, 4, 4), 1e4, dtype=np.float32)
        data[0, 0, 0] = 1e-4
        _, recon = roundtrip(data, PrecisionBound(16), "precision")
        rel = abs(float(recon[0, 0, 0]) - 1e-4) / 1e-4
        assert rel > 0.5  # hopelessly unbounded relative error

    def test_names(self):
        assert ZFPCompressor("accuracy").name == "ZFP_A"
        assert ZFPCompressor("precision").name == "ZFP_P"


class TestTopOfRange:
    """Finite input never decodes to +-inf: a block holding +-finfo.max can
    round past it, and the decoder clamps at finfo.max (as
    ``LogTransform.inverse`` does), without an overflow warning."""

    @staticmethod
    def _extremes(dtype):
        top = np.finfo(dtype)
        tail = [top.max / 3] if dtype == np.float32 else [5e-324, 0.0]
        return np.array([top.max, -top.max, 1.0, *tail] * 5, dtype=dtype)

    @pytest.mark.parametrize(
        "mode,bound",
        [("precision", PrecisionBound(bits)) for bits in (4, 12, 20, 40)]
        + [("rate", RateBound(4)), ("rate", RateBound(16)), ("accuracy", AbsoluteBound(1e-2))],
        ids=lambda v: v if isinstance(v, str) else str(v.value),
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decodes_finite(self, dtype, mode, bound):
        data = self._extremes(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, recon = roundtrip(data, bound, mode)
        assert recon.dtype == dtype
        assert np.isfinite(recon).all()
