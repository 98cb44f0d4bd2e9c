"""Point-wise error measurement: one convention for zeros and NaN/Inf."""

import numpy as np
import pytest

from repro.metrics import bounded_fraction, relative_errors
from repro.metrics.error import measure_errors


class TestRelativeErrors:
    def test_excludes_zeros(self):
        x = np.array([0.0, 2.0, -4.0])
        xd = np.array([0.5, 2.2, -4.4])
        rel = relative_errors(x, xd)
        np.testing.assert_allclose(rel, [0.1, 0.1])

    def test_exact_reconstruction(self):
        x = np.array([1.0, 2.0])
        assert relative_errors(x, x).max() == 0.0


class TestBoundedFraction:
    def test_all_bounded(self):
        x = np.array([1.0, -2.0, 4.0])
        xd = x * 1.0005
        stats = bounded_fraction(x, xd, 1e-3)
        assert stats.strictly_bounded
        assert stats.bounded_label() == "100%"
        assert stats.max_rel == pytest.approx(5e-4)
        assert stats.n == 3

    def test_partial_violation(self):
        x = np.ones(1000)
        xd = x.copy()
        xd[0] = 1.5
        stats = bounded_fraction(x, xd, 1e-2)
        assert stats.bounded_fraction == pytest.approx(0.999)
        assert not stats.strictly_bounded
        assert stats.bounded_label() == "99.90%"

    def test_nearly_bounded_label(self):
        x = np.ones(100_000)
        xd = x.copy()
        xd[0] = 1.5
        assert bounded_fraction(x, xd, 1e-2).bounded_label() == "~100%"

    def test_modified_zero_marker(self):
        x = np.array([0.0, 1.0])
        xd = np.array([1e-9, 1.0])
        stats = bounded_fraction(x, xd, 1e-2)
        assert stats.zeros_modified == 1
        assert stats.bounded_label().endswith("*")
        assert stats.bounded_fraction == 0.5

    def test_preserved_zero_counts_as_bounded(self):
        x = np.array([0.0, 1.0])
        stats = bounded_fraction(x, x, 1e-3)
        assert stats.strictly_bounded
        assert stats.zeros_modified == 0

    def test_avg_excludes_zeros(self):
        x = np.array([0.0, 2.0])
        xd = np.array([0.0, 2.02])
        assert bounded_fraction(x, xd, 0.5).avg_rel == pytest.approx(0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bounded_fraction(np.ones(3), np.ones(4), 0.1)

    def test_max_abs(self):
        x = np.array([10.0, -5.0])
        xd = np.array([10.5, -5.0])
        assert bounded_fraction(x, xd, 0.9).max_abs == pytest.approx(0.5)


NONFINITE = [np.nan, np.inf, -np.inf]
F32_SUBNORMAL = float(np.finfo(np.float32).tiny) / 8
BOUNDS = [("rel", 1e-3), ("abs", 1e-2)]


def _field(orig, dtype=np.float64):
    """``orig`` at index 0 of a small field; recon 1e-4 off elsewhere."""
    x = np.array([orig, 1.0, -2.0, 4.0], dtype=dtype)
    return x, (x * (1.0 + 1e-4)).astype(dtype)


class TestMeasureErrors:
    def test_counts_violations_zeros_negatives(self):
        x = np.array([1.0, 2.0, -4.0, 0.0])
        xd = np.array([1.0005, 2.0, -4.0, 0.0])  # one point 5e-4 off
        e = measure_errors(x, xd, ("rel", 1e-4))
        assert e.violations == 1
        assert e.n == 4
        assert e.max_rel == pytest.approx(5e-4)
        assert e.bounded_fraction == pytest.approx(0.75)
        assert e.zeros == 1 and e.negatives == 1

    def test_modified_zero_is_a_violation(self):
        x = np.array([0.0, 1.0])
        xd = np.array([1e-30, 1.0])
        e = measure_errors(x, xd, ("rel", 1e-2))
        assert e.violations == 1 and e.zeros_modified == 1

    def test_abs_bound_grades_zeros_like_any_point(self):
        x = np.array([0.0, 1.0, 2.0])
        xd = np.array([1e-3, 1.0, 2.5])
        e = measure_errors(x, xd, ("abs", 1e-2))
        assert e.violations == 1 and e.zeros_modified == 1
        assert e.max_abs == pytest.approx(0.5)

    def test_no_bound_grades_nothing(self):
        for kind in (None, "prec", "rate"):
            e = measure_errors(np.ones(3), np.full(3, 2.0), (kind, 16.0))
            assert e.violations is None and e.bounded_fraction is None
            assert e.zeros_modified is None and e.max_rel == 1.0

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize(
        "orig,dtype",
        [(1.5, np.float64), (0.0, np.float64), (1e-310, np.float64),
         (-0.0, np.float32), (F32_SUBNORMAL, np.float32), (-3.0, np.float32)],
    )
    def test_nonfinite_recon_of_finite_original_violates(self, orig, dtype, bad):
        x, xd = _field(orig, dtype)
        xd[0] = bad
        for bound in BOUNDS:
            e = measure_errors(x, xd, bound)
            assert e.violations == 1, bound
            assert e.nonfinite == 1
            assert e.bounded_fraction == 0.75
            # maxima cover the finite residuals only
            assert e.max_rel == pytest.approx(1e-4, rel=1e-3)
            assert e.max_abs == pytest.approx(4e-4, rel=1e-3)
            assert e.zeros_modified == (1 if orig == 0 else 0)

    @pytest.mark.parametrize("val", NONFINITE)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reproduced_nonfinite_original_is_bounded(self, val, dtype):
        x, xd = _field(val, dtype)
        for bound in BOUNDS:
            e = measure_errors(x, xd, bound)
            assert e.violations == 0 and e.strictly_bounded
            assert e.nonfinite == 1
            assert e.max_rel == pytest.approx(1e-4, rel=1e-3)

    def test_any_nan_reproduces_nan(self):
        x, xd = _field(np.nan, np.float32)
        xd[0] = np.frombuffer(np.uint32(0x7FC00001).tobytes(), np.float32)[0]
        assert measure_errors(x, xd, ("rel", 1e-3)).violations == 0

    @pytest.mark.parametrize(
        "val,got",
        [(np.nan, 1.0), (np.nan, np.inf), (np.inf, -np.inf), (np.inf, np.nan),
         (-np.inf, 0.0), (np.inf, 3.4e38)],
    )
    def test_lost_nonfinite_original_violates(self, val, got):
        x, xd = _field(val)
        xd[0] = got
        for bound in BOUNDS:
            e = measure_errors(x, xd, bound)
            assert e.violations == 1 and e.nonfinite == 1
            assert np.isfinite(e.max_rel) and np.isfinite(e.max_abs)

    def test_overflowing_residual_is_nonfinite(self):
        big = np.finfo(np.float64).max
        e = measure_errors(np.array([big, 1.0]), np.array([-big, 1.0]), ("rel", 1e-3))
        assert e.violations == 1 and e.nonfinite == 1 and e.max_abs == 0.0

    def test_digest_gets_exact_signed_totals(self):
        from repro.observe.quality import ErrorHistogram

        rng = np.random.default_rng(2)
        x = rng.lognormal(0.0, 2.0, 50_000)  # past the 32Ki bucket sample
        x[rng.random(x.size) < 0.3] = 0.0
        xd = np.where(x == 0, 0.0, x * (1.0 + rng.uniform(-1e-3, 5e-4, x.size)))
        xd[:3] = [np.nan, np.inf, 1.0]
        hist = ErrorHistogram()
        e = measure_errors(x, xd, hist=hist)
        s = hist.summary()
        keep = np.isfinite(xd - x)
        nz = keep & (x != 0)
        assert s["nonfinite"] == e.nonfinite == 2
        assert s["zeros"] == int(np.count_nonzero(keep & (x == 0)))
        assert s["rel_n"] == int(np.count_nonzero(nz))
        assert s["rel_bias"] == pytest.approx(((xd - x)[nz] / x[nz]).mean(), rel=1e-9)
        assert s["abs_bias"] == pytest.approx((xd - x)[keep].mean(), rel=1e-9)
        assert s["max_rel"] == e.max_rel and s["max_abs"] == e.max_abs


class TestNonFiniteEntryPoints:
    """bounded_fraction and relative_errors follow measure_errors' rules."""

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_bounded_fraction_counts_nonfinite_recon(self, bad):
        x = np.linspace(1.0, 2.0, 5000)
        x[[7, 9]] = [0.0, 1e-310]  # a zero and a subnormal original
        xd = x * (1.0 + 2e-4)
        xd[[5, 7, 9]] = bad
        stats = bounded_fraction(x, xd, 1e-3)
        assert stats.violations == 3 and stats.zeros_modified == 1
        assert stats.bounded_fraction == pytest.approx(1 - 3 / 5000)
        assert stats.bounded_label().endswith("*")
        assert stats.max_rel == pytest.approx(2e-4)
        assert stats.avg_rel == pytest.approx(2e-4)
        assert np.isfinite(stats.max_abs)

    def test_bounded_fraction_of_a_preserve_stream(self):
        # The stream keeps NaN/Inf the audited original does not have.
        from repro import RelativeBound, decompress
        from repro.core.pwr import make_sz_t

        x = np.random.default_rng(3).lognormal(size=5000).astype(np.float32)
        src = x.copy()
        src[[10, 20]] = [np.nan, np.inf]
        blob = make_sz_t(nonfinite="preserve").compress(src, RelativeBound(1e-3))
        stats = bounded_fraction(x, decompress(blob), 1e-3)
        assert stats.violations == 2 and stats.nonfinite == 2
        assert 0 < stats.max_rel <= 1e-3 and np.isfinite(stats.max_abs)

    def test_relative_errors_skip_nonfinite(self):
        x = np.array([1.0, np.nan, 2.0, 0.0, 4.0])
        xd = np.array([1.1, np.nan, np.inf, 0.0, 4.4])
        np.testing.assert_allclose(relative_errors(x, xd), [0.1, 0.1])
