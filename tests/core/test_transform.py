"""Log transform: bijectivity, sentinel separation, base fast paths."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.transform import FLOOR_LOG2, LogTransform


class TestForwardInverse:
    @pytest.mark.parametrize("base", [2.0, math.e, 10.0, 3.7])
    def test_roundtrip_positive_values(self, base):
        tf = LogTransform(base)
        x = np.array([1e-30, 1e-3, 1.0, 7.25, 1e20], dtype=np.float64)
        d = tf.forward(x, 1e-3)
        back = tf.inverse(d, 1e-3, np.float64)
        np.testing.assert_allclose(back, x, rtol=1e-12)

    def test_float32_stays_float32(self):
        tf = LogTransform(2.0)
        x = np.array([1.5, 2.5], dtype=np.float32)
        d = tf.forward(x, 1e-3)
        assert d.dtype == np.float32
        assert tf.inverse(d, 1e-3, np.float32).dtype == np.float32

    def test_base2_uses_exact_log2(self):
        tf = LogTransform(2.0)
        x = np.array([0.25, 1.0, 1024.0], dtype=np.float64)
        np.testing.assert_array_equal(tf.forward(x, 1e-3), [-2.0, 0.0, 10.0])

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            LogTransform().forward(np.array([-1.0]), 1e-3)

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            LogTransform(1.0)

    @given(st.floats(1e-37, 1e37), st.sampled_from([2.0, math.e, 10.0]))
    def test_property_roundtrip(self, x, base):
        tf = LogTransform(base)
        arr = np.array([x], dtype=np.float64)
        back = tf.inverse(tf.forward(arr, 1e-2), 1e-2, np.float64)
        assert back[0] == pytest.approx(x, rel=1e-12)


class TestZeroSentinel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_maps_below_floor(self, dtype):
        tf = LogTransform(2.0)
        ba = 0.01
        d = tf.forward(np.zeros(3, dtype=dtype), ba)
        assert (d < FLOOR_LOG2[np.dtype(dtype)]).all()

    def test_zero_roundtrips_to_exact_zero(self):
        tf = LogTransform(2.0)
        ba = 0.01
        x = np.array([0.0, 1.0, 0.0], dtype=np.float32)
        d = tf.forward(x, ba)
        back = tf.inverse(d, ba, np.float32)
        np.testing.assert_array_equal(back, x)

    def test_guard_band_separates_sentinel_from_data(self):
        """Even after +-ba compression noise, sentinel and genuine data
        cannot cross the zero-detection threshold."""
        tf = LogTransform(2.0)
        ba = 0.5
        dtype = np.float32
        sentinel = tf.zero_sentinel(ba, dtype)
        threshold = tf.zero_threshold(ba, dtype)
        assert sentinel + ba < threshold  # perturbed sentinel still zero
        assert FLOOR_LOG2[np.dtype(dtype)] - ba > threshold  # perturbed data never zero

    def test_denormal_input_not_swallowed(self):
        """Values at the format's floor must not decode to zero."""
        tf = LogTransform(2.0)
        ba = 0.01
        tiny = np.array([2.0**-149], dtype=np.float32)
        d = tf.forward(tiny.astype(np.float64), ba)
        back = tf.inverse(d, ba, np.float64)
        assert back[0] > 0

    def test_max_log_magnitude(self):
        tf = LogTransform(2.0)
        d = np.array([-10.0, 5.0, 0.5])
        assert tf.max_log_magnitude(d) == 10.0

    def test_max_log_magnitude_empty(self):
        assert LogTransform(2.0).max_log_magnitude(np.zeros(0)) == 0.0


class TestExponentRangeClip:
    @pytest.mark.parametrize("base", [2.0, math.e, 10.0, 3.7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overflowing_logs_clip_to_finite_max(self, base, dtype):
        """A +ba perturbation of log(finfo.max) must not decode to inf."""
        tf = LogTransform(base)
        ba = 0.01
        top = tf.max_finite_log(dtype)
        d = np.array([top, top + ba, top + 4 * ba], dtype=dtype)
        back = tf.inverse(d, ba, dtype)
        assert np.isfinite(back).all()
        assert (back <= np.finfo(dtype).max).all()
        assert back[0] > 0

    def test_in_range_values_unaffected_by_clip(self):
        tf = LogTransform(2.0)
        x = np.array([1e-3, 1.0, 1e30], dtype=np.float64)
        back = tf.inverse(tf.forward(x, 1e-3), 1e-3, np.float64)
        np.testing.assert_allclose(back, x, rtol=1e-12)


def _plain_inverse(tf: LogTransform, d: np.ndarray, ba: float, dtype) -> np.ndarray:
    """The inverse as one unmasked formula: exp, clip, then zero sentinels."""
    with np.errstate(over="ignore", under="ignore"):
        if tf.base == 2.0:
            x = np.exp2(d)
        elif tf.base == math.e:
            x = np.exp(d)
        elif tf.base == 10.0:
            x = np.power(np.asarray(10.0, dtype=d.dtype), d)
        else:
            x = np.exp2(d * np.asarray(math.log2(tf.base), dtype=d.dtype))
    x = np.minimum(x, np.asarray(np.finfo(np.dtype(dtype)).max, dtype=x.dtype))
    zero = d <= tf.zero_threshold(ba, dtype)
    return np.where(zero, np.asarray(0, dtype=dtype), x.astype(dtype))


def _sentinel_heavy(tf: LogTransform, ba: float, dtype, n: int = 4099) -> np.ndarray:
    """Log values as a sparse field decodes: ~85% perturbed zero sentinels
    among normal magnitudes, genuine subnormals, the zero threshold with
    its neighbours, and the overflow clip."""
    rng = np.random.default_rng(5)
    dt = np.dtype(dtype)
    fi = np.finfo(dt)
    d = (rng.uniform(-40, 40, n) / math.log2(tf.base)).astype(dt)
    d[rng.random(n) < 0.85] = tf.zero_sentinel(ba, dt) + rng.uniform(-ba, ba)
    # genuine subnormal magnitudes, between the denormal and normal floors
    sub = rng.choice(n, 64, replace=False)
    d[sub] = rng.uniform(tf.floor_log(dt), math.log2(fi.tiny) / math.log2(tf.base), 64)
    threshold = np.asarray(tf.zero_threshold(ba, dt), dtype=dt)
    top = np.asarray(tf.max_finite_log(dt), dtype=dt)
    special = [
        threshold,
        np.nextafter(threshold, dt.type(-np.inf)),
        np.nextafter(threshold, dt.type(np.inf)),
        top,
        top + dt.type(ba),
        tf.floor_log(dt),
    ]
    d[rng.choice(n, len(special) * 8, replace=False)] = np.repeat(special, 8)
    return d


class TestSentinelMaskedInverse:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sentinels_never_reach_exp2(self, dtype):
        # An exp2 of a sentinel underflows; the masked inverse never
        # computes one, so a strict underflow setting stays silent.
        tf = LogTransform(2.0)
        ba = 0.01
        x = np.zeros(10_000, dtype=dtype)
        x[::7] = 1.5
        x[3::11] = 1e-3
        d = tf.forward(x, ba)
        with np.errstate(under="raise"):
            back = tf.inverse(d, ba, dtype)
        np.testing.assert_allclose(back, x, rtol=1e-6)
        assert (back[x == 0] == 0).all() and not np.signbit(back).any()

    @pytest.mark.parametrize("base", [2.0, math.e, 10.0, 3.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_plain_formula(self, base, dtype):
        tf = LogTransform(base)
        ba = 0.05
        d = _sentinel_heavy(tf, ba, dtype)
        got = tf.inverse(d, ba, dtype)
        want = _plain_inverse(tf, d, ba, dtype)
        assert got.dtype == want.dtype == np.dtype(dtype)
        bits = np.uint32 if np.dtype(dtype) == np.float32 else np.uint64
        np.testing.assert_array_equal(got.view(bits), want.view(bits))
        # the mix reaches every branch: zeros, subnormals, the clip
        assert (got == 0).mean() > 0.8
        assert ((got > 0) & (got < np.finfo(dtype).tiny)).any()
        assert (got == np.finfo(dtype).max).any()
