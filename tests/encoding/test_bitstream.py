"""Bit packing primitives: fixed-width and var-width packing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding import (
    pack_fixed_width,
    pack_varbits,
    unpack_fixed_width,
    unpack_varbits,
)


class TestFixedWidth:
    def test_roundtrip(self):
        values = np.array([0, 1, 1023, 512, 7], dtype=np.uint64)
        blob = pack_fixed_width(values, 10)
        out = unpack_fixed_width(blob, 10, values.size)
        np.testing.assert_array_equal(out, values)

    def test_width_zero_only_zeros(self):
        assert pack_fixed_width(np.zeros(5, dtype=np.uint64), 0) == b""
        np.testing.assert_array_equal(
            unpack_fixed_width(b"", 0, 5), np.zeros(5, dtype=np.uint64)
        )
        with pytest.raises(ValueError):
            pack_fixed_width(np.array([1], dtype=np.uint64), 0)

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            pack_fixed_width(np.array([16], dtype=np.uint64), 4)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            pack_fixed_width(np.array([1], dtype=np.uint64), 65)

    @given(
        st.integers(1, 63),
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=100),
    )
    def test_property_roundtrip(self, width, raw):
        values = np.array([v & ((1 << width) - 1) for v in raw], dtype=np.uint64)
        out = unpack_fixed_width(pack_fixed_width(values, width), width, values.size)
        np.testing.assert_array_equal(out, values)


class TestVarBits:
    def test_roundtrip_mixed_widths(self):
        values = np.array([0, 5, 1, 255, 2**40], dtype=np.uint64)
        widths = np.array([0, 3, 1, 8, 41], dtype=np.int64)
        out = unpack_varbits(pack_varbits(values, widths), widths)
        np.testing.assert_array_equal(out, values)

    def test_empty(self):
        assert pack_varbits(np.zeros(0, np.uint64), np.zeros(0, np.int64)) == b""
        assert unpack_varbits(b"", np.zeros(0, np.int64)).size == 0

    def test_zero_width_field_at_word_boundary(self):
        # A zero-width field starting exactly at a 64-bit boundary at the
        # end of the stream used to scatter one word past the accumulator.
        values = np.array([7, 0], dtype=np.uint64)
        widths = np.array([64, 0], dtype=np.int64)
        out = unpack_varbits(pack_varbits(values, widths), widths)
        np.testing.assert_array_equal(out, values)
        values = np.array([1, 0, 3, 0], dtype=np.uint64)
        widths = np.array([32, 0, 96 - 32, 0], dtype=np.int64)
        out = unpack_varbits(pack_varbits(values, widths), widths)
        np.testing.assert_array_equal(out, values)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_varbits(np.zeros(2, np.uint64), np.zeros(3, np.int64))

    @given(st.lists(st.integers(0, 2**62 - 1), max_size=60))
    def test_property_roundtrip_with_bitlength_widths(self, raw):
        values = np.array(raw, dtype=np.uint64)
        widths = np.array([max(int(v).bit_length(), 0) for v in raw], dtype=np.int64)
        out = unpack_varbits(pack_varbits(values, widths), widths)
        np.testing.assert_array_equal(out, values)
