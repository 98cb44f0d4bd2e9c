"""Blocking utilities."""

import numpy as np
import pytest

from repro.utils import block_merge, block_partition, chunk_spans, pad_to_blocks


class TestChunkSpans:
    def test_covers_range_without_overlap(self):
        spans = chunk_spans(1000, 4, 128)
        assert spans[0][0] == 0 and spans[-1][1] == 1000
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c and a < b

    def test_respects_byte_budget(self):
        for n, item, budget in [(1000, 4, 128), (7, 8, 64), (100, 3, 10)]:
            for a, b in chunk_spans(n, item, budget):
                assert (b - a) * item <= budget

    def test_balanced_sizes(self):
        sizes = [b - a for a, b in chunk_spans(100, 1, 30)]
        assert max(sizes) - min(sizes) <= 1

    def test_oversized_item_gets_own_span(self):
        assert chunk_spans(3, 100, 10) == [(0, 1), (1, 2), (2, 3)]

    def test_single_span_when_all_fits(self):
        assert chunk_spans(10, 4, 1000) == [(0, 10)]

    def test_empty(self):
        assert chunk_spans(0, 4, 128) == []

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_spans(-1, 4, 128)
        with pytest.raises(ValueError):
            chunk_spans(10, 0, 128)
        with pytest.raises(ValueError):
            chunk_spans(10, 4, 0)


class TestPadding:
    def test_exact_multiple_untouched(self):
        a = np.arange(16).reshape(4, 4)
        assert pad_to_blocks(a, 4) is a

    def test_edge_padding(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = pad_to_blocks(a, 3)
        assert p.shape == (3, 3)
        assert p[2, 2] == 4.0  # edge-replicated

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            pad_to_blocks(np.ones(4), 0)


class TestPartitionMerge:
    @pytest.mark.parametrize("shape,block", [((17,), 4), ((9, 10), 4), ((5, 6, 7), 4), ((8, 8), 8)])
    def test_roundtrip(self, shape, block):
        rng = np.random.default_rng(0)
        a = rng.normal(size=shape)
        tiles, padded = block_partition(a, block)
        assert tiles.shape[1:] == (block,) * len(shape)
        back = block_merge(tiles, padded, block, shape)
        np.testing.assert_array_equal(back, a)

    def test_block_ordering_is_c_style(self):
        a = np.arange(16, dtype=np.float64).reshape(4, 4)
        tiles, _ = block_partition(a, 2)
        np.testing.assert_array_equal(tiles[0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(tiles[1], [[2, 3], [6, 7]])

    def test_tiles_are_contiguous(self):
        a = np.ones((8, 8))
        tiles, _ = block_partition(a, 4)
        assert tiles.flags["C_CONTIGUOUS"]
