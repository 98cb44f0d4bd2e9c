"""GF(256) Reed-Solomon erasure codec: algebra, round trips, limits."""

import itertools

import numpy as np
import pytest

from repro.encoding.rs import (
    _SLAB,
    MAX_GROUP_BLOCKS,
    InsufficientParityError,
    decode_blocks,
    encode_parity,
    gf_inv,
    gf_mul,
)
from tests.encoding.rs_ref import reference_decode_blocks, reference_encode_parity

#: Ragged block lengths around the kernel's slab edges.
_LENGTHS = (0, 1, _SLAB - 1, _SLAB, _SLAB + 1)


def _ragged_group(m: int, seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    return [rng.bytes(_LENGTHS[(i + m) % len(_LENGTHS)]) for i in range(m)]


class TestFieldAlgebra:
    def test_multiplication_matches_reference(self):
        """Spot-check against slow carry-less multiply mod 0x11D."""

        def slow_mul(a, b):
            r = 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                if a & 0x100:
                    a ^= 0x11D
                b >>= 1
            return r

        rng = np.random.default_rng(0)
        for a, b in rng.integers(0, 256, size=(200, 2)):
            assert gf_mul(int(a), int(b)) == slow_mul(int(a), int(b))

    def test_zero_and_one(self):
        for a in range(256):
            assert gf_mul(a, 0) == 0
            assert gf_mul(a, 1) == a

    def test_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_distributive(self):
        rng = np.random.default_rng(1)
        for a, b, c in rng.integers(0, 256, size=(100, 3)):
            a, b, c = int(a), int(b), int(c)
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestEncodeParity:
    def test_k_zero_is_empty(self):
        assert encode_parity([b"abc"], 0) == []

    def test_parity_block_length_is_group_max(self):
        parity = encode_parity([b"ab", b"abcdef", b"a"], 2)
        assert len(parity) == 2
        assert all(len(p) == 6 for p in parity)

    def test_rejects_empty_group_and_oversize(self):
        with pytest.raises(ValueError):
            encode_parity([], 1)
        with pytest.raises(ValueError):
            encode_parity([b"x"] * 250, 6)
        with pytest.raises(ValueError):
            encode_parity([b"x"], -1)

    def test_deterministic(self):
        blocks = [bytes([i] * (i + 1)) for i in range(5)]
        assert encode_parity(blocks, 3) == encode_parity(blocks, 3)


class TestDecodeBlocks:
    def test_no_loss_passthrough(self):
        blocks = [b"aa", b"bbb"]
        assert decode_blocks(blocks, [None], [2, 3]) == blocks

    def test_single_loss_every_position(self):
        rng = np.random.default_rng(2)
        blocks = [rng.bytes(20 + 7 * i) for i in range(6)]
        parity = encode_parity(blocks, 1)
        lens = [len(b) for b in blocks]
        for lost in range(6):
            damaged = [None if i == lost else b for i, b in enumerate(blocks)]
            assert decode_blocks(damaged, parity, lens) == blocks

    def test_double_loss_every_pair_any_parity_mix(self):
        """Any 2 of (data + parity) losses with k=2 still reconstruct."""
        rng = np.random.default_rng(3)
        blocks = [rng.bytes(30) for _ in range(8)]
        parity = encode_parity(blocks, 2)
        lens = [len(b) for b in blocks]
        for i, j in itertools.combinations(range(8), 2):
            damaged = [None if x in (i, j) else b for x, b in enumerate(blocks)]
            assert decode_blocks(damaged, parity, lens) == blocks
        # one data block + one parity block lost
        for i in range(8):
            for pj in range(2):
                damaged = [None if x == i else b for x, b in enumerate(blocks)]
                p = [None if y == pj else q for y, q in enumerate(parity)]
                assert decode_blocks(damaged, p, lens) == blocks

    def test_random_property(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            k = int(rng.integers(0, 4))
            blocks = [rng.bytes(int(rng.integers(1, 64))) for _ in range(m)]
            parity = encode_parity(blocks, k)
            lens = [len(b) for b in blocks]
            n_lost = int(rng.integers(0, k + 1))
            lost = rng.choice(m, size=min(n_lost, m), replace=False)
            damaged = [None if i in lost else b for i, b in enumerate(blocks)]
            assert decode_blocks(damaged, list(parity), lens) == blocks

    def test_insufficient_parity_raises(self):
        blocks = [b"aaaa", b"bbbb", b"cccc"]
        parity = encode_parity(blocks, 1)
        damaged = [None, None, blocks[2]]
        with pytest.raises(InsufficientParityError):
            decode_blocks(damaged, parity, [4, 4, 4])

    def test_lens_mismatch_raises(self):
        with pytest.raises(ValueError):
            decode_blocks([b"aa", None], [b"xx"], [2])

    def test_max_group_limit_constant(self):
        assert MAX_GROUP_BLOCKS == 255


class TestMatchesReference:
    """The packed-table kernel against the frozen scalar loop, byte for byte."""

    @pytest.mark.parametrize("m", [1, 2, 8, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_encode_and_decode(self, k, m):
        blocks = _ragged_group(m, seed=k * 100 + m)
        parity = encode_parity(blocks, k)
        assert parity == reference_encode_parity(blocks, k)
        # Lose as many data blocks as the parity covers (all 16 at k=17:
        # a 16-row rebuild, two lane groups).
        lost = set(np.random.default_rng(m).permutation(m)[: min(k, m)].tolist())
        damaged = [None if i in lost else b for i, b in enumerate(blocks)]
        lens = [len(b) for b in blocks]
        rebuilt = decode_blocks(damaged, parity, lens)
        assert rebuilt == reference_decode_blocks(damaged, parity, lens) == blocks

    @pytest.mark.parametrize("k", [1, 2, 9, 17])
    def test_all_empty_group(self, k):
        blocks = [b""] * 3
        parity = encode_parity(blocks, k)
        assert parity == reference_encode_parity(blocks, k) == [b""] * k
        damaged = [None] * min(k, 3) + blocks[k:]
        assert decode_blocks(damaged, parity, [0, 0, 0]) == blocks

    def test_every_one_and_two_erasure_pattern_at_k9(self):
        """Data and parity erasures across the 8-row lane boundary: each
        pattern decodes with the first surviving parity blocks and again
        with the last ones, so row 8 (the second lane group) stands in."""
        m, k = 8, 9
        blocks = _ragged_group(m, seed=9)
        parity = encode_parity(blocks, k)
        assert parity == reference_encode_parity(blocks, k)
        lens = [len(b) for b in blocks]
        for n_lost in (1, 2):
            for lost in itertools.combinations(range(m + k), n_lost):
                damaged = [None if i in lost else b for i, b in enumerate(blocks)]
                have = [j for j in range(k) if m + j not in lost]
                need = sum(b is None for b in damaged)
                for offer in ({*have[:need]}, {*have[len(have) - need :]}):
                    p = [q if j in offer else None for j, q in enumerate(parity)]
                    got = decode_blocks(damaged, p, lens)
                    assert got == reference_decode_blocks(damaged, p, lens) == blocks

    def test_reads_buffer_views_in_place(self):
        """Slices of one buffer (what verify and repair pass) encode and
        rebuild exactly like the bytes they view."""
        blocks = _ragged_group(5, seed=5)
        joined = memoryview(b"".join(blocks))
        offs = np.cumsum([0] + [len(b) for b in blocks]).tolist()
        views = [joined[a:b] for a, b in zip(offs, offs[1:])]
        parity = encode_parity(blocks, 3)
        assert encode_parity(views, 3) == parity
        pviews = [memoryview(p) for p in parity]
        damaged = [None, *views[1:4], None]
        assert decode_blocks(damaged, pviews, [len(b) for b in blocks]) == blocks
