"""Reference canonical Huffman codec (pre-vectorization implementation).

This module is the retained, heap-based implementation that
:mod:`repro.encoding.huffman` replaced.  It is kept verbatim as the
format oracle: the property-test suite asserts the vectorized codec
produces byte-identical blobs and identical decodes against this
reference, so any future change to the fast path is checked against
frozen behaviour.

Do not "improve" this module; it is the specification.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.encoding.codecs import deflate, inflate, read_varint, write_varint

__all__ = ["ReferenceHuffmanCodec", "reference_code_lengths"]

_TABLE_BITS = 14  # first-level decode table covers codes up to 14 bits


def reference_code_lengths(counts: np.ndarray, length_limit: int = 24) -> np.ndarray:
    """Compute Huffman code lengths for symbol frequencies ``counts``.

    Zero-count symbols get length 0 (no codeword).  If the optimal tree is
    deeper than ``length_limit`` the counts are repeatedly halved (keeping
    them positive) until the limit is met -- a standard zlib-style
    flattening whose rate loss is negligible for the peaked distributions
    produced by quantization.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("counts must be 1-D")
    nonzero = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.uint8)
    if nonzero.size == 0:
        return lengths
    if nonzero.size == 1:
        lengths[nonzero[0]] = 1
        return lengths

    work = counts.copy()
    while True:
        depth = _tree_depths(work, nonzero)
        if depth.max() <= length_limit:
            lengths[nonzero] = depth
            return lengths
        scaled = work[nonzero] >> 1
        work[nonzero] = np.maximum(scaled, 1)


def _tree_depths(counts: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """Depths of the Huffman tree leaves for the non-zero symbols."""
    heap: list[tuple[int, int, object]] = []
    serial = 0
    for sym in nonzero.tolist():
        heap.append((int(counts[sym]), serial, sym))
        serial += 1
    heapq.heapify(heap)
    parent: dict[object, object] = {}
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        node = ("i", serial)
        parent[_key(n1)] = node
        parent[_key(n2)] = node
        heapq.heappush(heap, (c1 + c2, serial, node))
        serial += 1
    depths = np.zeros(nonzero.size, dtype=np.int64)
    # Depth of each leaf = number of parent hops to the root.  Internal
    # node depths are memoized to keep this linear.
    memo: dict[object, int] = {_key(heap[0][2]): 0}

    def depth_of(node: object) -> int:
        # Iterative walk to the nearest memoized ancestor (the tree can be
        # as deep as the alphabet, so recursion is not safe here).
        chain = []
        key = _key(node)
        while key not in memo:
            chain.append(key)
            key = _key(parent[key])
        d = memo[key]
        for k in reversed(chain):
            d += 1
            memo[k] = d
        return d

    for i, sym in enumerate(nonzero.tolist()):
        depths[i] = depth_of(sym)
    return depths


def _key(node: object) -> object:
    return node if isinstance(node, tuple) else ("s", node)


class _Canon:
    """Canonical code tables shared by encoder and decoder."""

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = lengths
        self.max_len = int(lengths.max()) if lengths.size else 0
        L = self.max_len
        bl_count = np.bincount(lengths[lengths > 0], minlength=L + 1).astype(np.int64)
        bl_count[0] = 0  # zero-length symbols have no codeword
        first_code = np.zeros(L + 2, dtype=np.int64)
        code = 0
        for ln in range(1, L + 1):
            code = (code + int(bl_count[ln - 1])) << 1
            first_code[ln] = code
        self.bl_count = bl_count
        self.first_code = first_code
        # Symbols sorted by (length, symbol); offsets[l] = index of the
        # first symbol of length l within sym_sorted.
        order = np.lexsort((np.arange(lengths.size), lengths))
        order = order[lengths[order] > 0]
        self.sym_sorted = order.astype(np.int64)
        self.offsets = np.zeros(L + 2, dtype=np.int64)
        np.cumsum(bl_count[:-1], out=self.offsets[1 : L + 1])
        if L:
            self.offsets[L + 1] = self.offsets[L] + bl_count[L]

        # Per-symbol codeword values for the encoder.
        self.code_of = np.zeros(lengths.size, dtype=np.int64)
        ranks = np.zeros(lengths.size, dtype=np.int64)
        ranks[self.sym_sorted] = np.arange(self.sym_sorted.size)
        mask = lengths > 0
        ln = lengths[mask].astype(np.int64)
        self.code_of[mask] = self.first_code[ln] + ranks[mask] - self.offsets[ln]

    def build_table(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """First-level decode table over ``k`` peek bits.

        Returns ``(symbols, lens)`` arrays of size ``2**k``; ``lens == 0``
        marks prefixes of codes longer than ``k``.
        """
        size = 1 << k
        table_sym = np.zeros(size, dtype=np.int64)
        table_len = np.zeros(size, dtype=np.uint8)
        lengths = self.lengths
        for sym in self.sym_sorted.tolist():
            ln = int(lengths[sym])
            if ln > k:
                continue
            code = int(self.code_of[sym])
            lo = code << (k - ln)
            hi = (code + 1) << (k - ln)
            table_sym[lo:hi] = sym
            table_len[lo:hi] = ln
        return table_sym, table_len


class ReferenceHuffmanCodec:
    """Self-contained canonical Huffman blobs with chunked parallel decode.

    Parameters
    ----------
    chunk_size:
        Number of symbols per independently-decodable chunk.  Smaller
        chunks mean more offset overhead but a wider decode state machine.
    length_limit:
        Maximum codeword length (and bound on encode bit-scatter passes).
    """

    def __init__(self, chunk_size: int = 256, length_limit: int = 24) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if not 2 <= length_limit <= 32:
            raise ValueError("length_limit must be in [2, 32]")
        self.chunk_size = chunk_size
        self.length_limit = length_limit

    # -- encoding ----------------------------------------------------------

    def encode(self, symbols: np.ndarray) -> bytes:
        symbols = np.ascontiguousarray(symbols, dtype=np.int64).ravel()
        if symbols.size and symbols.min() < 0:
            raise ValueError("symbols must be non-negative")
        n = symbols.size
        header = [write_varint(n), write_varint(self.chunk_size)]
        if n == 0:
            header.append(write_varint(0))  # empty length table
            return b"".join(header)

        counts = np.bincount(symbols)
        lengths = reference_code_lengths(counts, self.length_limit)
        canon = _Canon(lengths)

        enc_len = lengths[symbols].astype(np.int64)
        enc_val = canon.code_of[symbols]
        ends = np.cumsum(enc_len)
        starts = ends - enc_len
        total_bits = int(ends[-1])

        # One ragged scatter (O(total bits)) instead of one pass per code
        # bit position (O(symbols x max code length)).
        from repro.utils.ragged import ragged_arange

        bits = np.zeros(total_bits + 7, dtype=np.uint8)
        offs = ragged_arange(enc_len)
        rows = np.repeat(np.arange(symbols.size), enc_len)
        bits[starts[rows] + offs] = (
            (enc_val[rows] >> (enc_len[rows] - 1 - offs)) & 1
        ).astype(np.uint8)
        payload = np.packbits(bits[:total_bits]).tobytes()

        # Chunk offsets stored as uint32 deltas (they delta-compress well
        # and keep the side channel tiny even at small chunk sizes).
        chunk_starts = starts[:: self.chunk_size]
        deltas = np.diff(chunk_starts, prepend=0).astype(np.uint32)

        len_table = deflate(lengths.tobytes())
        offs = deflate(deltas.tobytes())
        header.append(write_varint(len(len_table)))
        header.append(len_table)
        header.append(write_varint(len(offs)))
        header.append(offs)
        header.append(write_varint(total_bits))
        header.append(payload)
        return b"".join(header)

    # -- decoding ----------------------------------------------------------

    def decode(self, blob: bytes) -> np.ndarray:
        n, pos = read_varint(blob)
        chunk_size, pos = read_varint(blob, pos)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        sz, pos = read_varint(blob, pos)
        lengths = np.frombuffer(inflate(blob[pos : pos + sz]), dtype=np.uint8)
        pos += sz
        sz, pos = read_varint(blob, pos)
        deltas = np.frombuffer(inflate(blob[pos : pos + sz]), dtype=np.uint32)
        chunk_starts = np.cumsum(deltas.astype(np.int64))
        pos += sz
        total_bits, pos = read_varint(blob, pos)
        payload = blob[pos:]

        canon = _Canon(lengths)
        if canon.max_len == 0:
            raise ValueError("corrupt Huffman blob: empty code")

        # Degenerate single-symbol stream decodes without touching bits.
        if canon.sym_sorted.size == 1:
            return np.full(n, canon.sym_sorted[0], dtype=np.int64)

        return self._decode_chunks(payload, total_bits, n, chunk_size, chunk_starts, canon)

    def _decode_chunks(
        self,
        payload: bytes,
        total_bits: int,
        n: int,
        chunk_size: int,
        chunk_starts: np.ndarray,
        canon: _Canon,
    ) -> np.ndarray:
        k = min(_TABLE_BITS, canon.max_len)
        table_sym, table_len = canon.build_table(k)

        # 32-bit sliding windows: window(p) = bits p .. p+31, built from four
        # byte gathers.  Padding guarantees in-range reads near the tail.
        raw = np.frombuffer(payload, dtype=np.uint8)
        pad = np.zeros(raw.size + 8, dtype=np.int64)
        pad[: raw.size] = raw

        nchunks = chunk_starts.size
        bitpos = chunk_starts.copy()
        out = np.zeros(n, dtype=np.int64)
        outpos = np.arange(nchunks, dtype=np.int64) * chunk_size
        # Symbols remaining per chunk (last chunk may be short).
        remaining = np.full(nchunks, chunk_size, dtype=np.int64)
        remaining[-1] = n - (nchunks - 1) * chunk_size

        active = np.flatnonzero(remaining > 0)
        max_len = canon.max_len
        first_code = canon.first_code
        bl_count = canon.bl_count
        offsets = canon.offsets
        sym_sorted = canon.sym_sorted

        while active.size:
            p = bitpos[active]
            byte = p >> 3
            shift = p & 7
            w = (
                (pad[byte] << 24)
                | (pad[byte + 1] << 16)
                | (pad[byte + 2] << 8)
                | pad[byte + 3]
            )
            w = (w << shift) & 0xFFFFFFFF
            peek = w >> (32 - k)

            sym = table_sym[peek]
            ln = table_len[peek].astype(np.int64)

            long_mask = ln == 0
            if long_mask.any():
                # Rare path: extend canonically bit by bit beyond k bits.
                li = np.flatnonzero(long_mask)
                code = (w[li] >> (32 - k)).astype(np.int64)
                cur_len = np.full(li.size, k, dtype=np.int64)
                undecoded = np.ones(li.size, dtype=bool)
                lsym = np.zeros(li.size, dtype=np.int64)
                for extra in range(k + 1, max_len + 1):
                    if not undecoded.any():
                        break
                    bit = (w[li] >> (32 - extra)) & 1
                    code = np.where(undecoded, (code << 1) | bit, code)
                    cur_len = np.where(undecoded, extra, cur_len)
                    idx = code - first_code[np.minimum(extra, max_len)]
                    ok = undecoded & (idx >= 0) & (idx < bl_count[extra])
                    if ok.any():
                        oi = np.flatnonzero(ok)
                        lsym[oi] = sym_sorted[offsets[extra] + idx[oi]]
                        undecoded[oi] = False
                if undecoded.any():
                    raise ValueError("corrupt Huffman stream: unresolvable code")
                sym = sym.copy()
                ln = ln.copy()
                sym[li] = lsym
                ln[li] = cur_len

            out[outpos[active]] = sym
            outpos[active] += 1
            bitpos[active] = p + ln
            remaining[active] -= 1
            if (bitpos[active] > total_bits).any():
                raise ValueError("corrupt Huffman stream: ran past end of payload")
            active = active[remaining[active] > 0]
        return out
