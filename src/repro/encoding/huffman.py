"""Canonical Huffman coding, fully vectorized on both paths.

SZ's second stage is a customized Huffman encoder over quantization codes.
This implementation keeps the blob format of the original chunk-parallel
codec (the test suite keeps it as the frozen format oracle) but removes
every per-symbol Python loop:

* tree construction uses the classic two-queue merge over the unique
  symbols -- one sort plus a run-batched merge loop (all items sharing
  the current minimum count pair off in one numpy step) -- with leaf
  depths recovered by pointer doubling over the parent array.
  Tie-breaking matches the reference heap exactly (equal counts:
  earlier-created node first, leaves in symbol order before internals),
  so code lengths and therefore blobs are byte-identical;
* encoding walks the symbols in segments of whole chunks (~2**16
  symbols), so its temporaries stay cache-sized: each segment gathers
  its code lengths and values, takes uint32 bit cursors from its first
  word, left-aligns each codeword in the 64-bit window at the word
  holding its first bit, and ORs every word's windows together through
  one XOR prefix over the segment (disjoint bits make XOR an OR); the
  chunk offsets are read off the same cursors;
* decoding walks all chunks in parallel, one table-driven step per
  symbol slot: each step gathers a 32-bit window at every chunk's
  cursor, resolves symbol + length from a fused first-level prefix
  table, and advances all cursors at once -- the per-symbol work is a
  handful of numpy ops over the chunk vector, never a Python loop over
  symbols.  The table is as wide as the stream's longest code, up to 20
  bits, so every step is one lookup; only codes past that cap take a
  canonical ``searchsorted`` over the per-length code boundaries.  A
  payload over 2**29 bits is walked in segments of whole chunks, each
  sliced from its own first byte, so the cursors stay uint32.

Blobs remain self-contained and byte-identical to the reference encoder.
The encoder writes codes of at most 24 bits; the decoder reads every blob
with codes of up to 25 bits (what a 32-bit window holds at any bit
offset) and rejects longer codes as corrupt.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.encoding.codecs import deflate, inflate, read_varint, write_varint

__all__ = ["HuffmanCodec", "huffman_code_lengths", "CODEC_PATH"]

# Variant tag recorded in benchmark emissions so regression gating never
# compares this path against baselines from a different implementation.
CODEC_PATH = "vectorized"

# Cap on the first-level decode table width.  The table is as wide as
# the stream's longest code up to this cap (2**20 uint32 entries, 4 MiB);
# quantizer codes on dense fields reach 17-19 bits, so they all resolve
# in one lookup.  Only codes past the cap -- each rarer than 2**-20 --
# take the canonical searchsorted fixup.
_TABLE_BITS = 20

# Longest code the encoder writes, and the longest the decoder reads: a
# 32-bit window shifted left by up to 7 bits keeps 25 valid bits.
_LENGTH_LIMIT = 24
_MAX_DECODE_LEN = 25

# Chunk cursors are uint32 bit offsets from their segment's first byte; a
# payload over this many bits is walked in several segments of whole chunks.
_SEGMENT_BITS = 1 << 29

# The encoder packs bits in segments of this many symbols, rounded down to
# whole chunks (a longer chunk is split): its per-symbol temporaries stay
# cache-sized.
_ENCODE_SYMBOLS = 1 << 16


def huffman_code_lengths(counts: np.ndarray, length_limit: int = _LENGTH_LIMIT) -> np.ndarray:
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

    vals = counts[nonzero]
    while True:
        depth = _tree_depths(vals)
        if depth.max() <= length_limit:
            lengths[nonzero] = depth
            return lengths
        vals = np.maximum(vals >> 1, 1)


def _tree_depths(vals: np.ndarray) -> np.ndarray:
    """Depths of the Huffman tree leaves for the non-zero counts ``vals``.

    Two-queue merge: leaves sorted by count once, internal nodes created
    in nondecreasing count order so a FIFO list stays sorted.  On count
    ties a leaf is taken before an internal node and earlier entries
    before later ones, which reproduces the reference heap's
    ``(count, serial)`` ordering (leaf serials precede internal serials)
    and hence the exact same tree shape.

    The merge is run-batched: all items carrying the current minimum
    count are the globally smallest and their pairwise sums (2x the
    minimum) can never undercut later queue entries, so whole runs pair
    off consecutively in one numpy step.  Quantized residual counts are
    massively tied, collapsing the O(n) scalar loop to a few dozen
    batch rounds; fully distinct counts degrade gracefully to the
    scalar two-queue step.
    """
    n = vals.size
    order = np.argsort(vals, kind="stable")
    leaf_counts = vals[order].tolist()
    # parent[i]: leaves are nodes 0..n-1 (in sorted-count order), internal
    # nodes n..2n-2 in creation order; the root (2n-2) has no parent.
    parent = np.empty(2 * n - 2, dtype=np.int64)
    internal: list[int] = []
    li = 0
    ij = 0
    nid = n
    remaining = n - 1  # merges left to perform
    while remaining:
        ilen = len(internal)
        lv = leaf_counts[li] if li < n else None
        iv = internal[ij] if ij < ilen else None
        v = lv if (iv is None or (lv is not None and lv <= iv)) else iv
        # Runs of value v at both queue heads; ties order leaves first.
        a = bisect_right(leaf_counts, v, li, n) - li if lv == v else 0
        b = bisect_right(internal, v, ij, ilen) - ij if iv == v else 0
        npairs = (a + b) >> 1
        if npairs >= 2:
            used = npairs * 2
            ua = min(a, used)  # leaves consumed (they sort before internals)
            ub = used - ua
            pids = np.arange(nid, nid + npairs, dtype=np.int64).repeat(2)
            if ub == 0:
                parent[li : li + ua] = pids
            else:
                parent[li : li + ua] = pids[:ua]
                parent[n + ij : n + ij + ub] = pids[ua:]
            internal.extend([v + v] * npairs)
            li += ua
            ij += ub
            nid += npairs
            remaining -= npairs
            continue
        # Scalar step: merge the two smallest (run too short to batch).
        if li < n and (ij >= ilen or leaf_counts[li] <= internal[ij]):
            x = li
            cx = leaf_counts[li]
            li += 1
        else:
            x = n + ij
            cx = internal[ij]
            ij += 1
        if li < n and (ij >= ilen or leaf_counts[li] <= internal[ij]):
            y = li
            cy = leaf_counts[li]
            li += 1
        else:
            y = n + ij
            cy = internal[ij]
            ij += 1
        parent[x] = nid
        parent[y] = nid
        internal.append(cx + cy)
        nid += 1
        remaining -= 1

    # Leaf depth = hops to root, computed for all nodes at once by
    # pointer doubling: O(nodes * log(depth)) numpy passes.  The root's
    # depth is pinned at 0, so nodes already pointing at it gain nothing
    # from further passes -- no masking needed.
    root = 2 * n - 2
    jump = np.empty(2 * n - 1, dtype=np.int64)
    jump[:root] = parent
    jump[root] = root
    depth = np.ones(2 * n - 1, dtype=np.int64)
    depth[root] = 0
    hop = np.empty_like(depth)
    nxt = np.empty_like(jump)
    while (jump != root).any():
        depth.take(jump, None, hop, "clip")
        depth += hop
        jump.take(jump, None, nxt, "clip")
        jump, nxt = nxt, jump

    out = np.empty(n, dtype=np.int64)
    out[order] = depth[:n]
    return out


class _Canon:
    """Canonical code tables shared by encoder and decoder.

    All per-symbol work runs over the (usually much smaller) set of
    symbols with a codeword; the dense encoder table is built lazily so
    the decoder never pays for it.
    """

    def __init__(self, lengths: np.ndarray) -> None:
        self.lengths = lengths
        nzi = np.flatnonzero(lengths)
        key = lengths[nzi].astype(np.int64)
        self.max_len = int(key.max()) if key.size else 0
        L = self.max_len
        bl_count = np.bincount(key, minlength=L + 1).astype(np.int64)
        bl_count[0] = 0  # zero-length symbols have no codeword
        first_code = np.zeros(L + 2, dtype=np.int64)
        code = 0
        for ln in range(1, L + 1):
            code = (code + int(bl_count[ln - 1])) << 1
            first_code[ln] = code
        self.bl_count = bl_count
        self.first_code = first_code
        # Symbols sorted by (length, symbol); offsets[l] = index of the
        # first symbol of length l within sym_sorted.  ``nzi`` is already
        # symbol-ordered, so a stable sort by length alone suffices (on
        # the stored uint8 lengths it is a radix sort).
        order = np.argsort(lengths[nzi], kind="stable")
        self.sym_sorted = nzi[order].astype(np.int64)
        self._sorted_lens = key[order]
        self.offsets = np.zeros(L + 2, dtype=np.int64)
        np.cumsum(bl_count[:-1], out=self.offsets[1 : L + 1])
        if L:
            self.offsets[L + 1] = self.offsets[L] + bl_count[L]
        self._code_of: np.ndarray | None = None

    @property
    def code_of(self) -> np.ndarray:
        """Per-symbol codeword values (dense, encoder-only; lazy)."""
        if self._code_of is None:
            code_of = np.zeros(self.lengths.size, dtype=np.int64)
            ln = self._sorted_lens
            code_of[self.sym_sorted] = (
                self.first_code[ln]
                + np.arange(self.sym_sorted.size, dtype=np.int64)
                - self.offsets[ln]
            )
            self._code_of = code_of
        return self._code_of

    def fused_table(self, k: int, dtype=np.uint32) -> np.ndarray:
        """First-level decode table over ``k`` peek bits, ``(symbol << 6) | length``.

        Entry ``p`` resolves every window whose top ``k`` bits are ``p``;
        0 marks prefixes of codes longer than ``k``.  Canonical intervals
        of codes no longer than ``k`` bits tile ``[0, E)`` contiguously in
        (length, symbol) order, so the whole table -- the zero tail
        included -- is one ``np.repeat``.
        """
        lens = self._sorted_lens
        short = lens <= k
        lens = lens[short]
        spans = np.int64(1) << (k - lens)
        tail = (1 << k) - int(spans.sum())
        if tail < 0:
            raise ValueError("corrupt Huffman blob: code lengths overfill the code space")
        vals = np.append((self.sym_sorted[short] << 6) | lens, 0).astype(dtype)
        return np.repeat(vals, np.append(spans, tail))


class HuffmanCodec:
    """Self-contained canonical Huffman blobs with chunked parallel decode.

    Parameters
    ----------
    chunk_size:
        Number of symbols per independently-decodable chunk.  Smaller
        chunks mean more offset overhead but a wider decode state machine.
    """

    def __init__(self, chunk_size: int = 256) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

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
        lengths = huffman_code_lengths(counts)
        canon = _Canon(lengths)
        words, chunk_starts, total_bits = _pack(symbols, counts, canon, self.chunk_size)

        # Chunk offsets stored as uint32 deltas (they delta-compress well
        # and keep the side channel tiny even at small chunk sizes).
        deltas = np.diff(chunk_starts, prepend=0).astype(np.uint32)

        len_table = deflate(lengths.tobytes())
        offs = deflate(deltas.tobytes())
        header.append(write_varint(len(len_table)))
        header.append(len_table)
        header.append(write_varint(len(offs)))
        header.append(offs)
        header.append(write_varint(total_bits))
        header.append(words.astype(">u4", copy=False).view(np.uint8)[: (total_bits + 7) >> 3])
        return b"".join(header)

    # -- decoding ----------------------------------------------------------

    def decode(self, blob: bytes) -> np.ndarray:
        n, pos = read_varint(blob)
        chunk_size, pos = read_varint(blob, pos)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if chunk_size == 0:
            raise ValueError("corrupt Huffman stream: chunk size 0")
        sz, pos = read_varint(blob, pos)
        lengths = np.frombuffer(inflate(blob[pos : pos + sz]), dtype=np.uint8)
        pos += sz
        sz, pos = read_varint(blob, pos)
        deltas = np.frombuffer(inflate(blob[pos : pos + sz]), dtype=np.uint32)
        chunk_starts = np.cumsum(deltas.astype(np.int64))
        pos += sz
        total_bits, pos = read_varint(blob, pos)
        raw = np.frombuffer(blob[pos:], dtype=np.uint8)

        canon = _Canon(lengths)
        if canon.max_len == 0:
            raise ValueError("corrupt Huffman blob: empty code")
        if canon.max_len > _MAX_DECODE_LEN:
            raise ValueError(
                f"corrupt Huffman blob: {canon.max_len}-bit code, "
                f"longer than {_MAX_DECODE_LEN} bits"
            )

        # Degenerate single-symbol stream decodes without touching bits.
        if canon.sym_sorted.size == 1:
            return np.full(n, canon.sym_sorted[0], dtype=np.int64)

        nchunks = chunk_starts.size
        if nchunks != (n + chunk_size - 1) // chunk_size:
            raise ValueError("corrupt Huffman stream: chunk table mismatch")
        if total_bits > 8 * raw.size:
            raise ValueError("corrupt Huffman stream: ran past end of payload")
        if int(chunk_starts[-1]) >= total_bits:
            raise ValueError("corrupt Huffman stream: chunk offset out of range")

        # Segments of whole chunks, each spanning at most _SEGMENT_BITS
        # from its first chunk's byte (one chunk at least, whatever its
        # length); a segment ends where the next one's first chunk starts.
        ends = np.append(chunk_starts, total_bits)
        parts = []
        a = 0
        while a < nchunks:
            base = int(chunk_starts[a]) >> 3
            b = int(np.searchsorted(ends, 8 * base + _SEGMENT_BITS, side="right")) - 1
            b = max(b, a + 1)
            seg_bits = int(ends[b]) - 8 * base
            if seg_bits > (1 << 32) - 64:
                raise ValueError("unsupported Huffman stream: chunk too long for uint32 cursors")
            parts.append(_walk(
                raw[base : base + ((seg_bits + 7) >> 3)],
                chunk_starts[a:b] - 8 * base,
                seg_bits,
                min(n, b * chunk_size) - a * chunk_size,
                chunk_size,
                canon,
            ))
            a = b
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _walk(
    raw: np.ndarray,
    chunk_starts: np.ndarray,
    total_bits: int,
    n: int,
    chunk_size: int,
    canon: _Canon,
) -> np.ndarray:
    """Decode the ``n`` symbols of one segment of whole chunks.

    ``chunk_starts`` are bit offsets into ``raw``, whose first
    ``total_bits`` bits the chunks fill; every chunk but the last holds
    ``chunk_size`` symbols.
    """
    nchunks = chunk_starts.size
    L = canon.max_len
    k = min(_TABLE_BITS, L)
    # Fused first-level table: one gather yields (symbol << 6) | length,
    # so each walk step needs a single lookup.  Length 0 marks prefixes
    # of codes longer than k bits (resolved canonically below).  uint32
    # entries hold symbols below 2**26.
    fused = canon.fused_table(k, np.uint64 if canon.lengths.size >= 1 << 26 else np.uint32)

    # window(byte) = payload bits 8*byte..8*byte+31: an unaligned
    # big-endian uint32 view at every byte offset of the zero-padded
    # payload, converted in one pass.  Shifting by `pos & 7` left-aligns
    # the code at any bit cursor (uint32 arithmetic wraps, standing in
    # for the & 0xFFFFFFFF).
    pad = np.zeros(raw.size + 4, dtype=np.uint8)
    pad[: raw.size] = raw
    W = np.ndarray((raw.size + 1,), ">u4", pad, strides=(1,)).astype(np.uint32)

    # Canonical boundaries for codes longer than k bits: with Kraft
    # equality the intervals B[l] partition [0, 2**L), so searchsorted
    # is total; the rank check flags corrupt streams (Kraft < 1 gaps).
    if L > k:
        lens_1L = np.arange(1, L + 1)
        bounds = (canon.first_code[1 : L + 1] + canon.bl_count[1 : L + 1]) << (
            L - lens_1L
        )
    sh_k = np.uint32(32 - k)
    sh_L = np.uint32(32 - L)
    u3 = np.uint32(3)
    u7 = np.uint32(7)
    low6 = np.uint32(63)
    end = np.uint32(total_bits)
    iters = min(chunk_size, n)
    rem_last = n - (nchunks - 1) * chunk_size

    # Parallel walk: every chunk consumes one symbol per iteration.
    # Cursors clamp at total_bits so window reads stay in range; an
    # overrun is detected after the loop (the decoded lengths no longer
    # fit the payload).  Slots past a short last chunk's end are not
    # part of the output and are ignored throughout.  The loop body
    # writes into preallocated buffers (`out=`) -- at ~100-300 cursors
    # per step, allocation would otherwise dominate.
    pos = chunk_starts.astype(np.uint32)
    out = np.empty((iters, nchunks), dtype=fused.dtype)
    b = np.empty(nchunks, dtype=np.uint32)
    w = np.empty(nchunks, dtype=np.uint32)
    ln = np.empty(nchunks, dtype=np.uint32)
    has_long = L > k  # only then can a step yield length 0 that must
    # be resolved in-loop; otherwise zeros stall their cursor and are
    # diagnosed once after the walk.
    for t in range(iters):
        f = out[t]
        np.right_shift(pos, u3, out=b)
        W.take(b, None, w, "clip")
        np.bitwise_and(pos, u7, out=b)
        np.left_shift(w, b, out=w)
        np.right_shift(w, sh_k, out=b)
        fused.take(b, None, f, "clip")
        np.bitwise_and(f, low6, out=ln)
        if has_long and not ln.all():
            zi = np.flatnonzero(ln == 0)
            if t >= rem_last:
                zi = zi[zi != nchunks - 1]
            if zi.size:
                v = (w[zi] >> sh_L).astype(np.int64)
                lns = np.minimum(np.searchsorted(bounds, v, side="right") + 1, L)
                idx = (v >> (L - lns)) - canon.first_code[lns]
                ok = (idx >= 0) & (idx < canon.bl_count[lns])
                if not ok.all():
                    if (pos[zi[~ok]] >= end).any():
                        raise ValueError(
                            "corrupt Huffman stream: ran past end of payload"
                        )
                    raise ValueError("corrupt Huffman stream: unresolvable code")
                sym = canon.sym_sorted[idx + canon.offsets[lns]]
                fz = ((sym << 6) | lns).astype(fused.dtype)
                f[zi] = fz
                ln[zi] = fz & low6
        np.add(pos, ln, out=pos)
        np.minimum(pos, end, out=pos)

    # Zeros surviving the walk on real output slots mean a prefix with
    # no codeword (a Kraft gap -- corrupt table or payload).
    lens_out = out & low6
    if (lens_out[:rem_last] == 0).any() or (
        lens_out[rem_last:, :-1] == 0
    ).any():
        raise ValueError("corrupt Huffman stream: unresolvable code")

    # Each non-last chunk must land no further than the next chunk's
    # start; the last chunk's decoded lengths must fit the payload
    # (clamped cursors make the final position unreliable, the length
    # sum is not).
    if nchunks > 1 and (
        (pos[:-1].astype(np.int64) > chunk_starts[1:]).any()
    ):
        raise ValueError("corrupt Huffman stream: ran past end of payload")
    last_bits = int(lens_out[:rem_last, -1].sum(dtype=np.int64))
    if int(chunk_starts[-1]) + last_bits > total_bits:
        raise ValueError("corrupt Huffman stream: ran past end of payload")

    # Chunks are contiguous and only the last may be short, so the
    # symbols in output order are the first n of the (step, chunk)
    # matrix transposed: one shift writes them transposed into int64.
    syms = np.empty((nchunks, iters), dtype=np.int64)
    np.right_shift(out.T, np.uint32(6), out=syms)
    return syms.reshape(-1)[:n]


def _pack(
    symbols: np.ndarray, counts: np.ndarray, canon: _Canon, chunk_size: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pack the codewords of ``symbols`` MSB-first into 32-bit words.

    Returns ``(words, chunk_starts, total_bits)``: native uint32 words
    (one spare at the end), every chunk's first bit, and the bit count.
    Segments of whole chunks (a chunk longer than :data:`_ENCODE_SYMBOLS`
    is split) keep every temporary segment-sized; inside one, uint32
    cursors count from the word holding its first bit.  Each codeword is
    left-aligned in the 64-bit window at its first bit's word.  Codewords
    never overlap, so XOR ORs them: the windows of one word (a run, the
    cursors being sorted) sum to the XOR of the prefix XORs at the ends of
    its run and of the run before.  The high half lands in that word, the
    low half in the next; a code of at most 32 bits starts in every word
    it touches but the last, so the runs cover the words contiguously.
    """
    n = symbols.size
    lengths, code_of = canon.lengths, canon.code_of
    total_bits = int(counts[canon.sym_sorted] @ canon._sorted_lens)
    words = np.zeros((total_bits >> 5) + 2, dtype=np.uint32)
    chunk_starts = np.empty(-(-n // chunk_size), dtype=np.int64)
    step = _ENCODE_SYMBOLS // chunk_size * chunk_size or _ENCODE_SYMBOLS
    bit = 0  # first bit of the current segment
    c = 0  # chunks started so far
    for a in range(0, n, step):
        seg = symbols[a : a + step]
        m = seg.size
        base, off = bit >> 5, bit & 31
        ln = lengths.take(seg)
        cur = np.empty(m + 1, dtype=np.uint32)  # starts, then the end
        cur[0] = off
        cur[1:] = ln
        np.cumsum(cur, out=cur)
        starts = cur[:-1]
        cs = starts[-a % chunk_size :: chunk_size]  # the chunks starting here
        chunk_starts[c : c + cs.size] = cs
        chunk_starts[c : c + cs.size] += base << 5
        c += cs.size

        shift = starts & np.uint32(31)
        shift += ln
        np.subtract(np.uint32(64), shift, out=shift)
        window = code_of.take(seg).view(np.uint64)
        np.left_shift(window, shift, out=window)
        word = starts >> np.uint32(5)
        ends = np.append(np.flatnonzero(word[1:] != word[:-1]), m - 1)
        np.bitwise_xor.accumulate(window, out=window)
        acc = window.take(ends)
        acc[1:] ^= acc[:-1]
        nw = acc.size
        words[base : base + nw] |= (acc >> np.uint64(32)).astype(np.uint32)
        words[base + 1 : base + nw + 1] |= acc.astype(np.uint32)
        bit = (base << 5) + int(cur[m])
    return words, chunk_starts, total_bits
