"""MSB-first bit packing of integer arrays, fully vectorized.

* :func:`pack_fixed_width` / :func:`unpack_fixed_width` -- packing at a
  fixed bit width (ISABELA's permutation index).
* :func:`pack_varbits` / :func:`unpack_varbits` -- packing at a per-value
  bit width the decoder already knows (FPZIP's residual mantissas).

All streams are MSB-first: the first bit written is the most significant
bit of the first byte.  This matches the convention of the canonical
Huffman codec in :mod:`repro.encoding.huffman`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_fixed_width",
    "unpack_fixed_width",
    "pack_varbits",
    "unpack_varbits",
]


def pack_fixed_width(values: np.ndarray, width: int) -> bytes:
    """Pack a 1-D array of non-negative ints at ``width`` bits each.

    Fully vectorized: expands each value into its ``width`` bits via
    broadcasting and a single ``np.packbits`` call.
    """
    if width < 0 or width > 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64).ravel()
    if width == 0:
        if np.any(values != 0):
            raise ValueError("width 0 can only encode zeros")
        return b""
    if values.size and int(values.max()) >> width:
        raise ValueError(f"value {int(values.max())} does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_fixed_width(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed_width`; returns a uint64 array."""
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    nbits = width * count
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = np.left_shift(np.uint64(1), np.arange(width - 1, -1, -1, dtype=np.uint64))
    return (bits * weights).sum(axis=1, dtype=np.uint64)


def pack_varbits(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack ``values[i]`` at ``widths[i]`` bits each (MSB-first per field).

    Vectorized with ``np.uint64`` accumulators: each field (up to 64 bits,
    starting at bit offset ``starts[i]``) straddles at most two 64-bit
    words, and its two halves are ORed into per-word accumulators with
    ``np.bitwise_or.at`` -- a constant number of numpy passes instead of
    one bit-scatter pass per bit position.  The decoder must know the
    widths (FPZIP recovers them from the Huffman-coded residual classes).
    """
    values = np.ascontiguousarray(values, dtype=np.uint64).ravel()
    widths = np.ascontiguousarray(widths, dtype=np.int64).ravel()
    if values.size != widths.size:
        raise ValueError("values and widths must have the same length")
    if widths.size == 0:
        return b""
    if widths.min() < 0 or widths.max() > 64:
        raise ValueError("widths must be in [0, 64]")
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1])
    if total == 0:
        return b""
    w64 = widths.astype(np.uint64)
    vals = values & _low_mask(w64)  # keep the low `width` bits only
    word = starts >> 6
    bitoff = (starts & 63).astype(np.uint64)
    # Zero-width fields carry no bits, and one starting exactly at the end
    # of the stream would scatter past the accumulator -- drop them.
    if widths.min() == 0:
        keep = w64 > 0
        vals, w64 = vals[keep], w64[keep]
        word, bitoff = word[keep], bitoff[keep]
    # Left-align each field inside the 128-bit window over words
    # [word, word+1]: high half when the field fits above bit 64 of the
    # window, both halves when it straddles.
    head = np.uint64(64) - bitoff  # bits available in the first word
    fits = w64 <= head
    hi = np.where(fits, vals << ((head - w64) & np.uint64(63)), vals >> (w64 - head))
    lo = np.where(fits, np.uint64(0), vals << ((np.uint64(128) - bitoff - w64) & np.uint64(63)))
    nwords = (total + 63) >> 6
    acc = np.zeros(nwords + 1, dtype=np.uint64)
    np.bitwise_or.at(acc, word, hi)
    np.bitwise_or.at(acc, word + 1, lo)
    nbytes = (total + 7) >> 3
    return acc[:nwords].astype(">u8").tobytes()[:nbytes]


def _low_mask(widths: np.ndarray) -> np.ndarray:
    """``(1 << widths) - 1`` as uint64, valid for widths in [0, 64]."""
    full = widths >= np.uint64(64)
    return np.where(
        full, np.uint64(0xFFFFFFFFFFFFFFFF), (np.uint64(1) << (widths % np.uint64(64))) - np.uint64(1)
    )


def unpack_varbits(data: bytes, widths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_varbits`; returns uint64 values.

    Each field is read from a 64-bit window gathered at its starting
    byte, with a ninth byte patched in for fields that straddle the
    window -- a constant number of numpy passes.
    """
    widths = np.ascontiguousarray(widths, dtype=np.int64).ravel()
    if widths.size == 0:
        return np.zeros(0, dtype=np.uint64)
    ends = np.cumsum(widths)
    starts = ends - widths
    total = int(ends[-1])
    if total == 0:
        return np.zeros(widths.size, dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    if total > 8 * raw.size:
        raise ValueError(f"stream holds {8 * raw.size} bits, {total} required")
    pad = np.zeros(raw.size + 9, dtype=np.uint8)
    pad[: raw.size] = raw
    byte = starts >> 3
    sh = (starts & 7).astype(np.uint64)
    win = np.zeros(starts.size, dtype=np.uint64)
    for j in range(8):
        win |= pad[byte + j].astype(np.uint64) << np.uint64(8 * (7 - j))
    ninth = pad[byte + 8].astype(np.uint64)
    # Bits [starts, starts+64) left-aligned: shift the window up by the
    # sub-byte offset and pull the spilled bits in from the ninth byte.
    aligned = (win << sh) | (ninth >> ((np.uint64(8) - sh) & np.uint64(63)))
    aligned = np.where(sh == 0, win, aligned)
    w64 = widths.astype(np.uint64)
    values = aligned >> ((np.uint64(64) - w64) & np.uint64(63))
    return np.where(w64 == 0, np.uint64(0), values)
