"""The container format's checksums: CRC-32 through zlib, and CRC-32C in
pure numpy for reading legacy streams.

Every checksummed container (see ``docs/formats.md``) stores a CRC per
section and one for the whole stream.  v5 streams use CRC-32, zlib's
reflected polynomial 0xEDB88320, so :func:`crc32` is :func:`zlib.crc32`.
v2-v4 streams use CRC-32C (Castagnoli), which the standard library lacks;
:func:`crc32c` computes it in numpy, ~18x slower than zlib's CRC-32, for
legacy streams and the job journal only.  Its tables are built on its
first use, never at import, so a process that meets only v5 streams
builds none of them.

Both codes are GF(2)-linear, which the CRC-32C hot path exploits three
times over:

* slice-by-16: the contribution of a 16-byte group to the final register
  is sixteen 256-entry table gathers XORed together, turning the message
  into one ``uint32`` contribution per group in a handful of numpy
  passes.  The initial register is folded into the first group's
  contribution (``table[b ^ r] == table[b] ^ table[r]``), so no separate
  register advance is ever needed.  Wider groups cost the same number of
  gathers as narrow ones but produce 4x fewer contributions, which
  quarters the folding work below;
* row folding: contributions at different distances from the end of the
  message differ only by a linear "advance by D zero bytes" operator.
  The groups are shaped into rows of 64 and the rows folded pairwise
  (advance the left row by the right row's span, XOR) -- log2(rows)
  batched table applications instead of log2(groups);
* a combined position table resolves the one remaining 64-group row in a
  single 256-element gather plus an XOR reduction: entry
  ``[4*j + lane][b]`` is the final-register effect of byte ``b`` in lane
  ``lane`` of row position ``j`` (i.e. advanced through ``16*(63-j)``
  trailing zero bytes).  The table is 256 KB.

The same "advance by D zero bytes" tables, one set per polynomial, give
:func:`crc32_combine` and :func:`crc32c_combine`: the CRC of a
concatenation from the CRCs of its parts in O(log D) lookups, so writers
and readers never hash a byte twice.

``crc32c(data, value=0)`` mirrors :func:`zlib.crc32`'s signature so
checksums can be computed incrementally over stream parts.
"""

from __future__ import annotations

import threading
from zlib import crc32

import numpy as np

__all__ = ["crc32", "crc32_combine", "crc32c", "crc32c_combine"]

_POLY = 0x82F63B78  # reflected Castagnoli polynomial (CRC-32C)
_POLY_CRC32 = 0xEDB88320  # reflected zlib polynomial (CRC-32)


def _byte_table(poly: int) -> np.ndarray:
    """The classic 256-entry table: register after one byte from state 0."""
    values = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        odd = values & np.uint32(1)
        values = (values >> np.uint32(1)) ^ (np.uint32(poly) * odd)
    return values


# poly -> (byte table, the same as python ints for cheap scalar lookups).
_BYTE_TABLES: dict[int, tuple[np.ndarray, list[int]]] = {}


def _table(poly: int) -> tuple[np.ndarray, list[int]]:
    """``poly``'s byte table, built on first use."""
    tables = _BYTE_TABLES.get(poly)
    if tables is None:
        table = _byte_table(poly)
        tables = _BYTE_TABLES.setdefault(poly, (table, table.tolist()))
    return tables


# Bytes per contribution group of the sliced hot path.
_GROUP = 16

# CRC-32C slice tables, built by _word_tables on the first sliced hash:
# _WORD_TABLES[j][b] = contribution of byte value b followed by j more
# message bytes, from register 0; _WT_LISTS holds them as python ints.
_WORD_TABLES: list[np.ndarray] = []
_WT_LISTS: list[list[int]] = []

#: Groups per row in the folding stage; must match the position table.
_ROW = 64

# Advance tables per polynomial, _ADVANCE for CRC-32C: entry k is
# ``(tables, flat)`` for register advance through 4 << k zero bytes, where
# tables[i][b] (shape (4, 256)) is advance(b << 8i) and flat holds the same
# 1024 values as python ints.  Built lazily as larger distances are seen,
# under _LOCK: each entry is derived from the last one, so two threads
# extending a list at once would misplace entries and corrupt every later
# CRC in the process.
_ADVANCE: list[tuple[np.ndarray, list[int]]] = []
_ADVANCE_CRC32: list[tuple[np.ndarray, list[int]]] = []
_LOCK = threading.Lock()

# Combined position table, (256, 256): row 4*j + lane maps a byte in
# lane `lane` of row position j to its final-register effect.
_POS64: np.ndarray | None = None
_IDX256 = np.arange(256)


def _apply(tables: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """Apply a 4x256 linear table set to an array of uint32 registers."""
    return (
        tables[0][reg & np.uint32(0xFF)]
        ^ tables[1][(reg >> np.uint32(8)) & np.uint32(0xFF)]
        ^ tables[2][(reg >> np.uint32(16)) & np.uint32(0xFF)]
        ^ tables[3][reg >> np.uint32(24)]
    )


def _lane_basis() -> np.ndarray:
    """(4, 256) registers ``b << 8i``: one byte value in each lane."""
    return np.arange(256, dtype=np.uint32)[None, :] << (
        np.uint32(8) * np.arange(4, dtype=np.uint32)[:, None]
    )


def _levels(poly: int, count: int) -> list[tuple[np.ndarray, list[int]]]:
    """``poly``'s advance tables, extended on demand to at least ``count`` levels."""
    levels = _ADVANCE if poly == _POLY else _ADVANCE_CRC32
    if len(levels) < count:
        with _LOCK:
            while len(levels) < count:
                if not levels:
                    table = _table(poly)[0]
                    reg = _lane_basis()
                    for _ in range(4):  # four zero bytes, one table step each
                        reg = table[reg & np.uint32(0xFF)] ^ (reg >> np.uint32(8))
                else:
                    prev = levels[-1][0]
                    reg = _apply(prev, prev.reshape(-1)).reshape(4, 256)
                levels.append((reg, reg.reshape(-1).tolist()))
    return levels


def _word_tables() -> list[np.ndarray]:
    """The CRC-32C slice tables, built on first use."""
    if not _WORD_TABLES:
        with _LOCK:
            if not _WORD_TABLES:
                table = _table(_POLY)[0]
                tables = [table]
                for _ in range(_GROUP - 1):
                    prev = tables[-1]
                    tables.append(table[prev & np.uint32(0xFF)] ^ (prev >> np.uint32(8)))
                _WT_LISTS[:] = [t.tolist() for t in tables]
                _WORD_TABLES[:] = tables
    return _WORD_TABLES


def _pos64_table() -> np.ndarray:
    """Build (lazily) the combined 64-position x 4-lane x 256 table."""
    global _POS64
    if _POS64 is None:
        table = _table(_POLY)[0]
        t = np.empty((_ROW, 4, 256), dtype=np.uint32)
        reg = _lane_basis()
        t[_ROW - 1] = reg  # last group: zero trailing bytes, identity
        for j in range(_ROW - 2, -1, -1):
            for _ in range(_GROUP):  # advance one more group of zero bytes
                reg = table[reg & np.uint32(0xFF)] ^ (reg >> np.uint32(8))
            t[j] = reg
        _POS64 = t.reshape(_ROW * 4, 256)
    return _POS64


def _fold_row(row: np.ndarray) -> int:
    """Resolve a 64-group contribution row to its final register."""
    if np.little_endian:
        lanes = row.view(np.uint8)
    else:
        lanes = row.byteswap().view(np.uint8)
    return int(np.bitwise_xor.reduce(_pos64_table()[_IDX256, lanes]))


def _combine(poly: int, crc1: int, crc2: int, len2: int) -> int:
    """CRC of a concatenation under ``poly`` (see :func:`crc32c_combine`)."""
    register = crc1 & 0xFFFFFFFF
    nwords, rem = divmod(len2, 4)
    if nwords:
        levels = _levels(poly, nwords.bit_length())
        k = 0
        while nwords:
            if nwords & 1:
                t = levels[k][1]
                register = (
                    t[register & 0xFF]
                    ^ t[256 + ((register >> 8) & 0xFF)]
                    ^ t[512 + ((register >> 16) & 0xFF)]
                    ^ t[768 + (register >> 24)]
                )
            nwords >>= 1
            k += 1
    if rem:
        table = _table(poly)[1]
        for _ in range(rem):
            register = table[register & 0xFF] ^ (register >> 8)
    return register ^ (crc2 & 0xFFFFFFFF)


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of a concatenation from the CRCs of its halves.

    ``crc32(a + b) == crc32_combine(crc32(a), crc32(b), len(b))``, as
    :func:`crc32c_combine` is for CRC-32C.
    """
    return _combine(_POLY_CRC32, crc1, crc2, len2)


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32C of a concatenation from the CRCs of its halves.

    ``crc32c(a + b) == crc32c_combine(crc32c(a), crc32c(b), len(b))`` --
    the first CRC only needs advancing through ``len2`` zero bytes (a few
    table lookups), so joining already-hashed parts costs O(log len2)
    instead of re-reading them.
    """
    return _combine(_POLY, crc1, crc2, len2)


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32C of ``data``; pass a previous result as ``value`` to chain."""
    register = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    n = len(data)
    if n == 0:
        return value & 0xFFFFFFFF
    if n < 64:  # table setup costs more than a short scalar loop
        table = _table(_POLY)[1]
        for b in data:
            register = table[(register ^ b) & 0xFF] ^ (register >> 8)
        return register ^ 0xFFFFFFFF

    word_tables = _word_tables()
    buf = np.frombuffer(data, dtype=np.uint8)
    ngroups = n // _GROUP
    groups = buf[: ngroups * _GROUP].reshape(ngroups, _GROUP)
    contrib = word_tables[_GROUP - 1][groups[:, 0]]
    for j in range(1, _GROUP):
        contrib ^= word_tables[_GROUP - 1 - j][groups[:, j]]
    # Fold the initial register into the first group's contribution; the
    # slice tables are GF(2)-linear, so XORing the register's per-byte
    # effects here is the same as XORing its bytes into the data.
    contrib[0] ^= np.uint32(
        _WT_LISTS[_GROUP - 1][register & 0xFF]
        ^ _WT_LISTS[_GROUP - 2][(register >> 8) & 0xFF]
        ^ _WT_LISTS[_GROUP - 3][(register >> 16) & 0xFF]
        ^ _WT_LISTS[_GROUP - 4][register >> 24]
    )

    # Pad at the front to a whole power-of-two number of 64-group rows --
    # leading zero groups contribute nothing -- then fold row pairs: at
    # level k the left row sits 4 << k bytes before its partner.
    if ngroups <= _ROW:
        row = np.zeros(_ROW, dtype=np.uint32)
        row[_ROW - ngroups :] = contrib
    else:
        nrows = (ngroups + _ROW - 1) // _ROW
        m = (1 << max(0, (nrows - 1).bit_length())) * _ROW
        if m != ngroups:
            padded = np.zeros(m, dtype=np.uint32)
            padded[m - ngroups :] = contrib
            contrib = padded
        rows = contrib.reshape(-1, _ROW)
        k = 8  # 4 << 8 == one row of 64 16-byte groups
        while rows.shape[0] > 1:
            half = rows.reshape(-1, 2, _ROW)
            rows = (
                _apply(_levels(_POLY, k + 1)[k][0], half[:, 0, :].reshape(-1)).reshape(
                    -1, _ROW
                )
                ^ half[:, 1, :]
            )
            k += 1
        row = rows[0]

    register = _fold_row(row)
    table = _table(_POLY)[1]
    for b in data[ngroups * _GROUP :]:
        register = table[(register ^ b) & 0xFF] ^ (register >> 8)
    return register ^ 0xFFFFFFFF
