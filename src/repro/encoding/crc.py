"""CRC-32C (Castagnoli) in pure numpy, fast enough for MB-scale streams.

The container format (v2, see ``docs/formats.md``) checksums every
section and the whole stream, so the hash runs on every compress *and*
every parse -- mostly on sections of a few hundred bytes to a few
hundred KB, which makes the *fixed* cost per call matter as much as the
throughput.  A byte-at-a-time Python loop tops out around 5 MB/s; this
module instead exploits the GF(2)-linearity of CRC three times over:

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
  trailing zero bytes).  The table (256 KB) and the per-distance advance
  tables are built once per process.

``crc32c(data, value=0)`` mirrors :func:`zlib.crc32`'s signature so
checksums can be computed incrementally over stream parts.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["crc32c", "crc32c_combine"]

_POLY = 0x82F63B78  # reflected Castagnoli polynomial


def _byte_table() -> np.ndarray:
    """The classic 256-entry table: register after one byte from state 0."""
    values = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        odd = values & np.uint32(1)
        values = (values >> np.uint32(1)) ^ (np.uint32(_POLY) * odd)
    return values


_TABLE0 = _byte_table()
_TABLE0_LIST = _TABLE0.tolist()  # python ints: cheap scalar lookups

# Bytes per contribution group of the sliced hot path.
_GROUP = 16

# Slice tables: _WORD_TABLES[j][b] = contribution of byte value b
# followed by j more message bytes, from register 0.
_WORD_TABLES: list[np.ndarray] = [_TABLE0]
for _ in range(_GROUP - 1):
    _prev = _WORD_TABLES[-1]
    _WORD_TABLES.append(_TABLE0[_prev & np.uint32(0xFF)] ^ (_prev >> np.uint32(8)))
_WT_LISTS = [t.tolist() for t in _WORD_TABLES]

#: Groups per row in the folding stage; must match the position table.
_ROW = 64

# _ADVANCE[k]: four (256,) tables expressing register advance through
# 4 << k zero bytes; entry [i][b] is advance(b << 8i).  Built lazily as
# larger messages are seen, under _ADVANCE_LOCK: each entry is derived
# from the last one, so two threads extending the list at once would
# misplace entries and corrupt every later CRC in the process.
_ADVANCE: list[np.ndarray] = []
_ADVANCE_LOCK = threading.Lock()

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


def _advance_tables(k: int) -> np.ndarray:
    """Advance tables for distance ``4 << k`` bytes, built on demand."""
    if len(_ADVANCE) <= k:
        with _ADVANCE_LOCK:
            while len(_ADVANCE) <= k:
                if not _ADVANCE:
                    basis = np.arange(256, dtype=np.uint32)[None, :] << (
                        np.uint32(8) * np.arange(4, dtype=np.uint32)[:, None]
                    )
                    reg = basis
                    for _ in range(4):  # four zero bytes, one table step each
                        reg = _TABLE0[reg & np.uint32(0xFF)] ^ (reg >> np.uint32(8))
                    _ADVANCE.append(reg)
                else:
                    prev = _ADVANCE[-1]
                    _ADVANCE.append(_apply(prev, prev.reshape(-1)).reshape(4, 256))
    return _ADVANCE[k]


def _pos64_table() -> np.ndarray:
    """Build (lazily) the combined 64-position x 4-lane x 256 table."""
    global _POS64
    if _POS64 is None:
        t = np.empty((_ROW, 4, 256), dtype=np.uint32)
        reg = np.arange(256, dtype=np.uint32)[None, :] << (
            np.uint32(8) * np.arange(4, dtype=np.uint32)[:, None]
        )
        t[_ROW - 1] = reg  # last group: zero trailing bytes, identity
        for j in range(_ROW - 2, -1, -1):
            for _ in range(_GROUP):  # advance one more group of zero bytes
                reg = _TABLE0[reg & np.uint32(0xFF)] ^ (reg >> np.uint32(8))
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


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32C of a concatenation from the CRCs of its halves.

    ``crc32c(a + b) == crc32c_combine(crc32c(a), crc32c(b), len(b))`` --
    the first CRC only needs advancing through ``len2`` zero bytes (a few
    table lookups), so joining already-hashed parts costs O(log len2)
    instead of re-reading them.
    """
    register = crc1 & 0xFFFFFFFF
    nwords, rem = divmod(len2, 4)
    k = 0
    while nwords:
        if nwords & 1:
            t = _advance_tables(k)
            register = (
                int(t[0][register & 0xFF])
                ^ int(t[1][(register >> 8) & 0xFF])
                ^ int(t[2][(register >> 16) & 0xFF])
                ^ int(t[3][register >> 24])
            )
        nwords >>= 1
        k += 1
    for _ in range(rem):
        register = _TABLE0_LIST[register & 0xFF] ^ (register >> 8)
    return register ^ (crc2 & 0xFFFFFFFF)


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32C of ``data``; pass a previous result as ``value`` to chain."""
    register = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    n = len(data)
    if n == 0:
        return value & 0xFFFFFFFF
    if n < 64:  # table setup costs more than a short scalar loop
        for b in data:
            register = _TABLE0_LIST[(register ^ b) & 0xFF] ^ (register >> 8)
        return register ^ 0xFFFFFFFF

    buf = np.frombuffer(data, dtype=np.uint8)
    ngroups = n // _GROUP
    groups = buf[: ngroups * _GROUP].reshape(ngroups, _GROUP)
    contrib = _WORD_TABLES[_GROUP - 1][groups[:, 0]]
    for j in range(1, _GROUP):
        contrib ^= _WORD_TABLES[_GROUP - 1 - j][groups[:, j]]
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
                _apply(_advance_tables(k), half[:, 0, :].reshape(-1)).reshape(
                    -1, _ROW
                )
                ^ half[:, 1, :]
            )
            k += 1
        row = rows[0]

    register = _fold_row(row)
    for b in data[ngroups * _GROUP :]:
        register = _TABLE0_LIST[(register ^ b) & 0xFF] ^ (register >> 8)
    return register ^ 0xFFFFFFFF
