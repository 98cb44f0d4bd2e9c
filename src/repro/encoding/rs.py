"""Pure-numpy GF(256) Reed-Solomon erasure coding for chunk parity.

The chunked pipeline's per-chunk CRCs turn corruption into *located*
erasures: we always know exactly which chunk blobs are damaged.  That is
the easy half of Reed-Solomon -- no error location, only erasure
reconstruction -- so the codec here is a systematic MDS erasure code over
GF(2^8): ``k`` parity blocks are appended to every group of ``m`` data
blocks, and any ``m`` surviving blocks (data or parity, in any mix)
reconstruct the group.  The generator is a Cauchy matrix, whose square
submatrices are all nonsingular, which is what makes the code MDS for
every loss pattern.

Arithmetic is GF(256) with the AES/QR-code primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D).  Encode and decode share one
product kernel that reads each data block once per 8 output rows: the
block's 256-entry table packs its products with up to 8 coefficients
into one word per byte value, so one ``np.take`` gather over a 64 KiB
slab yields the block's term of every row, XORed into a lane-per-row
accumulator.  On one core of a 2-vCPU AVX-512 Xeon VM (numpy 2.4),
encoding ``k = 2`` parities over 8 blocks of ~1 MiB takes ~12.6 ms
(~665 MB/s of data) and rebuilding 2 of them ~10.8 ms.

Blocks in a group may have different lengths (compressed chunks do) and
may be any bytes-like buffer, such as views into one payload, which are
read in place.  They count as zero-padded to the group's longest block,
and every parity block has that padded length.  Callers keep the true
lengths (the chunk table already stores them) and trim after
reconstruction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InsufficientParityError",
    "MAX_GROUP_BLOCKS",
    "decode_blocks",
    "encode_parity",
    "gf_inv",
    "gf_mul",
]

#: GF(256) has 255 nonzero elements; the Cauchy construction needs
#: ``m + k`` distinct field elements, so a group (data + parity blocks)
#: can never exceed 255.
MAX_GROUP_BLOCKS = 255

_PRIM_POLY = 0x11D


class InsufficientParityError(ValueError):
    """Raised when more blocks are lost than the parity can reconstruct."""


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(EXP, LOG, MUL) tables for GF(256) under the 0x11D polynomial."""
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIM_POLY
    exp[255:510] = exp[:255]  # wraparound so exp[log a + log b] never overflows
    # Full 256x256 product table: MUL[a, b] = a * b in GF(256).
    a = np.arange(256)
    la, lb = np.meshgrid(log[a], log[a], indexing="ij")
    mul = exp[(la + lb) % 255].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()


def gf_mul(a: int, b: int) -> int:
    """Product of two GF(256) elements."""
    return int(_MUL[a, b])


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256); 0 has none."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def _cauchy_matrix(m: int, k: int) -> np.ndarray:
    """The ``k x m`` Cauchy generator: C[j][i] = 1 / (x_j ^ y_i).

    ``x_j = j`` indexes parity rows and ``y_i = k + i`` data columns; the
    two index sets are disjoint so the denominator is never zero, and
    every square submatrix of a Cauchy matrix is invertible.
    """
    xj = np.arange(k, dtype=np.int64)[:, None]
    yi = np.arange(k, k + m, dtype=np.int64)[None, :]
    denom = xj ^ yi
    return _EXP[(255 - _LOG[denom]) % 255].astype(np.uint8)


#: Bytes of every block one gather reads: the slab of accumulator words
#: stays in cache while each block of the group passes over it.
_SLAB = 1 << 16


def _gf_matmul(coeffs: np.ndarray, blocks: list) -> list[np.ndarray]:
    """GF(256) product ``coeffs (r x n) @ blocks``: ``r`` rows as long as the
    longest of the ``n`` buffers, shorter ones reading as zero-padded.

    Rows go in lane groups of up to 8.  Entry ``v`` of block ``i``'s table
    packs ``coeffs[j, i] * v`` for each row ``j`` of the group into byte
    lane ``j`` of one word, so one gather per block and slab yields the
    block's term of every row.  Words are only moved and XORed, never read
    as numbers, so lanes are byte positions on any host.
    """
    srcs = [np.frombuffer(b, dtype=np.uint8) for b in blocks]
    length = max(s.size for s in srcs)
    rows: list[np.ndarray] = []
    for g in range(0, coeffs.shape[0], 8):
        lanes = coeffs[g : g + 8]
        r = lanes.shape[0]
        w = 1 << (r - 1).bit_length()  # word bytes: 1, 2, 4 or 8
        packed = np.zeros((len(srcs), 256, w), dtype=np.uint8)
        packed[:, :, :r] = _MUL[lanes.T].transpose(0, 2, 1)
        tables = packed.view(f"u{w}")[..., 0]
        acc = np.zeros(length, dtype=tables.dtype)
        buf = np.empty(min(length, _SLAB), dtype=tables.dtype)
        # uint8 indices never leave a 256-entry table: "clip" skips the bounds check.
        for s in range(0, length, _SLAB):
            for table, src in zip(tables, srcs):
                seg = src[s : s + _SLAB]
                acc[s : s + seg.size] ^= np.take(table, seg, mode="clip", out=buf[: seg.size])
        words = acc.view(np.uint8).reshape(length, w)
        rows += [words[:, j] for j in range(r)]
    return rows


def encode_parity(blocks: list[bytes], k: int) -> list[bytes]:
    """``k`` parity blocks for one group of data blocks.

    Each parity block is as long as the group's longest data block
    (shorter data blocks count as zero-padded).  ``k = 0`` returns no
    parity; an empty group is rejected -- the caller decides group
    geometry and should never produce one.
    """
    if k < 0:
        raise ValueError(f"parity count must be non-negative, got {k}")
    if not blocks:
        raise ValueError("cannot encode parity for an empty group")
    m = len(blocks)
    if m + k > MAX_GROUP_BLOCKS:
        raise ValueError(
            f"group of {m} data + {k} parity blocks exceeds the GF(256) "
            f"limit of {MAX_GROUP_BLOCKS}"
        )
    if k == 0:
        return []
    return [row.tobytes() for row in _gf_matmul(_cauchy_matrix(m, k), blocks)]


def decode_blocks(
    blocks: list[bytes | None],
    parity: list[bytes | None],
    lens: list[int],
) -> list[bytes]:
    """Reconstruct the missing (``None``) data blocks of one group.

    ``blocks`` holds the group's data blocks with erased entries as
    ``None``; ``parity`` likewise for the parity blocks produced by
    :func:`encode_parity` (a damaged parity block is just another
    erasure).  ``lens`` gives every data block's true byte length, used
    to trim the zero padding off reconstructed blocks.

    Returns the complete list of data blocks.  Raises
    :class:`InsufficientParityError` when fewer than ``m`` blocks of the
    group survive.
    """
    m, k = len(blocks), len(parity)
    if len(lens) != m:
        raise ValueError(f"need {m} lengths, got {len(lens)}")
    missing = [i for i, b in enumerate(blocks) if b is None]
    if not missing:
        return list(blocks)  # type: ignore[return-value]
    have_parity = [j for j, p in enumerate(parity) if p is not None]
    if len(missing) > len(have_parity):
        raise InsufficientParityError(
            f"{len(missing)} data blocks lost but only {len(have_parity)} "
            f"of {k} parity blocks survive"
        )
    # Build the m x m system A @ data = survivors from m surviving rows of
    # the extended generator [I; C]: identity rows for surviving data
    # blocks (free), Cauchy rows for the parity blocks standing in for the
    # missing ones.
    surviving_data = [i for i, b in enumerate(blocks) if b is not None]
    used_parity = have_parity[: len(missing)]
    rows = np.concatenate(
        [np.eye(m, dtype=np.uint8)[surviving_data], _cauchy_matrix(m, k)[used_parity]]
    )
    survivors = [blocks[i] for i in surviving_data] + [parity[j] for j in used_parity]
    rebuilt = _gf_matmul(_gf_invert(rows)[missing], survivors)
    out = list(blocks)
    for r, i in enumerate(missing):
        out[i] = rebuilt[r][: lens[i]].tobytes()
    return out  # type: ignore[return-value]


def _gf_invert(mat: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix by Gauss-Jordan elimination.

    The matrices here are rows of [I; C] with C Cauchy, so they are
    always nonsingular; a singular input means caller corruption and
    raises ``ValueError``.
    """
    n = mat.shape[0]
    aug = np.concatenate([mat.astype(np.uint8), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r, col]), None)
        if pivot is None:
            raise ValueError("singular matrix in GF(256) erasure decode")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = _MUL[gf_inv(int(aug[col, col]))][aug[col]]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= _MUL[int(aug[r, col])][aug[col]]
    return aug[:, n:]
