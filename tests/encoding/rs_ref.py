"""Reference GF(256) Reed-Solomon product (pre-packed-table implementation).

This is the scalar loop :mod:`repro.encoding.rs` replaced: the group is
stacked into a zero-padded matrix and every (row, block) pair costs one
``MUL[coeff][data]`` fancy-index plus XOR.  It is kept as the parity
oracle: the tests assert the packed-table kernel's parity and rebuilt
blocks are byte-identical to these, so any future change to the fast path
is checked against frozen behaviour.  The field tables, Cauchy generator
and matrix inversion are the library's own; their values are pinned by
the algebra tests and the committed parity-bearing legacy stream.

Do not "improve" this module; it is the specification.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.rs import _MUL, _cauchy_matrix, _gf_invert

__all__ = ["reference_decode_blocks", "reference_encode_parity"]


def _as_matrix(blocks: list[bytes | None], length: int) -> np.ndarray:
    """Stack blocks into a zero-padded ``(n, length)`` uint8 matrix."""
    out = np.zeros((len(blocks), length), dtype=np.uint8)
    for i, b in enumerate(blocks):
        if b:
            out[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)
    return out


def _mat_vec_blocks(coeffs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """GF(256) matrix product ``coeffs (r x n) @ blocks (n x L)``."""
    r = coeffs.shape[0]
    out = np.zeros((r, blocks.shape[1]), dtype=np.uint8)
    for j in range(r):
        for i, c in enumerate(coeffs[j]):
            if c:
                out[j] ^= _MUL[c][blocks[i]]
    return out


def reference_encode_parity(blocks: list[bytes], k: int) -> list[bytes]:
    """``k`` parity blocks for one group, each as long as its longest block."""
    if k == 0:
        return []
    length = max(len(b) for b in blocks)
    data = _as_matrix(list(blocks), length)
    parity = _mat_vec_blocks(_cauchy_matrix(len(blocks), k), data)
    return [p.tobytes() for p in parity]


def reference_decode_blocks(
    blocks: list[bytes | None],
    parity: list[bytes | None],
    lens: list[int],
) -> list[bytes]:
    """Every data block of one group, the ``None`` ones rebuilt from parity.

    Callers pass at least as many surviving parity blocks as lost data
    blocks; the insufficient case is the library's to reject.
    """
    m, k = len(blocks), len(parity)
    missing = [i for i, b in enumerate(blocks) if b is None]
    if not missing:
        return list(blocks)  # type: ignore[return-value]
    have_parity = [j for j, p in enumerate(parity) if p is not None]
    length = max(
        [len(b) for b in blocks if b is not None]
        + [len(p) for p in parity if p is not None]
    )
    cauchy = _cauchy_matrix(m, k)
    rows = np.zeros((m, m), dtype=np.uint8)
    survivors = np.zeros((m, length), dtype=np.uint8)
    surviving_data = [i for i in range(m) if i not in set(missing)]
    for r, i in enumerate(surviving_data):
        rows[r, i] = 1
        survivors[r, : len(blocks[i])] = np.frombuffer(blocks[i], dtype=np.uint8)
    for r, j in zip(range(len(surviving_data), m), have_parity):
        rows[r] = cauchy[j]
        survivors[r, : len(parity[j])] = np.frombuffer(parity[j], dtype=np.uint8)

    inv = _gf_invert(rows)
    rebuilt = _mat_vec_blocks(inv[missing], survivors)
    out = list(blocks)
    for r, i in enumerate(missing):
        out[i] = rebuilt[r, : lens[i]].tobytes()
    return out  # type: ignore[return-value]
