"""The CHUNKED record's chunk table and parity geometry, read and checked.

The one validator of a CHUNKED container's layout, shared by the strict
decoder (:mod:`repro.core.chunked`) and the readers that never decode
(:mod:`repro.inspection`, :mod:`repro.integrity`).  It imports neither the
chunk pipeline nor the observability it pulls in, so ``verify`` and
``info`` stay cheap to start.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.encoding.container import ChecksumError, Container, ContainerError
from repro.encoding.rs import MAX_GROUP_BLOCKS

__all__ = [
    "ChunkTable",
    "ParityGeometry",
    "chunked_meta_box",
    "read_chunk_table",
    "read_parity_geometry",
]

#: CHUNKED metadata sections whose per-section CRCs must hold before any
#: recovery or repair can be attempted.
_CHUNKED_META = ("dtype", "shape", "inner_codec", "n_chunks", "offs", "lens", "elems")


class ChunkTable(NamedTuple):
    """Validated chunk table of a CHUNKED container (int64 arrays)."""

    offs: np.ndarray
    lens: np.ndarray
    elems: np.ndarray


class ParityGeometry(NamedTuple):
    """Validated parity geometry: ``k`` blocks per group of ``group_size``."""

    k: int
    group_size: int
    #: Parity block length of every group.
    lens: np.ndarray

    def spans(self) -> list[list[tuple[int, int]]]:
        """Each group's ``k`` block byte ranges within the parity section."""
        out, base = [], 0
        for size in self.lens.tolist():
            out.append([(base + j * size, base + (j + 1) * size) for j in range(self.k)])
            base += self.k * size
        return out

    def blocks(self, parity: bytes) -> list[list[memoryview | None]]:
        """Each group's ``k`` blocks viewed in ``parity`` (None where bytes are missing)."""
        view = memoryview(parity)
        return [
            [view[a:b] if b <= len(view) else None for a, b in group] for group in self.spans()
        ]


def read_chunk_table(box: Container) -> ChunkTable:
    """The chunk table of a CHUNKED container; the one validator behind
    decompress, partial decompress, repair and verify.

    Raises :class:`ContainerError` unless entry counts, cumulative offsets
    and element counts describe ``shape``.  Whether the payload holds every
    byte the table spans is left to the caller (recovery reads cut ones).
    """
    shape = box.get_shape("shape")
    n = box.get_u64("n_chunks")
    offs = box.get_array("offs").astype(np.int64)
    lens = box.get_array("lens").astype(np.int64)
    elems = box.get_array("elems").astype(np.int64)
    if not (offs.size == lens.size == elems.size == n):
        raise ContainerError(
            f"corrupt CHUNKED chunk table: n_chunks={n} but "
            f"{offs.size}/{lens.size}/{elems.size} table entries"
        )
    if n and (
        (lens < 0).any() or (offs != np.concatenate([[0], np.cumsum(lens)[:-1]])).any()
    ):
        raise ContainerError(
            "corrupt CHUNKED chunk table: offsets are not the cumulative sum of lengths"
        )
    if (elems <= 0).any() or int(elems.sum()) != math.prod(shape):
        raise ContainerError(
            f"corrupt CHUNKED chunk table: element counts sum to "
            f"{int(elems.sum())}, shape needs {math.prod(shape)}"
        )
    return ChunkTable(offs, lens, elems)


def read_parity_geometry(box: Container, table: ChunkTable) -> ParityGeometry:
    """The parity geometry of a CHUNKED container, checked against its table.

    Raises :class:`ContainerError` on an impossible ``k``/group size, a
    group count the table disagrees with, or a block length other than the
    group's longest chunk.  The ``parity`` bytes themselves are not read.
    """
    k = int(box.get_u64("parity_k"))
    m = int(box.get_u64("group_size"))
    if k < 1 or m < 1 or m + k > MAX_GROUP_BLOCKS:
        raise ContainerError(f"impossible parity geometry: k={k} per group of {m}")
    plens = box.get_array("parity_lens").astype(np.int64)
    n_groups = -(-table.lens.size // m)
    if plens.size != n_groups or (plens < 0).any():
        raise ContainerError(
            f"parity_lens holds {plens.size} group(s), chunk table implies {n_groups}"
        )
    for g in range(n_groups):
        want = int(table.lens[g * m : (g + 1) * m].max())
        if int(plens[g]) != want:
            raise ContainerError(
                f"parity group {g}: block length {int(plens[g])}, "
                f"longest member chunk is {want}"
            )
    return ParityGeometry(k, m, plens)


def chunked_meta_box(model, mismatch: str, extra: tuple = ()) -> Container:
    """The container of an inspected, damaged CHUNKED stream whose metadata
    sections (and ``extra`` ones) hold their CRCs -- what recovery and repair
    need.  Another codec raises a :class:`ContainerError` ending in ``mismatch``."""
    box = model.box
    if box is None:
        raise model.header_error
    if box.codec != "CHUNKED":
        raise ContainerError(f"stream was produced by {box.codec!r}{mismatch}")
    for key in _CHUNKED_META + extra:
        if key in box and not model.crc_ok(key):
            raise ChecksumError(f"CHUNKED metadata section {key!r} is corrupt")
    return box
