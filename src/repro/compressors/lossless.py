"""Lossless baseline (the introduction's motivating strawman).

The paper opens with the observation that lossless compressors manage no
more than about 2:1 on scientific floating-point data because mantissa
bits are effectively random.  ``LosslessDeflate`` (registered as
``GZIP``; gzip *is* DEFLATE plus a file header) reproduces that baseline,
with an optional byte-transpose filter (shuffle, as in blosc/HDF5) that
groups the more-compressible exponent bytes together.

Being lossless, it vacuously satisfies any error bound, so it accepts
every bound kind (and ``None``).  Under a relative bound it grades its
input against itself, so a ladder's lossless last rung reports like any
other codec.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import (
    AbsoluteBound,
    Compressor,
    ErrorBound,
    PrecisionBound,
    RateBound,
    RelativeBound,
)
from repro.encoding import deflate, inflate
from repro.observe.audit import file_audit, grade

__all__ = ["LosslessDeflate"]


class LosslessDeflate(Compressor):
    """DEFLATE with optional byte shuffle; exact reconstruction."""

    name = "GZIP"
    supported_bounds = (AbsoluteBound, RelativeBound, PrecisionBound, RateBound)

    def __init__(self, shuffle: bool = True, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"level must be in [1, 9], got {level}")
        self.shuffle = shuffle
        self.level = level

    def compress(self, data: np.ndarray, bound: ErrorBound | None = None) -> bytes:
        if bound is not None:
            self._check_bound(bound)
        data = self._check_input(data)
        raw = data.tobytes()
        if self.shuffle:
            raw = (
                np.frombuffer(raw, dtype=np.uint8)
                .reshape(-1, data.dtype.itemsize)
                .T.copy()
                .tobytes()
            )
        box = self._new_container(self.name, data)
        box.put_u64("shuffle", int(self.shuffle))
        box.put("payload", deflate(raw, self.level))
        if isinstance(bound, RelativeBound):
            file_audit(grade(data, data, ("rel", bound.value), self.name))
        return box.to_bytes()

    def decompress(self, blob: bytes) -> np.ndarray:
        box, shape, dtype = self._open_container(blob, self.name)
        raw = inflate(box.get("payload"))
        if box.get_u64("shuffle"):
            itemsize = dtype.itemsize
            raw = (
                np.frombuffer(raw, dtype=np.uint8)
                .reshape(itemsize, -1)
                .T.copy()
                .tobytes()
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
