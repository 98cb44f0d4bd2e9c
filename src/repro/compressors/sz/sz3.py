"""SZ3-style multilevel interpolation compressor (``SZ3_ABS``).

A second extension beyond the paper: SZ3 (Liang et al., the successor of
the SZ evaluated in the paper, and the engine behind today's production
PW_REL mode) replaces the one-step Lorenzo stencil with *hierarchical
interpolation*: a coarse grid is stored first, then each level doubles the
resolution one axis at a time, predicting the new points by cubic (or
linear) interpolation of the surrounding already-known points.  Smooth
fields predict dramatically better because the effective prediction
neighbourhood grows with the level instead of being one cell.

The lattice formulation (DESIGN.md section 5.1) again does the heavy
lifting: predictions are integer functions of lattice indices the decoder
reconstructs exactly, so the traversal is a handful of strided-view numpy
passes per level on both sides and the absolute bound is structural.
Wrapped in the log transform this becomes ``SZ3_T``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.base import AbsoluteBound, Compressor, ErrorBound
from repro.compressors.sz.quantizer import (
    lattice_quantize,
    lattice_reconstruct,
    residual_codes,
)
from repro.compressors.sz.sz import DEFAULT_RADIUS, _pack_payload, _unpack_payload
from repro.encoding import HuffmanCodec

__all__ = ["SZ3Compressor"]

_MAX_LEVELS = 6


def _root_level(shape: tuple[int, ...]) -> int:
    """Deepest level whose coarse grid keeps >= 2 samples per axis."""
    level = min(int(math.log2(max(s - 1, 1))) for s in shape)
    return max(0, min(level, _MAX_LEVELS))


def _predict_line(E: np.ndarray, nt: int, cubic: bool) -> np.ndarray:
    """Predict the odd samples of a line from its even samples.

    ``E`` holds the known (even-position) samples along the last axis;
    target ``i`` sits between ``E[i]`` and ``E[i+1]``.  Linear averages
    with copy fallback at the right edge; the cubic kernel
    ``(-1, 9, 9, -1)/16`` (SZ3's choice) refines interior targets.
    """
    ne = E.shape[-1]
    pred = E[..., :nt].copy()
    nr = min(nt, ne - 1)
    if nr > 0:
        pred[..., :nr] = (E[..., :nr] + E[..., 1 : nr + 1]) >> 1
    if cubic and ne >= 4:
        i1 = min(nr, ne - 3) + 1  # targets needing E[i+2] stop at ne-3
        if i1 > 1:
            a = E[..., 0 : i1 - 1]
            b = E[..., 1:i1]
            c = E[..., 2 : i1 + 1]
            d = E[..., 3 : i1 + 2]
            pred[..., 1:i1] = (-a + 9 * b + 9 * c - d + 8) >> 4
    return pred


def _traverse(k: np.ndarray, q: np.ndarray, level: int, cubic: bool, encode: bool) -> None:
    """Shared encoder/decoder traversal.

    encode: fill ``q`` with interpolation residuals of the known ``k``.
    decode: fill ``k`` from ``q`` progressively (prediction + residual).
    """
    ndim = k.ndim
    stride = 1 << level
    root = tuple(slice(None, None, stride) for _ in range(ndim))
    if encode:
        q[root] = k[root]  # roots predicted as 0
    else:
        k[root] = q[root]

    s = stride
    while s >= 1:
        for axis in range(ndim):
            steps = tuple(
                s if j <= axis else 2 * s for j in range(ndim)
            )
            view_k = np.moveaxis(k[tuple(slice(None, None, st) for st in steps)], axis, -1)
            view_q = np.moveaxis(q[tuple(slice(None, None, st) for st in steps)], axis, -1)
            E = view_k[..., ::2]
            T = view_k[..., 1::2]
            if T.shape[-1] == 0:
                continue
            pred = _predict_line(E, T.shape[-1], cubic)
            if encode:
                view_q[..., 1::2] = T - pred
            else:
                view_k[..., 1::2] = pred + view_q[..., 1::2]
        s //= 2


class SZ3Compressor(Compressor):
    """Hierarchical-interpolation compressor, absolute error bound.

    Parameters
    ----------
    interp:
        ``"cubic"`` (SZ3's default kernel) or ``"linear"``.
    """

    name = "SZ3_ABS"
    supported_bounds = (AbsoluteBound,)

    def __init__(self, interp: str = "cubic", radius: int = DEFAULT_RADIUS) -> None:
        if interp not in ("cubic", "linear"):
            raise ValueError(f"interp must be 'cubic' or 'linear', got {interp!r}")
        self.interp = interp
        self.radius = radius
        self._huffman = HuffmanCodec()

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound)[0]

    def compress_verified(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        return self._compress_impl(data, bound)

    def _compress_impl(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        """Shared pipeline; returns ``(blob, exact decoder output)``."""
        self._check_bound(bound)
        data = self._check_input(data)
        eb = float(bound.value)

        k, risky = lattice_quantize(data, eb)
        level = _root_level(data.shape)
        q = np.zeros_like(k)
        _traverse(k, q, level, self.interp == "cubic", encode=True)
        codes, esc_q = residual_codes(q, risky, self.radius)

        # The decoder rebuilds this exact lattice (its traversal inverts
        # the residuals exactly); patch the points it would get wrong.
        recon = lattice_reconstruct(k, eb, data.dtype)
        viol = np.abs(data.astype(np.float64) - recon.astype(np.float64)) > eb
        patch = (viol | risky).ravel()
        patch_idx = np.flatnonzero(patch).astype(np.uint64)
        patch_val = data.ravel()[patch_idx.astype(np.int64)]

        box = self._new_container(self.name, data)
        box.put_f64("eb", eb)
        box.put_u64("radius", self.radius)
        box.put_u64("level", level)
        box.put_str("interp", self.interp)
        _pack_payload(box, self._huffman, codes, esc_q, patch_idx, patch_val)

        final = recon.ravel()
        final[patch_idx.astype(np.int64)] = patch_val
        return box.to_bytes(), final.reshape(data.shape)

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        box, shape, dtype = self._open_container(blob, self.name)
        eb = box.get_f64("eb")
        radius = box.get_u64("radius")
        level = box.get_u64("level")
        cubic = box.get_str("interp") == "cubic"

        q, patch_idx, patch_val = _unpack_payload(box, self._huffman, dtype, radius, "SZ3")
        q = q.reshape(shape)

        k = np.zeros(shape, dtype=np.int64)
        _traverse(k, q, level, cubic, encode=False)

        recon = lattice_reconstruct(k, eb, dtype)
        flat = recon.ravel()
        flat[patch_idx.astype(np.int64)] = patch_val
        return flat.reshape(shape)
