"""ISABELA: sort-based B-spline compression with an inverted index.

Reimplementation of Lakshminarasimhan et al. (CC:PE 2013) as evaluated by
the paper.  ISABELA linearizes the array, cuts it into fixed windows,
*sorts* each window (sorting makes any signal monotone and therefore
spline-friendly), least-squares-fits a cubic B-spline to the sorted curve,
and stores

* the spline coefficients (a handful per window),
* the permutation index needed to undo the sort -- ``log2(window)`` bits
  per point, the overhead the paper blames for ISABELA's low ratios, and
* per-point relative-error correction codes quantizing the ratio between
  each value and its spline estimate geometrically in ``(1 + 2*eb)`` steps
  so the point-wise relative bound holds.

The encoder verifies every reconstruction and escapes failures (sign
mismatches near a window's zero crossing, exact zeros) verbatim, so the
advertised bound holds for 100% of points and zeros are preserved exactly
-- matching ISABELA's row in the paper's strict-bound table.

Compression is dominated by the per-window ``argsort``, reproducing the
paper's observation that ISABELA has the lowest compression rate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.compressors.base import Compressor, ErrorBound, RelativeBound
from repro.encoding import (
    HuffmanCodec,
    deflate,
    inflate,
    pack_fixed_width,
    unpack_fixed_width,
    zigzag_decode,
    zigzag_encode,
)
from repro.observe.audit import file_audit, grade
from repro.safeguards.engine import apply_patch_sections, put_patch_sections

__all__ = ["IsabelaCompressor"]

_DEFAULT_WINDOW = 1024
_DEFAULT_COEFFS = 30
#: Correction codes beyond this magnitude escape verbatim instead.
_MAX_CODE = 1 << 20


@lru_cache(maxsize=None)
def _basis(window: int, ncoeff: int) -> tuple[np.ndarray, np.ndarray]:
    """Cubic B-spline design matrix on ``0..window-1`` and its pseudo-inverse.

    The grid and knots are fixed per (window, ncoeff), so a single
    ``(window, ncoeff)`` matrix turns spline fitting for *all* windows into
    one matmul (coeffs = sorted_values @ pinv.T).
    """
    # Imported on use, so a process that runs no ISABELA never loads scipy.
    from scipy.interpolate import BSpline

    k = 3
    if ncoeff <= k + 1:
        raise ValueError(f"need more than {k + 1} coefficients, got {ncoeff}")
    interior = np.linspace(0, window - 1, ncoeff - k + 1)
    knots = np.concatenate([np.full(k, 0.0), interior, np.full(k, float(window - 1))])
    x = np.arange(window, dtype=np.float64)
    design = BSpline.design_matrix(x, knots, k).toarray()
    return design, np.linalg.pinv(design)


class IsabelaCompressor(Compressor):
    """Sort + B-spline + index compressor with relative-error correction."""

    name = "ISABELA"
    supported_bounds = (RelativeBound,)

    def __init__(self, window: int = _DEFAULT_WINDOW, ncoeff: int = _DEFAULT_COEFFS) -> None:
        if window & (window - 1) or window < 64:
            raise ValueError(f"window must be a power of two >= 64, got {window}")
        if not 5 <= ncoeff <= window // 4:
            raise ValueError(f"ncoeff must be in [5, window/4], got {ncoeff}")
        self.window = window
        self.ncoeff = ncoeff
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
        br = float(bound.value)
        flat = data.astype(np.float64).ravel()
        n = flat.size
        w = self.window
        nwin = -(-n // w)
        padded = np.pad(flat, (0, nwin * w - n), mode="edge").reshape(nwin, w)

        order = np.argsort(padded, axis=1, kind="stable")
        sorted_vals = np.take_along_axis(padded, order, axis=1)

        design, pinv = _basis(w, self.ncoeff)
        # Coefficients past float32's range become +-inf; their windows'
        # points fail the check below and are patched.
        with np.errstate(over="ignore"):
            coeffs = (sorted_vals @ pinv.T).astype(np.float32)
        approx = coeffs.astype(np.float64) @ design.T

        # Geometric ratio quantization: x_hat = s * (1 + 2 eb)^code.
        eb = br * (1.0 - 2.0**-9) / (1.0 + br)
        log_step = math.log1p(2.0 * eb)
        ratio = sorted_vals / approx
        with np.errstate(invalid="ignore", divide="ignore"):
            codes = np.rint(np.log(np.where(ratio > 0, ratio, 1.0)) / log_step).astype(np.int64)
        bad = (ratio <= 0) | ~np.isfinite(ratio) | (np.abs(codes) > _MAX_CODE)
        codes[bad] = 0

        # Verify in the output dtype (the final cast may round either way;
        # a value past its range becomes +-inf and is patched).
        with np.errstate(over="ignore"):
            recon = (approx * np.exp(codes * log_step)).astype(data.dtype).astype(np.float64)
        viol = bad | (np.abs(recon - sorted_vals) > br * np.abs(sorted_vals))
        patch_idx = np.flatnonzero(viol.ravel()).astype(np.uint64)
        patch_val = sorted_vals.ravel()[patch_idx.astype(np.int64)].astype(data.dtype)

        index_bits = int(math.log2(w))
        box = self._new_container(self.name, data)
        box.put_f64("br", br)
        box.put_u64("window", w)
        box.put_u64("ncoeff", self.ncoeff)
        box.put_u64("nwin", nwin)
        box.put("coeffs", deflate(coeffs.tobytes()))
        box.put("index", pack_fixed_width(order.ravel().astype(np.uint64), index_bits))
        box.put("codes", self._huffman.encode(zigzag_encode(codes.ravel())))
        put_patch_sections(box, patch_idx, patch_val)

        # The decoder's array: the verified reconstruction (already in the
        # output dtype's values) with the patches applied, unsorted and
        # cast once.
        flat_sorted = recon.reshape(-1)
        flat_sorted[patch_idx.astype(np.int64)] = patch_val
        out = np.empty_like(recon)
        np.put_along_axis(out, order, recon, axis=1)
        final = out.reshape(-1)[:n].astype(data.dtype).reshape(data.shape)
        file_audit(grade(data, final, ("rel", br), self.name, patched=int(patch_idx.size)))
        return box.to_bytes(), final

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        box, shape, dtype = self._open_container(blob, self.name)
        br = box.get_f64("br")
        w = box.get_u64("window")
        ncoeff = box.get_u64("ncoeff")
        nwin = box.get_u64("nwin")
        n = int(np.prod(shape))

        design, _ = _basis(w, ncoeff)
        coeffs = np.frombuffer(inflate(box.get("coeffs")), dtype=np.float32).reshape(nwin, ncoeff)
        approx = coeffs.astype(np.float64) @ design.T

        eb = br * (1.0 - 2.0**-9) / (1.0 + br)
        log_step = math.log1p(2.0 * eb)
        codes = zigzag_decode(self._huffman.decode(box.get("codes"))).reshape(nwin, w)
        recon = approx * np.exp(codes * log_step)
        flat_sorted = apply_patch_sections(recon.reshape(-1), box, dtype, self.name)

        index_bits = int(math.log2(w))
        order = unpack_fixed_width(box.get("index"), index_bits, nwin * w)
        order = order.astype(np.int64).reshape(nwin, w)
        out = np.zeros((nwin, w), dtype=np.float64)
        np.put_along_axis(out, order, flat_sorted.reshape(nwin, w), axis=1)
        return out.reshape(-1)[:n].astype(dtype).reshape(shape)
