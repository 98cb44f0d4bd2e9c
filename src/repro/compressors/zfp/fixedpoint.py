"""Block-floating-point alignment and negabinary mapping for ZFP.

Every ``4^d`` block is scaled by a single power of two so that the largest
magnitude lands just below ``2**(INTPREC-3)``; all values then share one
exponent (``emax``) and become plain integers.  The transform output is
mapped to negabinary (base -2) so that sign information lives in the high
bit planes, which is what makes truncating low planes a graceful
degradation.

``INTPREC`` (the number of coded bit planes) follows the input dtype: 32
for float32 and 62 for float64, leaving 3 bits of headroom above the
scaled values for transform growth and the negabinary expansion.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "intprec_for",
    "block_exponents",
    "quantize_blocks",
    "dequantize_blocks",
    "negabinary_encode",
    "negabinary_decode",
    "EMPTY_EMAX",
]

#: Sentinel exponent marking an all-zero (or fully truncated) block.
EMPTY_EMAX = np.int32(-(2**31 - 1))

_NBMASK = np.uint64(0xAAAAAAAAAAAAAAAA)


def intprec_for(dtype: np.dtype) -> int:
    """Bit planes coded for the given input dtype (ZFP uses the type width)."""
    dtype = np.dtype(dtype)
    if dtype == np.float32:
        return 32
    if dtype == np.float64:
        return 62
    raise TypeError(f"unsupported dtype {dtype}")


def block_exponents(blocks: np.ndarray) -> np.ndarray:
    """``floor(log2(max |x|))`` per block; :data:`EMPTY_EMAX` for zero blocks.

    ``blocks`` has shape ``(nblocks, ...)``; the reduction runs over all
    trailing axes.
    """
    amax = np.abs(blocks).reshape(blocks.shape[0], -1).max(axis=1)
    emax = np.full(amax.shape, EMPTY_EMAX, dtype=np.int32)
    nz = amax > 0
    # frexp: |x| = m * 2**e with m in [0.5, 1)  =>  floor(log2 |x|) = e - 1
    _, e = np.frexp(amax[nz])
    emax[nz] = e.astype(np.int32) - 1
    return emax


def quantize_blocks(blocks: np.ndarray, emax: np.ndarray, intprec: int) -> np.ndarray:
    """Scale blocks to a common fixed-point grid: ``round(x * 2**(sexp-emax))``.

    ``sexp = intprec - 4`` leaves headroom so the lifted transform and the
    negabinary expansion stay inside ``intprec`` bit planes.
    """
    sexp = intprec - 4
    shift = (sexp - emax.astype(np.int64)).reshape((-1,) + (1,) * (blocks.ndim - 1))
    # Clamp so empty-block sentinels and denormal-only blocks cannot push
    # ldexp past the double range (0 * inf would poison the block with NaN).
    scale = np.ldexp(1.0, np.clip(shift, -1000, 1000))
    q = np.rint(blocks.astype(np.float64) * scale)
    return q.astype(np.int64)


def dequantize_blocks(q: np.ndarray, emax: np.ndarray, intprec: int, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`quantize_blocks` (empty blocks come back as zero).

    Values are clamped to ``+-finfo(dtype).max``: a block at the top of
    the range can round past it, and a finite input must not decode to
    ``+-inf``.  The clamp changes no value that fits the dtype.
    """
    sexp = intprec - 4
    shift = (emax.astype(np.int64) - sexp).reshape((-1,) + (1,) * (q.ndim - 1))
    # Mirror of the encoder-side clamp (empty blocks carry the sentinel
    # exponent; their coefficients are zero regardless).
    scale = np.ldexp(1.0, np.clip(shift, -1000, 1000))
    top = np.finfo(dtype).max
    with np.errstate(over="ignore"):
        x = q.astype(np.float64) * scale
    return np.clip(x, -top, top, out=x).astype(dtype)


def negabinary_encode(x: np.ndarray) -> np.ndarray:
    """int64 -> base(-2) uint64, bit pattern identical to ZFP's ``int2uint``."""
    u = x.astype(np.int64).view(np.uint64)
    return (u + _NBMASK) ^ _NBMASK


def negabinary_decode(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`negabinary_encode` (ZFP's ``uint2int``)."""
    u = np.asarray(u, dtype=np.uint64)
    return ((u ^ _NBMASK) - _NBMASK).view(np.int64)
