"""The ZFP compressor: fixed-accuracy and precision modes.

*Accuracy* mode honours an absolute error bound.  A block whose largest
exponent is ``emax`` gets ``emax - minexp + 2*(d+1)`` bit planes, where
``minexp = floor(log2 tolerance)`` -- the ``2*(d+1)`` margin absorbs the
growth of the lifted transform, which is also why ZFP characteristically
*over-preserves* the bound (the paper leans on this to explain ZFP_T's
lower ratios in Table IV and Figure 2).

*Precision* mode (``ZFP_P``, the paper's ``-p`` baseline) encodes a fixed
number of planes per block regardless of content.  Within a block this
approximates relative-error control against the block's largest magnitude,
so isolated small values in a large-magnitude block can lose all their
bits: the paper's strict-bound test shows exactly this failure (unbounded
maximum point-wise relative error), and this implementation reproduces it.

Representability caveat (shared with the reference ZFP): the accuracy-mode
guarantee requires the tolerance to be expressible in the *output* dtype,
i.e. ``tolerance >= ulp(max |x|)`` -- a float32 array with values near 1e6
cannot be reconstructed to 1e-6 absolute no matter what the codec does.

In accuracy and precision modes the decoder reads back each block's coded
planes and zeros below them, so ``compress_verified`` masks the encoder's
coefficients alike and runs the decoder's inverse path on them.
Rate mode (``ZFP_R``) cuts blocks at a bit budget, so it still decodes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.base import (
    AbsoluteBound,
    Compressor,
    ErrorBound,
    PrecisionBound,
    RateBound,
)
from repro.compressors.zfp.embedded import decode_blocks, encode_blocks, expand_fixed_rate
from repro.compressors.zfp.fixedpoint import (
    EMPTY_EMAX,
    block_exponents,
    dequantize_blocks,
    intprec_for,
    negabinary_decode,
    negabinary_encode,
    quantize_blocks,
)
from repro.compressors.zfp.transform import fwd_xform, inv_xform, sequency_order
from repro.encoding import deflate, inflate
from repro.observe.tracer import span
from repro.utils.blocking import block_merge, block_partition

__all__ = ["ZFPCompressor", "planes_for_tolerance"]

_BLOCK = 4
_U1 = np.uint64(1)


def planes_for_tolerance(
    emax: np.ndarray, tolerance: float, ndim: int, intprec: int
) -> np.ndarray:
    """Bit planes to encode per block in fixed-accuracy mode.

    ZFP's ``precision(maxexp, ...)``: ``maxexp - minexp + 2*(d+1)`` planes,
    clamped to ``[0, intprec]``; blocks entirely below the tolerance emit
    nothing.  Our fixed-point scale is ``2**(intprec-4)`` instead of ZFP's
    ``2**(intprec-2)`` (two extra headroom bits for the lift + negabinary),
    so the same guarantee needs two additional planes here.
    """
    minexp = math.floor(math.log2(tolerance))
    raw = emax.astype(np.int64) - minexp + 2 * (ndim + 1) + 2
    raw = np.where(emax == EMPTY_EMAX, 0, raw)
    return np.clip(raw, 0, intprec)


class ZFPCompressor(Compressor):
    """Transform-based compressor (accuracy or precision mode).

    Parameters
    ----------
    mode:
        ``"accuracy"`` (absolute bound, :class:`AbsoluteBound`) or
        ``"precision"`` (fixed planes, :class:`PrecisionBound`).
    """

    def __init__(self, mode: str = "accuracy") -> None:
        if mode not in ("accuracy", "precision", "rate"):
            raise ValueError(
                f"mode must be 'accuracy', 'precision' or 'rate', got {mode!r}"
            )
        self.mode = mode
        self.name = {"accuracy": "ZFP_A", "precision": "ZFP_P", "rate": "ZFP_R"}[mode]
        self.supported_bounds = {
            "accuracy": (AbsoluteBound,),
            "precision": (PrecisionBound,),
            "rate": (RateBound,),
        }[mode]

    def _planes(
        self, emax: np.ndarray, param: float, ndim: int, intprec: int
    ) -> tuple[np.ndarray, int | None]:
        """Bit planes per block, and the rate mode's bit budget per block."""
        if self.mode == "accuracy":
            return planes_for_tolerance(emax, param, ndim, intprec), None
        if self.mode == "precision":
            return np.where(emax == EMPTY_EMAX, 0, min(int(param), intprec)), None
        # Fixed rate: code every plane, hard-cap each block's bits.
        return np.where(emax == EMPTY_EMAX, 0, intprec), max(1, round(param * _BLOCK**ndim))

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound, decoded=False)[0]

    def compress_verified(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        blob, recon = self._compress_impl(data, bound, decoded=True)
        if recon is None:
            # Rate mode cuts each block's stream at its bit budget, so
            # only the decoder knows which planes survived.
            recon = self.decompress(blob)
        return blob, recon

    def _compress_impl(
        self, data: np.ndarray, bound: ErrorBound, decoded: bool
    ) -> tuple[bytes, np.ndarray | None]:
        """Shared pipeline; returns ``(blob, exact decoder output)``.

        The array is ``None`` in rate mode and when not ``decoded``.
        """
        self._check_bound(bound)
        data = self._check_input(data)
        ndim = data.ndim
        intprec = intprec_for(data.dtype)

        with span("block-partition"):
            tiles, padded_shape = block_partition(data, _BLOCK)
            emax = block_exponents(tiles)
            q = quantize_blocks(tiles, emax, intprec)
        with span("block-transform"):
            coeffs = fwd_xform(q).reshape(q.shape[0], -1)
            perm, _ = sequency_order(ndim)
            nb = negabinary_encode(coeffs[:, perm])

        with span("encode-planes", mode=self.mode):
            nplanes, maxbits = self._planes(emax, float(bound.value), ndim, intprec)
            payload, lens = encode_blocks(nb, nplanes, intprec, maxbits=maxbits)

        with span("serialize") as sp:
            box = self._new_container(self.name, data)
            box.put_f64("param", float(bound.value))
            box.put_shape("padded", padded_shape)
            box.put("emax", deflate(emax.astype(np.int32).tobytes()))
            box.put("lens", deflate(lens.tobytes()))
            box.put("payload", payload)
            blob = box.to_bytes()
            sp.add_bytes(out=len(blob))

        if not decoded or maxbits is not None:
            return blob, None
        # The decoder reads back each block's top nplanes planes, zeros below.
        planes = nplanes.astype(np.uint64)
        kept = ((_U1 << planes) - _U1) << (np.uint64(intprec) - planes)
        nb &= kept[:, None]
        return blob, _decode_values(nb, emax, intprec, data.dtype, padded_shape, data.shape)

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        with span("parse") as sp:
            box, shape, dtype = self._open_container(blob, self.name)
            sp.add_bytes(in_=len(blob))
        param = box.get_f64("param")
        padded_shape = box.get_shape("padded")
        ndim = len(shape)
        intprec = intprec_for(dtype)
        ncoef = _BLOCK**ndim

        with span("decode-planes", mode=self.mode):
            emax = np.frombuffer(inflate(box.get("emax")), dtype=np.int32)
            lens = np.frombuffer(inflate(box.get("lens")), dtype=np.uint32)
            if emax.size != lens.size:
                raise ValueError("corrupt ZFP stream: block table size mismatch")

            payload = box.get("payload")
            nplanes, maxbits = self._planes(emax, param, ndim, intprec)
            if maxbits is not None:
                payload, lens = expand_fixed_rate(payload, lens.size, maxbits, nplanes, ncoef)
            nb = decode_blocks(payload, lens, nplanes, intprec, ncoef)
        return _decode_values(nb, emax, intprec, dtype, padded_shape, shape)


def _decode_values(
    nb: np.ndarray, emax: np.ndarray, intprec: int, dtype: np.dtype,
    padded_shape: tuple[int, ...], shape: tuple[int, ...],
) -> np.ndarray:
    """The decoder's path from ``(nblocks, 4**d)`` negabinary blocks to the array."""
    ndim = len(shape)
    with span("inverse-transform"):
        _, inv_perm = sequency_order(ndim)
        coeffs = negabinary_decode(nb)[:, inv_perm]
        q = inv_xform(coeffs.reshape((-1,) + (_BLOCK,) * ndim))
        tiles = dequantize_blocks(q, emax, intprec, dtype)
    with span("block-merge"):
        return block_merge(tiles, padded_shape, _BLOCK, shape)
