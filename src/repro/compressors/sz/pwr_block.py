r"""SZ's blockwise point-wise-relative mode (``SZ_PWR``).

This is the strategy of Di, Tao & Cappello (DRBSD-2 2017) that the paper
uses as its main baseline: split the array into non-overlapping blocks and
run absolute-error-bounded compression inside each block with

.. math:: eb_{block} = b_r \cdot \min_{x \in block, x \ne 0} |x|

The design weaknesses the paper calls out fall out of this construction
naturally: per-block metadata and a per-block unpredictable first point cap
the achievable ratio, and a single small magnitude in an otherwise large
block collapses ``eb_block``, blowing residuals out of the quantization
range (visible on spiky data such as HACC).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, ErrorBound, RelativeBound
from repro.compressors.sz.predictor import lorenzo_reconstruct, lorenzo_residual
from repro.compressors.sz.quantizer import CLIP_INDEX, EB_SHRINK, RISKY_INDEX, residual_codes
from repro.compressors.sz.sz import DEFAULT_RADIUS, _pack_payload, _unpack_payload
from repro.encoding import HuffmanCodec, deflate, inflate
from repro.observe.audit import file_audit, grade
from repro.utils.blocking import block_merge, block_partition

__all__ = ["SZPointwiseRelative", "DEFAULT_BLOCKS"]

#: Default block edge per dimensionality (elements per block stay ~512).
DEFAULT_BLOCKS = {1: 256, 2: 16, 3: 8}


class SZPointwiseRelative(Compressor):
    """Blockwise point-wise-relative SZ (the paper's ``SZ_PWR`` baseline)."""

    name = "SZ_PWR"
    supported_bounds = (RelativeBound,)

    def __init__(self, block: int | None = None, radius: int = DEFAULT_RADIUS) -> None:
        if block is not None and block <= 1:
            raise ValueError(f"block edge must be > 1, got {block}")
        self.block = block
        self.radius = radius
        self._huffman = HuffmanCodec()

    def _edge(self, ndim: int) -> int:
        return self.block if self.block is not None else DEFAULT_BLOCKS[ndim]

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
        ndim = data.ndim
        edge = self._edge(ndim)

        tiles, padded_shape = block_partition(data, edge)
        tiles64 = tiles.astype(np.float64)
        nblocks = tiles.shape[0]
        flat = np.abs(tiles64).reshape(nblocks, -1)

        # Per-block bound from the smallest non-zero magnitude; all-zero
        # blocks get a dummy bound (they quantize to exact zeros anyway).
        masked = np.where(flat > 0, flat, np.inf)
        min_abs = masked.min(axis=1)
        all_zero = ~np.isfinite(min_abs)
        eb_block = np.where(all_zero, 1.0, br * min_abs)

        step = (2.0 * EB_SHRINK) * eb_block.reshape((nblocks,) + (1,) * ndim)
        with np.errstate(divide="ignore", invalid="ignore"):
            kf = np.rint(tiles64 / step)
        if not eb_block.all():
            # b_r * min|x| underflowed to 0 (a subnormal minimum): the
            # block's nonzeros get +-inf indices, flagged risky below and
            # stored verbatim, and its zeros 0/0 = NaN, which index 0
            # rebuilds exactly.
            kf[np.isnan(kf)] = 0.0
        risky = np.abs(kf) > RISKY_INDEX
        k = np.clip(kf, -CLIP_INDEX, CLIP_INDEX).astype(np.int64)

        q = lorenzo_residual(k, ndim)
        codes, esc_q = residual_codes(q, risky, self.radius)

        # Verify against the per-block absolute bound and patch stragglers,
        # and every -0.0, which quantizes to +0.0.
        recon = (k.astype(np.float64) * step).astype(data.dtype)
        viol = np.abs(tiles64 - recon.astype(np.float64)) > eb_block.reshape(
            (nblocks,) + (1,) * ndim
        )
        patch = (viol | risky | ((tiles == 0) & np.signbit(tiles))).reshape(-1)
        if padded_shape != data.shape:
            # Padding replicas of edge points are cropped by the decoder.
            inside = np.zeros(padded_shape, dtype=bool)
            inside[tuple(map(slice, data.shape))] = True
            patch &= block_partition(inside, edge)[0].reshape(-1)
        patch_idx = np.flatnonzero(patch).astype(np.uint64)
        patch_val = tiles.reshape(-1)[patch_idx.astype(np.int64)]

        box = self._new_container(self.name, data)
        box.put_f64("br", br)
        box.put_u64("radius", self.radius)
        box.put_u64("edge", edge)
        box.put_shape("padded", padded_shape)
        box.put("eb_block", deflate(eb_block.tobytes()))
        box.put_u64("nblocks", nblocks)
        _pack_payload(box, self._huffman, codes, esc_q, patch_idx, patch_val)

        # The decoder's tiles are this reconstruction (its Lorenzo pass
        # inverts the residuals exactly), patched, then merged.
        final = recon.reshape(-1)
        final[patch_idx.astype(np.int64)] = patch_val
        final = block_merge(final, padded_shape, edge, data.shape)
        file_audit(grade(data, final, ("rel", br), self.name, patched=int(patch_idx.size)))
        return box.to_bytes(), final

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        box, shape, dtype = self._open_container(blob, self.name)
        radius = box.get_u64("radius")
        edge = box.get_u64("edge")
        padded_shape = box.get_shape("padded")
        nblocks = box.get_u64("nblocks")
        ndim = len(shape)

        eb_block = np.frombuffer(inflate(box.get("eb_block")), dtype=np.float64)
        if eb_block.size != nblocks:
            raise ValueError("corrupt SZ_PWR stream: bound table size mismatch")

        q, patch_idx, patch_val = _unpack_payload(box, self._huffman, dtype, radius, "SZ_PWR")
        q = q.reshape((nblocks,) + (edge,) * ndim)
        k = lorenzo_reconstruct(q, ndim)
        step = (2.0 * EB_SHRINK) * eb_block.reshape((nblocks,) + (1,) * ndim)
        tiles = (k.astype(np.float64) * step).astype(dtype)

        flat = tiles.reshape(-1)
        flat[patch_idx.astype(np.int64)] = patch_val
        return block_merge(flat, padded_shape, edge, shape)
