"""SZ 2.x-style blockwise regression/Lorenzo hybrid (``SZ2_ABS``).

An extension beyond the paper's SZ 1.4: Liang et al. (SC'18, the same
group) improved SZ by splitting the array into blocks and choosing, per
block, between the Lorenzo predictor and a fitted *linear regression*
``f(i,j,k) = b0 + b1*i + b2*j + b3*k``, which predicts smooth-gradient
regions far better than the one-step Lorenzo stencil.

The lattice formulation (DESIGN.md section 5.1) makes the hybrid sound by
construction: predictions only shape the *residual coding*, never the
reconstruction (always ``k * 2 * eb``), so any deterministic predictor --
including one fitted on original data and quantized for storage -- keeps
the absolute bound intact.

Per block this coder stores 1 selector bit plus, for regression blocks,
``d+1`` quantized coefficients; residuals from both predictor families
share one Huffman alphabet.  Wrapped in the log transform
(``TransformedCompressor``) it becomes ``SZ2_T``, the natural "better
inner compressor" extension the paper's scheme was designed to enable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.compressors.base import AbsoluteBound, Compressor, ErrorBound
from repro.compressors.sz.predictor import lorenzo_reconstruct, lorenzo_residual
from repro.compressors.sz.quantizer import (
    CLIP_INDEX,
    EB_SHRINK,
    lattice_quantize,
    lattice_reconstruct,
    residual_codes,
)
from repro.compressors.sz.sz import DEFAULT_RADIUS, _pack_payload, _unpack_payload
from repro.encoding import HuffmanCodec, deflate, inflate, zigzag_decode, zigzag_encode
from repro.utils.blocking import block_merge, block_partition

__all__ = ["SZ2Compressor", "DEFAULT_EDGES"]

#: Block edge per dimensionality (SZ 2.x uses 6^d blocks; ours are larger
#: so the per-block selector/coefficient overhead stays small in Python).
DEFAULT_EDGES = {1: 128, 2: 12, 3: 6}


@lru_cache(maxsize=None)
def _design(ndim: int, edge: int) -> tuple[np.ndarray, np.ndarray]:
    """Regression design matrix over block coordinates and its pseudo-inverse.

    Columns: intercept then one linear term per axis, coordinates centred
    so the intercept is the block mean (better-conditioned and cheaper to
    quantize).
    """
    coords = np.indices((edge,) * ndim).reshape(ndim, -1).astype(np.float64)
    coords -= (edge - 1) / 2.0
    X = np.vstack([np.ones(edge**ndim), coords]).T
    return X, np.linalg.pinv(X)


class SZ2Compressor(Compressor):
    """Blockwise Lorenzo-vs-regression hybrid, absolute error bound."""

    name = "SZ2_ABS"
    supported_bounds = (AbsoluteBound,)

    def __init__(self, edge: int | None = None, radius: int = DEFAULT_RADIUS) -> None:
        if edge is not None and edge < 4:
            raise ValueError(f"block edge must be >= 4, got {edge}")
        self.edge = edge
        self.radius = radius
        self._huffman = HuffmanCodec()

    def _edge_for(self, ndim: int) -> int:
        return self.edge if self.edge is not None else DEFAULT_EDGES[ndim]

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
        ndim = data.ndim
        edge = self._edge_for(ndim)

        tiles, padded_shape = block_partition(data, edge)
        nblocks = tiles.shape[0]
        step = 2.0 * eb * EB_SHRINK

        x64 = tiles.astype(np.float64)
        # Shared lattice quantizer (same step: 2*eb*EB_SHRINK associates
        # exactly -- doubling is a power-of-two scale), including the
        # non-finite -> risky masking.
        k, risky = lattice_quantize(x64, eb)

        # Candidate 1: within-block Lorenzo residuals.
        q_lor = lorenzo_residual(k, ndim)

        # Candidate 2: linear regression fitted per block, coefficients
        # quantized for storage so the decoder predicts identically.
        X, pinv = _design(ndim, edge)
        flat = x64.reshape(nblocks, -1)
        coeffs = flat @ pinv.T
        cq = self._quantize_coeffs(coeffs, eb, edge)
        pred = (self._dequantize_coeffs(cq, eb, edge) @ X.T)
        kp = np.clip(np.rint(pred / step), -CLIP_INDEX, CLIP_INDEX).astype(np.int64)
        q_reg = (k.reshape(nblocks, -1) - kp).reshape(q_lor.shape)

        # Selector: per-block coding-cost proxy (bits ~ log2(1 + |q|)).
        cost_lor = np.log2(1.0 + np.abs(q_lor.reshape(nblocks, -1))).sum(axis=1)
        cost_reg = (
            np.log2(1.0 + np.abs(q_reg.reshape(nblocks, -1))).sum(axis=1)
            + 12.0 * cq.shape[1]  # stored coefficient overhead
        )
        use_reg = cost_reg < cost_lor
        q = np.where(use_reg.reshape((-1,) + (1,) * ndim), q_reg, q_lor)

        codes, esc_q = residual_codes(q, risky, self.radius)

        recon = lattice_reconstruct(k, eb, data.dtype)
        viol = np.abs(x64 - recon.astype(np.float64)) > eb
        patch = (viol | risky).reshape(-1)
        patch_idx = np.flatnonzero(patch).astype(np.uint64)
        patch_val = tiles.reshape(-1)[patch_idx.astype(np.int64)]

        box = self._new_container(self.name, data)
        box.put_f64("eb", eb)
        box.put_u64("radius", self.radius)
        box.put_u64("edge", edge)
        box.put_shape("padded", padded_shape)
        box.put_u64("nblocks", nblocks)
        box.put("selector", deflate(np.packbits(use_reg).tobytes()))
        box.put("coeffs", deflate(zigzag_encode(cq[use_reg].ravel()).tobytes()))

        _pack_payload(box, self._huffman, codes, esc_q, patch_idx, patch_val)

        # Exact decoder output: patched reconstruction tiles, merged back
        # to the original shape.
        flat = recon.reshape(-1)
        flat[patch_idx.astype(np.int64)] = patch_val
        return box.to_bytes(), block_merge(flat, padded_shape, edge, data.shape)

    @staticmethod
    def _quantize_coeffs(coeffs: np.ndarray, eb: float, edge: int) -> np.ndarray:
        """Quantize regression coefficients.

        Grids: intercept at ``eb/4``; slopes at ``eb/(4*edge)`` so a
        worst-case corner deviates by ~eb/2 from the exact fit -- plenty
        for *prediction* (the bound never depends on this).
        """
        grids = np.full(coeffs.shape[1], eb / (4.0 * edge))
        grids[0] = eb / 4.0
        q = np.rint(coeffs / grids)
        return np.clip(q, -(2.0**45), 2.0**45).astype(np.int64)

    @staticmethod
    def _dequantize_coeffs(cq: np.ndarray, eb: float, edge: int) -> np.ndarray:
        grids = np.full(cq.shape[1], eb / (4.0 * edge))
        grids[0] = eb / 4.0
        return cq.astype(np.float64) * grids

    # -- decompression -----------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        box, shape, dtype = self._open_container(blob, self.name)
        eb = box.get_f64("eb")
        radius = box.get_u64("radius")
        edge = box.get_u64("edge")
        padded_shape = box.get_shape("padded")
        nblocks = box.get_u64("nblocks")
        ndim = len(shape)
        step = 2.0 * eb * EB_SHRINK

        use_reg = np.unpackbits(
            np.frombuffer(inflate(box.get("selector")), dtype=np.uint8), count=nblocks
        ).astype(bool)
        ncoef = ndim + 1
        cq_flat = zigzag_decode(
            np.frombuffer(inflate(box.get("coeffs")), dtype=np.uint64)
        )
        if cq_flat.size != int(use_reg.sum()) * ncoef:
            raise ValueError("corrupt SZ2 stream: coefficient table size mismatch")

        q, patch_idx, patch_val = _unpack_payload(box, self._huffman, dtype, radius, "SZ2")
        q = q.reshape((nblocks,) + (edge,) * ndim)

        # Lorenzo blocks: invert the in-block stencil.  Regression blocks:
        # add back the quantized-coefficient prediction.
        k = np.zeros_like(q)
        lor = ~use_reg
        if lor.any():
            k[lor] = lorenzo_reconstruct(q[lor], ndim)
        if use_reg.any():
            X, _ = _design(ndim, edge)
            cq = cq_flat.reshape(-1, ncoef)
            pred = self._dequantize_coeffs(cq, eb, edge) @ X.T
            kp = np.clip(np.rint(pred / step), -CLIP_INDEX, CLIP_INDEX).astype(np.int64)
            sel_shape = q[use_reg].shape
            k[use_reg] = (q[use_reg].reshape(kp.shape[0], -1) + kp).reshape(sel_shape)

        tiles = (k.astype(np.float64) * step).astype(dtype)
        flat = tiles.reshape(-1)
        flat[patch_idx.astype(np.int64)] = patch_val
        return block_merge(flat, padded_shape, edge, shape)
