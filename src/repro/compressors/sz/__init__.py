"""SZ: prediction-based error-bounded lossy compressor (pure numpy).

Pipeline (Tao et al., IPDPS'17; Di & Cappello, IPDPS'16):

1. **Prediction** -- Lorenzo predictor over 1/3/7 neighbours for 1-D/2-D/3-D
   data (:mod:`repro.compressors.sz.predictor`).
2. **Linear-scaling quantization** -- prediction errors quantized into
   ``2*radius + 1`` bins of width ``2*eb``
   (:mod:`repro.compressors.sz.quantizer`).
3. **Entropy coding** -- canonical Huffman over the quantization codes,
   followed by an optional DEFLATE stage.

``SZ_ABS`` (:class:`SZCompressor`) honours absolute bounds; ``SZ_PWR``
(:class:`SZPointwiseRelative`) is the blockwise point-wise-relative mode the
paper compares against (per-block bound from the smallest magnitude in the
block).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.compressors.sz.predictor import lorenzo_reconstruct, lorenzo_residual
    from repro.compressors.sz.pwr_block import SZPointwiseRelative
    from repro.compressors.sz.quantizer import lattice_quantize, lattice_reconstruct
    from repro.compressors.sz.sz import SZCompressor
    from repro.compressors.sz.sz2 import SZ2Compressor
    from repro.compressors.sz.sz3 import SZ3Compressor

__all__ = [
    "SZ2Compressor",
    "SZ3Compressor",
    "SZCompressor",
    "SZPointwiseRelative",
    "lattice_quantize",
    "lattice_reconstruct",
    "lorenzo_reconstruct",
    "lorenzo_residual",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.compressors.sz.predictor": ("lorenzo_reconstruct", "lorenzo_residual"),
    "repro.compressors.sz.pwr_block": ("SZPointwiseRelative",),
    "repro.compressors.sz.quantizer": ("lattice_quantize", "lattice_reconstruct"),
    "repro.compressors.sz.sz": ("SZCompressor",),
    "repro.compressors.sz.sz2": ("SZ2Compressor",),
    "repro.compressors.sz.sz3": ("SZ3Compressor",),
})
