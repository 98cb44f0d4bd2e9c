"""ZFP: transform-based error-bounded lossy compressor (pure numpy).

Faithful reimplementation of Lindstrom's ZFP (TVCG 2014) pipeline:

1. partition into ``4^d`` blocks (:mod:`repro.utils.blocking`),
2. block-floating-point alignment to a common exponent
   (:mod:`repro.compressors.zfp.fixedpoint`),
3. the reversible integer lifting transform applied along every axis
   (:mod:`repro.compressors.zfp.transform`),
4. negabinary mapping and group-tested embedded bit-plane coding
   (:mod:`repro.compressors.zfp.embedded`).

Two modes are exposed through :class:`ZFPCompressor`:

* *accuracy* (absolute error bound; what the transformation scheme wraps
  to build ``ZFP_T``),
* *precision* (the ``-p`` mode the paper evaluates as ``ZFP_P``, which
  approximates relative-error behaviour but cannot strictly respect it).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.compressors.zfp.embedded import decode_blocks, encode_blocks
    from repro.compressors.zfp.fixedpoint import (
        block_exponents,
        dequantize_blocks,
        negabinary_decode,
        negabinary_encode,
        quantize_blocks,
    )
    from repro.compressors.zfp.transform import fwd_xform, inv_xform, sequency_order
    from repro.compressors.zfp.zfp import ZFPCompressor

__all__ = [
    "ZFPCompressor",
    "block_exponents",
    "decode_blocks",
    "dequantize_blocks",
    "encode_blocks",
    "fwd_xform",
    "inv_xform",
    "negabinary_decode",
    "negabinary_encode",
    "quantize_blocks",
    "sequency_order",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.compressors.zfp.embedded": ("decode_blocks", "encode_blocks"),
    "repro.compressors.zfp.fixedpoint": (
        "block_exponents", "dequantize_blocks", "negabinary_decode", "negabinary_encode",
        "quantize_blocks",
    ),
    "repro.compressors.zfp.transform": ("fwd_xform", "inv_xform", "sequency_order"),
    "repro.compressors.zfp.zfp": ("ZFPCompressor",),
})
