"""Error-bounded lossy compressors.

This subpackage implements, from scratch and in vectorized numpy, every
compressor the paper evaluates:

* :mod:`repro.compressors.sz` -- the SZ prediction-based compressor
  (absolute-error mode ``SZ_ABS`` and the blockwise point-wise-relative
  mode ``SZ_PWR``),
* :mod:`repro.compressors.zfp` -- the ZFP transform-based compressor
  (fixed-accuracy mode and the ``-p`` precision mode ``ZFP_P``),
* :mod:`repro.compressors.fpzip` -- FPZIP's precision-truncating
  predictive coder,
* :mod:`repro.compressors.isabela` -- ISABELA's sort + B-spline + index
  scheme.

The paper's own contribution -- the logarithmic transformation wrapper that
turns the absolute-error compressors into point-wise-relative ones
(``SZ_T``/``ZFP_T``) -- lives in :mod:`repro.core`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.compressors.base import (
        AbsoluteBound,
        Compressor,
        ErrorBound,
        PrecisionBound,
        RateBound,
        RelativeBound,
        UnsupportedBound,
        available_compressors,
        get_compressor,
        register_compressor,
    )
    from repro.compressors.fpzip import FpzipCompressor
    from repro.compressors.isabela import IsabelaCompressor
    from repro.compressors.sz.pwr_block import SZPointwiseRelative
    from repro.compressors.sz.sz import SZCompressor
    from repro.compressors.sz.sz2 import SZ2Compressor
    from repro.compressors.sz.sz3 import SZ3Compressor
    from repro.compressors.zfp.zfp import ZFPCompressor

__all__ = [
    "AbsoluteBound",
    "Compressor",
    "ErrorBound",
    "FpzipCompressor",
    "IsabelaCompressor",
    "PrecisionBound",
    "RateBound",
    "RelativeBound",
    "SZ2Compressor",
    "SZ3Compressor",
    "SZCompressor",
    "SZPointwiseRelative",
    "UnsupportedBound",
    "ZFPCompressor",
    "available_compressors",
    "get_compressor",
    "register_compressor",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.compressors.base": (
        "AbsoluteBound", "Compressor", "ErrorBound", "PrecisionBound", "RateBound",
        "RelativeBound", "UnsupportedBound", "available_compressors", "get_compressor",
        "register_compressor",
    ),
    "repro.compressors.fpzip": ("FpzipCompressor",),
    "repro.compressors.isabela": ("IsabelaCompressor",),
    "repro.compressors.sz.pwr_block": ("SZPointwiseRelative",),
    "repro.compressors.sz.sz": ("SZCompressor",),
    "repro.compressors.sz.sz2": ("SZ2Compressor",),
    "repro.compressors.sz.sz3": ("SZ3Compressor",),
    "repro.compressors.zfp.zfp": ("ZFPCompressor",),
})
