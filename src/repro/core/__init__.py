"""The paper's contribution: the logarithmic transformation scheme.

``repro.core`` converts a point-wise *relative*-error-bounded compression
problem into an *absolute*-error-bounded one:

* :mod:`repro.core.transform` -- the (unique, Theorem 2) logarithmic data
  mapping, including the zero-sentinel and sign handling of Algorithm 1;
* :mod:`repro.core.error_bounds` -- the bound mapping
  ``b_a = log_base(1 + b_r)`` and its Lemma-2 round-off adjustment;
* :mod:`repro.core.pwr` -- :class:`TransformedCompressor`, which wraps any
  absolute-error-bounded compressor (``SZ_T``, ``ZFP_T`` factories
  included);
* :mod:`repro.core.chunked` -- :class:`ChunkedCompressor`, the block
  decomposition running any inner compressor chunk-parallel;
* :mod:`repro.core.theory` -- executable forms of the paper's theorems
  (mapping uniqueness, Theorem-3 quantization-index deviation bounds,
  Lemma-4 decorrelation/coding-gain invariance).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.chunked import (
        DEFAULT_GROUP_SIZE,
        ChunkedCompressor,
        ChunkFailure,
        ChunkTimeoutError,
        RecoveryReport,
        chunk_patch_total,
        iter_chunk_blobs,
        recover_array,
    )
    from repro.core.error_bounds import abs_bound_for, adjusted_abs_bound, rel_bound_from_abs
    from repro.core.pwr import TransformedCompressor, make_sz_t, make_zfp_t
    from repro.core.transform import LogTransform

__all__ = [
    "ChunkFailure",
    "ChunkTimeoutError",
    "ChunkedCompressor",
    "DEFAULT_GROUP_SIZE",
    "LogTransform",
    "RecoveryReport",
    "TransformedCompressor",
    "abs_bound_for",
    "adjusted_abs_bound",
    "chunk_patch_total",
    "iter_chunk_blobs",
    "make_sz_t",
    "make_zfp_t",
    "recover_array",
    "rel_bound_from_abs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.chunked": (
        "DEFAULT_GROUP_SIZE", "ChunkedCompressor", "ChunkFailure", "ChunkTimeoutError",
        "RecoveryReport", "chunk_patch_total", "iter_chunk_blobs", "recover_array",
    ),
    "repro.core.error_bounds": ("abs_bound_for", "adjusted_abs_bound", "rel_bound_from_abs"),
    "repro.core.pwr": ("TransformedCompressor", "make_sz_t", "make_zfp_t"),
    "repro.core.transform": ("LogTransform",),
})
