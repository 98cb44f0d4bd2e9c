"""repro -- point-wise relative-error-bounded lossy compression.

Reproduction of Liang, Di, Tao, Chen & Cappello, *An Efficient
Transformation Scheme for Lossy Data Compression with Point-wise Relative
Error Bound* (IEEE CLUSTER 2018).

Quickstart::

    import numpy as np
    from repro import compress, decompress, RelativeBound

    data = np.random.default_rng(0).lognormal(size=(64, 64, 64)).astype(np.float32)
    blob = compress(data, RelativeBound(1e-2))          # SZ_T by default
    recon = decompress(blob)
    assert np.all(np.abs(recon - data) <= 1e-2 * np.abs(data))

Every compressor evaluated by the paper is available through
:func:`get_compressor`: ``SZ_T``, ``ZFP_T`` (the paper's contribution),
``SZ_ABS``, ``SZ_PWR``, ``ZFP_A``, ``ZFP_P``, ``FPZIP``, ``ISABELA``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

import numpy as np

from repro._lazy import lazy_exports
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
from repro.encoding.container import (
    ChecksumError,
    Container,
    ContainerError,
    StreamError,
    TruncatedStreamError,
    codec_of,
)

if TYPE_CHECKING:
    from repro.compressors.fpzip import FpzipCompressor
    from repro.compressors.isabela import IsabelaCompressor
    from repro.compressors.lossless import LosslessDeflate
    from repro.compressors.sz.pwr_block import SZPointwiseRelative
    from repro.compressors.sz.sz import SZCompressor
    from repro.compressors.sz.sz2 import SZ2Compressor
    from repro.compressors.sz.sz3 import SZ3Compressor
    from repro.compressors.zfp.zfp import ZFPCompressor
    from repro.core.chunked import (
        ChunkedCompressor,
        ChunkFailure,
        ChunkTimeoutError,
        RecoveryReport,
        recover_array,
    )
    from repro.core.pwr import TransformedCompressor, make_sz_t, make_zfp_t
    from repro.core.transform import LogTransform
    from repro.resilience.jobs import resume_job, run_compress_job, run_decompress_job
    from repro.resilience.ladder import DegradationLadder
    from repro.resilience.policy import (
        LadderExhaustedError,
        ResilienceError,
        ResiliencePolicy,
        ResilienceReport,
        parse_policy,
    )
    from repro.safeguards.adapter import SafeguardedCompressor
    from repro.safeguards.kinds import Safeguard, parse_safeguard

__version__ = "1.0.0"

__all__ = [
    "AbsoluteBound",
    "ChecksumError",
    "ChunkFailure",
    "ChunkTimeoutError",
    "ChunkedCompressor",
    "Compressor",
    "Container",
    "ContainerError",
    "DegradationLadder",
    "ErrorBound",
    "LadderExhaustedError",
    "FpzipCompressor",
    "IsabelaCompressor",
    "LogTransform",
    "LosslessDeflate",
    "PrecisionBound",
    "RateBound",
    "RecoveryReport",
    "RelativeBound",
    "ResilienceError",
    "ResiliencePolicy",
    "ResilienceReport",
    "Safeguard",
    "SafeguardedCompressor",
    "StreamError",
    "TruncatedStreamError",
    "SZ2Compressor",
    "SZ3Compressor",
    "SZCompressor",
    "SZPointwiseRelative",
    "TransformedCompressor",
    "UnsupportedBound",
    "ZFPCompressor",
    "__version__",
    "available_compressors",
    "compress",
    "decompress",
    "get_compressor",
    "make_sz_t",
    "make_zfp_t",
    "parse_policy",
    "parse_safeguard",
    "recover_array",
    "register_compressor",
    "repair_stream",
    "resume_job",
    "run_compress_job",
    "run_decompress_job",
    "verify_stream",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.compressors.fpzip": ("FpzipCompressor",),
    "repro.compressors.isabela": ("IsabelaCompressor",),
    "repro.compressors.lossless": ("LosslessDeflate",),
    "repro.compressors.sz.pwr_block": ("SZPointwiseRelative",),
    "repro.compressors.sz.sz": ("SZCompressor",),
    "repro.compressors.sz.sz2": ("SZ2Compressor",),
    "repro.compressors.sz.sz3": ("SZ3Compressor",),
    "repro.compressors.zfp.zfp": ("ZFPCompressor",),
    "repro.core.chunked": (
        "ChunkedCompressor", "ChunkFailure", "ChunkTimeoutError", "RecoveryReport",
        "recover_array",
    ),
    "repro.core.pwr": ("TransformedCompressor", "make_sz_t", "make_zfp_t"),
    "repro.core.transform": ("LogTransform",),
    "repro.resilience.jobs": ("resume_job", "run_compress_job", "run_decompress_job"),
    "repro.resilience.ladder": ("DegradationLadder",),
    "repro.resilience.policy": (
        "LadderExhaustedError", "ResilienceError", "ResiliencePolicy", "ResilienceReport",
        "parse_policy",
    ),
    "repro.safeguards.adapter": ("SafeguardedCompressor",),
    "repro.safeguards.kinds": ("Safeguard", "parse_safeguard"),
})

# -- registry ---------------------------------------------------------------
# Built-in codecs are registered by name; each imports its module on its
# first get_compressor(), so available_compressors() imports none.


def _builtin(target: str, *args, **kwargs):
    """Factory calling ``module:attr(*args, **kwargs)``, importing on use."""
    module, _, attr = target.partition(":")

    def factory() -> Compressor:
        return getattr(importlib.import_module(module), attr)(*args, **kwargs)

    return factory


def _transformed(inner: str):
    """Factory of the registered codec ``inner`` inside the log transform."""

    def factory() -> Compressor:
        from repro.core.pwr import TransformedCompressor

        return TransformedCompressor(get_compressor(inner))

    return factory


for _name, _factory in {
    "SZ_ABS": _builtin("repro.compressors.sz.sz:SZCompressor"),
    "SZ_PWR": _builtin("repro.compressors.sz.pwr_block:SZPointwiseRelative"),
    "ZFP_A": _builtin("repro.compressors.zfp.zfp:ZFPCompressor", "accuracy"),
    "ZFP_P": _builtin("repro.compressors.zfp.zfp:ZFPCompressor", "precision"),
    "ZFP_R": _builtin("repro.compressors.zfp.zfp:ZFPCompressor", "rate"),
    "FPZIP": _builtin("repro.compressors.fpzip:FpzipCompressor"),
    "GZIP": _builtin("repro.compressors.lossless:LosslessDeflate"),
    "ISABELA": _builtin("repro.compressors.isabela:IsabelaCompressor"),
    "SZ_T": _builtin("repro.core.pwr:make_sz_t"),
    "SZ2_ABS": _builtin("repro.compressors.sz.sz2:SZ2Compressor"),
    "SZ2_T": _transformed("SZ2_ABS"),
    "SZ3_ABS": _builtin("repro.compressors.sz.sz3:SZ3Compressor"),
    "SZ3_T": _transformed("SZ3_ABS"),
    "ZFP_T": _builtin("repro.core.pwr:make_zfp_t"),
    # Thread executor: registry instances serve generic decompress()
    # dispatch, which may run inside worker threads where forking a
    # process pool is unsafe.  Chunk streams decode identically under any
    # executor.
    "CHUNKED": _builtin("repro.core.chunked:ChunkedCompressor", executor="thread"),
    # Decode-only instance: safeguarded streams carry their declared
    # properties and patches inline, so dispatch needs no constructor
    # arguments.
    "SAFE": _builtin("repro.safeguards.adapter:SafeguardedCompressor"),
}.items():
    register_compressor(_name, _factory)
del _name, _factory


def compress(
    data: np.ndarray,
    bound: ErrorBound,
    compressor: str | Compressor = "SZ_T",
) -> bytes:
    """Compress ``data`` under ``bound`` with the named compressor.

    ``SZ_T`` (the paper's best-performing configuration) is the default.
    """
    if isinstance(compressor, str):
        compressor = get_compressor(compressor)
    return compressor.compress(data, bound)


def decompress(blob: bytes) -> np.ndarray:
    """Reconstruct an array from any stream produced by :func:`compress`.

    The codec is dispatched from the container header, so callers do not
    need to remember which compressor produced the bytes.  Corrupt or
    truncated streams raise :class:`StreamError` subclasses; v2 streams
    are checksum-verified before any decoding happens.
    """
    return _decoder_for(blob).decompress(blob)


def _decompress_nested(blob: bytes, trusted: bool) -> np.ndarray:
    """Decode a stream stored in a section of another stream.

    ``trusted``: the outer stream's CRC, already checked, covered every
    byte of ``blob``, so its own stream CRC is not hashed again
    (:meth:`Compressor.decompress_trusted`).
    """
    compressor = _decoder_for(blob)
    return compressor.decompress_trusted(blob) if trusted else compressor.decompress(blob)


def _decoder_for(blob: bytes) -> Compressor:
    """The registered compressor named by ``blob``'s header."""
    # The dispatched compressor re-parses with full CRC verification, so
    # only the header is read here (codec_of).
    try:
        return get_compressor(codec_of(blob))
    except KeyError:
        pass
    # Not a registered name: damage raises as a verifying parse would;
    # an intact stream is an ARCHIVE or names a truly unknown codec.
    from repro.inspection import inspect_stream

    model = inspect_stream(blob)
    model.raise_if_damaged()
    codec = model.codec
    if codec == "ARCHIVE":
        raise ValueError(
            "stream is a multi-field ARCHIVE; read it with "
            "repro.archive.decompress_dataset"
        )
    raise ContainerError(f"stream names unknown codec {codec!r} (corrupt header?)")


def verify_stream(blob: bytes):
    """Checksum + structural verification without decompression.

    Convenience re-export of :func:`repro.integrity.verify_stream`.
    """
    from repro.integrity import verify_stream as _verify

    return _verify(blob)


def repair_stream(blob: bytes):
    """Rebuild damaged chunks of a parity-bearing stream from parity.

    Convenience re-export of :func:`repro.integrity.repair_stream`;
    returns ``(repaired_bytes, RepairReport)``.
    """
    from repro.integrity import repair_stream as _repair

    return _repair(blob)
