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

import numpy as np

from repro.compressors import (
    AbsoluteBound,
    Compressor,
    ErrorBound,
    FpzipCompressor,
    IsabelaCompressor,
    PrecisionBound,
    RateBound,
    RelativeBound,
    SZ2Compressor,
    SZ3Compressor,
    SZCompressor,
    SZPointwiseRelative,
    UnsupportedBound,
    ZFPCompressor,
    available_compressors,
    get_compressor,
    register_compressor,
)
from repro.compressors.lossless import LosslessDeflate
from repro.core import (
    ChunkedCompressor,
    ChunkFailure,
    ChunkTimeoutError,
    LogTransform,
    RecoveryReport,
    TransformedCompressor,
    make_sz_t,
    make_zfp_t,
    recover_array,
)
from repro.encoding.container import (
    ChecksumError,
    Container,
    ContainerError,
    StreamError,
    TruncatedStreamError,
    codec_of,
)
from repro.resilience import (
    DegradationLadder,
    LadderExhaustedError,
    ResilienceError,
    ResiliencePolicy,
    ResilienceReport,
    parse_policy,
    resume_job,
    run_compress_job,
    run_decompress_job,
)
from repro.safeguards import Safeguard, SafeguardedCompressor, parse_safeguard

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

# -- registry ---------------------------------------------------------------

register_compressor("SZ_ABS", SZCompressor)
register_compressor("SZ_PWR", SZPointwiseRelative)
register_compressor("ZFP_A", lambda: ZFPCompressor("accuracy"))
register_compressor("ZFP_P", lambda: ZFPCompressor("precision"))
register_compressor("ZFP_R", lambda: ZFPCompressor("rate"))
register_compressor("FPZIP", FpzipCompressor)
register_compressor("GZIP", LosslessDeflate)
register_compressor("ISABELA", IsabelaCompressor)
register_compressor("SZ_T", make_sz_t)
register_compressor("SZ2_ABS", SZ2Compressor)
register_compressor(
    "SZ2_T", lambda: TransformedCompressor(SZ2Compressor())
)
register_compressor("SZ3_ABS", SZ3Compressor)
register_compressor(
    "SZ3_T", lambda: TransformedCompressor(SZ3Compressor())
)
register_compressor("ZFP_T", make_zfp_t)
# Thread executor: registry instances serve generic decompress() dispatch,
# which may run inside worker threads where forking a process pool is
# unsafe.  Chunk streams decode identically under any executor.
register_compressor("CHUNKED", lambda: ChunkedCompressor(executor="thread"))
# Decode-only instance: safeguarded streams carry their declared properties
# and patches inline, so dispatch needs no constructor arguments.
register_compressor("SAFE", SafeguardedCompressor)


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
