"""Compression-quality metrics used throughout the evaluation."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.metrics.angles import blockwise_mean_skew, skew_angles
    from repro.metrics.error import ErrorStats, bounded_fraction, relative_errors
    from repro.metrics.rate import (
        bit_rate,
        compression_ratio,
        psnr,
        relative_psnr,
    )

__all__ = [
    "ErrorStats",
    "bit_rate",
    "blockwise_mean_skew",
    "bounded_fraction",
    "compression_ratio",
    "psnr",
    "relative_errors",
    "relative_psnr",
    "skew_angles",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.angles": ("blockwise_mean_skew", "skew_angles"),
    "repro.metrics.error": ("ErrorStats", "bounded_fraction", "relative_errors"),
    "repro.metrics.rate": ("bit_rate", "compression_ratio", "psnr", "relative_psnr"),
})
