"""Rate metrics: compression ratio, bit-rate, PSNR variants.

``relative_psnr`` is the paper's Figure-1 metric: PSNR computed on
point-wise *relative* errors with the value range set to 1, i.e.
``-20 log10(rms(relative errors))``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.error import relative_errors

__all__ = ["compression_ratio", "bit_rate", "psnr", "relative_psnr"]


def compression_ratio(original_nbytes: int, compressed_nbytes: int) -> float:
    """Plain size ratio; > 1 means the stream shrank."""
    if compressed_nbytes <= 0:
        raise ValueError("compressed size must be positive")
    return original_nbytes / compressed_nbytes


def bit_rate(compressed_nbytes: int, n_values: int) -> float:
    """Bits used per value (the x-axis of the paper's Figure 1)."""
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    return 8.0 * compressed_nbytes / n_values


def psnr(original: np.ndarray, recon: np.ndarray) -> float:
    """Classic PSNR against the data's value range."""
    x = np.asarray(original, dtype=np.float64)
    xd = np.asarray(recon, dtype=np.float64)
    rng = float(x.max() - x.min())
    mse = float(np.mean((x - xd) ** 2))
    if mse == 0:
        return math.inf
    if rng == 0:
        raise ValueError("PSNR undefined for constant data")
    return 20 * math.log10(rng) - 10 * math.log10(mse)


def relative_psnr(original: np.ndarray, recon: np.ndarray) -> float:
    """PSNR on point-wise relative errors with range fixed at 1 (Fig. 1).

    Zero-valued originals and non-finite residuals are excluded, as in
    :func:`~repro.metrics.error.relative_errors`; exact reconstructions
    yield ``inf``.
    """
    rel = relative_errors(original, recon)
    mse = float(np.mean(rel**2))
    if mse == 0:
        return math.inf
    return -10 * math.log10(mse)
