"""Error-distribution analysis (the paper's reference [7]).

Lindstrom's JSM'17 study, cited by the paper, characterizes compressor
error *distributions*: SZ's linear-scaling quantization yields errors
nearly uniform over ``[-eb, +eb]``, while ZFP's transform averages many
quantization errors and comes out bell-shaped and over-preserving.  These
shapes matter downstream (uniform error is unbiased white noise;
Gaussian-ish error correlates across a block), so the library exposes the
measurement and an experiment regenerating the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ErrorDistribution", "error_distribution", "error_autocorrelation"]


@dataclass(frozen=True)
class ErrorDistribution:
    """Shape summary of point-wise errors scaled to the bound.

    ``scaled`` moments are of ``err / bound`` (so uniform on the full bin
    has std ``1/sqrt(3) ~ 0.577``); ``uniform_ks``/``normal_ks`` are
    Kolmogorov-Smirnov distances to the best-fitting uniform/normal
    references (smaller = closer).
    """

    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    uniform_ks: float
    normal_ks: float
    fill: float  # max |err| / bound: how much of the budget is used

    @property
    def looks_uniform(self) -> bool:
        return self.uniform_ks < self.normal_ks

    @property
    def looks_normal(self) -> bool:
        return self.normal_ks < self.uniform_ks


def error_distribution(
    original: np.ndarray, recon: np.ndarray, bound: float
) -> ErrorDistribution:
    """Characterize signed errors ``recon - original`` against ``bound``."""
    from scipy import stats  # imported on use: loading scipy is slow

    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    err = (
        np.asarray(recon, dtype=np.float64).ravel()
        - np.asarray(original, dtype=np.float64).ravel()
    ) / bound
    if err.size < 8:
        raise ValueError("need at least 8 samples to characterize a distribution")

    std = float(err.std())
    half = float(np.abs(err).max())
    if half == 0 or std == 0:
        # exact reconstruction: degenerate (report zeros, KS against the
        # point mass is 0 for both references by convention)
        return ErrorDistribution(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    uniform_ks = float(stats.kstest(err, stats.uniform(-half, 2 * half).cdf).statistic)
    normal_ks = float(stats.kstest(err, stats.norm(err.mean(), std).cdf).statistic)
    return ErrorDistribution(
        mean=float(err.mean()),
        std=std,
        skewness=float(stats.skew(err)),
        excess_kurtosis=float(stats.kurtosis(err)),
        uniform_ks=uniform_ks,
        normal_ks=normal_ks,
        fill=half,
    )


def error_autocorrelation(
    original: np.ndarray, recon: np.ndarray, max_lag: int = 8
) -> np.ndarray:
    """Spatial autocorrelation of the signed error along the last axis.

    Quantization-style errors (SZ) are white -- near-zero at every lag;
    transform-domain errors (ZFP) are correlated across each 4-wide block.
    Returns correlations for lags ``1..max_lag``.
    """
    err = np.asarray(recon, dtype=np.float64) - np.asarray(original, dtype=np.float64)
    err = err.reshape(-1, err.shape[-1]) if err.ndim > 1 else err[None, :]
    n = err.shape[-1]
    if max_lag < 1 or max_lag >= n:
        raise ValueError(f"max_lag must be in [1, {n - 1}], got {max_lag}")
    err = err - err.mean()
    denom = float((err**2).sum())
    if denom == 0:
        return np.zeros(max_lag)
    out = np.zeros(max_lag)
    for lag in range(1, max_lag + 1):
        out[lag - 1] = float((err[:, :-lag] * err[:, lag:]).sum()) / denom
    return out
