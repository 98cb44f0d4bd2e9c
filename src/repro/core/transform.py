"""The logarithmic data mapping (Theorem 2 / Algorithm 1).

``LogTransform`` maps magnitudes into log space and back, handling the two
cases an idealized ``f(x) = log_base x`` cannot:

* **zeros** are planted at a sentinel ``4 * b_a`` *below* the smallest
  exponent the floating-point format can express, so that after
  absolute-error-bounded compression (error ``<= b_a``) reconstructed
  sentinels and reconstructed genuine values remain separated by a
  ``2 * b_a`` guard band and zeros decode to exact zeros (Algorithm 1
  lines 4-5 use a ``2 b_a`` offset from the format's minimum exponent; we
  anchor at the *denormal* minimum with a doubled guard so sub-normal
  inputs can never collide with the sentinel),
* **signs** are stripped before the transform and stored as a
  DEFLATE-compressed bitmap (Algorithm 1 lines 9-17), skipped entirely
  for single-signed data.

The fast-path bases 2, e and 10 call the dedicated libm entry points
(``log2``/``exp2`` etc.); Table III of the paper compares exactly these
three and picks base 2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["LogTransform", "FLOOR_LOG2"]

#: log2 of the smallest positive (denormal) value per dtype.
FLOOR_LOG2 = {np.dtype(np.float32): -149.0, np.dtype(np.float64): -1074.0}


class LogTransform:
    """Bijective magnitude <-> log-domain mapping with zero sentinel."""

    def __init__(self, base: float = 2.0) -> None:
        if base <= 1:
            raise ValueError(f"base must exceed 1, got {base}")
        self.base = float(base)

    # -- scalar helpers ------------------------------------------------------

    def floor_log(self, dtype: np.dtype) -> float:
        """``log_base`` of the smallest positive value of ``dtype``."""
        return FLOOR_LOG2[np.dtype(dtype)] / math.log2(self.base)

    def zero_sentinel(self, abs_bound: float, dtype: np.dtype) -> float:
        """Log-domain value representing an exact zero (Algorithm 1 l.5)."""
        return self.floor_log(dtype) - 4.0 * abs_bound

    def zero_threshold(self, abs_bound: float, dtype: np.dtype) -> float:
        """Reconstructions at or below this decode to exact zero."""
        return self.floor_log(dtype) - 2.0 * abs_bound

    # -- array mapping -------------------------------------------------------

    def forward(self, magnitudes: np.ndarray, abs_bound: float) -> np.ndarray:
        """Map ``|x|`` into log space (zeros -> sentinel), keeping dtype.

        The output stays in the input's precision -- that precision's
        machine epsilon is the ``eps0`` of Lemma 2.
        """
        return self.plant_sentinel(
            self.forward_logs(magnitudes), magnitudes, abs_bound
        )

    def forward_logs(self, magnitudes: np.ndarray) -> np.ndarray:
        """Raw ``log_base`` of the magnitudes (``-inf`` at zeros).

        The log itself does not depend on the bound -- only the zero
        sentinel does -- so callers that need the same data mapped under
        two bounds (the provisional ``b_a`` and the Lemma-2-adjusted one)
        can take the logs once and call :meth:`plant_sentinel` twice.
        """
        x = np.asarray(magnitudes)
        if (x < 0).any():
            raise ValueError("forward() expects magnitudes (non-negative values)")
        with np.errstate(divide="ignore"):
            if self.base == 2.0:
                d = np.log2(x)
            elif self.base == math.e:
                d = np.log(x)
            elif self.base == 10.0:
                d = np.log10(x)
            else:
                d = np.log2(x) / np.asarray(math.log2(self.base), dtype=x.dtype)
        return d

    def plant_sentinel(
        self, logs: np.ndarray, magnitudes: np.ndarray, abs_bound: float
    ) -> np.ndarray:
        """Replace the logs of exact zeros with the bound's sentinel."""
        x = np.asarray(magnitudes)
        sentinel = np.asarray(self.zero_sentinel(abs_bound, x.dtype), dtype=x.dtype)
        return np.where(x == 0, sentinel, logs)

    def max_finite_log(self, dtype: np.dtype) -> float:
        """``log_base`` of the largest finite value of ``dtype``."""
        return float(np.log2(np.finfo(np.dtype(dtype)).max)) / math.log2(self.base)

    def inverse(self, logs: np.ndarray, abs_bound: float, dtype: np.dtype) -> np.ndarray:
        """Map reconstructed log values back to magnitudes (with zeros).

        Reconstructed logs are clipped to ``log_base(finfo(dtype).max)``:
        for magnitudes near the format's maximum, an inner-compressor error
        of ``+b_a`` would otherwise push ``exp2`` past the exponent range
        and decode to ``inf``.  The clip keeps the result at ``finfo.max``,
        still within the relative bound of any in-range original.

        Zero sentinels never reach ``exp2``: their results would underflow,
        and numpy's SIMD ``exp2`` drops to a far slower path for results
        that are subnormal or underflow.  The exponential runs on a copy
        holding 0 at those positions instead; every other element keeps its
        array position, hence its SIMD lane, so no output bit moves.
        """
        d = np.asarray(logs)
        zero = d <= self.zero_threshold(abs_bound, dtype)
        any_zero = zero.any()
        if any_zero:
            d = np.where(zero, np.asarray(0, dtype=d.dtype), d)
        with np.errstate(over="ignore"):
            if self.base == 2.0:
                x = np.exp2(d)
            elif self.base == math.e:
                x = np.exp(d)
            elif self.base == 10.0:
                x = np.power(np.asarray(10.0, dtype=d.dtype), d)
            else:
                x = np.exp2(d * np.asarray(math.log2(self.base), dtype=d.dtype))
        cap = np.asarray(np.finfo(np.dtype(dtype)).max, dtype=x.dtype)
        x = np.asarray(np.minimum(x, cap), dtype=dtype)
        if any_zero:
            np.copyto(x, 0, where=zero)
        return x

    def max_log_magnitude(self, logs: np.ndarray) -> float:
        """``max |log_base x|`` over the mapped data (input to Lemma 2).

        An empty mapping has no round-off to absorb, so it contributes 0.
        """
        logs = np.asarray(logs)
        if logs.size == 0:
            return 0.0
        return float(np.abs(logs).max())
