"""Point-wise error measurement: the one place a reconstruction is graded.

Every comparison of a reconstruction with its original -- the compress
path's grade (``repro.observe.audit.grade``, which the CLI compress line
reads from the call record) and the offline ``audit_stream``, the quality
digest, :func:`bounded_fraction` (Table IV),
:func:`relative_errors` and :func:`relative_residuals` (Fig. 4, the
relative PSNR, error distributions) and ``quality_report`` -- goes through
:func:`measure_errors`, one float64 pass with one convention:

* The residual is ``x_d - x`` in float64.  A point whose residual is not
  finite (a NaN/Inf original or reconstruction) is *non-finite*: it is
  counted, and kept out of every maximum, mean and digest bucket.  It is
  bounded iff the reconstruction reproduces the original (any NaN matches
  NaN, an infinity matches itself), so a NaN or Inf decoded where the
  original was finite violates every bound, and so does a lost NaN/Inf.
* A finite zero original has no relative error.  Under a relative bound
  it is bounded iff it decodes to exactly zero (a compressor that
  "modifies original 0" earns Table IV's ``*`` marker), and it is left
  out of the relative statistics.  Under an absolute bound it is graded
  like any other point.
* Every other point is graded by ``|x_d - x| / |x|`` against a relative
  bound, or ``|x_d - x|`` against an absolute one.

:func:`bounded_label` prints a grading as Table IV does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ErrorStats",
    "bounded_fraction",
    "bounded_label",
    "measure_errors",
    "relative_errors",
    "relative_residuals",
]


@dataclass(frozen=True)
class ErrorStats:
    """Point-wise errors of a reconstruction against its original.

    Maxima and ``avg_rel`` cover finite residuals (the relative ones skip
    zero originals).  ``violations``, ``bounded_fraction`` and
    ``zeros_modified`` are ``None`` when no bound was graded.
    """

    max_abs: float
    max_rel: float
    avg_rel: float
    bounded_fraction: float | None  # fraction of points within the bound
    zeros_modified: int | None  # original zeros that no longer decode to zero
    n: int
    violations: int | None  # points outside the bound
    zeros: int  # exact zeros in the reconstruction
    negatives: int  # negative values in the reconstruction
    nonfinite: int  # points with a non-finite residual

    @property
    def strictly_bounded(self) -> bool:
        return self.bounded_fraction == 1.0

    def bounded_label(self) -> str:
        """:func:`bounded_label` of this grading."""
        return bounded_label(self.violations, self.n, self.zeros_modified)


def bounded_label(violations: int, n: int, zeros_modified: int | None) -> str:
    """Table-IV style label of ``violations`` among ``n`` points: '100%',
    '~100%', '99.93%', with '*' for modified zeros."""
    # an empty reconstruction satisfies the bound vacuously
    f = 1.0 - violations / n if n else 1.0
    if f == 1.0:
        label = "100%"
    elif f > 0.9999:
        label = "~100%"
    else:
        label = f"{100 * f:.2f}%"
    return label + ("*" if zeros_modified else "")


def _residuals(original, recon):
    """Flat inputs and the float64 residual ``recon - original``."""
    x = np.asarray(original).ravel()
    xd = np.asarray(recon).ravel()
    if x.shape != xd.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xd.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        return x, xd, np.subtract(xd, x, dtype=np.float64)


def _signed_relative(x: np.ndarray, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``diff / |x|`` where ``x != 0`` (exact 0.0 elsewhere), and that mask."""
    absx = np.absolute(x, dtype=np.float64)
    nz = absx != 0
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.divide(diff, absx, out=np.zeros_like(diff), where=nz)
    return rel, nz


def measure_errors(
    original, recon, bound: tuple[str | None, float | None] = (None, None), hist=None
) -> ErrorStats:
    """Measure ``recon`` against ``original`` point-wise, in one float64 pass.

    ``bound`` is a ``(kind, value)`` pair as ``repro.report.stream_bound``
    returns it: kind ``"rel"`` or ``"abs"`` grades every point, any other
    kind grades none.  ``hist`` -- an
    :class:`~repro.observe.quality.ErrorHistogram` -- is fed the finite
    residuals with exact signed totals.
    """
    x, xd, diff = _residuals(original, recon)
    n = int(x.size)
    zeros = int(np.count_nonzero(xd == 0))
    negatives = int(np.count_nonzero(xd < 0))
    err = np.abs(diff)
    max_abs = float(err.max(initial=0.0))
    nonfinite = reproduced = lost_zeros = 0
    if not math.isfinite(max_abs):
        # A NaN max or an infinite one means non-finite residuals: grade
        # those points by exact reproduction and measure the rest.
        finite = np.isfinite(diff)
        bad = ~finite
        xs, xds = x[bad], xd[bad]
        nonfinite = int(xs.size)
        reproduced = int(np.count_nonzero((xds == xs) | (np.isnan(xs) & np.isnan(xds))))
        lost_zeros = int(np.count_nonzero(xs == 0))
        x, diff, err = x[finite], diff[finite], err[finite]
        max_abs = float(err.max(initial=0.0))
    rel, nz = _signed_relative(x, diff)
    n_rel = int(np.count_nonzero(nz))
    rel_total = float(rel.sum())
    np.abs(rel, out=rel)
    max_rel = float(rel.max(initial=0.0))
    avg_rel = float(rel.sum()) / n_rel if n_rel else 0.0

    kind, value = bound
    violations = zeros_modified = bounded = None
    if kind in ("rel", "abs"):
        moved = int(np.count_nonzero(err[~nz])) if n_rel < x.size else 0
        zeros_modified = lost_zeros + moved
        if kind == "rel":
            out = int(np.count_nonzero(rel > value)) + moved
        else:
            out = int(np.count_nonzero(err > value))
        violations = out + nonfinite - reproduced
        # an empty reconstruction satisfies the bound vacuously
        bounded = 1.0 - violations / n if n else 1.0
    if hist is not None:
        hist.observe_errors(
            err,
            rel,
            abs_total=float(diff.sum()),
            rel_total=rel_total,
            max_abs=max_abs,
            max_rel=max_rel,
            zeros=int(x.size) - n_rel,
            nonfinite=nonfinite,
        )
    return ErrorStats(
        max_abs=max_abs,
        max_rel=max_rel,
        avg_rel=avg_rel,
        bounded_fraction=bounded,
        zeros_modified=zeros_modified,
        n=n,
        violations=violations,
        zeros=zeros,
        negatives=negatives,
        nonfinite=nonfinite,
    )


def bounded_fraction(
    original: np.ndarray, recon: np.ndarray, rel_bound: float
) -> ErrorStats:
    """Evaluate a reconstruction against a point-wise relative bound."""
    return measure_errors(original, recon, ("rel", rel_bound))


def relative_residuals(original: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """Signed ``(x_d - x) / |x|`` at the finite residuals of nonzero
    originals (flattened)."""
    x, _, diff = _residuals(original, recon)
    rel, nz = _signed_relative(x, diff)
    return rel[nz & np.isfinite(diff)]


def relative_errors(original: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """``|x - x_d| / |x|`` at the finite residuals of nonzero originals
    (flattened)."""
    return np.abs(relative_residuals(original, recon))
