"""Point-wise safeguard kinds.

A :class:`Safeguard` declares a property the *reconstruction* of an array must
satisfy relative to the original.  Each kind evaluates vectorized over whole
arrays and reports a boolean violation mask; the engine
(:mod:`repro.safeguards.engine`) repairs every flagged point with a bit-exact
patch, so after repair the declared property holds exactly.

Safeguards serialize to short ``kind[:params]`` spec strings (``rel:0.001``,
``sign``, ``monotone:axis=0``) that travel inside the container, are accepted
by the CLI ``--safeguard`` flag, and are re-parsed by the offline auditor to
recheck declared-vs-actual properties.  Spec strings never contain ``;`` —
the container joins multiple specs with it.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Safeguard",
    "AbsErrorSafeguard",
    "RelErrorSafeguard",
    "UlpSafeguard",
    "SignSafeguard",
    "ZeroSafeguard",
    "NonFiniteSafeguard",
    "MonotoneSafeguard",
    "RangeSafeguard",
    "SAFEGUARD_KINDS",
    "parse_safeguard",
    "parse_safeguards",
]


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


def bit_view(a: np.ndarray) -> np.ndarray:
    """Same-width integer view of a float array (for bit-exact comparison)."""
    if a.dtype == np.float32:
        return a.view(np.int32)
    if a.dtype == np.float64:
        return a.view(np.int64)
    raise TypeError(f"unsupported dtype for safeguards: {a.dtype}")


class Safeguard:
    """A declared point-wise property of a reconstruction.

    Subclasses define ``kind`` and implement :meth:`violation_mask`.  Masks
    are evaluated on same-shape ``(original, reconstruction)`` pairs; flagged
    points are patched with their original bits.  Points whose reconstruction
    is already bit-identical to the original are never violations — the
    engine strips them, which also guarantees the repair loop terminates.
    """

    kind: str = ""

    def params(self) -> str | None:
        """Parameter part of the spec string, or None for bare kinds."""
        return None

    def spec(self) -> str:
        p = self.params()
        return self.kind if p is None else f"{self.kind}:{p}"

    def resolve(self, data: np.ndarray) -> "Safeguard":
        """Bind data-dependent parameters (e.g. an implicit value range)."""
        return self

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        """Boolean mask (shape of ``x``) of points violating the property."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Safeguard) and other.spec() == self.spec()

    def __hash__(self) -> int:
        return hash(self.spec())


class AbsErrorSafeguard(Safeguard):
    """``abs:EB`` — absolute error at every point stays within ``EB``.

    Comparisons run in float64.  NaN originals never satisfy the arithmetic
    test (``NaN > eb`` is False), so pair this with ``nonfinite`` when inputs
    may contain NaN/Inf — the adapter does that automatically.
    """

    kind = "abs"

    def __init__(self, value: float) -> None:
        value = float(value)
        if not (value >= 0.0) or not np.isfinite(value):
            raise ValueError(f"abs safeguard needs a finite bound >= 0, got {value!r}")
        self.value = value

    def params(self) -> str:
        return repr(self.value)

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        # ~(err <= eb), not err > eb: a NaN/Inf reconstruction of a finite
        # point has NaN/Inf error, which must flag, not slip through the
        # comparison.  Non-finite *originals* stay this safeguard's
        # non-business (pair with ``nonfinite``).
        with np.errstate(invalid="ignore"):
            x64 = _f64(x)
            err = np.abs(_f64(xd) - x64)
            return ~(err <= self.value) & np.isfinite(x64)


class RelErrorSafeguard(Safeguard):
    """``rel:BR`` — point-wise relative error stays within ``BR``.

    Exact zeros admit no error: any nonzero reconstruction of a zero point is
    a violation (``|xd - 0| > br * 0``), matching the transform pipeline's
    sentinel semantics.
    """

    kind = "rel"

    def __init__(self, value: float) -> None:
        value = float(value)
        if not (0.0 < value < 1.0):
            raise ValueError(f"rel safeguard needs a bound in (0, 1), got {value!r}")
        self.value = value

    def params(self) -> str:
        return repr(self.value)

    #: float32 screening slack: wide enough to cover the worst relative
    #: rounding of the float32 ``|xd - x|`` / ``br * |x|`` evaluation, so the
    #: coarse pass can only over-select, never miss a float64 violation.
    _F32_SLACK = 1e-6

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        # ~(err <= tol) so that a NaN/Inf reconstruction of a finite point
        # flags (its error is NaN/Inf, and ``NaN > tol`` would be False).
        if x.dtype == np.float32 and xd.dtype == np.float32 and x.size > 4096:
            return self._violation_mask_f32(x, xd)
        with np.errstate(invalid="ignore"):
            x64 = _f64(x)
            err = np.abs(_f64(xd) - x64)
            return ~(err <= self.value * np.abs(x64)) & np.isfinite(x64)

    def _violation_mask_f32(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        """Two-stage evaluation for float32 arrays, bit-identical in result.

        A float32 screen with the tolerance *shrunk* by ``_F32_SLACK`` keeps
        every point the exact float64 test could flag (plus a sliver of
        near-boundary neighbours); the float64 expression then re-runs on
        that candidate set only.  Roughly 2.5x less memory traffic than the
        full float64 pass — this is the safeguards layer's hot loop.
        """
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            absx = np.abs(x)
            screen_tol = np.float32(self.value * (1.0 - self._F32_SLACK))
            cand = ~(np.abs(xd - x) <= screen_tol * absx)
            # Below this magnitude ``br * |x|`` (or the error itself) can land
            # in the float32 subnormal range, where rounding stops being a
            # small *relative* error and the slack no longer covers it.  A
            # point reproduced exactly (zeros of a sparse field, mostly) has
            # no error and can never be flagged, so it skips the recheck.
            cand |= (absx < np.float32(1e-35 / self.value)) & (xd != x)
            mask = np.zeros(x.shape, dtype=bool)
            idx = np.flatnonzero(cand)
            if idx.size:
                xs = x.ravel()[idx].astype(np.float64)
                err = np.abs(xd.ravel()[idx].astype(np.float64) - xs)
                hit = ~(err <= self.value * np.abs(xs)) & np.isfinite(xs)
                mask.ravel()[idx[hit]] = True
        return mask


class UlpSafeguard(Safeguard):
    """``ulp:K`` — reconstruction within ``K`` units-in-the-last-place.

    Floats are mapped to a monotonic integer line (sign-magnitude to ordered),
    so the distance is exact for every finite pair; ``+0.0`` and ``-0.0`` are
    one ULP apart.  NaN/Inf bits land on the same line — a NaN reconstructed
    as anything but the identical bit pattern is flagged.
    """

    kind = "ulp"

    def __init__(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError(f"ulp safeguard needs a distance >= 0, got {value!r}")
        self.value = value

    def params(self) -> str:
        return str(self.value)

    @staticmethod
    def _ordered(a: np.ndarray) -> np.ndarray:
        bits = bit_view(a)
        u = bits.view(np.uint32 if bits.dtype == np.int32 else np.uint64)
        sign = np.uint32(1 << 31) if u.dtype == np.uint32 else np.uint64(1 << 63)
        return np.where(u & sign, ~u, u | sign)

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        a, b = self._ordered(x), self._ordered(xd)
        dist = np.where(a > b, a - b, b - a)
        return dist > np.asarray(self.value, dtype=dist.dtype)


class SignSafeguard(Safeguard):
    """``sign`` — the sign (negative / zero / positive) of every point holds."""

    kind = "sign"

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sign(_f64(x)) != np.sign(_f64(xd))


class ZeroSafeguard(Safeguard):
    """``zero`` — exact zeros decode bit-identically (``-0.0`` keeps its sign)."""

    kind = "zero"

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        return (x == 0) & (bit_view(x) != bit_view(xd))


class NonFiniteSafeguard(Safeguard):
    """``nonfinite`` — NaN and ±Inf decode bit-identically."""

    kind = "nonfinite"

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        return ~np.isfinite(x) & (bit_view(x) != bit_view(xd))


class MonotoneSafeguard(Safeguard):
    """``monotone[:axis=N]`` — strict orderings along an axis are never flipped.

    For every adjacent pair along ``axis`` where the original strictly
    increases (decreases), the reconstruction must not strictly decrease
    (increase).  Ties in the original impose no constraint.  Both endpoints
    of a flipped pair are flagged; patching them restores the original
    ordering exactly.
    """

    kind = "monotone"

    def __init__(self, axis: int = 0) -> None:
        axis = int(axis)
        if axis < 0:
            raise ValueError(f"monotone safeguard needs axis >= 0, got {axis!r}")
        self.axis = axis

    def params(self) -> str:
        return f"axis={self.axis}"

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        if self.axis >= x.ndim:
            raise ValueError(
                f"monotone safeguard axis {self.axis} out of range for "
                f"{x.ndim}-d data"
            )
        dx = np.diff(_f64(x), axis=self.axis)
        dxd = np.diff(_f64(xd), axis=self.axis)
        with np.errstate(invalid="ignore"):
            flipped = ((dx > 0) & (dxd < 0)) | ((dx < 0) & (dxd > 0))
        mask = np.zeros(x.shape, dtype=bool)
        lo = [slice(None)] * x.ndim
        hi = [slice(None)] * x.ndim
        lo[self.axis] = slice(None, -1)
        hi[self.axis] = slice(1, None)
        mask[tuple(lo)] |= flipped
        mask[tuple(hi)] |= flipped
        return mask


class RangeSafeguard(Safeguard):
    """``range[:LO,HI]`` — reconstructed values stay inside ``[LO, HI]``.

    The bare ``range`` form binds to the finite min/max of the data at
    compress time (via :meth:`resolve`); the serialized spec always carries
    concrete bounds so the auditor can recheck offline.  NaN reconstructions
    are not range violations — declare ``nonfinite`` to pin those.
    """

    kind = "range"

    def __init__(self, lo: float | None = None, hi: float | None = None) -> None:
        if (lo is None) != (hi is None):
            raise ValueError("range safeguard needs both bounds or neither")
        if lo is not None:
            lo, hi = float(lo), float(hi)
            if not lo <= hi:
                raise ValueError(f"range safeguard needs lo <= hi, got {lo!r}, {hi!r}")
        self.lo = lo
        self.hi = hi

    def params(self) -> str | None:
        if self.lo is None:
            return None
        return f"{self.lo!r},{self.hi!r}"

    def resolve(self, data: np.ndarray) -> "RangeSafeguard":
        if self.lo is not None:
            return self
        finite = data[np.isfinite(data)]
        if finite.size == 0:
            return RangeSafeguard(-np.inf, np.inf)
        return RangeSafeguard(float(finite.min()), float(finite.max()))

    def violation_mask(self, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        if self.lo is None:
            raise ValueError("range safeguard must be resolved against data first")
        with np.errstate(invalid="ignore"):
            return (xd < self.lo) | (xd > self.hi)


SAFEGUARD_KINDS: dict[str, type[Safeguard]] = {
    cls.kind: cls
    for cls in (
        AbsErrorSafeguard,
        RelErrorSafeguard,
        UlpSafeguard,
        SignSafeguard,
        ZeroSafeguard,
        NonFiniteSafeguard,
        MonotoneSafeguard,
        RangeSafeguard,
    )
}


def parse_safeguard(spec: str) -> Safeguard:
    """Parse one ``kind[:params]`` spec string into a :class:`Safeguard`."""
    text = spec.strip()
    kind, sep, params = text.partition(":")
    kind = kind.strip()
    cls = SAFEGUARD_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(SAFEGUARD_KINDS))
        raise ValueError(f"unknown safeguard kind {kind!r} (known: {known})")
    params = params.strip()
    try:
        if not sep or not params:
            return cls()
        if cls is AbsErrorSafeguard or cls is RelErrorSafeguard:
            return cls(float(params))
        if cls is UlpSafeguard:
            return cls(int(params))
        if cls is MonotoneSafeguard:
            key, _, axis = params.partition("=")
            if key.strip() != "axis":
                raise ValueError(f"expected axis=N, got {params!r}")
            return cls(int(axis))
        if cls is RangeSafeguard:
            lo, sep2, hi = params.partition(",")
            if not sep2:
                raise ValueError(f"expected LO,HI, got {params!r}")
            return cls(float(lo), float(hi))
        raise ValueError(f"safeguard {kind!r} takes no parameters, got {params!r}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad safeguard spec {spec!r}: {exc}") from None


def parse_safeguards(text: str) -> tuple[Safeguard, ...]:
    """Parse a ``;``-joined list of specs (the container serialization)."""
    return tuple(parse_safeguard(s) for s in text.split(";") if s.strip())
