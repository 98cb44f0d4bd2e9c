"""Point-wise quality observability: error digests, byte attribution, explain.

The paper's contribution is a *point-wise relative* error guarantee, but a
binary audit verdict and a single compression-ratio scalar say nothing
about the error *distribution* -- the bias and tail shape where lossy
compressors actually differ.  This module closes that gap with three
pieces:

* :class:`ErrorHistogram` -- a streaming, mergeable digest of point-wise
  errors: log-binned relative and absolute magnitudes (``QUALITY_SCALE``
  buckets per octave, so p50/p90/p99 resolve to ~9% instead of 2x), a
  signed-error accumulator whose mean is the reconstruction *bias*, and
  exact min/max.  Digests merge associatively: each chunk's digest rides
  its audit entry in the per-call record
  (:func:`~repro.observe.audit.call_report`), and
  :func:`record_quality_snapshot` also folds it into the metrics
  registry as scaled ``quality.*`` histograms for ``--metrics-out``.

* :func:`attribute_bytes` -- a byte-attribution tree decomposing any
  container into who-owns-each-byte, defined in
  :mod:`repro.observe.attribution` and re-exported here on first access,
  so the compress path, which grades errors here, never loads it.

* :func:`explain_stream` -- the ``repro explain`` engine: attribution +
  per-chunk ratio/error statistics with anomaly flags for chunks whose
  ratio or max relative error deviates >= k*MAD from the stream median,
  rendered as markdown or JSON by :class:`ExplainReport`.

Collection is observation-only: compressed streams are byte-identical
with quality collection on or off (``REPRO_QUALITY=off`` or
:func:`set_quality_enabled` disable the per-chunk digests on the
compress path).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro._lazy import lazy_exports
from repro.metrics.error import measure_errors
from repro.observe.metrics import (
    _NONPOS_BUCKET,
    metrics as _metrics,
    percentile_from_snapshot,
)

if TYPE_CHECKING:
    from repro.observe.attribution import (
        ByteNode,
        attribute_bytes,
        attribute_model,
        section_kind_map,
    )

__all__ = [
    "QUALITY_SCALE",
    "ByteNode",
    "ErrorHistogram",
    "ExplainReport",
    "attribute_bytes",
    "attribute_model",
    "explain_stream",
    "mad_outliers",
    "quality_enabled",
    "record_quality_snapshot",
    "set_quality_enabled",
]

#: Buckets per binary octave in the error digests.  8 sub-divisions put
#: neighbouring bucket edges a factor of 2**(1/8) ~ 1.09 apart, so the
#: digest percentiles carry ~9% relative resolution while staying a few
#: hundred integers per digest.
QUALITY_SCALE = 8

_REL_METRIC = "quality.rel_err"
_ABS_METRIC = "quality.abs_err"

#: Above this many magnitudes per :meth:`_Digest.add` call, bucket counts
#: are estimated from a deterministic cache-line sample (count, max and
#: the signed total stay exact over every point).  32Ki samples keep the
#: p99 position well inside one bucket of sampling noise.
_BUCKET_SAMPLE = 1 << 15


# ---------------------------------------------------------------------------
# collection gate
# ---------------------------------------------------------------------------

_FORCED: bool | None = None


def quality_enabled() -> bool:
    """Whether the compress-path verify hook builds error digests.

    Defaults to on (the digest is a handful of vectorized passes over
    arrays the verify hook already computed); ``REPRO_QUALITY=off`` in the
    environment or :func:`set_quality_enabled` turn it off.  Streams are
    byte-identical either way -- this gates observation, never encoding.
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_QUALITY", "").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
        "none",
    )


def set_quality_enabled(on: bool | None) -> None:
    """Force quality collection on/off; ``None`` restores the env default."""
    global _FORCED
    _FORCED = on


# ---------------------------------------------------------------------------
# error digests
# ---------------------------------------------------------------------------


class _Digest:
    """One mergeable log-binned magnitude digest with a signed total.

    Shaped exactly like a :class:`~repro.observe.metrics.Histogram`
    snapshot (plus ``scale``), so it folds into the metrics registry and
    feeds :func:`percentile_from_snapshot` unchanged.  ``total`` is the
    *signed* error sum -- ``total / n`` is the bias -- while min/max and
    the buckets describe magnitudes.
    """

    __slots__ = ("scale", "n", "total", "min", "max", "buckets")

    def __init__(self, scale: int) -> None:
        self.scale = int(scale)
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def add(self, mags: np.ndarray, total: float, mx: float) -> None:
        """Fold magnitudes with their exact signed ``total`` and max ``mx``."""
        k = int(mags.size)
        if not k:
            return
        self.n += k
        self.total += total
        # Count, max and the signed total are exact over every point.
        # Bucket *counts* are where the time goes, so past _BUCKET_SAMPLE
        # magnitudes they (and the min) are estimated from a deterministic
        # sample, rescaled to sum back to ~k, with the min/max buckets
        # pinned so the digest's tails never dangle beyond its occupied
        # buckets.  The sample takes every ``stride``-th run of 8
        # contiguous values -- whole cache lines, so it touches
        # ~1/stride of the memory a flat ``mags[::stride]`` would (flat
        # striding still loads every 64-byte line).  This sits on the
        # compress verify path under a 5% overhead budget; exhaustive
        # binning costs more than the whole budget on large chunks, and
        # the percentile resolution is a bucket (~9% at the default
        # scale) anyway.
        stride = -(-k // _BUCKET_SAMPLE)
        if stride == 1:
            sample = mags
        else:
            rows = k >> 3
            sample = mags[: rows << 3].reshape(rows, 8)[::stride]
        # Bucket key for v > 0 is ceil(scale * log2(v)): bucket k holds
        # (2^((k-1)/scale), 2^(k/scale)].  Quantized as one in-place
        # float32 log2/mul/ceil chain plus a bincount -- the exact frexp
        # route costs ~4x more.  The float32 round-off can move a value
        # within ~1e-7 of an edge by one bucket; zeros, NaN, and
        # sub-float32 magnitudes (< 2^-149) land in the nonpos bucket,
        # and magnitudes beyond float32 range (> 2^128) saturate into an
        # overflow bucket above every finite-valued key, where percentile
        # lookups fall back to the observed max.  The cast's saturation
        # to inf is that path, not an error -- silence the warning.
        with np.errstate(over="ignore"):
            s = sample.astype(np.float32)
        mn = float(mags.min()) if stride == 1 else float(s.min())
        if mn < self.min:
            self.min = mn
        if mx > self.max:
            self.max = mx
        with np.errstate(divide="ignore"):
            np.log2(s, out=s)
        np.multiply(s, self.scale, out=s)
        np.ceil(s, out=s)
        # Nonpos magnitudes (-inf after log2) are floored to a sentinel
        # just below the lowest float32-representable key (2^-149 gives
        # ceil(scale*log2) >= -150*scale) rather than straight to the
        # distant _NONPOS_BUCKET key, keeping the bincount range compact.
        floor = -(150 * self.scale + 1)
        np.fmax(s, floor, out=s)
        np.fmin(s, 1024 * self.scale, out=s)
        keys = s.astype(np.int64).ravel()
        kmin = int(keys.min())
        counts = np.bincount(keys - kmin)
        if stride > 1:
            counts = np.rint(counts * (k / sample.size)).astype(np.int64)
        nonpos = _NONPOS_BUCKET * self.scale
        for idx in np.flatnonzero(counts).tolist():
            b = idx + kmin
            if b <= floor:
                b = nonpos
            self.buckets[b] = self.buckets.get(b, 0) + int(counts[idx])
        if stride > 1:
            self._pin(mn)
            self._pin(mx)

    def _pin(self, v: float) -> None:
        """Ensure the bucket holding ``v`` is occupied (sampled adds only).

        A stride sample can miss the extremes, and downstream consumers
        (percentile clamp-to-max, the registry-diff min/max clamp) assume
        the occupied buckets span the observed range.
        """
        if v > 0.0:
            if math.isfinite(v):
                m, e = math.frexp(v)
                b = min(
                    math.ceil(self.scale * (e + math.log2(m))), 1024 * self.scale
                )
            else:
                b = 1024 * self.scale
        else:
            b = _NONPOS_BUCKET * self.scale
        if b not in self.buckets:
            self.buckets[b] = 1

    def merge_snapshot(self, snap: dict) -> None:
        n = int(snap.get("n", 0))
        if not n:
            return
        if int(snap.get("scale", 1)) != self.scale:
            raise ValueError(
                f"cannot merge digest of scale {snap.get('scale', 1)} into scale {self.scale}"
            )
        self.n += n
        self.total += float(snap.get("total", 0.0))
        if "min" in snap and float(snap["min"]) < self.min:
            self.min = float(snap["min"])
        if "max" in snap and float(snap["max"]) > self.max:
            self.max = float(snap["max"])
        for k, c in snap.get("buckets") or ():
            self.buckets[int(k)] = self.buckets.get(int(k), 0) + int(c)

    def snapshot(self) -> dict:
        out = {
            "type": "histogram",
            "n": self.n,
            "total": self.total,
            "mean": self.total / self.n if self.n else 0.0,
            "scale": self.scale,
        }
        if self.n:
            out["min"] = self.min
            out["max"] = self.max
            out["buckets"] = [[k, self.buckets[k]] for k in sorted(self.buckets)]
        return out

    def percentile(self, q: float) -> float:
        return percentile_from_snapshot(self.snapshot(), q)


class ErrorHistogram:
    """Streaming, mergeable digest of point-wise compression errors.

    Tracks two magnitude digests -- relative error over points with
    ``x != 0`` and absolute error over every finite point -- plus counts
    of exact zeros (which have no relative error; the paper's transform
    preserves them bit-exactly) and non-finite points.  ``total`` in each
    digest is the *signed* error sum, so the ``rel_bias``/``abs_bias`` of
    :meth:`summary` expose systematic over/under-shoot, which single
    max-error scalars hide.

    Not thread-safe: build one per chunk and :meth:`merge`.
    """

    __slots__ = ("scale", "zeros", "nonfinite", "rel", "abs")

    def __init__(self, scale: int = QUALITY_SCALE) -> None:
        self.scale = int(scale)
        self.zeros = 0
        self.nonfinite = 0
        self.rel = _Digest(self.scale)
        self.abs = _Digest(self.scale)

    # -- feeding -----------------------------------------------------------

    def observe(self, original, recon) -> None:
        """Digest ``recon - original`` point-wise (arrays of equal size)."""
        measure_errors(original, recon, hist=self)

    def observe_errors(
        self,
        err: np.ndarray,
        rel: np.ndarray,
        *,
        abs_total: float,
        rel_total: float,
        max_abs: float,
        max_rel: float,
        zeros: int,
        nonfinite: int,
    ) -> None:
        """Fold one measurement's finite residuals into the digest.

        :func:`repro.metrics.error.measure_errors` is the caller: ``err``
        holds ``|x_d - x|`` and ``rel`` ``|x_d - x| / |x|`` at the same
        points, with exact 0.0 at the ``zeros`` points whose original is
        zero; the totals are the exact signed sums and the maxima the
        exact maxima.  ``nonfinite`` points were left out of both arrays.
        """
        self.nonfinite += nonfinite
        self.zeros += zeros
        self.abs.add(err, abs_total, max_abs)
        if zeros == rel.size:
            return
        # Bucket the full ``rel`` array (no extraction pass), then retract
        # the zero originals' 0.0 entries from the rel digest's count and
        # nonpos bucket: exact at stride 1, within the sampling estimate
        # otherwise.
        self.rel.add(rel, rel_total, max_rel)
        if zeros:
            self.rel.n -= zeros
            b = _NONPOS_BUCKET * self.rel.scale
            cur = self.rel.buckets.get(b, 0)
            if cur > zeros:
                self.rel.buckets[b] = cur - zeros
            else:
                self.rel.buckets.pop(b, None)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "ErrorHistogram | dict") -> None:
        snap = other.snapshot() if isinstance(other, ErrorHistogram) else other
        self.zeros += int(snap.get("zeros", 0))
        self.nonfinite += int(snap.get("nonfinite", 0))
        self.rel.merge_snapshot(snap.get("rel") or {})
        self.abs.merge_snapshot(snap.get("abs") or {})

    def snapshot(self) -> dict:
        return {
            "scale": self.scale,
            "zeros": self.zeros,
            "nonfinite": self.nonfinite,
            "rel": self.rel.snapshot(),
            "abs": self.abs.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ErrorHistogram":
        out = cls(int(snap.get("scale", QUALITY_SCALE)))
        out.merge(snap)
        return out

    # -- reading -----------------------------------------------------------

    @property
    def points(self) -> int:
        """Total points observed (finite + non-finite)."""
        return self.abs.n + self.nonfinite

    def percentile_rel(self, q: float) -> float:
        return self.rel.percentile(q)

    def percentile_abs(self, q: float) -> float:
        return self.abs.percentile(q)

    def summary(self) -> dict:
        """Flat scalar summary (ledger/JSON friendly)."""
        return _summary(
            self.rel.snapshot(), self.abs.snapshot(), self.zeros, self.nonfinite
        )


def _summary(rel: dict, abs_: dict, zeros: int, nonfinite: int) -> dict:
    def pct(snap: dict, q: float) -> float:
        return percentile_from_snapshot(snap, q) if snap.get("n") else 0.0

    def bias(snap: dict) -> float:
        n = int(snap.get("n", 0))
        return float(snap.get("total", 0.0)) / n if n else 0.0

    return {
        "n": int(abs_.get("n", 0)) + int(nonfinite),
        "zeros": int(zeros),
        "nonfinite": int(nonfinite),
        "rel_n": int(rel.get("n", 0)),
        "rel_bias": bias(rel),
        "rel_p50": pct(rel, 50),
        "rel_p90": pct(rel, 90),
        "rel_p99": pct(rel, 99),
        "max_rel": float(rel.get("max", 0.0)) if rel.get("n") else 0.0,
        "abs_bias": bias(abs_),
        "abs_p50": pct(abs_, 50),
        "abs_p90": pct(abs_, 90),
        "abs_p99": pct(abs_, 99),
        "max_abs": float(abs_.get("max", 0.0)) if abs_.get("n") else 0.0,
    }


# ---------------------------------------------------------------------------
# registry export
# ---------------------------------------------------------------------------


def record_quality_snapshot(snap: dict, registry=None) -> None:
    """Fold an :class:`ErrorHistogram` snapshot into the registry as
    ``quality.*`` entries (the ``--metrics-out`` export).

    Runs per chunk on the compress verify path, where the snapshot dict
    is already in hand.
    """
    rel = snap.get("rel") or {}
    abs_ = snap.get("abs") or {}
    nonfinite = int(snap.get("nonfinite", 0))
    zeros = int(snap.get("zeros", 0))
    points = int(abs_.get("n", 0)) + nonfinite
    if points == 0 and zeros == 0:
        return
    reg = registry if registry is not None else _metrics()
    reg.counter("quality.points").inc(points)
    if zeros:
        reg.counter("quality.zeros").inc(zeros)
    if nonfinite:
        reg.counter("quality.nonfinite").inc(nonfinite)
    reg.merge({_REL_METRIC: rel, _ABS_METRIC: abs_})


# ---------------------------------------------------------------------------
# anomaly flags + explain
# ---------------------------------------------------------------------------

#: Default deviation threshold for anomaly flags, in MADs from the median.
DEFAULT_MAD_K = 5.0


def mad_outliers(values, k: float = DEFAULT_MAD_K) -> tuple[list[dict], float, float]:
    """Flag values deviating >= ``k`` * MAD from the median.

    Returns ``(flags, median, mad)`` where each flag is
    ``{"index", "value", "deviation"}`` (deviation in MADs).  The MAD is
    floored at a relative epsilon of the median so perfectly uniform
    streams (MAD = 0) do not flag every chunk over float noise.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size < 3:
        return [], float(np.median(vals)) if vals.size else 0.0, 0.0
    med = float(np.median(vals))
    mad = float(np.median(np.abs(vals - med)))
    scale = max(mad, 1e-12 + 1e-6 * abs(med))
    dev = np.abs(vals - med) / scale
    flags = [
        {"index": int(i), "value": float(vals[i]), "deviation": float(dev[i])}
        for i in np.nonzero(dev >= k)[0]
    ]
    return flags, med, mad


@dataclass
class ExplainReport:
    """Everything ``repro explain`` knows about one stream."""

    codec: str | None
    version: int | None
    nbytes: int
    tree: ByteNode
    kind_totals: dict[str, int]
    decoded_nbytes: int | None = None
    ratio: float | None = None
    rel_bound: float | None = None
    #: Degradation-ladder chain recorded in the stream ("SZ_T>GZIP").
    ladder: str | None = None
    chunks: list[dict] = field(default_factory=list)
    anomalies: list[dict] = field(default_factory=list)
    quality: dict | None = None
    audit_ok: bool | None = None
    notes: list[str] = field(default_factory=list)
    mad_k: float = DEFAULT_MAD_K

    @property
    def ok(self) -> bool:
        """False when the stream carries structural damage."""
        return not any(note.startswith("StreamError") for note in self.notes)

    def to_dict(self) -> dict:
        return {
            "codec": self.codec,
            "version": self.version,
            "nbytes": self.nbytes,
            "ok": self.ok,
            "decoded_nbytes": self.decoded_nbytes,
            "ratio": self.ratio,
            "rel_bound": self.rel_bound,
            "ladder": self.ladder,
            "kind_totals": self.kind_totals,
            "attribution": self.tree.to_dict(),
            "chunks": self.chunks,
            "anomalies": self.anomalies,
            "quality": self.quality,
            "audit_ok": self.audit_ok,
            "notes": self.notes,
            "mad_k": self.mad_k,
        }

    def format(self, max_depth: int | None = 3) -> str:
        """Markdown report."""
        head = self.codec or "?"
        ver = f"v{self.version}" if self.version is not None else "v?"
        lines = [f"# repro explain — {head} ({ver}, {self.nbytes:,} bytes)", ""]
        status = "OK" if self.ok else "DAMAGED"
        bits = [f"status: **{status}**"]
        if self.ratio is not None:
            bits.append(f"ratio: **{self.ratio:.2f}x**")
        if self.rel_bound is not None:
            bits.append(f"rel bound: {self.rel_bound:g}")
        if self.ladder is not None:
            fallbacks = sum(1 for a in self.anomalies if a["metric"] == "fallback")
            bits.append(f"ladder: {self.ladder}"
                        + (f" ({fallbacks} fallback(s))" if fallbacks else ""))
        if self.audit_ok is not None:
            bits.append(f"audit: {'pass' if self.audit_ok else 'VIOLATED'}")
        lines.append(" · ".join(bits))
        lines += ["", "## Byte attribution", ""]
        lines.append("| kind | bytes | share |")
        lines.append("| --- | ---: | ---: |")
        for kind, nb in self.kind_totals.items():
            share = 100.0 * nb / self.nbytes if self.nbytes else 0.0
            lines.append(f"| {kind} | {nb:,} | {share:.2f}% |")
        lines += ["", "```", self.tree.format(max_depth=max_depth), "```"]
        if self.chunks:
            ratios = [c["ratio"] for c in self.chunks if c.get("ratio") is not None]
            lines += ["", f"## Chunks ({len(self.chunks)})", ""]
            if ratios:
                lines.append(
                    f"ratio median {float(np.median(ratios)):.2f}x, "
                    f"min {min(ratios):.2f}x, max {max(ratios):.2f}x"
                )
        if self.anomalies:
            lines += ["", f"## Anomalies (≥{self.mad_k:g}·MAD from the median)", ""]
            lines.append("| chunk | metric | value | deviation |")
            lines.append("| ---: | --- | ---: | ---: |")
            for a in self.anomalies:
                value = a["value"]
                vtxt = f"{value:.4g}" if isinstance(value, (int, float)) else str(value)
                dtxt = (
                    "—" if a["metric"] == "fallback"
                    else f"{a['deviation']:.1f}·MAD"
                )
                lines.append(f"| {a['index']} | {a['metric']} | {vtxt} | {dtxt} |")
        elif self.chunks:
            lines += ["", f"No chunk deviates ≥{self.mad_k:g}·MAD from the stream median."]
        if self.quality:
            q = self.quality
            lines += ["", "## Point-wise error quality", ""]
            lines.append(
                f"- points: {q['n']:,} ({q['zeros']:,} exact zeros, "
                f"{q['nonfinite']:,} non-finite)"
            )
            lines.append(
                f"- relative error: p50 {q['rel_p50']:.3g} · p90 {q['rel_p90']:.3g} "
                f"· p99 {q['rel_p99']:.3g} · max {q['max_rel']:.3g}"
            )
            lines.append(f"- signed relative bias: {q['rel_bias']:+.3g}")
            lines.append(
                f"- absolute error: p99 {q['abs_p99']:.3g} · max {q['max_abs']:.3g} "
                f"· bias {q['abs_bias']:+.3g}"
            )
        if self.notes:
            lines += ["", "## Notes", ""]
            lines += [f"- {note}" for note in self.notes]
        return "\n".join(lines) + "\n"


def explain_stream(
    blob: bytes,
    original=None,
    *,
    mad_k: float = DEFAULT_MAD_K,
    check_theorem3: bool = False,
) -> ExplainReport:
    """Build the full explain report for one compressed stream.

    Always succeeds: damage degrades to a partial attribution tree plus
    ``StreamError`` notes.  With ``original`` supplied, the stream is
    decompressed and audited (:func:`repro.observe.audit.audit_stream`)
    so the report carries the per-chunk max-error anomalies and the
    point-wise quality summary.  A rendering of
    :func:`repro.inspection.inspect_stream`.
    """
    from repro.inspection import inspect_stream

    blob = bytes(blob)
    model = inspect_stream(blob)
    from repro.observe.attribution import attribute_model

    tree = attribute_model(model)
    notes = [f"StreamError: {note}" for note in tree.damage_notes()]

    def add(note: str) -> None:
        if note not in notes:
            notes.append(note)

    if model.codec is None:
        add(f"StreamError: {model.header_error}")
    else:
        if model.box is None:
            notes.append(f"StreamError: {model.header_error}")
        # Attribution reads structure with checksums off so damaged streams
        # still tile; a corrupt payload behind intact framing would then
        # read as "OK".  The integrity verdict (structure + stream/section/
        # chunk CRCs + parity, no decompression) lands here as StreamError
        # notes so ``ok`` means what `repro verify` means.
        for problem in model.problems:
            add(f"StreamError: {problem}")

    report = ExplainReport(
        codec=model.codec,
        version=model.version if model.codec is not None else None,
        nbytes=len(blob),
        tree=tree,
        kind_totals=tree.kind_totals(),
        notes=notes,
        mad_k=mad_k,
    )

    itemsize = None
    shape, dtype = model.shape, model.dtype
    if shape is not None and dtype is not None:
        itemsize = dtype.itemsize
        report.decoded_nbytes = int(np.prod(shape, dtype=np.int64)) * itemsize
        report.ratio = report.decoded_nbytes / len(blob)
    kind, value = model.bound
    report.rel_bound = value if kind == "rel" else None

    # Per-chunk geometry (CHUNKED streams): size + ratio per chunk, plus
    # the codec that actually compressed each chunk when the stream was
    # written through a degradation ladder.  A chunk a fallback rung had
    # to handle is flagged as a "fallback" anomaly: the bytes are valid
    # and the bound holds, but the operator should know the primary codec
    # failed there.
    if model.box is not None and model.codec == "CHUNKED":
        report.ladder, chunk_codecs, primary, _ = model.ladder
        chunk_codecs = chunk_codecs or []
        if model.table is None:
            notes.append("StreamError: chunk table unreadable")
        else:
            for i, (ln, ne) in enumerate(
                zip(model.table.lens.tolist(), model.table.elems.tolist())
            ):
                rec = {"index": i, "nbytes": ln, "elems": ne}
                if itemsize and ln:
                    rec["ratio"] = ne * itemsize / ln
                if i < len(chunk_codecs):
                    rec["codec"] = chunk_codecs[i]
                    if primary is not None and chunk_codecs[i] != primary:
                        report.anomalies.append(
                            {
                                "index": i,
                                "metric": "fallback",
                                "value": chunk_codecs[i],
                                "deviation": 0.0,
                            }
                        )
                report.chunks.append(rec)

    # Offline audit + quality when the original field is available.
    if original is not None:
        from repro.observe.audit import audit_model

        try:
            audit = audit_model(model, blob, np.asarray(original), check_theorem3)
            report.audit_ok = audit.ok
            if audit.error_summary:
                report.quality = dict(audit.error_summary)
            for rec, chunk in zip(report.chunks, audit.chunks):
                rec["max_rel_err"] = chunk.max_rel
        except ValueError as exc:  # StreamError included
            notes.append(f"StreamError: audit failed: {exc}")

    # Anomaly flags: ratio and (when audited) max relative error per chunk.
    for metric in ("ratio", "max_rel_err"):
        vals = [c.get(metric) for c in report.chunks]
        if len(vals) >= 3 and all(v is not None for v in vals):
            flags, _med, _mad = mad_outliers(vals, mad_k)
            for flag in flags:
                report.anomalies.append(
                    {
                        "index": report.chunks[flag["index"]]["index"],
                        "metric": metric,
                        "value": flag["value"],
                        "deviation": flag["deviation"],
                    }
                )
    return report


__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.observe.attribution": (
        "ByteNode", "attribute_bytes", "attribute_model", "section_kind_map",
    ),
})
