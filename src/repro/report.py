"""One-call compression quality and stream-statistics reports.

``quality_report(original, blob)`` decompresses a stream, pulls the codec
and its native bound out of the container, and assembles every metric the
evaluation uses -- ratio, bit-rate, PSNR flavours, point-wise error
statistics, error-distribution shape.  The CLI's ``--report`` flag and the
examples use it; it is also the quickest way for a downstream user to
judge "what did this setting actually do to my data".

``build_report(blob)`` needs no original: it decodes the stream once and
returns a :class:`StreamStats` describing it -- codec, shape, per-section
sizes, chunk count -- together with the decode-side telemetry snapshot
(CRC verification time, container decode time, chunk counters) isolated
via :meth:`repro.observe.MetricsRegistry.diff`.  ``repro-compress stats``
and the experiment scripts share this code path.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.encoding.container import Container, ContainerError
from repro.metrics import bit_rate, compression_ratio, psnr, relative_psnr
from repro.metrics.distribution import ErrorDistribution, error_distribution
from repro.metrics.error import ErrorStats, measure_errors, relative_residuals
from repro.observe.metrics import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.chunked import RecoveryReport

__all__ = [
    "QualityReport",
    "StreamStats",
    "build_report",
    "quality_report",
    "stream_bound",
]

#: Container keys holding each codec's native bound, with its kind.
#: Kinds: "abs"/"rel" are error bounds the stream guarantees point-wise;
#: "prec" (bit precision) and "rate" (bits/value) parameterize fidelity
#: without a point-wise guarantee, so reports show them but never grade
#: errors against them.  GZIP (lossless) and CHUNKED (delegates to its
#: per-chunk inner streams) intentionally have no entry.
_BOUND_KEYS = {
    "SZ_ABS": ("eb", "abs"),
    "SZ2_ABS": ("eb", "abs"),
    "SZ3_ABS": ("eb", "abs"),
    "ZFP_A": ("param", "abs"),
    "ZFP_P": ("param", "prec"),
    "ZFP_R": ("param", "rate"),
    "FPZIP": ("precision", "prec"),
    "SZ_PWR": ("br", "rel"),
    "ISABELA": ("br", "rel"),
    "SZ_T": ("br", "rel"),
    "SZ2_T": ("br", "rel"),
    "SZ3_T": ("br", "rel"),
    "ZFP_T": ("br", "rel"),
    "NAIVE_T": ("br", "rel"),
}

#: Codecs whose bound parameter is stored as an integer section (u64)
#: rather than a float; reading those via ``get_f64`` would silently
#: reinterpret the bits.
_U64_BOUND_CODECS = frozenset({"FPZIP"})


def stream_bound(box: Container) -> tuple[str | None, float | None]:
    """``(kind, value)`` of the native bound a container carries.

    ``(None, None)`` when the codec has no recoverable bound (lossless,
    CHUNKED wrappers) or the expected section is absent.  SAFE streams
    derive their bound from the declared safeguards: a relative-error
    safeguard outranks an absolute one; other kinds carry no error bound.
    """
    if box.codec == "SAFE":
        if "safeguards" not in box:
            return None, None
        from repro.safeguards.kinds import parse_safeguard

        guards = []
        for spec in box.get_str("safeguards").split(";"):
            if not spec.strip():
                continue
            try:
                guards.append(parse_safeguard(spec))
            except ValueError:
                continue
        for kind in ("rel", "abs"):
            for sg in guards:
                if sg.kind == kind:
                    return kind, float(sg.value)
        return None, None
    key = _BOUND_KEYS.get(box.codec)
    if key is None or key[0] not in box:
        return None, None
    if box.codec in _U64_BOUND_CODECS:
        return key[1], float(box.get_u64(key[0]))
    return key[1], box.get_f64(key[0])


@dataclass(frozen=True)
class QualityReport:
    codec: str
    original_nbytes: int
    compressed_nbytes: int
    ratio: float
    bits_per_value: float
    psnr_db: float
    relative_psnr_db: float
    bound_kind: str | None  # "abs" / "rel" / None when not recoverable
    bound_value: float | None
    errors: ErrorStats | None  # vs the native bound, when known
    distribution: ErrorDistribution | None

    def format(self) -> str:
        lines = [
            f"codec:            {self.codec}",
            f"size:             {self.original_nbytes} -> {self.compressed_nbytes} B"
            f"  ({self.ratio:.2f}x, {self.bits_per_value:.2f} bits/value)",
            f"PSNR:             {self.psnr_db:.2f} dB   "
            f"relative-error PSNR: {self.relative_psnr_db:.2f} dB",
        ]
        if self.bound_kind is not None and self.errors is not None:
            lines.append(
                f"bound:            {self.bound_kind} {self.bound_value:g}   "
                f"bounded: {self.errors.bounded_label()}"
            )
            lines.append(
                f"point-wise error: max abs {self.errors.max_abs:.3e}   "
                f"max rel {self.errors.max_rel:.3e}   avg rel {self.errors.avg_rel:.3e}"
            )
        elif self.bound_kind is not None:
            lines.append(
                f"bound:            {self.bound_kind} {self.bound_value:g} "
                "(fidelity knob, no point-wise guarantee)"
            )
        if self.distribution is not None:
            shape = "uniform" if self.distribution.looks_uniform else "bell-shaped"
            lines.append(
                f"error shape:      {shape} (std/bound {self.distribution.std:.3f}, "
                f"budget fill {self.distribution.fill:.2f})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class StreamStats:
    """What one decode of a stream looked like, no original data needed.

    ``metrics`` is the decode-side registry diff: only what *this* decode
    moved -- ``crc.verify_s``, ``container.decode_s``, chunk counters,
    transform counters -- not process-lifetime totals.
    """

    codec: str
    version: int
    nbytes: int
    shape: tuple[int, ...]
    dtype: str
    decoded_nbytes: int
    ratio: float
    sections: dict[str, int]
    n_chunks: int | None
    inner_codec: str | None
    #: ``(k, group_size)`` of a parity-bearing stream, else None.
    parity: tuple[int, int] | None
    decode_s: float
    crc_verify_s: float
    metrics: dict[str, dict]
    #: Damage-recovery outcome when ``build_report(tolerate_corruption=True)``
    #: had to fall back to partial decoding; None on a clean decode.
    recovery: "RecoveryReport | None" = None
    #: Declared safeguard specs and patch count of a SAFE (v4) stream.
    safeguards: tuple[str, ...] | None = None
    patched: int | None = None
    #: Bytes per attribution kind (entropy table vs payload, outliers,
    #: patches, parity, framing, CRCs ...) from the byte-attribution tree
    #: (``repro.observe.attribution.attribute_bytes``); None when attribution
    #: was unavailable.  Leaf kinds sum exactly to ``nbytes``.
    kind_totals: dict[str, int] | None = None
    #: Dominant payload kind per top-level section, same source.
    section_kinds: dict[str, str] | None = None
    #: Degradation-ladder chain recorded by the writer (``"SZ_T>GZIP"``),
    #: None when the stream was not written through a ladder.
    ladder: str | None = None
    #: Per-codec chunk counts from the ``chunk_codecs`` section (which
    #: rung actually compressed each chunk); None when not recorded.
    codec_mix: dict[str, int] | None = None
    #: Chunks a fallback rung (not the primary codec) had to compress.
    degraded_chunks: int | None = None

    def format(self) -> str:
        lines = [
            f"codec:         {self.codec} (v{self.version} container)",
            f"shape:         {self.shape} {self.dtype}",
            f"size:          {self.nbytes} -> {self.decoded_nbytes} B"
            f"  ({self.ratio:.2f}x)",
        ]
        if self.n_chunks is not None:
            inner = f" of {self.inner_codec}" if self.inner_codec else ""
            lines.append(f"chunks:        {self.n_chunks}{inner}")
        if self.ladder is not None:
            lines.append(f"ladder:        {self.ladder}")
        if self.codec_mix is not None:
            mix = ", ".join(f"{n}x {c}" for c, n in sorted(self.codec_mix.items()))
            fell = (
                f" ({self.degraded_chunks} chunk(s) fell back)"
                if self.degraded_chunks
                else ""
            )
            lines.append(f"codec mix:     {mix}{fell}")
        if self.parity is not None:
            lines.append(
                f"parity:        k={self.parity[0]} per group of {self.parity[1]}"
            )
        if self.safeguards is not None:
            patched = (
                f", {self.patched} point(s) patched"
                if self.patched is not None
                else ""
            )
            inner = f" over {self.inner_codec}" if self.inner_codec else ""
            lines.append(
                f"safeguards:    {'; '.join(self.safeguards)}{inner}{patched}"
            )
        if self.recovery is not None:
            lines.append(f"recovery:      {self.recovery.summary()}")
        lines.append(
            f"decode:        {self.decode_s * 1e3:.3f} ms total, "
            f"CRC verification {self.crc_verify_s * 1e3:.3f} ms"
        )
        lines.append("sections:")
        for key, size in self.sections.items():
            kind = (self.section_kinds or {}).get(key)
            suffix = f"  [{kind}]" if kind else ""
            lines.append(f"  {key:14s} {size:12d} B{suffix}")
        if self.kind_totals:
            lines.append("byte attribution:")
            for kind, size in self.kind_totals.items():
                share = 100.0 * size / self.nbytes if self.nbytes else 0.0
                lines.append(f"  {kind:14s} {size:12d} B  {share:6.2f}%")
            overhead = self.kind_totals.get("framing", 0) + self.kind_totals.get(
                "checksum", 0
            )
            share = 100.0 * overhead / self.nbytes if self.nbytes else 0.0
            lines.append(f"  container overhead (framing+CRC): {overhead} B ({share:.2f}%)")
        moved = {k: v for k, v in self.metrics.items() if k not in self.sections}
        if moved:
            lines.append("decode metrics:")
            for name in sorted(moved):
                snap = moved[name]
                if snap["type"] == "histogram":
                    lines.append(
                        f"  {name:28s} n={snap['n']} mean={snap['mean']:.6g}"
                    )
                else:
                    lines.append(f"  {name:28s} {snap['value']:.6g}")
        return "\n".join(lines)


def build_report(blob: bytes, tolerate_corruption: bool = False) -> StreamStats:
    """Decode ``blob`` once and describe the stream + the decode's cost.

    With ``tolerate_corruption`` a damaged stream is decoded best-effort
    via :func:`repro.core.chunked.recover_array` -- intact chunks of a
    CHUNKED stream are kept, lost spans are filled -- and the
    :class:`~repro.core.chunked.RecoveryReport` lands in
    :attr:`StreamStats.recovery` (None when the stream decoded fully).
    A stream whose geometry is itself unreadable still raises.

    The metrics snapshot is diffed around the decode, so concurrent work
    in other threads can leak into it; for exact isolation call this from
    a quiet process (the ``repro-compress stats`` command is one).
    """
    from repro import decompress
    from repro.core.chunked import recover_array

    reg = _metrics()
    before = reg.snapshot()
    t0 = time.perf_counter()
    recovery = None
    if tolerate_corruption:
        recon, recovery = recover_array(blob)
        if recon is None:
            raise ContainerError(
                "stream unrecoverable: "
                + (recovery.summary() if recovery else "no readable geometry")
            )
    else:
        recon = decompress(blob)
    decode_s = time.perf_counter() - t0
    delta = reg.diff(before)

    from repro.inspection import inspect_stream
    from repro.observe.attribution import attribute_model, section_kind_map

    model = inspect_stream(blob)
    parity = (model.parity.k, model.parity.group_size) if model.parity else None
    ladder, codecs, _, degraded = model.ladder
    codec_mix = dict(Counter(codecs)) if codecs is not None else None
    crc = delta.get("crc.verify_s")
    tree = attribute_model(model)
    return StreamStats(
        codec=model.codec,
        version=model.version,
        nbytes=len(blob),
        shape=recon.shape,
        dtype=recon.dtype.name,
        decoded_nbytes=recon.nbytes,
        ratio=compression_ratio(recon.nbytes, len(blob)),
        sections={s.key: s.nbytes for s in model.sections},
        n_chunks=model.meta("n_chunks"),
        inner_codec=model.meta("inner_codec", "str"),
        parity=parity,
        decode_s=decode_s,
        crc_verify_s=float(crc["value"]) if crc else 0.0,
        metrics=delta,
        recovery=recovery,
        safeguards=model.safeguards,
        patched=model.meta("n_patch") if model.codec == "SAFE" else None,
        kind_totals=tree.kind_totals(),
        section_kinds=section_kind_map(tree),
        ladder=ladder,
        codec_mix=codec_mix,
        degraded_chunks=degraded if codecs is not None else None,
    )


def quality_report(original: np.ndarray, blob: bytes) -> QualityReport:
    """Full quality assessment of ``blob`` against ``original``."""
    from repro import decompress
    from repro.inspection import inspect_stream

    recon = decompress(blob)
    model = inspect_stream(blob)
    original = np.asarray(original)
    if recon.shape != original.shape:
        raise ValueError(
            f"stream reconstructs shape {recon.shape}, original is {original.shape}"
        )

    errors = dist = None
    bound_kind, bound_value = model.bound
    if model.codec == "CHUNKED":
        # The wrapper carries no bound; its chunks do (a ladder's lossless
        # fallback chunks carry none, so take the first that has one).
        bound_kind, bound_value = next(
            (c.bound for c in model.chunks if c is not None and c.bound[0] is not None),
            (None, None),
        )
    if bound_kind in ("abs", "rel"):
        errors = measure_errors(original, recon, (bound_kind, bound_value))
    if bound_kind == "abs":
        dist = error_distribution(original, recon, bound_value)
    elif bound_kind == "rel":
        rel = relative_residuals(original, recon)
        if rel.size >= 8:
            dist = error_distribution(np.zeros_like(rel), rel, bound_value)
    # "prec"/"rate" kinds parameterize fidelity without a point-wise
    # guarantee: report the knob, grade nothing against it.

    return QualityReport(
        codec=model.codec,
        original_nbytes=original.nbytes,
        compressed_nbytes=len(blob),
        ratio=compression_ratio(original.nbytes, len(blob)),
        bits_per_value=bit_rate(len(blob), original.size),
        psnr_db=psnr(original, recon),
        relative_psnr_db=relative_psnr(original, recon),
        bound_kind=bound_kind,
        bound_value=bound_value,
        errors=errors,
        distribution=dist,
    )

