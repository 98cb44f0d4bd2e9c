"""``SafeguardedCompressor`` — guaranteed point-wise properties over any codec.

Wraps any registered compressor as an untrusted blackbox: compress, decode
the codec's own output, evaluate every declared :class:`Safeguard`
vectorized, and store bit-exact patches for each violating point in the
stream (codec ``SAFE``).  Decoding applies the patches
after the inner decode, so the declared properties hold no matter what the
wrapped codec did.

Overhead for a compliant codec is one vectorized mask pass per safeguard on
the reconstruction the verify pass materializes anyway, plus an empty patch
section — see ``docs/safeguards.md`` for the model.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.compressors.base import (
    Compressor,
    ErrorBound,
    RelativeBound,
    get_compressor,
)
from repro.encoding.container import Container, ContainerError, peek_codec
from repro.observe.audit import CallReport, call_report, current_report, grade
from repro.observe.events import emit as _emit_event
from repro.observe.metrics import metrics
from repro.observe.tracer import span

from .engine import compute_patch_channel, put_patch_sections, apply_patch_sections
from .kinds import (
    NonFiniteSafeguard,
    RelErrorSafeguard,
    Safeguard,
    parse_safeguard,
    parse_safeguards,
)

__all__ = ["SafeguardedCompressor"]


def _as_safeguard(sg: "Safeguard | str") -> Safeguard:
    return parse_safeguard(sg) if isinstance(sg, str) else sg


class SafeguardedCompressor(Compressor):
    """Adapter enforcing declared safeguards over an inner codec.

    ``inner`` may be a :class:`Compressor` instance, a registry name, or
    ``None`` for a decode-only instance (the registry entry used by
    ``repro.decompress`` dispatch).  ``safeguards`` accepts
    :class:`Safeguard` objects or spec strings like ``"rel:1e-3"``.
    """

    name = "SAFE"
    #: Non-finite inputs are sanitized for the inner codec when necessary and
    #: restored bit-exactly through the patch channel.
    allows_nonfinite = True

    def __init__(self, inner=None, safeguards=()) -> None:
        self._inner = inner
        self.safeguards: tuple[Safeguard, ...] = tuple(
            _as_safeguard(sg) for sg in safeguards
        )

    @property
    def inner(self) -> Compressor | None:
        if isinstance(self._inner, str):
            self._inner = get_compressor(self._inner)
        return self._inner

    @property
    def supported_bounds(self) -> tuple[type, ...]:
        inner = self.inner
        return inner.supported_bounds if inner is not None else ()

    @property
    def declared_rel_bound(self) -> float | None:
        """Value of the declared relative-error safeguard, if any."""
        for sg in self.safeguards:
            if isinstance(sg, RelErrorSafeguard):
                return sg.value
        return None

    # -- encode ------------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound)[0]

    def compress_verified(self, data: np.ndarray, bound: ErrorBound):
        return self._compress_impl(data, bound)

    def _compress_impl(self, data: np.ndarray, bound: ErrorBound) -> tuple[bytes, np.ndarray]:
        inner = self.inner
        if inner is None:
            raise ValueError(
                "SafeguardedCompressor needs an inner codec to compress "
                "(the bare registry instance is decode-only)"
            )
        inner._check_bound(bound)
        data = np.asarray(data)
        # The relative bound this array is graded against.
        rel = self.declared_rel_bound
        if rel is None and isinstance(bound, RelativeBound):
            rel = float(bound.value)
        if data.size == 0:
            blob, stack = self._compress_empty(data)
            final = data.copy()
            channel = compute_patch_channel(stack, data, final)
            self._record(data, final, rel, stack, channel, inner.name, CallReport())
            return blob, final
        data = self._check_input(data, allow_nonfinite=True)

        stack = tuple(sg.resolve(data) for sg in self.safeguards)
        sanitized = data
        finite = np.isfinite(data)
        if not finite.all():
            nonfinite = ~finite
            if not any(isinstance(sg, NonFiniteSafeguard) for sg in stack):
                stack += (NonFiniteSafeguard(),)
            if not getattr(inner, "allows_nonfinite", False):
                sanitized = np.where(nonfinite, 0.0, data).astype(data.dtype, copy=False)

        with call_report() as sub:
            inner_blob, recon = inner.compress_verified(sanitized, bound)
        with span("safeguard-verify", codec=inner.name, n=int(data.size)):
            channel = compute_patch_channel(stack, data, recon)
        final = np.ascontiguousarray(recon.astype(data.dtype, copy=bool(channel.size)))
        if channel.size:
            final.ravel()[channel.patch_idx.astype(np.int64)] = channel.patch_val
        self._record(data, final, rel, stack, channel, inner.name, sub)

        box = self._new_container(self.name, data)
        box.put_str("safeguards", ";".join(sg.spec() for sg in stack))
        box.put_str("inner_codec", inner.name)
        box.put_nested("inner", inner_blob)
        put_patch_sections(box, channel.patch_idx, channel.patch_val)
        return box.to_bytes(), final

    def _compress_empty(self, data: np.ndarray) -> tuple[bytes, tuple[Safeguard, ...]]:
        """A zero-element stream and its resolved safeguard stack."""
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"expected float32/float64 data, got {data.dtype}")
        if data.ndim not in (1, 2, 3):
            raise ValueError(f"expected 1-D/2-D/3-D data, got ndim={data.ndim}")
        box = self._new_container(self.name, data)
        stack = tuple(sg.resolve(data) for sg in self.safeguards)
        box.put_str("safeguards", ";".join(sg.spec() for sg in stack))
        box.put_str("inner_codec", self.inner.name)
        box.put("inner", b"")
        put_patch_sections(
            box, np.empty(0, dtype=np.uint64), np.empty(0, dtype=data.dtype)
        )
        return box.to_bytes(), stack

    def _record(self, data, final, rel, stack, channel, inner_name, sub) -> None:
        """Move the ``safeguard.*`` metrics, and fold ``sub``, the inner
        call's record, into the open one as this array's one entry.

        The entry relabels the inner codec's when that already graded
        ``final``: the patch channel is empty and the inner call left one
        entry covering the array, graded against ``rel``.  Otherwise this
        layer grades ``final`` itself, against ``rel`` when there is one.
        """
        reg = metrics()
        reg.counter("safeguard.points").inc(data.size)
        reg.counter("safeguard.patched").inc(channel.size)
        by_kind: dict[str, int] = {}
        spec_to_kind = {sg.spec(): sg.kind for sg in stack}
        for spec_, count in channel.counts.items():
            kind = spec_to_kind.get(spec_, spec_)
            by_kind[kind] = by_kind.get(kind, 0) + count
            reg.counter(f"safeguard.patched.{kind}").inc(count)
        specs = tuple(sg.spec() for sg in stack)
        rec = current_report()
        if rec is not None or rel is not None:
            inner = sub.entries[0] if len(sub.entries) == 1 else None
            if (
                not channel.size and rel is not None and inner is not None
                and inner.n == data.size
                and (inner.bound_kind, inner.bound_value) == ("rel", rel)
            ):
                entry = replace(
                    inner, index=None, codec=self.name, patched=inner.patched or 0,
                    safeguards=specs,
                )
            else:
                entry = grade(
                    data, final, ("rel", rel) if rel is not None else (None, None),
                    self.name, safeguards=specs,
                    patched=sum(e.patched or 0 for e in sub.entries) + channel.size,
                )
            if rel is not None:
                reg.histogram("safeguard.max_rel").observe(entry.max_rel)
            if rec is not None:
                rec.add(replace(sub, entries=[entry]))
        if channel.size:
            _emit_event(
                "safeguard-patch",
                codec=self.name,
                inner=inner_name,
                n=int(data.size),
                patched=channel.size,
                by_kind=by_kind,
            )

    # -- decode ------------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        box, shape, dtype = self._open_container(blob, self.name)
        # Patch application never needs the declared specs -- the channel is
        # self-contained -- but a stream that lost or mangled its property
        # declaration was written by a buggy writer and must fail loud, not
        # decode into an array whose guarantees nobody can state.
        if "safeguards" not in box:
            raise ContainerError(
                f"corrupt {self.name} stream: missing safeguards declaration"
            )
        try:
            parse_safeguards(box.get_str("safeguards"))
        except ValueError as exc:
            raise ContainerError(f"corrupt {self.name} stream: {exc}") from None
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if n == 0:
            return np.zeros(shape, dtype=dtype)
        inner_blob = box.get("inner")
        inner_codec = box.get_str("inner_codec")
        codec = peek_codec(inner_blob)
        if codec != inner_codec:
            raise ContainerError(
                f"corrupt {self.name} stream: inner stream claims codec "
                f"{codec!r}, header says {inner_codec!r}"
            )
        recon = get_compressor(codec).decompress_trusted(inner_blob)
        if tuple(recon.shape) != tuple(shape) or recon.dtype != dtype:
            raise ContainerError(
                f"corrupt {self.name} stream: inner reconstruction geometry "
                f"{recon.shape}/{recon.dtype} does not match header "
                f"{tuple(shape)}/{dtype}"
            )
        flat = np.ascontiguousarray(recon).ravel()
        with span("patch-apply", codec=self.name):
            apply_patch_sections(flat, box, dtype, self.name)
        return flat.reshape(shape)


def read_stream_safeguards(box: Container) -> tuple[Safeguard, ...]:
    """Parse the declared safeguards of a SAFE container (audit/report use)."""
    from .kinds import parse_safeguards

    return parse_safeguards(box.get_str("safeguards"))
