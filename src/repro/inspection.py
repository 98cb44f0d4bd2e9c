"""One reader behind every stream-inspection command: ``inspect_stream``.

``info``, ``stats``, ``verify``, ``explain``, ``audit`` and ``repair`` all
ask the same questions of a byte stream -- where each section sits, which
CRCs hold, what the chunk table and parity geometry say, which codec
compressed each chunk -- so they all read it through :func:`inspect_stream`
and render the :class:`StreamModel` it returns.  A stream is read once:

* the framing comes from one damage-tolerant :class:`Container` parse per
  container, which records every section's offsets and the defect a
  strict parse would raise on;
* nested containers become child models under one rule: the ``inner``
  stream of the ``*_T`` and ``SAFE`` wrappers, ``chunk[i]`` of ``CHUNKED``
  payloads and ``field:*`` of ``ARCHIVE`` streams;
* every byte is hashed once: a section holding child containers gets its
  CRC from theirs with the combine of the container's CRC, the same way
  :meth:`Container.to_bytes` assembles the stream CRC, and every stored
  CRC is compared against exactly the bytes it covers.  The one exception
  is a child whose version uses the other polynomial (a v2-v4 stream
  inside a v5 one), which is hashed once under each;
* section payloads are referenced (memoryview slices), never copied.

Building the model never raises on bad bytes; every defect is recorded.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.chunk_table import (
    ChunkTable,
    ParityGeometry,
    read_chunk_table,
    read_parity_geometry,
)
from repro.encoding.container import (
    _CRC_BYTES,
    _MAGIC,
    _VERSION,
    ChecksumError,
    Checksum,
    Container,
    StreamError,
    TruncatedStreamError,
    _header_version,
    checksum_for,
    peek_codec,
)

__all__ = ["Section", "StreamModel", "inspect_stream"]


@dataclass(frozen=True)
class Section:
    """One section of a container, in absolute offsets of the inspected blob.

    ``[start, payload_start)`` is the framing, ``[payload_start,
    payload_stop)`` the payload bytes present, and (v2+) the 4-byte CRC
    follows at ``payload_stop``.  ``declared_stop`` is where the payload
    should end; beyond ``payload_stop`` it marks a cut payload.
    ``crc_ok`` is None for v1 sections, False for cut ones.
    """

    key: str
    start: int
    payload_start: int
    payload_stop: int
    declared_stop: int
    crc_ok: bool | None
    child: "StreamModel | None" = None

    @property
    def nbytes(self) -> int:
        return self.payload_stop - self.payload_start


@dataclass
class StreamModel:
    """Everything one read of a container learned, children included.

    ``start``/``stop`` are absolute offsets of this container in the
    inspected blob.  ``codec`` and ``version`` are None when the header is
    unreadable; ``box`` is the damage-tolerant parse (None then too).
    """

    name: str
    start: int
    stop: int
    codec: str | None = None
    version: int | None = None
    box: Container | None = None
    #: The defect ``Container.from_bytes(..., verify_checksums=False)``
    #: raises on (None for a structurally sound container).
    error: StreamError | None = None
    #: Why even the damage-tolerant parse could not read the header.
    header_error: StreamError | None = None
    sections: list[Section] = field(default_factory=list)
    #: Stored vs computed stream CRC (v2+ containers of >= 9 bytes).
    stored_crc: int | None = None
    actual_crc: int | None = None
    #: CRC of all of this container's bytes, under the polynomial of the
    #: container that holds it (its own at the top level).
    crc: int = 0
    table: ChunkTable | None = None
    table_error: StreamError | None = None
    parity: ParityGeometry | None = None
    parity_error: StreamError | None = None
    #: Child model per chunk-table entry (None where payload bytes are
    #: missing); empty unless the chunk table is valid.
    chunks: list["StreamModel | None"] = field(default_factory=list)

    # -- identity ------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.stop - self.start

    @property
    def checksummed(self) -> bool:
        return self.version is not None and self.version >= 2

    @property
    def stream_crc_ok(self) -> bool:
        return self.stored_crc == self.actual_crc

    def damage(self) -> StreamError | None:
        """The error a verifying ``Container.from_bytes`` raises, or None.

        Same order as the parser: header, the v2+ stream CRC, structure.
        """
        if self.version is None:
            return self.error
        if self.version >= 2:
            if self.nbytes < 5 + _CRC_BYTES:
                return TruncatedStreamError(
                    f"v{self.version} stream shorter than its CRC trailer"
                )
            if not self.stream_crc_ok:
                return ChecksumError(
                    f"stream checksum mismatch (corrupted or truncated bytes): "
                    f"stored {self.stored_crc:#010x}, computed {self.actual_crc:#010x}"
                )
        return self.error

    def raise_if_damaged(self) -> None:
        exc = self.damage()
        if exc is not None:
            raise exc

    def section(self, key: str) -> Section | None:
        return next((s for s in self.sections if s.key == key), None)

    def crc_ok(self, key: str) -> bool:
        """Whether section ``key`` is present and its CRC holds (v1: present)."""
        sec = self.section(key)
        return sec is not None and sec.crc_ok is not False

    # -- typed metadata --------------------------------------------------------

    def meta(self, key: str, kind: str = "u64"):
        """Metadata section ``key`` read with ``Container.get_<kind>``.

        None when the section is absent or does not decode.
        """
        if self.box is None or key not in self.box:
            return None
        try:
            return getattr(self.box, f"get_{kind}")(key)
        except (ValueError, struct.error):  # damaged metadata reads as absent
            return None

    @property
    def shape(self) -> tuple[int, ...] | None:
        return self.meta("shape", "shape")

    @property
    def dtype(self):
        return self.meta("dtype", "dtype")

    @property
    def safeguards(self) -> tuple[str, ...] | None:
        """Declared safeguard specs of a SAFE stream."""
        if self.codec != "SAFE":
            return None
        specs = self.meta("safeguards", "str")
        if specs is None:
            return None
        return tuple(s for s in specs.split(";") if s.strip())

    @cached_property
    def bound(self) -> tuple[str | None, float | None]:
        """``(kind, value)`` of the native bound (see :func:`repro.report.stream_bound`)."""
        if self.box is None:
            return None, None
        from repro.report import stream_bound

        try:
            return stream_bound(self.box)
        except (ValueError, struct.error):  # a damaged bound section reads as none
            return None, None

    @cached_property
    def ladder(self) -> tuple[str | None, list[str] | None, str | None, int]:
        """``(chain, per-chunk codecs, primary codec, degraded chunks)``.

        The degradation-ladder record a CHUNKED writer leaves: the chain
        (``"SZ_T>GZIP"``), the codec that compressed each chunk, the
        primary rung (first of the chain, else the first chunk's codec) and
        how many chunks a fallback rung compressed.
        """
        chain = self.meta("ladder", "str")
        raw = self.meta("chunk_codecs", "str")
        codecs = [c for c in raw.split(";") if c] if raw is not None else None
        primary = chain.split(">")[0] if chain else (codecs[0] if codecs else None)
        degraded = sum(1 for c in codecs or () if c != primary)
        return chain, codecs, primary, degraded

    # -- verdicts -------------------------------------------------------------

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """Every integrity defect, nested ones prefixed by chunk or field.

        What ``repro-compress verify`` reports: structure, the stream CRC,
        every section CRC, the chunk table and its payload span, every
        chunk and ``field:*`` sub-stream, each intact chunk's element
        count against the table, the parity geometry and -- when every
        chunk is intact -- the parity bytes against a re-encode.
        """
        if self.error is not None:
            return (f"structure: {type(self.error).__name__}: {self.error}",)
        out: list[str] = []
        if self.checksummed:
            if not self.stream_crc_ok:
                out.append(
                    f"stream checksum mismatch: stored {self.stored_crc:#010x}, "
                    f"computed {self.actual_crc:#010x}"
                )
            out += [
                f"section {s.key!r}: payload checksum mismatch"
                for s in self.sections
                if not s.crc_ok
            ]
        if self.codec == "CHUNKED":
            out += self._chunk_problems()
        elif self.codec == "ARCHIVE":
            for s in self.sections:
                if s.child is not None and s.key.startswith("field:"):
                    out += [f"field {s.key[6:]!r}: {p}" for p in s.child.problems]
        return tuple(out)

    def _chunk_problems(self) -> list[str]:
        if self.table is None:
            return [str(self.table_error)]
        out: list[str] = []
        payload = self.section("payload")
        span = int(self.table.lens.sum())
        if payload is not None and span != payload.nbytes:
            out.append(
                f"payload holds {payload.nbytes} bytes but the chunk table spans {span}"
            )
        for i, (chunk, want) in enumerate(zip(self.chunks, self.table.elems.tolist())):
            if chunk is None:
                out.append(f"chunk {i}: bytes missing from payload")
            elif chunk.problems:
                out += [f"chunk {i}: {p}" for p in chunk.problems]
            elif chunk.shape is not None and math.prod(chunk.shape) != want:
                out.append(
                    f"chunk {i}: holds {math.prod(chunk.shape)} elements, "
                    f"chunk table says {want}"
                )
        if self.box is not None and "parity_k" in self.box:
            if self.parity is None:
                out.append(str(self.parity_error))
            else:
                out += self._parity_problems(chunks_ok=not out)
        return out

    def _parity_problems(self, chunks_ok: bool) -> list[str]:
        from repro.encoding.rs import encode_parity

        geo, table = self.parity, self.table
        try:
            parity = self.box.get("parity")
            payload = self.box.get("payload")
        except StreamError as exc:
            return [f"parity sections unreadable: {exc}"]
        expect = int(geo.k * geo.lens.sum())
        if len(parity) != expect:
            return [f"parity section holds {len(parity)} bytes, geometry needs {expect}"]
        if not chunks_ok:
            return []
        # Chunks and geometry are intact: the parity bytes must equal a
        # deterministic re-encode (the same check repair relies on).
        out, m, payload = [], geo.group_size, memoryview(payload)
        for g, stored in enumerate(geo.blocks(parity)):
            blobs = [
                payload[o : o + ln]
                for o, ln in zip(
                    table.offs[g * m : (g + 1) * m].tolist(),
                    table.lens[g * m : (g + 1) * m].tolist(),
                )
            ]
            if encode_parity(blobs, geo.k) != stored:
                out.append(f"parity group {g}: bytes do not match recomputed parity")
        return out

    @property
    def notes(self) -> tuple[str, ...]:
        """Observations that are not defects (what ``verify`` prints as notes)."""
        if self.error is not None:
            return ()
        out = []
        if not self.checksummed:
            out.append("v1 stream: carries no checksums, integrity not verifiable")
        if self.codec == "CHUNKED":
            _chain, codecs, primary, degraded = self.ladder
            if degraded and self.crc_ok("chunk_codecs") and (
                "ladder" not in self.box or self.crc_ok("ladder")
            ):
                out.append(
                    f"{degraded} of {len(codecs)} chunk(s) were compressed by "
                    f"a fallback rung of the codec ladder (primary {primary}); "
                    f"bytes are intact, but see 'repro-compress explain'"
                )
            if self.parity is not None:
                out.append(
                    f"carries Reed-Solomon parity: k={self.parity.k} "
                    f"per group of {self.parity.group_size}"
                )
        return tuple(out)


def inspect_stream(blob: bytes) -> StreamModel:
    """Read ``blob`` once into a :class:`StreamModel`; never raises on bad bytes."""
    view = memoryview(blob)
    return _inspect(view, 0, len(view), "stream", None)


def _inspect(
    view: memoryview, start: int, stop: int, name: str, outer: Checksum | None
) -> StreamModel:
    """Model of ``view[start:stop]``; ``outer`` is the CRC of the container
    holding it (None at the top), the one ``model.crc`` is taken under."""
    data = view[start:stop]
    model = StreamModel(name, start, stop)
    n = len(data)
    try:
        model.version = _header_version(data)
        model.codec = peek_codec(data)
        model.box = Container.from_bytes(data, verify_checksums=False, partial=True)
    except StreamError as exc:
        model.header_error = exc
        try:
            Container.from_bytes(data, verify_checksums=False)
        except StreamError as strict:
            model.error = strict
    # The CRC this container's own sections and trailer carry.  One that
    # carries none (v1, or an unreadable header) is hashed as its parent
    # hashes it, or as new streams are at the top.
    if model.checksummed:
        own = checksum_for(model.version)
    else:
        own = outer or checksum_for(_VERSION)
    crc, combine, _ = own
    box = model.box
    if box is None:
        model.crc = crc(data)
        if model.checksummed and n >= 5 + _CRC_BYTES:
            model.stored_crc = struct.unpack_from("<I", data, n - _CRC_BYTES)[0]
            model.actual_crc = crc(data[: n - _CRC_BYTES])
        return _crc_for_parent(model, data, own, outer)
    model.error = box.error
    if model.codec == "CHUNKED":
        try:
            model.table = read_chunk_table(box)
            if "parity_k" in box:
                model.parity = read_parity_geometry(box, model.table)
        except (ValueError, struct.error) as exc:  # StreamError included
            if model.table is None:
                model.table_error = exc
            else:
                model.parity_error = exc

    # Hash the framing, fold in each payload's CRC (taken from its child
    # containers where it has any), then compare against the stored CRCs.
    running = crc(data[: box.header_end])
    hashed_to = box.header_end
    trailer = _CRC_BYTES if model.checksummed else 0
    for key, (s, ps, pe) in box.spans.items():
        cut = key == box.truncated_key
        shown = min(pe, n)
        child = None
        if model.codec == "CHUNKED" and key == "payload":
            # Chunks are read even from a cut payload: repair and recovery
            # keep the ones that survived.
            payload_crc = _chunks(model, view, start + ps, shown - ps, own)
        elif not cut:
            if (key == "inner" and bytes(data[ps : ps + 4]) == _MAGIC) or (
                model.codec == "ARCHIVE" and key.startswith("field:")
            ):
                child = _inspect(view, start + ps, start + pe, key, own)
            payload_crc = child.crc if child is not None else crc(data[ps:pe])
        crc_ok = None
        if cut:
            crc_ok = False if trailer else None
        elif trailer:
            stored = struct.unpack_from("<I", data, pe)[0]
            crc_ok = stored == payload_crc
            running = crc(
                data[pe : pe + trailer],
                combine(crc(data[s:ps], running), payload_crc, pe - ps),
            )
            hashed_to = pe + trailer
        else:
            running = combine(crc(data[s:ps], running), payload_crc, pe - ps)
            hashed_to = pe
        model.sections.append(
            Section(key, start + s, start + ps, start + shown, start + pe, crc_ok, child)
        )

    body_end = n - trailer
    if trailer and n >= 5 + trailer:
        model.stored_crc = struct.unpack_from("<I", data, body_end)[0]
        if hashed_to <= body_end:
            model.actual_crc = crc(data[hashed_to:body_end], running)
        else:
            model.actual_crc = crc(data[:body_end])
        model.crc = crc(data[body_end:], model.actual_crc)
    else:
        model.crc = crc(data[hashed_to:], running)
    return _crc_for_parent(model, data, own, outer)


def _crc_for_parent(
    model: StreamModel, data: memoryview, own: Checksum, outer: Checksum | None
) -> StreamModel:
    """``model`` with ``crc`` under ``outer``: a container nested under the
    other polynomial (a v2-v4 stream in a v5 one) is hashed again in full."""
    if outer is not None and outer != own:
        model.crc = outer.crc(data)
    return model


def _chunks(
    model: StreamModel, view: memoryview, base: int, size: int, own: Checksum
) -> int:
    """Read every chunk of a CHUNKED payload; returns the payload's CRC."""
    table = model.table
    if table is None:
        return own.crc(view[base : base + size])
    for i, (o, ln) in enumerate(zip(table.offs.tolist(), table.lens.tolist())):
        if o + ln > size:
            model.chunks.append(None)
        else:
            model.chunks.append(
                _inspect(view, base + o, base + o + ln, f"chunk[{i}]", own)
            )
    if any(c is None for c in model.chunks) or int(table.lens.sum()) != size:
        return own.crc(view[base : base + size])
    crc = 0
    for chunk in model.chunks:
        crc = own.combine(crc, chunk.crc, chunk.nbytes)
    return crc
