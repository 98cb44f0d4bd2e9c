"""Self-describing byte container for compressed streams.

Every compressor in the library serializes to a :class:`Container` so the
compression ratios reported by the experiment harness are measured on real
byte streams, not on in-memory object sizes.

Checksummed layout, written as version 5::

    magic  b"RPRC"                 4 bytes
    version                        1 byte (0x05)
    codec name length + utf-8      varint + bytes
    n_sections                     varint
    repeat n_sections times:
        key length + utf-8 key     varint + bytes
        payload length + payload   varint + bytes
        payload CRC                4 bytes little-endian
    stream CRC                     4 bytes little-endian (all prior bytes)

The version byte selects the CRC (:func:`checksum_for`): CRC-32, zlib's
polynomial, from v5 on; CRC-32C in the v2-v4 streams earlier releases
wrote, which still parse and verify.  Version-1 streams (no checksums, no
trailer) still parse; checksum verification is simply skipped for them.
Sections preserve insertion order.  Metadata convenience accessors store
small scalars as UTF-8/struct-packed sections.

Parsing raises the :class:`StreamError` hierarchy: :class:`ContainerError`
for malformed structure, :class:`TruncatedStreamError` when the bytes end
early, :class:`ChecksumError` when stored CRCs disagree with the data.
"""

from __future__ import annotations

import struct
import time
from collections import OrderedDict
from collections.abc import Callable, Iterator
from typing import NamedTuple

import numpy as np

from repro.encoding.codecs import read_varint, write_varint
from repro.encoding.crc import crc32, crc32_combine, crc32c, crc32c_combine
from repro.observe.metrics import metrics as _metrics

__all__ = [
    "Checksum",
    "Container",
    "ContainerError",
    "ChecksumError",
    "StreamError",
    "TruncatedStreamError",
    "checksum_for",
    "codec_of",
    "nested_crc",
    "peek_codec",
    "section_byte_ranges",
]

_MAGIC = b"RPRC"
#: The version every checksummed stream is written as.  v2-v4 keep the
#: same framing with CRC-32C: v3 marked parity-bearing records and v4
#: safeguard-bearing ones, only so that older readers failed loudly on
#: them; v5 moves every CRC to CRC-32 (see ``docs/formats.md``).
_VERSION = 5
_KNOWN_VERSIONS = (1, 2, 3, 4, 5)
_CRC_BYTES = 4


class Checksum(NamedTuple):
    """The CRC one container version carries."""

    #: ``crc(data, value=0)``, chainable like :func:`zlib.crc32`.
    crc: Callable[..., int]
    #: ``combine(crc1, crc2, len2)``: the CRC of a concatenation.
    combine: Callable[[int, int, int], int]
    #: CRC of any bytes followed by their own CRC (little-endian), the
    #: same whatever the bytes.
    residue: int


def checksum_for(version: int) -> Checksum:
    """The CRC of a version-``version`` container: CRC-32 (zlib's
    polynomial) from v5 on, CRC-32C before.  The one place the version
    picks the polynomial."""
    if version >= 5:
        return Checksum(crc32, crc32_combine, 0x2144DF1C)
    return Checksum(crc32c, crc32c_combine, 0x48674BC7)

# dtype tokens are fixed so streams are portable across numpy versions.
_DTYPE_TOKENS = {
    "float32": b"f4",
    "float64": b"f8",
    "int32": b"i4",
    "int64": b"i8",
    "uint8": b"u1",
    "uint16": b"u2",
    "uint32": b"u4",
    "uint64": b"u8",
}
_TOKEN_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_TOKENS.items()}


class StreamError(ValueError):
    """Base class for every defect a compressed stream can exhibit.

    Subclasses ``ValueError`` so pre-hierarchy callers that caught
    ``ValueError`` keep working.
    """


class ContainerError(StreamError):
    """Raised for malformed container bytes."""


class TruncatedStreamError(ContainerError):
    """Raised when the byte stream ends before its structure is complete."""


class ChecksumError(StreamError):
    """Raised when a stored CRC disagrees with the bytes it covers."""


class Container:
    """Ordered mapping of named byte sections with typed helpers."""

    def __init__(self, codec: str) -> None:
        if not codec:
            raise ValueError("codec name must be non-empty")
        self.codec = codec
        self._sections: OrderedDict[str, bytes] = OrderedDict()
        #: Streams whose section CRC is known without hashing (see
        #: :meth:`put_nested`).
        self._nested: dict[str, tuple[bytes, ...]] = {}
        #: Format version this container was parsed from (or will be
        #: written as).  Version 1 streams carry no checksums.
        self.version = _VERSION
        #: Parse bookkeeping.  ``spans``: ``key -> (frame start, payload
        #: start, payload stop)`` (the v2+ CRC follows at payload stop; a
        #: cut payload's stop lies beyond the bytes); ``header_end``/``end``:
        #: where the header and the section walk ended.  ``partial=True``
        #: only: ``error`` is the defect a strict parse raises on,
        #: ``truncated_key`` the section cut short and ``cut`` why the walk
        #: stopped inside a section's framing.
        self.spans: dict[str, tuple[int, int, int]] = {}
        self.header_end = self.end = 0
        self.error: StreamError | None = None
        self.truncated_key: str | None = None
        self.cut: str | None = None

    # -- raw sections ------------------------------------------------------

    def put(self, key: str, payload: bytes) -> None:
        if key in self._sections:
            raise ContainerError(f"duplicate section {key!r}")
        self._sections[key] = bytes(payload)

    def put_nested(self, key: str, *streams: bytes) -> None:
        """Store serialized streams, concatenated, as section ``key``.

        For streams this process has just serialized -- a wrapper's
        ``inner``, the chunks of a ``CHUNKED`` payload, the fields of an
        ``ARCHIVE`` -- and for the chunks a repair writes back, whose
        damage must stay visible.  The section CRC is not hashed: it is
        :func:`nested_crc`, the CRC the bytes have when every stream is
        intact.  A stream altered after it was serialized (body changed,
        trailer kept) therefore gives a parent whose stored CRCs disagree
        with its bytes, and the parent fails verification.  The bytes
        written are the same as :meth:`put`'s.
        """
        self.put(key, b"".join(streams))
        self._nested[key] = streams

    def get(self, key: str) -> bytes:
        try:
            return self._sections[key]
        except KeyError:
            raise ContainerError(f"missing section {key!r} in {self.codec} stream") from None

    def __contains__(self, key: str) -> bool:
        return key in self._sections

    def __iter__(self) -> Iterator[str]:
        return iter(self._sections)

    def keys(self):
        return self._sections.keys()

    # -- typed helpers -----------------------------------------------------

    def put_u64(self, key: str, value: int) -> None:
        self.put(key, struct.pack("<Q", value))

    def get_u64(self, key: str) -> int:
        return struct.unpack("<Q", self.get(key))[0]

    def put_i64(self, key: str, value: int) -> None:
        self.put(key, struct.pack("<q", value))

    def get_i64(self, key: str) -> int:
        return struct.unpack("<q", self.get(key))[0]

    def put_f64(self, key: str, value: float) -> None:
        self.put(key, struct.pack("<d", value))

    def get_f64(self, key: str) -> float:
        return struct.unpack("<d", self.get(key))[0]

    def put_str(self, key: str, value: str) -> None:
        self.put(key, value.encode("utf-8"))

    def get_str(self, key: str) -> str:
        return str(self.get(key), "utf-8")

    def put_shape(self, key: str, shape: tuple[int, ...]) -> None:
        self.put(key, b"".join(write_varint(d) for d in (len(shape), *shape)))

    def get_shape(self, key: str) -> tuple[int, ...]:
        data = self.get(key)
        ndim, pos = read_varint(data)
        dims = []
        for _ in range(ndim):
            d, pos = read_varint(data, pos)
            dims.append(d)
        return tuple(dims)

    def put_dtype(self, key: str, dtype: np.dtype) -> None:
        name = np.dtype(dtype).name
        if name not in _DTYPE_TOKENS:
            raise ContainerError(f"unsupported dtype {name}")
        self.put(key, _DTYPE_TOKENS[name])

    def get_dtype(self, key: str) -> np.dtype:
        token = bytes(self.get(key))
        if token not in _TOKEN_DTYPES:
            raise ContainerError(f"unknown dtype token {token!r}")
        return _TOKEN_DTYPES[token]

    def put_array(self, key: str, arr: np.ndarray) -> None:
        """Store a 1-D array as dtype token + raw little-endian bytes."""
        arr = np.ascontiguousarray(arr)
        name = arr.dtype.name
        if name not in _DTYPE_TOKENS:
            raise ContainerError(f"unsupported dtype {name}")
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        self.put(key, _DTYPE_TOKENS[name] + le.tobytes())

    def get_array(self, key: str) -> np.ndarray:
        data = self.get(key)
        dtype = _TOKEN_DTYPES.get(bytes(data[:2]))
        if dtype is None:
            raise ContainerError(f"unknown dtype token {bytes(data[:2])!r}")
        if (len(data) - 2) % dtype.itemsize:
            raise ContainerError(f"section {key!r} is not a whole number of {dtype.name}s")
        return np.frombuffer(data[2:], dtype=dtype.newbyteorder("<")).astype(dtype)

    # -- checksums ---------------------------------------------------------

    @property
    def checksummed(self) -> bool:
        """True when this container carries (or will be written with) CRCs."""
        return self.version >= 2

    def stored_crc(self, data: bytes, key: str) -> int:
        """Section ``key``'s CRC as stored in ``data``, the v2+ bytes this
        container was parsed from."""
        return struct.unpack_from("<I", data, self.spans[key][2])[0]

    # -- serialization -----------------------------------------------------

    def to_bytes(self, version: int = _VERSION) -> bytes:
        """Serialize as container ``version`` (default: the current one).

        Version 1 is the legacy framing without CRCs.  Every later version
        checksums with its own CRC (:func:`checksum_for`), so a stream
        rewritten as its own version (a repair, a fault injector) keeps
        its polynomial.
        """
        t0 = time.perf_counter()
        if version not in _KNOWN_VERSIONS:
            raise ContainerError(f"unsupported container version {version}")
        parts = [_MAGIC, bytes([version])]
        codec = self.codec.encode("utf-8")
        parts.append(write_varint(len(codec)))
        parts.append(codec)
        parts.append(write_varint(len(self._sections)))
        if version >= 2:
            # The stream CRC is assembled incrementally: framing bytes are
            # hashed as they are emitted and each payload's own CRC (which
            # the format stores anyway) is folded in with the combine, so
            # payload bytes are read once, not twice -- and nested streams
            # not at all (put_nested).
            crc, combine, _ = checksum_for(version)
            stream_crc = crc(b"".join(parts))
            for key, payload in self._sections.items():
                k = key.encode("utf-8")
                head = b"".join(
                    (write_varint(len(k)), k, write_varint(len(payload)))
                )
                nested = self._nested.get(key)
                if nested is None:
                    sec_crc = crc(payload)
                else:
                    sec_crc = nested_crc(*nested, version=version)
                tail = struct.pack("<I", sec_crc)
                parts.extend((head, payload, tail))
                stream_crc = combine(crc(head, stream_crc), sec_crc, len(payload))
                stream_crc = crc(tail, stream_crc)
            parts.append(struct.pack("<I", stream_crc))
            blob = b"".join(parts)
        else:
            for key, payload in self._sections.items():
                k = key.encode("utf-8")
                parts.append(write_varint(len(k)))
                parts.append(k)
                parts.append(write_varint(len(payload)))
                parts.append(payload)
            blob = b"".join(parts)
        reg = _metrics()
        reg.counter("container.encode_s").inc(time.perf_counter() - t0)
        reg.counter("container.encode_bytes").inc(len(blob))
        return blob

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        verify_checksums: bool = True,
        partial: bool = False,
    ) -> "Container":
        """Parse container bytes.

        ``verify_checksums`` (default on) checks the whole-stream CRC of v2+
        streams before anything else, so any single corrupted bit raises
        :class:`ChecksumError` instead of decoding wrong data; v1 streams
        have no checksums and skip the check.  ``partial=True`` is the
        damage-tolerant mode used for recovery and inspection: checksums
        are not enforced, a structural defect is recorded in ``error``
        rather than raised, parsing keeps whatever sections (or section
        prefix) the bytes still contain, and a cut section is flagged in
        ``truncated_key``.  Only an unreadable header still raises.
        """
        version = _header_version(data)
        if version >= 2 and verify_checksums and not partial:
            if len(data) < 5 + _CRC_BYTES:
                raise TruncatedStreamError(
                    f"v{version} stream shorter than its CRC trailer"
                )
            t0 = time.perf_counter()
            (stored,) = struct.unpack("<I", data[-_CRC_BYTES:])
            actual = checksum_for(version).crc(data[:-_CRC_BYTES])
            reg = _metrics()
            reg.counter("crc.verify_s").inc(time.perf_counter() - t0)
            reg.counter("crc.bytes_verified").inc(len(data))
            reg.counter("crc.streams_verified").inc()
            if stored != actual:
                reg.counter("crc.failures").inc()
                from repro.observe.events import emit as _emit_event

                _emit_event(
                    "crc-failure",
                    stored=f"{stored:#010x}",
                    computed=f"{actual:#010x}",
                    nbytes=len(data),
                )
                raise ChecksumError(
                    f"stream checksum mismatch (corrupted or truncated bytes): "
                    f"stored {stored:#010x}, computed {actual:#010x}"
                )
        t0 = time.perf_counter()
        box = cls._parse_body(data, version, partial)
        reg = _metrics()
        reg.counter("container.decode_s").inc(time.perf_counter() - t0)
        reg.counter("container.decode_bytes").inc(len(data))
        return box

    @classmethod
    def _parse_body(cls, data: bytes, version: int, partial: bool) -> "Container":
        """Walk the framing after the 5-byte header, recording offsets.

        Complete v2+ streams end in a 4-byte stream CRC, so reads first stop
        there and a strict parse raises on the first defect.  ``partial``
        parses record that defect in ``error`` instead and re-read from the
        failing part against the whole buffer (the cut may fall anywhere),
        keeping every section -- or the prefix of a cut one -- the bytes
        still hold.
        """
        n = len(data)
        view = memoryview(data)
        trailer = _CRC_BYTES if version >= 2 else 0
        limit = n - trailer

        def header(end: int) -> tuple[str, int, int]:
            codec, pos = _read_codec(view, end)
            nsec, pos = _read_varint(view, pos, end)
            return codec, nsec, pos

        def section(pos: int, end: int) -> int:
            start = pos
            size, pos = _read_varint(view, pos, end)
            if pos + size > end:
                raise TruncatedStreamError("truncated section key")
            key = _read_text(view, pos, pos + size, "section key")
            size, pos = _read_varint(view, pos + size, end)
            stop = pos + size
            if key in out._sections:
                raise ContainerError(f"duplicate section {key!r}")
            cut = stop > end or stop + trailer > n
            if cut:
                exc = TruncatedStreamError(
                    f"truncated section {key!r}" if stop > end
                    else f"truncated checksum of {key!r}"
                )
                if not (partial and end == n):
                    raise exc
                out.error = out.error or exc
            out._sections[key] = data[pos:stop]
            out.spans[key] = (start, pos, stop)
            if cut:
                # Mid-write cut: keep the readable payload (prefix) so
                # chunk-level recovery can salvage what is intact.
                out.truncated_key = key
                return min(stop, n)
            return stop + trailer

        error: StreamError | None = None
        try:
            codec, nsec, pos = header(limit)
        except StreamError as exc:
            if not partial:
                raise
            error, limit = exc, n
            codec, nsec, pos = header(limit)
        out = cls(codec)
        out.version = version
        out.error = error
        out.header_end = pos
        done = 0
        while done < nsec and out.truncated_key is None:
            try:
                pos = section(pos, limit)
                done += 1
            except StreamError as exc:
                if not partial:
                    raise
                out.error = out.error or exc
                if limit == n:
                    out.cut = str(exc)
                    break
                limit = n  # re-read this section against the whole buffer
        else:
            if out.truncated_key is None and pos != n - trailer:
                exc = ContainerError(
                    f"{n - trailer - pos} trailing bytes after the last section"
                )
                if not partial:
                    raise exc
                out.error = out.error or exc
        out.end = pos
        return out

    @property
    def nbytes(self) -> int:
        """Serialized size in bytes."""
        return len(self.to_bytes())


def _header_version(data) -> int:
    """Version byte of a container; raises on a bad magic or version."""
    if len(data) < 5:
        if data[: len(data)] == _MAGIC[: len(data)]:
            raise TruncatedStreamError("stream shorter than the 5-byte header")
        raise ContainerError("bad magic: not a repro compressed stream")
    if data[:4] != _MAGIC:
        raise ContainerError("bad magic: not a repro compressed stream")
    if data[4] not in _KNOWN_VERSIONS:
        raise ContainerError(f"unsupported container version {data[4]}")
    return data[4]


def nested_crc(*streams: bytes, version: int) -> int:
    """CRC of the concatenated ``streams`` as it is when each is intact,
    under the CRC of a version-``version`` parent.

    A v2+ stream ends in the CRC of every byte before it, so an intact one
    whose version uses the parent's polynomial has the CRC residue as its
    own CRC and nothing is hashed.  Other streams -- without a trailer (v1,
    empty) or under the other polynomial (a v2-v4 child of a v5 parent) --
    are hashed in full.  The result matches the CRC of the actual bytes
    only when every residue-taken stream's trailer matches its body.
    """
    checksum = checksum_for(version)
    crc, combine, residue = checksum
    out = 0
    for blob in streams:
        if (
            len(blob) >= 5 + _CRC_BYTES
            and blob[:4] == _MAGIC
            and blob[4] >= 2
            and checksum_for(blob[4]) == checksum
        ):
            own = residue
        else:
            own = crc(blob)
        out = combine(out, own, len(blob))
    return out


def _read_varint(view: memoryview, pos: int, end: int) -> tuple[int, int]:
    """A framing varint at ``pos`` that must end by ``end`` (no copying)."""
    try:
        return read_varint(view[:end], pos)
    except ValueError as exc:
        raise TruncatedStreamError(str(exc)) from None


def _read_text(view: memoryview, start: int, stop: int, what: str) -> str:
    try:
        return str(view[start:stop], "utf-8")
    except UnicodeDecodeError as exc:
        raise ContainerError(f"corrupt {what}: {exc}") from None


def _read_codec(view: memoryview, end: int) -> tuple[str, int]:
    """Codec name after the 5-byte header, and the offset past it."""
    size, pos = _read_varint(view, 5, end)
    if not size:
        raise ContainerError("corrupt codec name: empty")
    if pos + size > end:
        raise TruncatedStreamError("truncated codec name")
    return _read_text(view, pos, pos + size, "codec name"), pos + size


def peek_codec(data: bytes) -> str:
    """Codec name from a container header, without parsing the body.

    Dispatchers use this to route a blob to its compressor; the
    compressor's own parse then does the full (checksummed) read, so
    peeking never skips verification -- it just avoids paying for the
    whole-stream CRC twice.
    """
    _header_version(data)
    return _read_codec(memoryview(data), len(data))[0]


def codec_of(data: bytes) -> str:
    """Codec name to dispatch ``data`` by, hashing nothing on a clean header.

    Peeks the header (:func:`peek_codec`).  When the header is too
    damaged to peek, falls back to the verifying parse, so a checksummed
    stream reports :class:`ChecksumError` rather than a misread header
    field.
    """
    try:
        return peek_codec(data)
    except StreamError:
        return Container.from_bytes(data).codec


def section_byte_ranges(data: bytes) -> dict[str, tuple[int, int]]:
    """Byte range ``[start, stop)`` of every section payload in ``data``.

    Fault injectors use this to aim corruption at a named section of a
    serialized stream.
    """
    box = Container.from_bytes(data, verify_checksums=False)
    return {key: (start, stop) for key, (_, start, stop) in box.spans.items()}
