"""Byte attribution: who owns each byte of a compressed stream.

:func:`attribute_bytes` decomposes any container into a tree of framing,
CRCs, Huffman table vs packed bits, quantizer escape/outlier streams,
safeguard patches, RS parity and chunk tables -- per section, per chunk
(nested containers, CHUNKED payloads and ARCHIVE fields recurse), per
stage, rendered from the stream model of
:func:`repro.inspection.inspect_stream` (:func:`attribute_model`).
Attribution is *exhaustive by construction*: the leaves of the returned
tree partition ``[0, len(blob))`` exactly, with damage or unknown regions
attributed to explicit ``damaged``/``unattributed`` leaves instead of
being skipped, and it never raises on corrupt input.

``info`` renders the tree alone and
:func:`repro.observe.quality.explain_stream` beside the error statistics.
It lives apart from those statistics so that ``info`` never imports the
error measurement they need.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ByteNode", "attribute_bytes", "attribute_model", "section_kind_map"]


@dataclass(frozen=True)
class ByteNode:
    """One node of the byte-attribution tree.

    ``[start, stop)`` are absolute offsets into the original stream.
    Leaves (no children) carry the attribution ``kind``; the leaves of any
    node partition its range exactly -- :meth:`check_exhaustive` enforces
    the invariant and the test matrix asserts it for every codec/version.
    """

    name: str
    kind: str
    start: int
    stop: int
    children: tuple["ByteNode", ...] = ()
    note: str | None = None

    @property
    def nbytes(self) -> int:
        return self.stop - self.start

    def leaves(self):
        if not self.children:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def kind_totals(self) -> dict[str, int]:
        """Bytes per leaf kind, descending."""
        totals: dict[str, int] = {}
        for leaf in self.leaves():
            totals[leaf.kind] = totals.get(leaf.kind, 0) + leaf.nbytes
        return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))

    def damage_notes(self) -> list[str]:
        """Human-readable notes from every damaged region (ordered)."""
        notes = []
        for node in self.walk():
            if node.kind == "damaged":
                what = node.note or "unreadable bytes"
                notes.append(f"{what} at bytes [{node.start}, {node.stop})")
            elif node.note and node is self and "missing" in node.note:
                notes.append(node.note)
        return notes

    def check_exhaustive(self) -> None:
        """Raise ValueError unless children exactly tile every node's range."""
        if self.stop < self.start:
            raise ValueError(f"{self.name}: negative range [{self.start}, {self.stop})")
        if not self.children:
            return
        cursor = self.start
        for child in self.children:
            if child.start != cursor:
                raise ValueError(
                    f"{self.name}: gap/overlap at {cursor} (child {child.name} "
                    f"starts at {child.start})"
                )
            child.check_exhaustive()
            cursor = child.stop
        if cursor != self.stop:
            raise ValueError(f"{self.name}: children end at {cursor}, node at {self.stop}")

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "stop": self.stop,
            "nbytes": self.nbytes,
        }
        if self.note:
            out["note"] = self.note
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def format(self, max_depth: int | None = None) -> str:
        """Indented tree rendering (sizes right-aligned)."""
        lines: list[str] = []

        def visit(node: "ByteNode", depth: int) -> None:
            note = f"  ({node.note})" if node.note else ""
            lines.append(f"{node.nbytes:>10,} B  {'  ' * depth}{node.name} [{node.kind}]{note}")
            if max_depth is not None and depth >= max_depth:
                return
            for child in node.children:
                visit(child, depth + 1)

        visit(self, 0)
        return "\n".join(lines)


def _leaf(name: str, kind: str, start: int, stop: int, note: str | None = None) -> ByteNode:
    return ByteNode(name, kind, start, stop, (), note)


def _tile(start: int, stop: int, children: list[ByteNode]) -> tuple[ByteNode, ...]:
    """Sort children and fill gaps so the result tiles ``[start, stop)``.

    Malformed children (out of range or overlapping) are dropped -- the
    filler then covers their bytes as ``unattributed`` -- so exhaustiveness
    holds even over corrupt geometry.
    """
    out: list[ByteNode] = []
    cursor = start
    for child in sorted(children, key=lambda c: (c.start, c.stop)):
        if child.start < cursor or child.stop > stop or child.stop < child.start:
            continue
        if child.start > cursor:
            out.append(_leaf("gap", "unattributed", cursor, child.start))
        out.append(child)
        cursor = child.stop
    if cursor < stop:
        out.append(_leaf("gap", "unattributed", cursor, stop))
    return tuple(out)


#: Attribution kind per known section key; anything absent is small typed
#: metadata.  Section *payload* bytes only -- framing and CRCs have their
#: own kinds.
_KEY_KINDS = {
    "payload": "payload",
    "inner": "payload",  # refined to a nested tree when it parses
    "codes": "entropy",  # refined into table/offsets/bits below
    "escq": "outliers",
    "patch_idx": "patch",
    "patch_val": "patch",
    "signs": "signs",
    "parity": "parity",
    "coeffs": "coefficients",
    "selector": "coefficients",
    "emax": "coefficients",
    "remainders": "coefficients",
    "classes": "coefficients",
    "eb_block": "coefficients",
    "offs": "chunk-table",
    "lens": "chunk-table",
    "elems": "chunk-table",
    "parity_lens": "chunk-table",
    "index": "chunk-table",
}


def _attr_entropy(pay, a: int, name: str, deflated: bool) -> ByteNode:
    """Split a Huffman blob into code-length table, chunk offsets, packed bits.

    ``pay`` is the section payload, which starts at absolute offset ``a``.
    """
    from repro.encoding.codecs import read_varint

    b = a + len(pay)
    if deflated:
        return _leaf(name, "entropy", a, b, "whole-stream deflated (stage-3 recompression)")
    try:
        _nsym, p = read_varint(pay)
        _cs, p = read_varint(pay, p)
        sz, p = read_varint(pay, p)
        table_end = p + sz
        if table_end > len(pay):
            raise ValueError("truncated code-length table")
    except ValueError as exc:
        return _leaf(name, "entropy", a, b, f"unparsed entropy stream: {exc}")
    kids = [_leaf(f"{name}.table", "entropy-table", a, a + table_end)]
    if table_end < len(pay):
        try:
            osz, p = read_varint(pay, table_end)
            offs_end = p + osz
            if offs_end > len(pay):
                raise ValueError("truncated chunk offsets")
            kids.append(_leaf(f"{name}.offsets", "chunk-table", a + table_end, a + offs_end))
            kids.append(_leaf(f"{name}.bits", "entropy-payload", a + offs_end, b))
        except ValueError as exc:
            kids.append(_leaf(f"{name}.bits", "entropy-payload", a + table_end, b, str(exc)))
    return ByteNode(name, "entropy", a, b, _tile(a, b, kids))


def _attr_parity(model, a: int, b: int) -> ByteNode:
    """Split the RS parity section into per-group, per-block leaves."""
    geo = model.parity
    if geo is None:  # corrupt geometry degrades, never raises
        return _leaf("parity", "parity", a, b, "parity geometry unreadable")
    expect = int(geo.k * geo.lens.sum())
    if expect != b - a:
        return _leaf(
            "parity", "parity", a, b,
            f"parity section holds {b - a} bytes, geometry needs {expect}",
        )
    groups = []
    for g, blocks in enumerate(geo.spans()):
        ga, gb = a + blocks[0][0], a + blocks[-1][1]
        kids = [
            _leaf(f"parity[{g}].block[{j}]", "parity", a + s, a + e)
            for j, (s, e) in enumerate(blocks)
        ]
        groups.append(ByteNode(f"parity[{g}]", "parity", ga, gb, _tile(ga, gb, kids)))
    return ByteNode("parity", "parity", a, b, _tile(a, b, groups))


def _attr_payload(model, sec, off: int) -> ByteNode:
    """Attribute one complete section payload of ``model``."""
    a, b = off + sec.payload_start, off + sec.payload_stop
    if sec.child is not None:
        return attribute_model(sec.child, off)
    if sec.key == "codes":
        deflated = model.meta("stage3") == 1
        return _attr_entropy(model.box.get("codes"), a, "codes", deflated)
    if model.codec == "CHUNKED" and sec.key == "payload":
        if model.table is None:
            return _leaf("payload", "payload", a, b, "chunk table unreadable")
        kids = []
        for chunk in model.chunks:
            if chunk is None:
                break
            kids.append(attribute_model(chunk, off))
        return ByteNode("payload", "chunks", a, b, _tile(a, b, kids))
    if model.codec == "CHUNKED" and sec.key == "parity":
        return _attr_parity(model, a, b)
    return _leaf(sec.key, _KEY_KINDS.get(sec.key, "metadata"), a, b)


def attribute_model(model, offset: int = 0, name: str | None = None) -> ByteNode:
    """Byte-attribution tree of an inspected stream (see :func:`attribute_bytes`).

    ``model`` is a :class:`repro.inspection.StreamModel`; ``offset``
    shifts all coordinates and ``name`` renames the root.
    """
    name = name or model.name
    start, end = offset + model.start, offset + model.stop
    n = model.nbytes
    if n == 0:
        return ByteNode(name, "damaged", start, end, (), "empty stream")
    if model.version is None:  # magic or version rejected
        return ByteNode(name, "damaged", start, end, (), str(model.header_error))
    children: list[ByteNode] = []

    def finish(note: str | None = None) -> ByteNode:
        return ByteNode(name, "container", start, end, _tile(start, end, children), note)

    def bail(pos: int, why: str) -> ByteNode:
        children.append(_leaf("unparsed", "damaged", pos, end, why))
        return finish()

    box = model.box
    if box is None:
        children.append(_leaf("header", "framing", start, start + 5))
        return bail(start + 5, f"truncated header: {model.header_error}")
    children.append(
        _leaf("header", "framing", start, start + box.header_end,
              f"magic+version+codec({model.codec})+nsec")
    )
    crc = 4 if model.checksummed else 0
    for sec in model.sections:
        s, ps, pe = offset + sec.start, offset + sec.payload_start, offset + sec.payload_stop
        frame = _leaf(f"{sec.key}.frame", "framing", s, ps)
        if sec.declared_stop > sec.payload_stop:
            children.append(frame)
            return bail(ps, f"truncated section {sec.key!r} payload")
        kids = [frame, _attr_payload(model, sec, offset)]
        if sec.key == box.truncated_key:
            children.append(ByteNode(sec.key, "section", s, pe, _tile(s, pe, kids)))
            return bail(pe, f"truncated checksum of section {sec.key!r}")
        if crc:
            kids.append(_leaf(f"{sec.key}.crc", "checksum", pe, pe + crc))
        children.append(ByteNode(sec.key, "section", s, pe + crc, _tile(s, pe + crc, kids)))
    pos = start + box.end
    if box.cut is not None:
        return bail(pos, f"truncated section header: {box.cut}")
    note = None
    if crc:
        if end - pos == crc:
            children.append(_leaf("stream.crc", "checksum", pos, end))
            pos = end
        elif pos == end:
            note = "missing stream CRC trailer (truncated)"
        elif end - pos < crc:
            children.append(_leaf("stream.crc", "damaged", pos, end, "truncated stream CRC trailer"))
            pos = end
    if pos != end:
        children.append(
            _leaf("trailing", "damaged", pos, end, f"{end - pos} unexpected trailing bytes")
        )
    return finish(note)


def attribute_bytes(blob: bytes, offset: int = 0, name: str = "stream") -> ByteNode:
    """Decompose container bytes into an exhaustive byte-attribution tree.

    Renders :func:`repro.inspection.inspect_stream`, so it works on streams
    :class:`Container` would reject.  Never raises: structurally unreadable
    regions become ``damaged`` leaves and the tree still tiles ``[0,
    len(blob))`` exactly.  ``offset`` shifts all coordinates.
    """
    from repro.inspection import inspect_stream

    return attribute_model(inspect_stream(blob), offset, name)


def section_kind_map(tree: ByteNode) -> dict[str, str]:
    """Dominant payload kind per top-level section of an attribution tree.

    Framing and checksum bytes are excluded so the answer is "what the
    section's payload actually is" (``repro info``/``repro stats`` print
    it next to the section sizes).
    """
    out: dict[str, str] = {}
    for child in tree.children:
        if child.kind != "section":
            continue
        weights: dict[str, int] = {}
        for leaf in child.leaves():
            if leaf.kind not in ("framing", "checksum"):
                weights[leaf.kind] = weights.get(leaf.kind, 0) + leaf.nbytes
        if weights:
            out[child.name] = max(weights, key=weights.get)  # type: ignore[arg-type]
    return out
