"""Stream verification and repair: ``verify_stream`` / ``repair_stream``.

``verify_stream`` answers "are these bytes trustworthy?" cheaply:
structure, the stream CRC, every per-section CRC, CHUNKED chunk-table
consistency (including the parity geometry), and a recursive pass over
the per-chunk / per-field sub-streams -- all without running any decoder.
This is what ``repro-compress verify`` runs, and what an HPC restart
path would run on every rank file before committing to a load.

``repair_stream`` goes one step further on parity-bearing CHUNKED
streams: chunks whose bytes fail their own checksums -- or are missing
outright after a truncation -- are rebuilt byte-exactly from the
surviving members of their Reed-Solomon parity group, and a fully
re-serialized stream plus a per-chunk :class:`RepairReport` comes back.

Verification never raises on bad bytes: every defect becomes an entry in
the returned :class:`VerifyReport`.  Repair raises :class:`StreamError`
only when the stream's geometry (codec, chunk table, parity table) is
itself unreadable -- without it there is nothing to repair against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.chunk_table import chunked_meta_box
from repro.encoding.container import Container, ContainerError
from repro.encoding.rs import InsufficientParityError, decode_blocks, encode_parity
from repro.inspection import StreamModel, inspect_stream
from repro.observe.events import emit as emit_event
from repro.observe.metrics import metrics
from repro.observe.tracer import span

__all__ = [
    "ChunkRepair",
    "RepairReport",
    "VerifyReport",
    "repair_stream",
    "verify_stream",
]

#: Parity metadata (the ``parity`` payload itself may be damaged --
#: rebuilt chunks are validated by their own stream CRCs instead).
_PARITY_META = ("parity_k", "group_size", "parity_lens")


@dataclass
class VerifyReport:
    """Everything ``verify_stream`` learned about one byte stream.

    ``problems`` is the authoritative verdict: empty means every check
    passed.  ``checksummed`` is False for v1 streams, whose integrity
    cannot be vouched for -- that is reported as a note, not a problem.
    """

    nbytes: int
    codec: str | None = None
    version: int | None = None
    checksummed: bool = False
    n_sections: int = 0
    n_chunks: int | None = None
    problems: tuple[str, ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        head = (
            f"{self.codec or '?'} v{self.version or '?'} stream, "
            f"{self.nbytes} bytes, {self.n_sections} sections"
        )
        if self.n_chunks is not None:
            head += f", {self.n_chunks} chunks"
        if self.ok:
            verdict = "OK" if self.checksummed else "OK (v1: no checksums to verify)"
            return f"{head}: {verdict}"
        return f"{head}: {len(self.problems)} problem(s)\n" + "\n".join(
            f"  - {p}" for p in self.problems
        )


def verify_stream(blob: bytes) -> VerifyReport:
    """Verify structure and checksums of ``blob`` without decompressing.

    Checks, in order: container framing parses; the whole-stream CRC
    matches; every per-section CRC matches; for ``CHUNKED`` streams the
    chunk table is self-consistent, every per-chunk sub-stream verifies in
    turn and the parity matches a re-encode; for ``ARCHIVE`` streams every
    field's sub-stream verifies.  A rendering of
    :func:`repro.inspection.inspect_stream`.
    """
    model = inspect_stream(blob)
    report = VerifyReport(nbytes=len(blob), problems=model.problems, notes=model.notes)
    if model.error is None:
        report.codec = model.codec
        report.version = model.version
        report.checksummed = model.checksummed
        report.n_sections = len(model.sections)
        if model.codec == "CHUNKED":
            report.n_chunks = model.meta("n_chunks")
    return report


# -- repair ------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkRepair:
    """Outcome for one damaged chunk of a repaired stream.

    ``outcome`` is ``"repaired"`` (rebuilt byte-exactly from parity) or
    ``"lost"`` (more damage in the group than the parity covers, or the
    rebuilt bytes failed their own checksum); ``error`` is what was wrong
    with the original chunk bytes.
    """

    index: int
    outcome: str
    error: str

    def to_dict(self) -> dict:
        return {"index": self.index, "outcome": self.outcome, "error": self.error}


@dataclass
class RepairReport:
    """Everything :func:`repair_stream` did to one byte stream.

    ``chunks`` lists only the *damaged* chunks; intact ones do not
    appear.  ``ok`` means every damaged chunk was rebuilt -- the returned
    stream is then byte-for-byte the original (parity damage included,
    since parity is deterministically re-encoded from the final chunks).
    """

    nbytes: int
    n_chunks: int
    parity_k: int
    group_size: int
    chunks: tuple[ChunkRepair, ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def repaired(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.chunks if c.outcome == "repaired")

    @property
    def lost(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.chunks if c.outcome == "lost")

    @property
    def n_damaged(self) -> int:
        return len(self.chunks)

    @property
    def n_repaired(self) -> int:
        return len(self.repaired)

    @property
    def n_lost(self) -> int:
        return len(self.lost)

    @property
    def ok(self) -> bool:
        return not self.lost

    def to_dict(self) -> dict:
        return {
            "nbytes": self.nbytes,
            "n_chunks": self.n_chunks,
            "parity_k": self.parity_k,
            "group_size": self.group_size,
            "n_damaged": self.n_damaged,
            "n_repaired": self.n_repaired,
            "n_lost": self.n_lost,
            "ok": self.ok,
            "chunks": [c.to_dict() for c in self.chunks],
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        head = (
            f"{self.n_chunks} chunks, k={self.parity_k} parity "
            f"per group of {self.group_size}"
        )
        if not self.chunks:
            return f"{head}: no damaged chunks"
        verdict = f"rebuilt {self.n_repaired}/{self.n_damaged} damaged chunk(s)"
        if self.lost:
            verdict += " -- lost " + ", ".join(
                f"chunk {c.index} ({c.error})" for c in self.chunks if c.outcome == "lost"
            )
        return f"{head}: {verdict}"


def _rebuild_group(
    group: list[bytes | None],
    parity: list[bytes | None],
    glens: list[int],
) -> dict[int, bytes] | None:
    """Rebuild a group's missing blocks, or None when the parity cannot.

    Tries every combination of the surviving parity blocks and accepts
    the first whose rebuilt chunks all pass their own stream checksums --
    so a silently-corrupted parity block (whole-section CRC can't say
    which block) costs attempts, never correctness.
    """
    missing = [i for i, b in enumerate(group) if b is None]
    have = [j for j, p in enumerate(parity) if p is not None]
    if len(missing) > len(have):
        return None
    for sel in combinations(have, len(missing)):
        chosen = [p if j in sel else None for j, p in enumerate(parity)]
        try:
            rebuilt = decode_blocks(group, chosen, glens)
        except (InsufficientParityError, ValueError):
            continue
        out = {i: rebuilt[i] for i in missing}
        if all(inspect_stream(b).damage() is None for b in out.values()):
            return out
    return None


def repair_stream(blob: bytes) -> tuple[bytes, RepairReport]:
    """Rebuild the damaged chunks of a parity-bearing CHUNKED stream.

    Returns ``(repaired_bytes, report)``.  When ``report.ok`` the
    repaired bytes are byte-for-byte the originally written stream
    (verified by re-serializing with fresh CRCs -- identical input bytes
    give an identical stream CRC); chunks beyond the parity's reach keep
    their damaged/zero-padded bytes so partial recovery can still skip
    just them.  Raises :class:`StreamError` when the stream is not a
    parity-bearing CHUNKED record or its geometry is unreadable.
    """
    with span("repair-stream", nbytes=len(blob)):
        model = inspect_stream(blob)
        chunks, report = _rebuild_chunks(model)
        box = model.box
        k, m, plens = model.parity
        # Reassemble in the canonical section order, copying metadata
        # section bytes verbatim.  With every chunk recovered the parity is
        # re-encoded (deterministic, so it equals -- and if damaged, heals
        # -- the original); with losses the original parity bytes are kept
        # so a later, better-informed repair loses nothing.
        out = Container(box.codec)
        for key in box.keys():
            if key not in ("parity", "payload"):
                out.put(key, box.get(key))
        if report.ok and chunks:
            parity_out = b"".join(
                b"".join(encode_parity(chunks[g : g + m], k)) for g in range(0, len(chunks), m)
            )
        else:
            pbytes = box.get("parity") if "parity" in box else b""
            parity_out = bytes(pbytes).ljust(int(k * plens.sum()), b"\0")
        out.put("parity", parity_out)
        # Each chunk's CRC comes from its own trailer: byte-identical to a
        # fresh hash when every chunk is whole, while a lost chunk's kept
        # bytes disagree with it, so the output still fails verification as
        # a damaged stream (strict decoders trust chunks the outer CRC covers).
        # The input's own version keeps its polynomial, so a repaired legacy
        # stream is byte-identical to the one originally written.
        out.put_nested("payload", *chunks)
        return out.to_bytes(version=box.version), report


def _rebuild_chunks(model: StreamModel) -> tuple[list[bytes], RepairReport]:
    """Every chunk of an inspected parity-bearing stream, rebuilt where its
    group's parity reaches, else damaged and zero-padded to its table
    length: the one repair behind :func:`repair_stream` and recovery.
    Raises as :func:`repair_stream` does."""
    t0 = time.perf_counter()
    box = chunked_meta_box(model, "; only CHUNKED streams carry parity", _PARITY_META)
    if "parity_k" not in box:
        raise ContainerError("stream carries no parity sections")
    if model.table is None:
        raise model.table_error
    if model.parity is None:
        raise model.parity_error
    offs, lens, _ = model.table
    m = model.parity.group_size
    n = int(lens.size)
    payload = box.get("payload") if "payload" in box else b""
    pbytes = box.get("parity") if "parity" in box else b""

    # Classify every chunk by its own bytes: present + checksum-clean, or
    # damaged (corrupt or truncated).  ``raw`` keeps the damaged bytes,
    # zero-padded to table length, for chunks nothing can rebuild.
    chunks: list[bytes | None] = []
    raw: list[bytes] = []
    damage: dict[int, str] = {}
    for i, (o, ln) in enumerate(zip(offs.tolist(), lens.tolist())):
        piece = bytes(payload[o : o + ln])
        raw.append(piece.ljust(ln, b"\0"))
        if len(piece) < ln:
            damage[i] = "chunk bytes missing (truncated payload)"
            chunks.append(None)
        elif model.chunks[i] is not None and model.chunks[i].damage() is None:
            chunks.append(piece)
        else:
            damage[i] = "chunk stream failed verification"
            chunks.append(None)

    # Per-group parity blocks; anything not fully present counts as one
    # more erasure.
    group_parity = model.parity.blocks(pbytes)

    repairs: list[ChunkRepair] = []
    for g in range(len(group_parity)):
        idx = list(range(g * m, min((g + 1) * m, n)))
        missing = [i for i in idx if chunks[i] is None]
        if not missing:
            continue
        rebuilt = _rebuild_group(
            [chunks[i] for i in idx], group_parity[g], [int(lens[i]) for i in idx]
        )
        for i in missing:
            if rebuilt is not None:
                chunks[i] = rebuilt[i - g * m]
                repairs.append(ChunkRepair(i, "repaired", damage[i]))
                emit_event("chunk-repair", index=i, group=g, error=damage[i])
            else:
                repairs.append(ChunkRepair(i, "lost", damage[i]))

    report = RepairReport(
        nbytes=model.nbytes,
        n_chunks=n,
        parity_k=model.parity.k,
        group_size=m,
        chunks=tuple(repairs),
    )
    reg = metrics()
    reg.counter("parity.decode_s").inc(time.perf_counter() - t0)
    reg.counter("repair.streams").inc()
    reg.counter("repair.chunks_repaired").inc(report.n_repaired)
    reg.counter("repair.chunks_lost").inc(report.n_lost)
    emit_event(
        "repair-stream",
        nbytes=model.nbytes,
        n_chunks=n,
        n_damaged=report.n_damaged,
        n_repaired=report.n_repaired,
        n_lost=report.n_lost,
        ok=report.ok,
    )
    return [c if c is not None else raw[i] for i, c in enumerate(chunks)], report
