"""Write-ahead job journal for crash-safe, resumable compression jobs.

A journal is a directory next to the job's output::

    out.rpz.journal/
        manifest.jsonl      # append-only: job header, chunk records, commit
        chunk_00000.bin     # finished per-chunk streams (atomic writes)
        chunk_00001.bin
        ...

Durability discipline (the invariants the chaos harness enumerates):

* every ``chunk_<i>.bin`` is written with
  :func:`~repro.parallel.runner.atomic_write_bytes` (temp + fsync +
  rename + parent-dir fsync) *before* its manifest record is appended,
  so a manifest record implies a durable, complete part file;
* manifest appends are flushed and fsynced once per wave of chunks, so a
  kill can tear at most the final line -- the reader ignores a torn tail;
* the ``commit`` record is appended only after the final container has
  been atomically renamed into place, so "commit present" implies "output
  durable".

A job killed at *any* instruction therefore leaves either (a) no journal,
(b) a journal whose recorded chunks are all valid, or (c) a committed
journal plus the finished output -- and ``repro-compress resume`` handles
all three.  Chunk records carry the blob's CRC-32C; resume re-validates
every part file and silently re-does any that fail, so even torn part
files (impossible under POSIX rename semantics, cheap to tolerate
anyway) only cost time, never correctness.
"""

from __future__ import annotations

import json
import os
import shutil

from repro.encoding.crc import crc32c
from repro.parallel.runner import _fsync_parent_dir, atomic_write_bytes
from repro.resilience.crashpoints import reach
from repro.resilience.policy import JournalError

__all__ = ["JobJournal"]

MANIFEST = "manifest.jsonl"


def _part_name(index: int) -> str:
    return f"chunk_{index:05d}.bin"


class JobJournal:
    """One resumable job's write-ahead journal (see module docstring)."""

    def __init__(self, root: str, header: dict, chunks: dict[int, dict],
                 committed: bool) -> None:
        self.root = root
        self.header = header
        self.chunks = chunks
        self.committed = committed

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, root: str, header: dict) -> "JobJournal":
        """Start a fresh journal at ``root`` with a durable job header."""
        if os.path.exists(os.path.join(root, MANIFEST)):
            raise JournalError(
                f"journal already exists at {root!r}; resume it or remove it"
            )
        os.makedirs(root, exist_ok=True)
        journal = cls(root, dict(header), {}, committed=False)
        journal._append([{"rec": "job", **header}])
        _fsync_parent_dir(root)
        reach("journal.created", root=root)
        return journal

    @classmethod
    def open(cls, root: str) -> "JobJournal":
        """Load a journal from disk, tolerating a torn trailing line."""
        path = os.path.join(root, MANIFEST)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise JournalError(f"no readable journal at {root!r}: {exc}") from None
        records: list[dict] = []
        lines = raw.split(b"\n")
        for pos, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except (ValueError, UnicodeDecodeError):
                if pos >= len(lines) - 2:
                    break  # torn tail from a mid-append kill: ignore
                raise JournalError(
                    f"journal {root!r} is corrupt at line {pos + 1}"
                ) from None
        if not records or records[0].get("rec") != "job":
            raise JournalError(f"journal {root!r} has no job header")
        header = {k: v for k, v in records[0].items() if k != "rec"}
        chunks: dict[int, dict] = {}
        committed = False
        for rec in records[1:]:
            kind = rec.get("rec")
            if kind == "chunk":
                chunks[int(rec["index"])] = rec
            elif kind == "commit":
                committed = True
        return cls(root, header, chunks, committed)

    def remove(self) -> None:
        """Delete the journal directory (after a durable commit)."""
        reach("journal.cleanup", root=self.root)
        shutil.rmtree(self.root, ignore_errors=True)

    # -- appends -------------------------------------------------------------

    def _append(self, records: list[dict]) -> None:
        text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
        with open(os.path.join(self.root, MANIFEST), "ab") as fh:
            fh.write(text.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def record_chunks(self, items: list[tuple[int, bytes]]) -> None:
        """Persist a wave of finished chunks: part files, then one fsynced
        batch of manifest records."""
        records = []
        for index, blob in items:
            atomic_write_bytes(os.path.join(self.root, _part_name(index)), blob)
            reach("journal.part-written", index=index)
            records.append({
                "rec": "chunk",
                "index": int(index),
                "len": len(blob),
                "crc": crc32c(blob),
            })
        if not records:
            return
        self._append(records)
        reach("journal.chunks-recorded", count=len(records))
        for rec in records:
            self.chunks[int(rec["index"])] = rec

    def record_commit(self, **info) -> None:
        """Mark the job complete (call only after the output is durable)."""
        self._append([{"rec": "commit", **info}])
        self.committed = True
        reach("journal.commit-recorded", root=self.root)

    # -- reads ---------------------------------------------------------------

    def chunk_blob(self, index: int) -> bytes | None:
        """The recorded chunk's bytes, or None when absent or invalid.

        A part file that is missing, short, or fails its recorded CRC is
        treated exactly like an unfinished chunk: the caller re-does it.
        """
        rec = self.chunks.get(index)
        if rec is None:
            return None
        try:
            with open(os.path.join(self.root, _part_name(index)), "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if len(blob) != rec.get("len") or crc32c(blob) != rec.get("crc"):
            return None
        return blob

    def finished(self, n_chunks: int) -> list[int]:
        """Indices whose part files are present and valid."""
        return [i for i in range(n_chunks) if self.chunk_blob(i) is not None]
