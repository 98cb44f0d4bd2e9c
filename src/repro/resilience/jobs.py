"""Crash-safe compression/decompression jobs over the write-ahead journal.

:func:`run_compress_job` and :func:`run_decompress_job` execute the same
work the plain APIs do, but journal every finished chunk
(:class:`~repro.resilience.journal.JobJournal`), so a job killed at any
instruction can be finished by :func:`resume_job` -- re-doing only the
chunks the journal has no valid record for.  The final container is
assembled by the *same* :meth:`ChunkedCompressor._assemble
<repro.core.chunked.ChunkedCompressor>` path the one-shot API uses, so an
interrupted-and-resumed job produces bytes identical to an uninterrupted
run -- the invariant the chaos harness (:mod:`repro.testing.chaos`)
enumerates kill points against.

The journal header records everything needed to rebuild the job --
compressor name, safeguard specs, degradation ladder, resilience policy,
chunk geometry, bound, and an input-file fingerprint -- so ``resume``
needs only the journal directory.
"""

from __future__ import annotations

import io as _io
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.compressors.base import (
    AbsoluteBound,
    ErrorBound,
    PrecisionBound,
    RelativeBound,
    get_compressor,
)
from repro.data.io import load_array
from repro.encoding.crc import crc32c
from repro.parallel.runner import atomic_write_bytes
from repro.resilience.crashpoints import reach
from repro.resilience.journal import JobJournal
from repro.resilience.ladder import DegradationLadder
from repro.resilience.policy import JournalError, as_policy

__all__ = [
    "JobResult",
    "build_job_compressor",
    "run_compress_job",
    "run_decompress_job",
    "resume_job",
]

_BOUND_KINDS = {"rel": RelativeBound, "abs": AbsoluteBound, "prec": PrecisionBound}


def _bound_to_dict(bound: ErrorBound) -> dict:
    return {"kind": bound.kind, "value": float(bound.value)}


def _bound_from_dict(spec: dict) -> ErrorBound:
    try:
        return _BOUND_KINDS[spec["kind"]](spec["value"])
    except (KeyError, TypeError) as exc:
        raise JournalError(f"journal records an unusable bound {spec!r}: {exc}") from None


def _fingerprint(path: str) -> dict:
    """Cheap input identity: size plus CRC of the first metabyte.

    Enough to catch "resumed against a different file" (the overwhelmingly
    common operator error) without re-hashing terabytes on resume.
    """
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        head = fh.read(1 << 20)
    return {"size": size, "crc": crc32c(head)}


@dataclass(frozen=True)
class JobResult:
    """Outcome of a (possibly resumed) journaled job."""

    output: str
    nbytes: int
    n_chunks: int
    #: Chunks actually (re)compressed by this invocation; the rest came
    #: straight from the journal.
    redone: int
    resumed: bool = False

    def summary(self) -> str:
        skipped = self.n_chunks - self.redone
        how = "resumed" if self.resumed else "completed"
        reuse = f", {skipped} reused from journal" if skipped else ""
        return (
            f"{how}: {self.n_chunks} chunks ({self.redone} compressed{reuse}) "
            f"-> {self.output} ({self.nbytes} bytes)"
        )


def _wrapped_compressor(name: str, safeguards=None, ladder=None):
    """``(compressor, label)``: codec ``name`` inside its safeguards, then
    its ladder -- the one wrapping of every CLI compress and journaled job."""
    inner = get_compressor(name)
    label = name
    if safeguards:
        from repro.safeguards import SafeguardedCompressor

        inner = SafeguardedCompressor(inner, list(safeguards))
        label = f"SAFE({label}; {'; '.join(safeguards)})"
    if ladder:
        inner = DegradationLadder.with_fallbacks(inner, [str(r) for r in ladder])
        label = ">".join([label, *inner.rung_names[1:]])
    return inner, label


def build_job_compressor(header: dict):
    """(ChunkedCompressor, inner label) for a job header's specs.

    Shared by the CLI's journaled ``compress`` and by ``resume``, so the
    two construct byte-identically configured pipelines from one source
    of truth.
    """
    from repro.core.chunked import ChunkedCompressor

    inner, label = _wrapped_compressor(
        str(header.get("compressor", "SZ_T")), header.get("safeguards"), header.get("ladder")
    )
    kwargs = {}
    for key in ("chunk_bytes", "workers", "parity", "group_size", "executor"):
        if header.get(key) is not None:
            kwargs[key] = header[key]
    policy = as_policy(header.get("policy"))
    if policy.chunk_timeout_s is None and header.get("chunk_timeout") is not None:
        # Journals started with the retired --chunk-timeout flag keep the
        # watchdog deadline in a header key of its own; resume with it.
        policy = replace(policy, chunk_timeout_s=float(header["chunk_timeout"]))
    return ChunkedCompressor(inner, policy=policy, **kwargs), label


def _waves(indices: list[int], width: int):
    width = max(int(width), 1)
    for start in range(0, len(indices), width):
        yield indices[start : start + width]


# -- compress ----------------------------------------------------------------


def run_compress_job(
    input_path: str,
    output_path: str,
    bound: ErrorBound,
    journal_dir: str | None = None,
    shape: tuple[int, ...] | None = None,
    dtype: str = "float32",
    **spec,
) -> JobResult:
    """Journaled compress of ``input_path`` into ``output_path``.

    ``spec`` carries the pipeline description
    (``compressor``/``safeguards``/``ladder``/``policy`` and the chunked
    knobs -- see :func:`build_job_compressor`); everything lands in the
    journal header so :func:`resume_job` can rebuild the identical
    pipeline.  The journal defaults to ``<output>.journal`` and is
    removed after a durable commit.
    """
    if "chunk_timeout" in spec:
        raise TypeError(
            "chunk_timeout is no longer a job setting; "
            'pass policy="chunk-timeout=S" instead'
        )
    journal_dir = journal_dir or output_path + ".journal"
    header = {
        "kind": "compress",
        "input": os.path.abspath(input_path),
        "output": os.path.abspath(output_path),
        "shape": list(shape) if shape else None,
        "dtype": dtype,
        "bound": _bound_to_dict(bound),
        "fingerprint": _fingerprint(input_path),
        **{k: v for k, v in spec.items() if v is not None},
    }
    journal = JobJournal.create(journal_dir, header)
    return _finish_compress(journal, resumed=False)


def _finish_compress(journal: JobJournal, resumed: bool) -> JobResult:
    header = journal.header
    out_path = header["output"]
    if journal.committed and os.path.exists(out_path):
        journal.remove()
        return JobResult(out_path, os.path.getsize(out_path), len(journal.chunks),
                         redone=0, resumed=resumed)
    chunked, _label = build_job_compressor(header)
    shape = tuple(header["shape"]) if header.get("shape") else None
    data = load_array(header["input"], shape, np.dtype(header.get("dtype", "float32")))
    bound = _bound_from_dict(header["bound"])
    data, chunks = chunked._checked_chunks(data, bound)
    deadline = chunked._deadline()
    n = len(chunks)
    pending = [i for i in range(n) if journal.chunk_blob(i) is None]
    for wave in _waves(pending, chunked.workers):
        blobs, _ = chunked._run_chunks(
            [chunks[i] for i in wave], bound, False, deadline, indices=wave
        )
        journal.record_chunks(list(zip(wave, blobs)))
    blobs = []
    for i in range(n):
        blob = journal.chunk_blob(i)
        if blob is None:  # pragma: no cover - record_chunks just wrote it
            raise JournalError(f"chunk {i} missing from journal after compress")
        blobs.append(blob)
    stream = chunked._assemble(data, chunks, blobs)
    reach("job.assembled", nbytes=len(stream))
    atomic_write_bytes(out_path, stream)
    reach("job.output-written", path=out_path)
    journal.record_commit(nbytes=len(stream), crc=crc32c(stream))
    journal.remove()
    return JobResult(out_path, len(stream), n, redone=len(pending), resumed=resumed)


# -- decompress --------------------------------------------------------------


def _decompress_chunk_bytes(blob: bytes, dtype: str, trusted: bool) -> bytes:
    """Module-level so process-pool workers can unpickle the task."""
    from repro.core.chunked import _decompress_chunk

    return _decompress_chunk(blob, trusted).ravel().astype(np.dtype(dtype), copy=False).tobytes()


def run_decompress_job(
    input_path: str,
    output_path: str,
    journal_dir: str | None = None,
    workers: int | None = None,
) -> JobResult:
    """Journaled decompress of a (CHUNKED or monolithic) stream."""
    journal_dir = journal_dir or output_path + ".journal"
    header = {
        "kind": "decompress",
        "input": os.path.abspath(input_path),
        "output": os.path.abspath(output_path),
        "fingerprint": _fingerprint(input_path),
    }
    if workers is not None:
        header["workers"] = workers
    journal = JobJournal.create(journal_dir, header)
    return _finish_decompress(journal, resumed=False)


def _finish_decompress(journal: JobJournal, resumed: bool) -> JobResult:
    from repro.core.chunked import ChunkedCompressor, _check_chunk_sizes
    from repro.encoding.container import peek_codec

    header = journal.header
    out_path = header["output"]
    if journal.committed and os.path.exists(out_path):
        journal.remove()
        return JobResult(out_path, os.path.getsize(out_path), len(journal.chunks),
                         redone=0, resumed=resumed)
    with open(header["input"], "rb") as fh:
        stream = fh.read()
    if peek_codec(stream) != "CHUNKED":
        from repro import decompress

        recon = decompress(stream)
        _write_array_atomic(out_path, recon)
        journal.record_commit(nbytes=recon.nbytes)
        journal.remove()
        return JobResult(out_path, recon.nbytes, 1, redone=1, resumed=resumed)
    # decompress's reader and size check: the same chunks trusted and rejected.
    shape, dtype, chunk_blobs, elems, trusted = ChunkedCompressor._read_chunks(stream)
    n = len(chunk_blobs)
    chunked = ChunkedCompressor(
        executor="thread", workers=int(header.get("workers") or 1)
    )
    pending = [i for i in range(n) if journal.chunk_blob(i) is None]
    for wave in _waves(pending, chunked.workers):
        parts, _ = chunked._map(
            _decompress_chunk_bytes,
            [(chunk_blobs[i], dtype.name, trusted) for i in wave],
            deadline=None,
        )
        journal.record_chunks(list(zip(wave, parts)))
    parts = [journal.chunk_blob(i) for i in range(n)]
    _check_chunk_sizes([len(p) // dtype.itemsize for p in parts], elems)
    recon = np.frombuffer(b"".join(parts), dtype=dtype).reshape(shape)
    reach("job.assembled", nbytes=recon.nbytes)
    _write_array_atomic(out_path, recon)
    reach("job.output-written", path=out_path)
    journal.record_commit(nbytes=recon.nbytes)
    journal.remove()
    return JobResult(out_path, recon.nbytes, n, redone=len(pending), resumed=resumed)


def _write_array_atomic(path: str, data: np.ndarray) -> None:
    """``save_array`` semantics through the atomic temp+rename+fsync path."""
    if path.endswith(".npy"):
        buf = _io.BytesIO()
        np.save(buf, data)
        payload = buf.getvalue()
    else:
        arr = np.ascontiguousarray(data)
        payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    atomic_write_bytes(path, payload)


# -- resume ------------------------------------------------------------------


def resume_job(journal_dir: str) -> JobResult:
    """Finish the interrupted job recorded at ``journal_dir``.

    Validates the journal and the input fingerprint, re-does only chunks
    without a valid journal record, and commits the identical output an
    uninterrupted run would have produced.  Safe to call repeatedly; a
    fully committed journal is simply cleaned up.
    """
    journal = JobJournal.open(journal_dir)
    header = journal.header
    kind = header.get("kind")
    input_path = header.get("input")
    if not input_path or not os.path.exists(input_path):
        raise JournalError(
            f"journal {journal_dir!r} references missing input {input_path!r}"
        )
    want = header.get("fingerprint")
    if want and _fingerprint(input_path) != want:
        raise JournalError(
            f"input {input_path!r} changed since the journal was written; "
            f"refusing to resume against different data"
        )
    if kind == "compress":
        return _finish_compress(journal, resumed=True)
    if kind == "decompress":
        return _finish_decompress(journal, resumed=True)
    raise JournalError(f"journal {journal_dir!r} records unknown job kind {kind!r}")
