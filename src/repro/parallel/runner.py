"""Real file-per-process dump/load on local storage.

The paper's Section VI-F workload, executable end-to-end on this machine:
every rank compresses its shard and writes ``rank_<i>.rpz`` with POSIX
I/O (file-per-process, as in the paper), then the load phase reads and
decompresses.  Ranks are the in-process SPMD threads of
:mod:`repro.parallel.comm` -- swap the communicator for ``mpi4py`` and the
same code runs on a real cluster.

Measured per-phase times feed the same :class:`DumpLoadBreakdown` shape
the simulator produces, so small real runs can sanity-check the model.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.compressors.base import Compressor, ErrorBound
from repro.observe.events import emit as emit_event
from repro.observe.metrics import metrics
from repro.observe.propagate import run_traced
from repro.observe.tracer import span, spans_from_dicts
from repro.parallel.comm import FakeComm, run_spmd
from repro.resilience.policy import JobDeadlineError, ResiliencePolicy, as_policy

__all__ = [
    "RankTiming",
    "DumpSummary",
    "atomic_write_bytes",
    "dump_file_per_process",
    "load_file_per_process",
]


def _check_deadline(
    rank: int, phase: str, started: float, deadline_s: float | None
) -> None:
    """Raise :class:`JobDeadlineError` when ``rank`` is over its ``job-timeout``.

    Checked at phase boundaries (after compress/decompress and after
    I/O): a rank cannot be killed mid-syscall from its own thread, but a
    straggler is reported -- and the whole dump/load failed loudly --
    within one phase of the breach instead of hanging the job.
    """
    if deadline_s is None:
        return
    elapsed = time.perf_counter() - started
    if elapsed <= deadline_s:
        return
    metrics().counter("rank.deadline_exceeded").inc()
    emit_event(
        "rank-deadline", rank=rank, phase=phase,
        elapsed_s=round(elapsed, 6), deadline_s=deadline_s,
    )
    raise JobDeadlineError(
        f"rank {rank} exceeded its {deadline_s}s deadline after {phase} "
        f"({elapsed:.3f}s elapsed)"
    )


@dataclass(frozen=True)
class RankTiming:
    rank: int
    compute_s: float  # compress or decompress time
    io_s: float  # write or read time
    bytes_in: int
    bytes_out: int


@dataclass(frozen=True)
class DumpSummary:
    timings: tuple[RankTiming, ...]

    @property
    def wall_compute_s(self) -> float:
        return max(t.compute_s for t in self.timings)

    @property
    def wall_io_s(self) -> float:
        return max(t.io_s for t in self.timings)

    @property
    def total_bytes_in(self) -> int:
        return sum(t.bytes_in for t in self.timings)

    @property
    def total_bytes_out(self) -> int:
        return sum(t.bytes_out for t in self.timings)

    @property
    def ratio(self) -> float:
        return self.total_bytes_in / self.total_bytes_out


def _rank_path(out_dir: str, rank: int) -> str:
    return os.path.join(out_dir, f"rank_{rank}.rpz")


def _fsync_parent_dir(path: str) -> None:
    """Flush the parent directory entry of a just-renamed file.

    ``os.replace`` makes the rename atomic, but until the *directory* is
    fsynced the new entry lives only in the page cache -- a power loss
    can silently drop a file whose write and rename both "succeeded".
    POSIX-only (Windows has no directory fsync) and best-effort: some
    filesystems refuse ``fsync`` on a directory fd, and a file that
    merely shows up late is strictly better than a failed write.
    """
    if os.name != "posix":
        return
    parent = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str,
    blob: bytes,
    policy: ResiliencePolicy | str | None = None,
    _sleep=time.sleep,
) -> None:
    """Write ``blob`` to ``path`` atomically, retrying transient failures.

    The bytes land in ``path + ".tmp"`` first, are fsynced, then renamed
    over ``path``, and finally the parent directory is fsynced so the
    rename itself is durable -- a mid-write crash (or power loss) can
    leave a stale temp file but never a truncated or vanished ``path``.
    Transient ``OSError``s (full/flaky filesystem, NFS hiccups) are
    retried up to ``policy.retries`` times, pausing
    :meth:`~repro.resilience.ResiliencePolicy.backoff_for` between
    attempts, before the last error propagates.

    The named crash points (:func:`repro.resilience.crashpoints.reach`)
    let the chaos harness kill this function at every boundary and assert
    those invariants hold.
    """
    from repro.resilience.crashpoints import reach

    policy = as_policy(policy)
    tmp = path + ".tmp"
    for attempt in range(policy.retries + 1):
        try:
            t0 = time.perf_counter()
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            reach("io.tmp-written", path=path)
            os.replace(tmp, path)
            reach("io.renamed", path=path)
            _fsync_parent_dir(path)
            reach("io.dir-synced", path=path)
            reg = metrics()
            reg.counter("io.write_s").inc(time.perf_counter() - t0)
            reg.counter("io.bytes_written").inc(len(blob))
            return
        except OSError:
            if attempt == policy.retries:
                raise
            metrics().counter("io.write_retries").inc()
            _sleep(policy.backoff_for(attempt + 1))


def dump_file_per_process(
    shards: list[np.ndarray],
    compressor: Compressor,
    bound: ErrorBound,
    out_dir: str,
    chunk_bytes: int | None = None,
    workers: int | None = None,
    parity: int = 0,
    group_size: int | None = None,
    policy: ResiliencePolicy | str | None = None,
) -> DumpSummary:
    """Compress and write one file per rank (rank count = ``len(shards)``).

    ``chunk_bytes`` enables per-rank chunking: each rank runs its shard
    through a :class:`ChunkedCompressor` wrapping ``compressor``, with
    ``workers`` thread-pool jobs per rank (thread executor -- ranks are
    already threads here, and forking from a threaded process is unsafe;
    swap in real MPI ranks for process-level parallelism).  ``parity``
    and ``group_size`` pass straight through to the
    :class:`~repro.core.chunked.ChunkedCompressor` (Reed-Solomon parity
    per chunk group), and so does ``policy`` (a
    :class:`~repro.resilience.ResiliencePolicy` or its spec string) less
    its ``job-timeout``.

    The policy's ``job-timeout`` bounds each rank's whole dump: a rank
    over budget raises :class:`~repro.resilience.JobDeadlineError` at its
    next phase boundary, failing the dump loudly instead of letting one
    straggler stall the job.  Writes are atomic (temp file + fsync +
    rename), and transient ``OSError``s are retried under the same
    policy -- see :func:`atomic_write_bytes`.
    """
    if not shards:
        raise ValueError("need at least one shard")
    policy = as_policy(policy)
    if chunk_bytes is not None:
        from repro.core.chunked import DEFAULT_GROUP_SIZE, ChunkedCompressor

        compressor = ChunkedCompressor(
            compressor,
            chunk_bytes=chunk_bytes,
            workers=workers if workers is not None else 1,
            executor="thread",
            parity=parity,
            group_size=group_size if group_size is not None else DEFAULT_GROUP_SIZE,
            # Ranks share this compressor, so the job deadline stays with
            # each rank's own _check_deadline below.
            policy=replace(policy, job_timeout_s=None),
        )
    elif parity or policy.chunk_timeout_s is not None:
        raise ValueError("parity/chunk-timeout require chunk_bytes (chunked ranks)")
    os.makedirs(out_dir, exist_ok=True)

    def rank_work(rank: int) -> RankTiming:
        shard = shards[rank]
        with span("rank", rank=rank) as sp:
            t0 = time.perf_counter()
            blob = compressor.compress(shard, bound)
            t1 = time.perf_counter()
            _check_deadline(rank, "compress", t0, policy.job_timeout_s)
            with span("write-file"):
                atomic_write_bytes(_rank_path(out_dir, rank), blob, policy)
            t2 = time.perf_counter()
            _check_deadline(rank, "write", t0, policy.job_timeout_s)
            sp.add_bytes(in_=shard.nbytes, out=len(blob))
            emit_event(
                "rank-dump",
                span=sp,
                rank=rank,
                bytes_in=shard.nbytes,
                bytes_out=len(blob),
            )
        return RankTiming(rank, t1 - t0, t2 - t1, shard.nbytes, len(blob))

    def rank_main(comm: FakeComm):
        # Ranks are threads: capture each rank's span tree and hand it to
        # the dispatching thread, which stitches all of them under one
        # ``dump`` span (see repro.observe.propagate).
        return run_traced(rank_work, comm.Get_rank())

    with span("dump", ranks=len(shards)) as root:
        results = run_spmd(len(shards), rank_main)
        timings = []
        for timing, telem in results:
            timings.append(timing)
            root.adopt(spans_from_dicts(telem.spans))
    return DumpSummary(tuple(timings))


def load_file_per_process(
    out_dir: str,
    nranks: int,
    tolerate_corruption: bool = False,
    fill: float | str = "nan",
    policy: ResiliencePolicy | str | None = None,
):
    """Read and decompress every rank file.

    Returns ``(shards, summary)``; corrupt files raise ``StreamError``.

    With ``tolerate_corruption=True`` the return is ``(shards, summary,
    reports)``: a damaged rank file no longer fails the load -- chunks
    covered by parity are rebuilt, remaining intact chunks are recovered
    (:func:`repro.core.chunked.recover_array`), unrecoverable spans are
    filled per ``fill`` (a float, or ``"nan"``/``"zero"``/``"nearest"``),
    and ``reports[rank]`` is the
    :class:`~repro.core.chunked.RecoveryReport` (None for clean ranks).
    A rank whose geometry is unreadable yields a ``None`` shard.
    The ``policy``'s ``job-timeout`` bounds each rank's whole load like
    in :func:`dump_file_per_process`.
    """
    from repro import decompress
    from repro.core.chunked import recover_array

    if nranks <= 0:
        raise ValueError("nranks must be positive")
    deadline_s = as_policy(policy).job_timeout_s

    def rank_work(rank: int):
        with span("rank", rank=rank) as sp:
            t0 = time.perf_counter()
            with span("read-file"):
                with open(_rank_path(out_dir, rank), "rb") as fh:
                    blob = fh.read()
            reg = metrics()
            t1 = time.perf_counter()
            reg.counter("io.read_s").inc(t1 - t0)
            reg.counter("io.bytes_read").inc(len(blob))
            _check_deadline(rank, "read", t0, deadline_s)
            if tolerate_corruption:
                shard, report = recover_array(blob, fill)
            else:
                shard, report = decompress(blob), None
            t2 = time.perf_counter()
            _check_deadline(rank, "decompress", t0, deadline_s)
            nbytes = shard.nbytes if shard is not None else 0
            sp.add_bytes(in_=len(blob), out=nbytes)
            emit_event(
                "rank-load",
                span=sp,
                rank=rank,
                bytes_in=len(blob),
                bytes_out=nbytes,
                recovered=(report is not None and not report.complete) or None,
            )
        return shard, RankTiming(rank, t2 - t1, t1 - t0, len(blob), nbytes), report

    def rank_main(comm: FakeComm):
        return run_traced(rank_work, comm.Get_rank())

    with span("load", ranks=nranks) as root:
        traced = run_spmd(nranks, rank_main)
        results = []
        for result, telem in traced:
            results.append(result)
            root.adopt(spans_from_dicts(telem.spans))
    shards = [r[0] for r in results]
    summary = DumpSummary(tuple(r[1] for r in results))
    if tolerate_corruption:
        return shards, summary, [r[2] for r in results]
    return shards, summary
