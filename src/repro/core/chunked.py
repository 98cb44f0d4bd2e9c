"""Chunked parallel compression pipeline.

:class:`ChunkedCompressor` splits an array into ~1-16 MB blocks and runs
any inner compressor (notably :class:`TransformedCompressor`) on each
block concurrently, the same block decomposition FRaZ uses to parallelize
its search loop and SZx uses for its ultra-fast block-wise kernels.  The
per-chunk streams are framed in a "v2" container record (codec
``CHUNKED``, see ``docs/formats.md``) whose payload is the concatenation
of complete, self-describing single-chunk containers -- each chunk carries
its own sign bitmap and patch channel, and for transformed inner codecs
the Lemma-2 ``b_a'`` is computed from the chunk's own ``max |log x|``,
which tightens the bound locally and removes the global two-pass over the
data.

Splitting policy: multi-dimensional arrays are cut into slabs of whole
rows along axis 0 (preserving the dimensionality the inner predictors
exploit); 1-D arrays -- and arrays whose single row already exceeds the
chunk budget -- are cut as flat element ranges.  Either way every chunk is
a C-contiguous span of the flattened array, so reassembly is always
"concatenate raveled chunks, reshape".

Executors: ``process`` (default when more than one worker is available;
compression is CPU-bound Python so separate interpreters are required for
real speedup), ``thread`` (used e.g. inside the SPMD ranks of
:mod:`repro.parallel.runner`, where forking from worker threads is
unsafe), or ``serial``.  The compressed bytes are identical whichever
executor produced them.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterator
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.compressors.base import Compressor, ErrorBound
from repro.encoding.container import (
    ChecksumError,
    Container,
    ContainerError,
    StreamError,
    codec_of,
    nested_crc,
    peek_codec,
)
from repro.encoding.rs import MAX_GROUP_BLOCKS, encode_parity
from repro.observe.audit import CallReport, call_report, current_report
from repro.observe.events import emit as emit_event
from repro.resilience.policy import (
    ChunkIncident,
    CircuitOpenError,
    JobDeadlineError,
    ResiliencePolicy,
    ResilienceReport,
    as_policy,
)
from repro.observe.metrics import metrics
from repro.observe.propagate import absorb, run_traced
from repro.observe.tracer import current_span, span
from repro.utils.blocking import chunk_spans

__all__ = [
    "ChunkFailure",
    "ChunkTable",
    "ChunkTimeoutError",
    "ChunkedCompressor",
    "DEFAULT_GROUP_SIZE",
    "ParityGeometry",
    "RecoveryReport",
    "chunk_patch_total",
    "iter_chunk_blobs",
    "read_chunk_table",
    "read_parity_geometry",
    "recover_array",
]

#: Default chunk budget: 4 MB sits in the paper-motivated 1-16 MB window.
DEFAULT_CHUNK_BYTES = 4 * 2**20

#: Default parity-group width: 8 data chunks per group, so ``parity=2``
#: costs ~25% of the *compressed* bytes (a few percent of the raw data)
#: and survives any two lost chunks per group.
DEFAULT_GROUP_SIZE = 8

_EXECUTORS = ("auto", "serial", "thread", "process")

#: CHUNKED metadata sections whose per-section CRCs must hold before any
#: recovery or repair can be attempted.
_CHUNKED_META = ("dtype", "shape", "inner_codec", "n_chunks", "offs", "lens", "elems")

#: Named fill policies for unrecoverable chunk spans (a float is also
#: accepted anywhere a fill is).
_FILL_MODES = ("nan", "zero", "nearest")


class ChunkTimeoutError(TimeoutError):
    """A chunk worker exceeded its deadline on every allowed attempt.

    Deliberately *not* a :class:`StreamError`: the bytes are fine, the
    execution environment is not, so recovery paths must not treat it as
    stream damage.
    """


def _fill_scalar(fill: float | str) -> tuple[float, str]:
    """The scalar planted in lost spans (``nearest`` resolves later), and its name."""
    if isinstance(fill, str):
        if fill not in _FILL_MODES:
            raise ValueError(f"fill must be a float or one of {_FILL_MODES}, got {fill!r}")
        return (0.0 if fill == "zero" else float("nan")), fill
    return float(fill), repr(float(fill))


def _apply_nearest_fill(out: np.ndarray, lost_spans: list[tuple[int, int]]) -> None:
    """Overwrite lost flat spans with the nearest surviving element.

    Ties round down; an array with no survivors keeps NaN so the loss
    stays visible.
    """
    if not lost_spans:
        return
    bad = np.zeros(out.size, dtype=bool)
    for start, stop in lost_spans:
        bad[start:stop] = True
    good_idx = np.flatnonzero(~bad)
    bad_idx = np.flatnonzero(bad)
    if good_idx.size == 0:
        out[bad_idx] = np.nan
        return
    pos = np.searchsorted(good_idx, bad_idx)
    left = np.clip(pos - 1, 0, good_idx.size - 1)
    right = np.clip(pos, 0, good_idx.size - 1)
    use_right = (good_idx[right] - bad_idx) < (bad_idx - good_idx[left])
    nearest = np.where(use_right, good_idx[right], good_idx[left])
    out[bad_idx] = out[nearest]


def _available_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _compress_chunk(
    inner: Compressor, chunk: np.ndarray, bound: ErrorBound, verified: bool = False
) -> tuple[bytes | tuple[bytes, np.ndarray], CallReport]:
    """Module-level so process-pool workers can unpickle the task.

    Returns the chunk's stream -- with ``verified``, the stream and the
    exact array its decoder yields (``inner.compress_verified``) -- and the
    record of the chunk's call, which travels back with it from any worker.
    """
    with call_report() as rec:
        if verified:
            return inner.compress_verified(chunk, bound), rec
        return inner.compress(chunk, bound), rec


def _decompress_chunk(blob: bytes, trusted: bool = False) -> np.ndarray:
    """Decode one chunk; ``trusted`` when the CHUNKED stream's checked
    CRC already covered its bytes."""
    from repro import _decompress_nested

    return _decompress_nested(blob, trusted)


@dataclass(frozen=True)
class ChunkFailure:
    """One damaged chunk (or whole stream) skipped during recovery.

    ``index`` is the chunk position, or None when the whole stream was
    unusable; ``span`` is the half-open flat-element range that could not
    be reconstructed (None when even the geometry was unreadable).
    """

    index: int | None
    span: tuple[int, int] | None
    error: str


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a damage-tolerant decompression.

    ``total_elements`` counts the array's elements; every element inside a
    failure span holds a fill value (``fill_mode``) instead of real data.
    ``repaired_chunks`` lists chunks that *were* damaged but were rebuilt
    byte-exactly from parity -- their spans hold true data and do not
    appear in ``failures``.  An empty ``failures`` tuple means every
    element is genuine.
    """

    n_chunks: int
    total_elements: int
    failures: tuple[ChunkFailure, ...] = ()
    #: How unrecoverable spans were filled: "nan", "zero", "nearest", or
    #: the string form of a caller-supplied float.
    fill_mode: str = "nan"
    #: Chunks reconstructed from Reed-Solomon parity (true data).
    repaired_chunks: tuple[int, ...] = field(default=())

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def n_lost_chunks(self) -> int:
        return len(self.failures)

    @property
    def n_repaired_chunks(self) -> int:
        return len(self.repaired_chunks)

    @property
    def lost_elements(self) -> int:
        if any(f.span is None for f in self.failures):
            return self.total_elements
        return sum(stop - start for f in self.failures for start, stop in [f.span])

    @property
    def recovered_elements(self) -> int:
        return self.total_elements - self.lost_elements

    def summary(self) -> str:
        repaired = (
            f" ({self.n_repaired_chunks} chunk(s) rebuilt from parity)"
            if self.repaired_chunks
            else ""
        )
        if self.complete:
            return f"all {self.n_chunks} chunks intact{repaired}"
        return (
            f"lost {self.n_lost_chunks}/{self.n_chunks} chunks "
            f"({self.lost_elements}/{self.total_elements} elements, "
            f"filled with {self.fill_mode}){repaired}: "
            + "; ".join(
                f"chunk {f.index if f.index is not None else '?'}: {f.error}"
                for f in self.failures
            )
        )


class ChunkedCompressor(Compressor):
    """Block-decomposed wrapper running ``inner`` on ~``chunk_bytes`` spans.

    Parameters
    ----------
    inner:
        Inner compressor instance, or a registry name resolved lazily
        ("SZ_T" by default).  Decompression never needs it: every chunk
        stream self-identifies.
    chunk_bytes:
        Uncompressed byte budget per chunk (default 4 MB).  Spans are
        balanced, so actual chunks are near-equal and never exceed this
        (except single items larger than the budget).
    workers:
        Concurrent chunk jobs; defaults to the CPUs available to this
        process.
    executor:
        ``"auto"`` (process pool when ``workers > 1``), ``"serial"``,
        ``"thread"`` or ``"process"``.  A callable ``f(nworkers) ->
        Executor`` is also accepted -- the hook fault-injection tests use
        to wrap a pool with crash injectors.
    parity:
        Reed-Solomon parity blocks per group of ``group_size`` chunks
        (0 = off).  With ``parity=k`` any ``k`` damaged or truncated
        chunk streams per group are rebuilt byte-exactly at recovery
        time; the stream is written as a v3 container record (see
        ``docs/formats.md`` and ``docs/recovery.md``).
    group_size:
        Data chunks per parity group (default 8; ``group_size + parity``
        is capped at 255 by GF(256)).
    policy:
        A :class:`repro.resilience.ResiliencePolicy`, its spec string
        (e.g. ``"retries=3;chunk-timeout=2;breaker=0.5/8;ladder=GZIP"``),
        or None for the defaults.  ``chunk-timeout`` arms the per-chunk
        watchdog: a chunk whose worker has not delivered within that many
        seconds of being submitted is cancelled and retried on a fresh
        worker -- up to ``retries`` times, pausing
        :meth:`~repro.resilience.ResiliencePolicy.backoff_for` between
        attempts -- before :class:`ChunkTimeoutError` is raised; even
        ``serial`` runs then go through a single-slot pool so the
        deadline is enforceable.  The policy also sets the whole-job
        deadline and memory-budgeted worker cap, arms the failure-rate
        circuit breaker, and may wrap ``inner`` in a
        :class:`~repro.resilience.DegradationLadder` of fallback codecs.
        See ``docs/resilience.md``.

    A worker failure that is not a :class:`StreamError` (a crashed
    process pool, a transient executor fault) does not fail the array:
    the affected chunks are re-run serially in the parent process.  The
    bytes produced are identical either way.

    Each compress and decompress puts a
    :class:`~repro.resilience.ResilienceReport` (chunks, retries,
    timeouts, fallbacks) in the open :func:`repro.observe.call_report`
    record; a compress also adds each chunk's audit entries in chunk
    order, whichever executor ran the chunks.
    """

    name = "CHUNKED"

    def __init__(
        self,
        inner: Compressor | str = "SZ_T",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        workers: int | None = None,
        executor: str = "auto",
        parity: int = 0,
        group_size: int = DEFAULT_GROUP_SIZE,
        policy: ResiliencePolicy | str | None = None,
    ) -> None:
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if not callable(executor) and executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        if parity < 0:
            raise ValueError(f"parity must be non-negative, got {parity}")
        if group_size < 1:
            raise ValueError(f"group_size must be positive, got {group_size}")
        if parity and group_size + parity > MAX_GROUP_BLOCKS:
            raise ValueError(
                f"group_size + parity must not exceed {MAX_GROUP_BLOCKS} "
                f"(GF(256)), got {group_size} + {parity}"
            )
        self._inner = inner
        self.chunk_bytes = int(chunk_bytes)
        self.workers = int(workers) if workers is not None else _available_workers()
        self.executor = executor
        self.parity = int(parity)
        self.group_size = int(group_size)
        self.policy = as_policy(policy)
        self.workers = self.policy.max_workers(self.workers, self.chunk_bytes)
        if self.policy.ladder:
            from repro.resilience.ladder import DegradationLadder

            if not isinstance(self._inner, DegradationLadder):
                self._inner = DegradationLadder.with_fallbacks(
                    self._inner, self.policy.ladder
                )
        #: Chunk count of the most recent compress() call.  Per-instance
        #: state, kept only because the end-to-end benchmark reads it; it
        #: goes away in the change that moves the benchmark onto
        #: :func:`repro.observe.call_report` (``resilience.n_chunks``).
        self.last_chunk_count = 0

    # -- configuration -------------------------------------------------------

    @property
    def inner(self) -> Compressor:
        """The inner compressor, resolving a registry name on first use."""
        if isinstance(self._inner, str):
            from repro.compressors.base import get_compressor

            self._inner = get_compressor(self._inner)
        return self._inner

    @property
    def supported_bounds(self) -> tuple[type, ...]:  # type: ignore[override]
        return self.inner.supported_bounds

    def _make_pool(self, njobs: int) -> Executor | None:
        """An executor for ``njobs`` chunk tasks, or None to run serially."""
        nworkers = min(self.workers, njobs)
        if callable(self.executor):
            return self.executor(nworkers)
        mode = self.executor
        if mode == "auto":
            mode = "process" if nworkers > 1 else "serial"
        if mode == "serial" or nworkers < 2:
            if self.policy.chunk_timeout_s is not None:
                # A deadline is only enforceable on work we can abandon:
                # run nominally-serial jobs through one pool thread.
                return ThreadPoolExecutor(max_workers=1)
            return None
        if mode == "thread":
            return ThreadPoolExecutor(max_workers=nworkers)
        return ProcessPoolExecutor(max_workers=nworkers)

    def _fresh_worker(self) -> Executor:
        """A disposable single-slot pool for retrying a timed-out chunk.

        Process mode gets a brand-new process (the hung one may be
        wedged beyond recovery); every other mode -- thread, serial with a
        chunk timeout, injected test executors -- gets a fresh thread,
        which insulates the retry from whatever stalled the original pool.
        """
        if not callable(self.executor) and (
            self.executor == "process"
            or (self.executor == "auto" and min(self.workers, 2) > 1)
        ):
            return ProcessPoolExecutor(max_workers=1)
        return ThreadPoolExecutor(max_workers=1)

    @staticmethod
    def _shutdown_pool(pool: Executor, abandon: bool) -> None:
        """Release a pool; ``abandon`` skips the join and kills stragglers.

        Joining a pool that still owns a hung worker would hang this
        thread too, so the watchdog path cancels what it can, refuses to
        wait, and terminates any worker *processes* outright (threads
        cannot be killed, only orphaned).
        """
        if not abandon:
            pool.shutdown(wait=True)
            return
        pool.shutdown(wait=False, cancel_futures=True)
        procs = getattr(pool, "_processes", None)
        if procs:
            for proc in list(procs.values()):
                proc.terminate()

    def _deadline(self) -> float | None:
        """Absolute perf-counter time a job starting now must finish by."""
        if self.policy.job_timeout_s is None:
            return None
        return time.perf_counter() + self.policy.job_timeout_s

    def _check_job_deadline(self, deadline: float | None) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            metrics().counter("resilience.job_deadline").inc()
            emit_event("job-deadline", codec=self.name,
                       job_timeout_s=self.policy.job_timeout_s)
            raise JobDeadlineError(
                f"job exceeded its {self.policy.job_timeout_s}s deadline"
            )

    def _wait(self, fut: Future, submitted_at: float, deadline: float | None):
        """``fut.result()`` honouring the chunk watchdog and job ``deadline``."""
        deadlines = [] if deadline is None else [deadline]
        if self.policy.chunk_timeout_s is not None:
            deadlines.append(submitted_at + self.policy.chunk_timeout_s)
        if not deadlines:
            return fut.result()
        try:
            return fut.result(timeout=max(min(deadlines) - time.perf_counter(), 0.0))
        except FuturesTimeoutError:
            # Distinguish "this chunk's worker hung" (retryable) from
            # "the whole job is out of budget" (fatal).
            self._check_job_deadline(deadline)
            raise

    def _retry_timed_out(self, fn, job, index: int, parent, deadline: float | None) -> object:
        """Bounded fresh-worker retry of a chunk whose worker hung.

        Each attempt gets its own single-slot pool and the full chunk
        timeout, after the policy's backoff pause; the hung attempt's pool
        is abandoned, never joined.  Exhausting the policy's ``retries``
        raises :class:`ChunkTimeoutError`.
        """
        reg = metrics()
        timeout, retries = self.policy.chunk_timeout_s, self.policy.retries
        for attempt in range(1, retries + 1):
            self._check_job_deadline(deadline)
            pause = self.policy.backoff_for(attempt, index)
            if pause:
                time.sleep(pause)
            emit_event(
                "chunk-retry", index=index, codec=self.name,
                reason="timeout", attempt=attempt,
            )
            worker = self._fresh_worker()
            t0 = time.perf_counter()
            fut = worker.submit(run_traced, fn, *job)
            try:
                result, telem = self._wait(fut, t0, deadline)
            except FuturesTimeoutError:
                fut.cancel()
                self._shutdown_pool(worker, abandon=True)
                reg.counter("chunks.timed_out").inc()
                emit_event(
                    "chunk-timeout", index=index, codec=self.name,
                    timeout_s=timeout, attempt=attempt,
                )
                continue
            except StreamError:
                self._shutdown_pool(worker, abandon=False)
                raise
            except Exception:
                # Fresh worker died for a non-timeout reason (e.g. a
                # crashed process): fall back to the in-process serial
                # retry used for ordinary worker loss.
                self._shutdown_pool(worker, abandon=True)
                with span("chunk", index=index, retried=True):
                    return fn(*job)
            self._shutdown_pool(worker, abandon=False)
            absorb(parent, telem, label="chunk", index=index, t_submit=t0)
            reg.histogram("chunk.exec_s").observe(telem.wall_s)
            return result
        raise ChunkTimeoutError(
            f"chunk {index} exceeded its {timeout}s deadline on "
            f"{retries + 1} worker(s) (initial + {retries} retries)"
        )

    def _map(
        self, fn, jobs: list, deadline: float | None
    ) -> tuple[list, list[ChunkIncident]]:
        """``fn(*job)`` for every job, retrying worker failures serially,
        and the retry/timeout incidents; ``deadline`` is the job's
        (:meth:`_deadline`).

        A :class:`StreamError` from a worker is deterministic (corrupt
        chunk bytes) and propagates immediately.  Anything else -- a
        ``BrokenProcessPool`` after a worker crash, a flaky executor, a
        pickling failure -- marks the affected jobs for a serial re-run in
        this process, so one lost worker never fails the whole array.

        Every pooled job runs under :func:`repro.observe.run_traced`: the
        worker ships its span trees and metrics delta back with the
        result, and this thread stitches them under the open dispatching
        span as ``chunk`` children carrying queue-wait and execute times.
        """
        incidents: list[ChunkIncident] = []
        breaker = self.policy.breaker()
        reg = metrics()
        pool = self._make_pool(len(jobs))
        if pool is None:
            out = []
            for i, job in enumerate(jobs):
                self._check_job_deadline(deadline)
                with span("chunk", index=i):
                    out.append(fn(*job))
            return out, incidents
        parent = current_span()
        results: list = [None] * len(jobs)
        done = [False] * len(jobs)
        futures: dict[int, Future] = {}
        submitted: dict[int, float] = {}
        timed_out: list[int] = []
        hard_stop = False
        try:
            try:
                for i, job in enumerate(jobs):
                    submitted[i] = time.perf_counter()
                    futures[i] = pool.submit(run_traced, fn, *job)
            except Exception:
                pass  # pool died mid-submit; unsubmitted jobs retry below
            for i, fut in futures.items():
                try:
                    results[i], telem = self._wait(fut, submitted[i], deadline)
                    done[i] = True
                except FuturesTimeoutError:
                    # Hung worker: cancel the straggler and hand the chunk
                    # to the fresh-worker retry path below.
                    fut.cancel()
                    timed_out.append(i)
                    reg.counter("chunks.timed_out").inc()
                    emit_event(
                        "chunk-timeout", index=i, codec=self.name,
                        timeout_s=self.policy.chunk_timeout_s, attempt=0,
                    )
                    continue
                except StreamError:
                    raise
                except JobDeadlineError:
                    # Out of whole-job budget: abandon stragglers, fail loud.
                    hard_stop = True
                    raise
                except Exception:
                    continue  # worker lost; retry serially below
                wait = absorb(parent, telem, label="chunk", index=i,
                              t_submit=submitted[i])
                reg.histogram("chunk.exec_s").observe(telem.wall_s)
                if wait is not None:
                    reg.histogram("chunk.queue_wait_s").observe(wait)
        finally:
            self._shutdown_pool(pool, abandon=bool(timed_out) or hard_stop)
        if timed_out:
            parent.set(timed_out=len(timed_out))
        pending = [
            i for i in range(len(jobs)) if not done[i] and i not in timed_out
        ]
        if breaker is not None:
            # First-attempt outcomes feed the breaker; a failure rate over
            # the threshold means the codec/executor is failing
            # systematically, so stop instead of grinding serial retries.
            for i in range(len(jobs)):
                if done[i]:
                    breaker.record(True)
            for i in timed_out + pending:
                breaker.record(False)
            if breaker.tripped:
                reg.counter("resilience.breaker_open").inc()
                emit_event("circuit-open", codec=self.name,
                           detail=breaker.describe())
                raise CircuitOpenError(breaker.describe())
        for i in timed_out:
            incidents.append(ChunkIncident(
                i, "timeout", f"worker hung past {self.policy.chunk_timeout_s}s"
            ))
            self._check_job_deadline(deadline)
            results[i] = self._retry_timed_out(fn, jobs[i], i, parent, deadline)
            done[i] = True
        if pending:
            reg.counter("chunks.retried").inc(len(pending))
            parent.set(retried=len(pending))
        for i in pending:
            incidents.append(ChunkIncident(
                i, "retry", "worker lost; re-run in-process"
            ))
            self._check_job_deadline(deadline)
            emit_event("chunk-retry", index=i, codec=self.name)
            with span("chunk", index=i, retried=True):
                results[i] = fn(*jobs[i])
        return results, incidents

    # -- chunk geometry ------------------------------------------------------

    def _checked_chunks(self, data: np.ndarray, bound: ErrorBound) -> tuple[np.ndarray, list]:
        """``(data, chunks)`` after the bound and input checks of every
        compress path, the journaled job runner's included."""
        self.inner._check_bound(bound)
        data = np.asarray(data)
        if data.size == 0:
            if data.dtype not in (np.float32, np.float64):
                raise TypeError(f"expected float32/float64 data, got {data.dtype}")
            if data.ndim not in (1, 2, 3):
                raise ValueError(f"expected 1-D/2-D/3-D data, got ndim={data.ndim}")
            return data, []
        data = self._check_input(data, getattr(self.inner, "allows_nonfinite", False))
        return data, self._split(data)

    def _split(self, data: np.ndarray) -> list[np.ndarray]:
        """Cut ``data`` into C-contiguous spans of <= ``chunk_bytes``."""
        if data.ndim > 1:
            row_bytes = int(np.prod(data.shape[1:])) * data.itemsize
            if row_bytes <= self.chunk_bytes:
                spans = chunk_spans(data.shape[0], row_bytes, self.chunk_bytes)
                return [data[start:stop] for start, stop in spans]
        flat = data.ravel()
        spans = chunk_spans(flat.size, data.itemsize, self.chunk_bytes)
        return [flat[start:stop] for start, stop in spans]

    # -- compression ---------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound, verified=False)[0]

    def compress_verified(
        self, data: np.ndarray, bound: ErrorBound
    ) -> tuple[bytes, np.ndarray]:
        """Compress and return the exact array ``decompress`` yields.

        Each chunk job returns its stream and array from the inner codec's
        own ``compress_verified``, so no chunk is decoded; the arrays are
        joined the way ``decompress`` joins decoded chunks.
        """
        data = np.asarray(data)
        blob, parts = self._compress_impl(data, bound, verified=True)
        flat = np.concatenate([p.ravel() for p in parts]) if parts else np.zeros(0, data.dtype)
        return blob, flat.astype(data.dtype, copy=False).reshape(data.shape)

    def _compress_impl(
        self, data: np.ndarray, bound: ErrorBound, verified: bool
    ) -> tuple[bytes, list[np.ndarray] | None]:
        """The CHUNKED stream and, when ``verified``, each chunk's array."""
        deadline = self._deadline()
        data, chunks = self._checked_chunks(data, bound)
        blobs, incidents = [], []
        if chunks:
            blobs, incidents = self._run_chunks(chunks, bound, verified, deadline)
        parts = None
        if verified:
            parts = [part for _, part in blobs]
            blobs = [blob for blob, _ in blobs]
        stream = self._assemble(data, chunks, blobs)
        self._report_resilience(len(blobs), incidents, self._chunk_codecs(blobs))
        return stream, parts

    def _run_chunks(
        self, chunks: list[np.ndarray], bound: ErrorBound, verified: bool,
        deadline: float | None, indices: list[int] | None = None,
    ) -> tuple[list, list[ChunkIncident]]:
        """:meth:`_map` of :func:`_compress_chunk` over ``chunks``, whose
        records join the open call record in chunk order, each entry stamped
        with its chunk's index (``indices``, default ``0..n-1``)."""
        jobs = [(self.inner, c, bound, verified) for c in chunks]
        done, incidents = self._map(_compress_chunk, jobs, deadline)
        rec = current_report()
        if rec is not None:
            for i, (_, sub) in zip(indices or range(len(chunks)), done):
                rec.add(sub, index=i)
        return [out for out, _ in done], incidents

    def _report_resilience(
        self, n_chunks: int, incidents: list[ChunkIncident],
        codecs: list[str] | None = None,
    ) -> None:
        """Put the call's :class:`ResilienceReport` in the open call record:
        ``_map``'s incidents plus, for a ladder, each chunk that fell back."""
        rec = current_report()
        if rec is None:
            return
        incidents = list(incidents)
        if codecs is not None:
            primary = self.inner.rung_names[0]
            incidents += [
                ChunkIncident(i, "fallback", f"{primary} -> {codec}")
                for i, codec in enumerate(codecs)
                if codec != primary
            ]
        kinds = [i.kind for i in incidents]
        rec.resilience = ResilienceReport(
            n_chunks=n_chunks,
            retried=kinds.count("retry"),
            timed_out=kinds.count("timeout"),
            fallbacks=kinds.count("fallback"),
            incidents=tuple(incidents),
        )

    def _chunk_codecs(self, blobs: list[bytes]) -> list[str] | None:
        """Per-chunk winning codec names when the inner is a ladder."""
        from repro.resilience.ladder import DegradationLadder

        if not isinstance(self.inner, DegradationLadder) or not blobs:
            return None
        return [peek_codec(b) for b in blobs]

    def _assemble(
        self, data: np.ndarray, chunks: list[np.ndarray], blobs: list[bytes]
    ) -> bytes:
        """Frame finished chunk streams into the CHUNKED container.

        Shared verbatim by :meth:`compress` and the journaled job runner
        (:mod:`repro.resilience.jobs`), so a resumed job's container is
        byte-identical to an uninterrupted run's.
        """
        self.last_chunk_count = len(blobs)
        metrics().counter("chunks.compressed").inc(len(blobs))
        current_span().set(chunks=len(blobs), workers=self.workers)

        box = self._new_container(self.name, data)
        box.put_str("inner_codec", self.inner.name)
        box.put_u64("n_chunks", len(blobs))
        lens = np.array([len(b) for b in blobs], dtype=np.uint64)
        offs = np.concatenate([[0], np.cumsum(lens)])[:-1].astype(np.uint64)
        box.put_array("offs", offs)
        box.put_array("lens", lens)
        box.put_array("elems", np.array([c.size for c in chunks], dtype=np.uint64))
        codecs = self._chunk_codecs(blobs)
        if codecs is not None:
            # Record the ladder and each chunk's winning rung in the
            # stream itself, so stats/explain/info can show which chunks
            # degraded long after the run (and any process can decode
            # them -- chunk streams self-identify regardless).
            box.put_str("ladder", self.inner.chain)
            box.put_str("chunk_codecs", ";".join(codecs))
        # Parity sections precede the payload on purpose: a tail
        # truncation then erases trailing *chunks* -- exactly the erasure
        # pattern the parity can repair -- instead of the parity itself.
        version = None
        if self.parity and blobs:
            with span("parity-encode", k=self.parity, m=self.group_size):
                self._put_parity_sections(box, blobs)
            version = 3
        box.put_nested("payload", *blobs)
        return box.to_bytes(version=version)

    def _put_parity_sections(self, box: Container, blobs: list[bytes]) -> None:
        """Append the v3 parity sections for ``blobs`` (see docs/formats.md)."""
        t0 = time.perf_counter()
        m, k = self.group_size, self.parity
        parity_blocks: list[bytes] = []
        group_lens: list[int] = []
        for g in range(0, len(blobs), m):
            blocks = encode_parity(blobs[g : g + m], k)
            group_lens.append(len(blocks[0]) if blocks else 0)
            parity_blocks.extend(blocks)
        box.put_u64("parity_k", k)
        box.put_u64("group_size", m)
        box.put_array("parity_lens", np.array(group_lens, dtype=np.uint64))
        box.put("parity", b"".join(parity_blocks))
        reg = metrics()
        reg.counter("parity.encode_s").inc(time.perf_counter() - t0)
        reg.counter("parity.bytes").inc(sum(len(p) for p in parity_blocks))
        reg.counter("parity.groups").inc(len(group_lens))
        current_span().set(parity=k, groups=len(group_lens))

    # -- decompression -------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        deadline = self._deadline()
        if codec_of(blob) != self.name:
            # v1 (monolithic) stream: dispatch to its own codec unchanged.
            return _decompress_chunk(blob)
        shape, dtype, chunks, elems, trusted = self._read_chunks(blob)
        if not chunks:
            self._report_resilience(0, [])
            return np.zeros(shape, dtype=dtype)
        parts, incidents = self._map(
            _decompress_chunk, [(chunk, trusted) for chunk in chunks], deadline
        )
        metrics().counter("chunks.decompressed").inc(len(parts))
        current_span().set(chunks=len(parts), workers=self.workers)
        _check_chunk_sizes([p.size for p in parts], elems)
        self._report_resilience(len(parts), incidents)
        flat = np.concatenate([p.ravel() for p in parts])
        return flat.astype(dtype, copy=False).reshape(shape)

    @classmethod
    def _read_chunks(cls, blob: bytes) -> tuple:
        """``(shape, dtype, chunk streams, element counts, trusted)`` of a
        CHUNKED stream, read strictly; the one reader behind decompress and
        the journaled job, whose decoded chunks pass :func:`_check_chunk_sizes`."""
        box, shape, dtype = cls._open_container(blob, cls.name)
        offs, lens, elems = read_chunk_table(box)
        if not lens.size:
            return shape, dtype, [], elems, False
        payload = box.get("payload")
        if offs[-1] + lens[-1] != len(payload):
            raise ContainerError("corrupt CHUNKED stream: payload length mismatch")
        chunks = [payload[o : o + ln] for o, ln in zip(offs, lens)]
        # A v2+ stream's CRC -- checked by _open_container, or by the
        # caller that vouched for these bytes -- covered every chunk, and
        # the payload's stored CRC equals the one the chunks' trailers
        # declare only if each chunk was intact when written (a lossy
        # repair by older releases stored a fresh hash of damaged chunks).
        # Then the chunks skip their own CRCs; otherwise, and in v1
        # streams, each is checked.
        trusted = box.checksummed and box.stored_crc(blob, "payload") == nested_crc(*chunks)
        return shape, dtype, chunks, elems, trusted

    def decompress_partial(
        self, blob: bytes, fill: float | str = "nan"
    ) -> tuple[np.ndarray, RecoveryReport]:
        """Decode every intact chunk of a damaged CHUNKED stream.

        Damaged chunks that the stream's Reed-Solomon parity (a v3 record)
        covers are first rebuilt as :func:`repro.integrity.repair_stream`
        rebuilds them.  Lost chunks are replaced by ``fill`` across their
        span -- a float, or ``"nan"``/``"zero"``/``"nearest"`` (nearest
        surviving element) -- and reported in the returned
        :class:`RecoveryReport`.  Raises :class:`StreamError` only when the
        stream's *geometry* (shape, dtype, chunk table) is unreadable.
        """
        from repro.inspection import inspect_stream

        return _recover_chunked(inspect_stream(blob), fill)


# -- stream geometry ---------------------------------------------------------


class ChunkTable(NamedTuple):
    """Validated chunk table of a CHUNKED container (int64 arrays)."""

    offs: np.ndarray
    lens: np.ndarray
    elems: np.ndarray


class ParityGeometry(NamedTuple):
    """Validated v3 parity geometry: ``k`` blocks per group of ``group_size``."""

    k: int
    group_size: int
    #: Parity block length of every group.
    lens: np.ndarray

    def spans(self) -> list[list[tuple[int, int]]]:
        """Each group's ``k`` block byte ranges within the parity section."""
        out, base = [], 0
        for size in self.lens.tolist():
            out.append([(base + j * size, base + (j + 1) * size) for j in range(self.k)])
            base += self.k * size
        return out

    def blocks(self, parity: bytes) -> list[list[bytes | None]]:
        """Each group's ``k`` blocks cut from ``parity`` (None where bytes are missing)."""
        return [
            [bytes(parity[a:b]) if b <= len(parity) else None for a, b in group]
            for group in self.spans()
        ]


def read_chunk_table(box: Container) -> ChunkTable:
    """The chunk table of a CHUNKED container; the one validator behind
    decompress, partial decompress, repair and verify.

    Raises :class:`ContainerError` unless entry counts, cumulative offsets
    and element counts describe ``shape``.  Whether the payload holds every
    byte the table spans is left to the caller (recovery reads cut ones).
    """
    shape = box.get_shape("shape")
    n = box.get_u64("n_chunks")
    offs = box.get_array("offs").astype(np.int64)
    lens = box.get_array("lens").astype(np.int64)
    elems = box.get_array("elems").astype(np.int64)
    if not (offs.size == lens.size == elems.size == n):
        raise ContainerError(
            f"corrupt CHUNKED chunk table: n_chunks={n} but "
            f"{offs.size}/{lens.size}/{elems.size} table entries"
        )
    if n and (
        (lens < 0).any() or (offs != np.concatenate([[0], np.cumsum(lens)[:-1]])).any()
    ):
        raise ContainerError(
            "corrupt CHUNKED chunk table: offsets are not the cumulative sum of lengths"
        )
    if (elems <= 0).any() or int(elems.sum()) != math.prod(shape):
        raise ContainerError(
            f"corrupt CHUNKED chunk table: element counts sum to "
            f"{int(elems.sum())}, shape needs {math.prod(shape)}"
        )
    return ChunkTable(offs, lens, elems)


def _check_chunk_sizes(counts: list[int], elems: np.ndarray) -> None:
    """Raise unless every decoded chunk holds the elements its table entry says."""
    if any(count != want for count, want in zip(counts, elems)):
        raise ContainerError("corrupt CHUNKED stream: chunk element mismatch")


def read_parity_geometry(box: Container, table: ChunkTable) -> ParityGeometry:
    """The v3 parity geometry of a CHUNKED container, checked against its table.

    Raises :class:`ContainerError` on an impossible ``k``/group size, a
    group count the table disagrees with, or a block length other than the
    group's longest chunk.  The ``parity`` bytes themselves are not read.
    """
    k = int(box.get_u64("parity_k"))
    m = int(box.get_u64("group_size"))
    if k < 1 or m < 1 or m + k > MAX_GROUP_BLOCKS:
        raise ContainerError(f"impossible parity geometry: k={k} per group of {m}")
    plens = box.get_array("parity_lens").astype(np.int64)
    n_groups = -(-table.lens.size // m)
    if plens.size != n_groups or (plens < 0).any():
        raise ContainerError(
            f"parity_lens holds {plens.size} group(s), chunk table implies {n_groups}"
        )
    for g in range(n_groups):
        want = int(table.lens[g * m : (g + 1) * m].max())
        if int(plens[g]) != want:
            raise ContainerError(
                f"parity group {g}: block length {int(plens[g])}, "
                f"longest member chunk is {want}"
            )
    return ParityGeometry(k, m, plens)


# -- stream introspection ----------------------------------------------------


def iter_chunk_blobs(blob: bytes) -> Iterator[bytes]:
    """Yield the per-chunk container streams of a CHUNKED blob, read as decompress reads."""
    yield from ChunkedCompressor._read_chunks(blob)[2]


def chunk_patch_total(blob: bytes) -> int:
    """Sum of per-chunk patch-channel sizes (0 = Lemma 2 held everywhere)."""
    from repro.inspection import inspect_stream

    total = 0
    for chunk in iter_chunk_blobs(blob):
        model = inspect_stream(chunk)
        model.raise_if_damaged()
        total += model.meta("n_patch") or 0
    return total


# -- damage-tolerant loading -------------------------------------------------


def _chunked_meta_box(model, mismatch: str, extra: tuple = ()) -> Container:
    """The container of an inspected, damaged CHUNKED stream whose metadata
    sections (and ``extra`` ones) hold their CRCs -- what recovery and repair
    need.  Another codec raises a :class:`ContainerError` ending in ``mismatch``."""
    box = model.box
    if box is None:
        raise model.header_error
    if box.codec != ChunkedCompressor.name:
        raise ContainerError(f"stream was produced by {box.codec!r}{mismatch}")
    for key in _CHUNKED_META + extra:
        if key in box and not model.crc_ok(key):
            raise ChecksumError(f"CHUNKED metadata section {key!r} is corrupt")
    return box


def _recover_chunked(model, fill: float | str) -> tuple[np.ndarray, RecoveryReport]:
    """:meth:`ChunkedCompressor.decompress_partial` of an inspected stream."""
    fill_value, fill_mode = _fill_scalar(fill)
    box = _chunked_meta_box(model, f", expected {ChunkedCompressor.name!r}")
    shape, dtype = box.get_shape("shape"), box.get_dtype("dtype")
    total = math.prod(shape)
    if model.table is None:
        raise model.table_error
    offs, lens, elems = model.table
    if not lens.size:
        return np.zeros(shape, dtype=dtype), RecoveryReport(0, 0, fill_mode=fill_mode)
    payload = box.get("payload") if "payload" in box else b""
    pieces = [payload[o : o + ln] for o, ln in zip(offs, lens)]
    repaired: tuple[int, ...] = ()
    if "parity_k" in box:
        from repro.integrity import _rebuild_chunks

        try:
            with span("repair-stream", nbytes=model.nbytes):
                rebuilt, rep = _rebuild_chunks(model)
        except StreamError:
            pass  # parity metadata itself damaged: recover unrepaired
        else:
            if rep.repaired:
                pieces, repaired = rebuilt, rep.repaired
    starts = np.concatenate([[0], np.cumsum(elems)])
    out = np.full(total, fill_value, dtype=dtype)
    failures: list[ChunkFailure] = []
    for i, piece in enumerate(pieces):
        chunk_span = (int(starts[i]), int(starts[i + 1]))
        try:
            if len(piece) < lens[i]:
                raise ContainerError("chunk bytes missing (truncated payload)")
            part = _decompress_chunk(piece)
            if part.size != elems[i]:
                raise ContainerError("chunk decoded to the wrong element count")
            out[chunk_span[0] : chunk_span[1]] = part.ravel().astype(dtype, copy=False)
        except StreamError as exc:
            failures.append(ChunkFailure(i, chunk_span, str(exc)))
    if fill == "nearest" and failures:
        _apply_nearest_fill(out, [f.span for f in failures])
    return out.reshape(shape), RecoveryReport(
        len(pieces), total, tuple(failures), fill_mode=fill_mode, repaired_chunks=repaired
    )


def recover_array(
    blob: bytes, fill: float | str = "nan"
) -> tuple[np.ndarray | None, RecoveryReport | None]:
    """Best-effort decode of any stream: ``(array, report)``.

    Clean streams return ``(array, None)``.  Damaged CHUNKED streams
    first rebuild what the stream's Reed-Solomon parity covers, then
    recover the remaining intact chunks as
    :meth:`ChunkedCompressor.decompress_partial` does; unrecoverable spans
    are filled per ``fill`` -- a float, or ``"nan"``/``"zero"``/``"nearest"``.
    Damaged monolithic streams whose shape/dtype header is still readable
    return a fully filled array; when even the geometry is gone the
    array is None.  Never raises on corrupt bytes.
    """
    from repro import decompress
    from repro.inspection import inspect_stream

    fill_value, fill_mode = _fill_scalar(fill)
    try:
        return decompress(blob), None
    except StreamError as exc:
        cause = f"{type(exc).__name__}: {exc}"
    model = inspect_stream(blob)
    try:
        if model.codec == ChunkedCompressor.name:
            return _recover_chunked(model, fill)
        shape, dtype = model.shape, model.dtype
        if shape is None or dtype is None:
            raise ContainerError("stream geometry unreadable")
        total = math.prod(shape)
        report = RecoveryReport(
            1, total, (ChunkFailure(None, (0, total), cause),), fill_mode=fill_mode
        )
        # "nearest" has no survivors in a whole-stream loss; keep NaN so
        # the damage stays visible.
        return np.full(shape, fill_value, dtype=dtype), report
    except ValueError:  # StreamError, or np.full of a corrupt non-float dtype
        return None, RecoveryReport(
            0, 0, (ChunkFailure(None, None, cause),), fill_mode=fill_mode
        )
