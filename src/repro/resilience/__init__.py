"""Job-level resilience: policies, degradation ladders, resumable jobs.

Three layers (see ``docs/resilience.md``):

* :class:`ResiliencePolicy` -- the only retry/backoff/deadline/memory/
  breaker interface, parsed from spec strings
  (``parse_policy("retries=3;chunk-timeout=2;ladder=SZ_T>GZIP")``) and
  accepted as ``policy=`` by :class:`repro.core.chunked.ChunkedCompressor`,
  the file-per-process runner, :func:`repro.parallel.runner.atomic_write_bytes`
  and the CLI's ``--policy``.
* :class:`DegradationLadder` -- a compressor chain that falls back rung
  by rung on codec failure or bound violation, recording every
  fallback in metrics, events and the stream itself.
* :mod:`~repro.resilience.jobs` -- crash-safe journaled
  compress/decompress (:func:`run_compress_job`, :func:`resume_job`)
  over the write-ahead :class:`~repro.resilience.journal.JobJournal`,
  with named crash points (:mod:`~repro.resilience.crashpoints`) that
  the chaos harness in :mod:`repro.testing.chaos` enumerates.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.resilience.crashpoints import crash_hook, reach
    from repro.resilience.journal import JobJournal
    from repro.resilience.jobs import (
        JobResult,
        build_job_compressor,
        resume_job,
        run_compress_job,
        run_decompress_job,
    )
    from repro.resilience.ladder import DegradationLadder
    from repro.resilience.policy import (
        ChunkIncident,
        CircuitBreaker,
        CircuitOpenError,
        JobDeadlineError,
        JournalError,
        LadderExhaustedError,
        MemoryBudgetError,
        ResilienceError,
        ResiliencePolicy,
        ResilienceReport,
        parse_policy,
    )

__all__ = [
    "ChunkIncident",
    "CircuitBreaker",
    "CircuitOpenError",
    "DegradationLadder",
    "JobDeadlineError",
    "JobJournal",
    "JobResult",
    "JournalError",
    "LadderExhaustedError",
    "MemoryBudgetError",
    "ResilienceError",
    "ResiliencePolicy",
    "ResilienceReport",
    "build_job_compressor",
    "crash_hook",
    "parse_policy",
    "reach",
    "resume_job",
    "run_compress_job",
    "run_decompress_job",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.crashpoints": ("crash_hook", "reach"),
    "repro.resilience.journal": ("JobJournal",),
    "repro.resilience.jobs": (
        "JobResult", "build_job_compressor", "resume_job", "run_compress_job",
        "run_decompress_job",
    ),
    "repro.resilience.ladder": ("DegradationLadder",),
    "repro.resilience.policy": (
        "ChunkIncident", "CircuitBreaker", "CircuitOpenError", "JobDeadlineError",
        "JournalError", "LadderExhaustedError", "MemoryBudgetError", "ResilienceError",
        "ResiliencePolicy", "ResilienceReport", "parse_policy",
    ),
})
