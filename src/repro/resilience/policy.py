"""Resilience policy: the one retry/deadline/degradation interface.

:class:`ResiliencePolicy` is the only way to set a retry budget, a
backoff, or a deadline anywhere in the pipeline: the chunk watchdog of
:class:`~repro.core.chunked.ChunkedCompressor`, the per-rank deadlines of
:func:`~repro.parallel.runner.dump_file_per_process` /
:func:`~repro.parallel.runner.load_file_per_process`, and the I/O retries
of :func:`~repro.parallel.runner.atomic_write_bytes` all take a
``policy=`` (a policy, its spec string, or None for the defaults).  It
also carries the job-level controls: a whole-job deadline, a memory
budget that caps concurrent chunk workers, a failure-rate circuit
breaker, and a graceful-degradation codec ladder.

Policies parse from compact spec strings (mirroring the safeguards
grammar), so the CLI and job journals can carry them as text::

    retries=3;backoff=0.1;jitter=0.5;chunk-timeout=2;job-timeout=60;
    memory=256M;breaker=0.5/10;ladder=SZ_T>GZIP

Every field is optional; :meth:`ResiliencePolicy.spec` renders the
canonical round-trippable form.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace

__all__ = [
    "ChunkIncident",
    "CircuitBreaker",
    "CircuitOpenError",
    "JobDeadlineError",
    "JournalError",
    "LadderExhaustedError",
    "MemoryBudgetError",
    "ResilienceError",
    "ResiliencePolicy",
    "ResilienceReport",
    "as_policy",
    "parse_policy",
]


class ResilienceError(RuntimeError):
    """Base class for job-level resilience failures.

    Deliberately *not* a :class:`~repro.encoding.container.StreamError`:
    these are environment/budget faults (deadlines, breakers, exhausted
    ladders, journal damage), never evidence that stream bytes are bad.
    """


class CircuitOpenError(ResilienceError):
    """The failure-rate circuit breaker tripped; the job stopped early."""


class JobDeadlineError(ResilienceError):
    """The whole job blew through its ``job-timeout`` budget."""


class MemoryBudgetError(ResilienceError):
    """The memory budget cannot accommodate even one chunk worker."""


class LadderExhaustedError(ResilienceError):
    """Every rung of the degradation ladder failed for a chunk."""


class JournalError(ResilienceError):
    """A job journal is missing, torn beyond use, or inconsistent."""


def _parse_size(text: str) -> int:
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:].upper(), 1)
    digits = text[:-1] if scale != 1 else text
    value = int(digits) * scale
    if value <= 0:
        raise ValueError(f"size must be positive: {text!r}")
    return value


def _format_size(nbytes: int) -> str:
    for suffix, scale in (("G", 2**30), ("M", 2**20), ("K", 2**10)):
        if nbytes % scale == 0:
            return f"{nbytes // scale}{suffix}"
    return str(nbytes)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Declarative failure-handling policy for a compression job.

    Parameters
    ----------
    retries:
        Retry budget: fresh workers for a chunk that hung past
        ``chunk_timeout_s``, and repeat attempts of an atomic write that
        hit a transient ``OSError``.
    backoff_s:
        Initial exponential-backoff pause between retries (see
        :meth:`backoff_for`).
    jitter:
        Backoff randomization fraction in ``[0, 1]``: each pause is
        scaled by a factor drawn uniformly from ``[1-jitter, 1+jitter]``
        using a deterministic per-chunk RNG seeded from ``seed``, so two
        runs with the same policy still behave identically.
    chunk_timeout_s:
        Per-chunk watchdog deadline (None = no watchdog).
    job_timeout_s:
        Whole-job deadline; breached jobs raise :class:`JobDeadlineError`
        at the next chunk boundary.  In the file-per-process runner it
        bounds each rank's dump or load, checked at phase boundaries.
    memory_budget:
        Approximate peak-memory budget in bytes.  Caps concurrent chunk
        workers (each worker is charged ``4 x chunk_bytes`` for its input
        span, transform workspace and output); a budget below one
        worker's charge raises :class:`MemoryBudgetError` up front.
    breaker_threshold:
        Failure-rate circuit breaker: once at least ``breaker_window``
        chunk outcomes are known and the failure fraction exceeds this,
        the job stops with :class:`CircuitOpenError` instead of grinding
        through serial retries of a systematically failing codec.
    breaker_window:
        Minimum chunk outcomes observed before the breaker may trip.
    ladder:
        Degradation codec chain (registry names) tried in order when the
        primary codec fails; see :class:`repro.resilience.DegradationLadder`.
    seed:
        Seed for the deterministic jitter RNG.
    """

    retries: int = 2
    backoff_s: float = 0.05
    jitter: float = 0.0
    chunk_timeout_s: float | None = None
    job_timeout_s: float | None = None
    memory_budget: int | None = None
    breaker_threshold: float | None = None
    breaker_window: int = 10
    ladder: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        for name in ("chunk_timeout_s", "job_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(f"memory budget must be positive, got {self.memory_budget}")
        if self.breaker_threshold is not None and not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError(
                f"breaker threshold must be in (0, 1], got {self.breaker_threshold}"
            )
        if self.breaker_window < 1:
            raise ValueError(f"breaker window must be >= 1, got {self.breaker_window}")

    # -- spec round-trip -----------------------------------------------------

    def spec(self) -> str:
        """Canonical spec string; ``parse_policy(p.spec()) == p``."""
        parts = []
        if self.retries != 2:
            parts.append(f"retries={self.retries}")
        if self.backoff_s != 0.05:
            parts.append(f"backoff={self.backoff_s:g}")
        if self.jitter:
            parts.append(f"jitter={self.jitter:g}")
        if self.chunk_timeout_s is not None:
            parts.append(f"chunk-timeout={self.chunk_timeout_s:g}")
        if self.job_timeout_s is not None:
            parts.append(f"job-timeout={self.job_timeout_s:g}")
        if self.memory_budget is not None:
            parts.append(f"memory={_format_size(self.memory_budget)}")
        if self.breaker_threshold is not None:
            parts.append(f"breaker={self.breaker_threshold:g}/{self.breaker_window}")
        if self.ladder:
            parts.append("ladder=" + ">".join(self.ladder))
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def backoff_for(self, attempt: int, index: int = 0) -> float:
        """Backoff pause before retry ``attempt`` (1-based) of chunk ``index``.

        Exponential (``backoff_s * 2**(attempt-1)``) with deterministic
        jitter: the RNG is seeded from ``(seed, index, attempt)`` so the
        schedule is reproducible yet decorrelated across chunks.
        """
        base = self.backoff_s * 2 ** max(attempt - 1, 0)
        if not self.jitter or not base:
            return base
        rng = random.Random((self.seed << 24) ^ (index << 8) ^ attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def max_workers(self, workers: int, chunk_bytes: int) -> int:
        """Worker cap under the memory budget (identity when unbudgeted)."""
        if self.memory_budget is None:
            return workers
        per_worker = 4 * chunk_bytes
        if per_worker > self.memory_budget:
            raise MemoryBudgetError(
                f"memory budget {_format_size(self.memory_budget)} below one "
                f"worker's ~{_format_size(per_worker)} charge (4 x chunk_bytes); "
                f"shrink chunk_bytes or raise the budget"
            )
        return max(1, min(workers, self.memory_budget // per_worker))

    def breaker(self) -> "CircuitBreaker | None":
        if self.breaker_threshold is None:
            return None
        return CircuitBreaker(self.breaker_threshold, self.breaker_window)


def parse_policy(text: str) -> ResiliencePolicy:
    """Parse a policy spec string (see module docstring for the grammar)."""
    policy = ResiliencePolicy()
    text = text.strip()
    if not text:
        return policy
    try:
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad policy item {part!r}; expected key=value")
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if key == "retries":
                policy = replace(policy, retries=int(value))
            elif key == "backoff":
                policy = replace(policy, backoff_s=float(value))
            elif key == "jitter":
                policy = replace(policy, jitter=float(value))
            elif key == "chunk-timeout":
                policy = replace(policy, chunk_timeout_s=float(value))
            elif key == "job-timeout":
                policy = replace(policy, job_timeout_s=float(value))
            elif key == "memory":
                policy = replace(policy, memory_budget=_parse_size(value))
            elif key == "breaker":
                rate, _, window = value.partition("/")
                policy = replace(
                    policy,
                    breaker_threshold=float(rate),
                    breaker_window=int(window) if window else 10,
                )
            elif key == "ladder":
                rungs = tuple(r.strip() for r in value.split(">") if r.strip())
                if not rungs:
                    raise ValueError(f"empty ladder in {part!r}")
                policy = replace(policy, ladder=rungs)
            elif key == "seed":
                policy = replace(policy, seed=int(value))
            else:
                raise ValueError(
                    f"unknown policy key {key!r}; expected retries, backoff, "
                    f"jitter, chunk-timeout, job-timeout, memory, breaker, "
                    f"ladder or seed"
                )
    except ValueError as exc:
        raise ValueError(f"bad resilience policy {text!r}: {exc}") from None
    return policy


def as_policy(policy: ResiliencePolicy | str | None) -> ResiliencePolicy:
    """The policy an entry point's ``policy=`` argument stands for.

    A spec string is parsed, None means the defaults, and a policy
    passes through unchanged.
    """
    if policy is None:
        return ResiliencePolicy()
    if isinstance(policy, str):
        return parse_policy(policy)
    return policy


class CircuitBreaker:
    """Sliding-window failure-rate breaker over chunk outcomes.

    Record every outcome with :meth:`record`; once at least ``window``
    outcomes are known and the failure fraction over the most recent
    ``window`` exceeds ``threshold``, :attr:`tripped` turns true and
    stays true (a tripped breaker never closes itself -- the job is
    expected to stop).
    """

    def __init__(self, threshold: float, window: int) -> None:
        self.threshold = float(threshold)
        self.window = int(window)
        self._recent: deque[bool] = deque(maxlen=self.window)
        self.failures = 0
        self.observed = 0
        self.tripped = False

    def record(self, ok: bool) -> bool:
        """Record one outcome; returns the (possibly new) tripped state."""
        self.observed += 1
        self.failures += 0 if ok else 1
        self._recent.append(ok)
        if (
            not self.tripped
            and len(self._recent) >= self.window
            and (self._recent.count(False) / len(self._recent)) > self.threshold
        ):
            self.tripped = True
        return self.tripped

    def describe(self) -> str:
        recent = self._recent.count(False)
        return (
            f"{recent}/{len(self._recent)} recent chunk failures exceeds "
            f"breaker threshold {self.threshold:g} (window {self.window}; "
            f"{self.failures}/{self.observed} failures overall)"
        )


# -- incident reporting ------------------------------------------------------


@dataclass(frozen=True)
class ChunkIncident:
    """One resilience event on one chunk: a retry, timeout or fallback."""

    index: int
    kind: str  # "retry" | "timeout" | "fallback"
    detail: str = ""


@dataclass(frozen=True)
class ResilienceReport:
    """What the resilience machinery had to do during one compress call.

    All-quiet runs have ``incidents == ()`` and every counter zero; the
    report then prints as a single reassuring line.
    """

    n_chunks: int
    retried: int = 0
    timed_out: int = 0
    fallbacks: int = 0
    incidents: tuple[ChunkIncident, ...] = field(default=())

    @property
    def quiet(self) -> bool:
        return not (self.retried or self.timed_out or self.fallbacks)

    def summary(self) -> str:
        if self.quiet:
            return f"all {self.n_chunks} chunks clean on the first attempt"
        bits = []
        if self.timed_out:
            bits.append(f"{self.timed_out} timed out")
        if self.retried:
            bits.append(f"{self.retried} retried")
        if self.fallbacks:
            bits.append(f"{self.fallbacks} fell back down the codec ladder")
        return f"{self.n_chunks} chunks: " + ", ".join(bits)

    def to_dict(self) -> dict:
        return {
            "n_chunks": self.n_chunks,
            "retried": self.retried,
            "timed_out": self.timed_out,
            "fallbacks": self.fallbacks,
            "incidents": [
                {"index": i.index, "kind": i.kind, "detail": i.detail}
                for i in self.incidents
            ],
        }
