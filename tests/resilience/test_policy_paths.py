"""ResiliencePolicy enforcement through ChunkedCompressor: circuit breaker,
job deadline, memory budget and the watchdog's backoff schedule."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.compressors.base import AbsoluteBound, RelativeBound, UnsupportedBound
from repro.core.chunked import ChunkedCompressor
from repro.observe.metrics import metrics
from repro.resilience import CircuitOpenError, JobDeadlineError, MemoryBudgetError
from repro.testing import CrashingExecutor, StallingExecutor

BOUND = RelativeBound(1e-3)


@pytest.fixture
def eight_chunks() -> np.ndarray:
    """A 1-D field cut into 8 chunks at chunk_bytes=2048."""
    rng = np.random.default_rng(5)
    return rng.random(8 * 512).astype(np.float32) + 0.5


def crashing(crash_on):
    """Executor factory whose pools fail the listed task numbers."""
    return lambda n: CrashingExecutor(ThreadPoolExecutor(n), crash_on=crash_on)


class TestCircuitBreaker:
    def test_trip_raises_through_chunked(self, eight_chunks):
        ck = ChunkedCompressor(chunk_bytes=2048, workers=2, policy="breaker=0.5/4",
                               executor=crashing(range(1, 9)))
        before = metrics().counter("resilience.breaker_open").value
        with pytest.raises(CircuitOpenError, match="4/4 recent chunk failures"):
            ck.compress(eight_chunks, BOUND)
        assert metrics().counter("resilience.breaker_open").value == before + 1

    def test_failed_compress_leaves_no_stale_report(self, eight_chunks):
        crash_on: list[int] = []
        ck = ChunkedCompressor(chunk_bytes=2048, workers=2, policy="breaker=0.5/4",
                               executor=crashing(crash_on))
        ck.compress(eight_chunks, BOUND)
        assert ck.last_resilience.summary() == "all 8 chunks clean on the first attempt"
        crash_on.extend(range(1, 9))
        with pytest.raises(CircuitOpenError):
            ck.compress(eight_chunks, BOUND)
        assert ck.last_resilience is None

    def test_rejected_bound_leaves_no_stale_report(self, eight_chunks):
        ck = ChunkedCompressor(chunk_bytes=2048, executor="serial")
        ck.compress(eight_chunks, BOUND)
        assert ck.last_resilience is not None
        with pytest.raises(UnsupportedBound):
            ck.compress(eight_chunks, AbsoluteBound(1e-3))
        assert ck.last_resilience is None


class TestJobDeadline:
    def test_pooled_stall_raises_job_deadline(self, eight_chunks):
        ck = ChunkedCompressor(
            chunk_bytes=2048, workers=2, policy="job-timeout=0.3",
            executor=lambda n: StallingExecutor(ThreadPoolExecutor(n), stall_on=1),
        )
        t0 = time.perf_counter()
        with pytest.raises(JobDeadlineError, match="0.3s deadline"):
            ck.compress(eight_chunks, BOUND)
        assert time.perf_counter() - t0 < 5.0, "waited on the stalled chunk"

    def test_serial_run_stops_between_chunks(self, brittle, field_2d):
        brittle.hang_on = frozenset({1})
        brittle.hang_s = 0.3
        ck = ChunkedCompressor("BRITTLE", chunk_bytes=1024, executor="serial",
                               policy="job-timeout=0.1")
        with pytest.raises(JobDeadlineError):
            ck.compress(field_2d, BOUND)
        assert brittle.calls == 1  # chunk 0 ran over; chunk 1 never started


class TestMemoryBudget:
    def test_budget_caps_pool_width(self, eight_chunks):
        widths: list[int] = []

        def executor(n):
            widths.append(n)
            return ThreadPoolExecutor(n)

        ck = ChunkedCompressor(chunk_bytes=2048, workers=8, executor=executor,
                               policy="memory=16K")
        assert ck.workers == (16 * 1024) // (4 * 2048)
        ck.compress(eight_chunks, BOUND)
        assert widths == [2]

    def test_budget_below_one_worker_raises(self):
        with pytest.raises(MemoryBudgetError, match="below one"):
            ChunkedCompressor(chunk_bytes=2048, policy="memory=4K")


class TestWatchdogBackoff:
    def test_default_backoff_is_50ms_then_100ms(self, monkeypatch):
        """The first attempt and the first fresh worker hang; the second
        fresh worker delivers.  The pauses before the two retries follow
        the default policy: 0.05 s, then 0.1 s."""
        field = np.random.default_rng(9).random(256).astype(np.float32) + 0.5
        pauses: list[float] = []
        monkeypatch.setattr(time, "sleep", pauses.append)
        ck = ChunkedCompressor(
            chunk_bytes=1 << 20, policy="chunk-timeout=0.2",
            executor=lambda n: StallingExecutor(ThreadPoolExecutor(n), stall_on=1),
        )
        fresh = iter([StallingExecutor(ThreadPoolExecutor(1), stall_on=1),
                      ThreadPoolExecutor(1)])
        ck._fresh_worker = lambda: next(fresh)
        blob = ck.compress(field, BOUND)
        assert pauses == [0.05, 0.1]
        assert ck.last_resilience.timed_out == 1
        reference = ChunkedCompressor(chunk_bytes=1 << 20, executor="serial")
        assert blob == reference.compress(field, BOUND)
