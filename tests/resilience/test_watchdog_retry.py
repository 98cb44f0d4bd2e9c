"""Satellite: a worker that hangs, then crashes on retry, must neither
hang the job nor escape the retry budget."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.compressors.base import RelativeBound
from repro.core.chunked import ChunkedCompressor, ChunkTimeoutError
from repro.observe import call_report

BOUND = RelativeBound(1e-3)


@pytest.fixture
def one_chunk_field():
    """Small enough for a single chunk, so BRITTLE call numbers are exact."""
    rng = np.random.default_rng(7)
    return rng.random((32, 8)).astype(np.float32) + 0.5


class TestHungThenCrashingWorker:
    def test_hang_then_crash_then_recover(self, brittle, one_chunk_field):
        """Call 1 hangs past the watchdog, the fresh-worker retry (call 2)
        crashes outright, and the in-process fallback (call 3) succeeds.
        The job must finish promptly with the bound intact."""
        brittle.hang_on = frozenset({1})
        brittle.hang_s = 5.0
        brittle.fail_on = frozenset({2})
        ck = ChunkedCompressor(
            "BRITTLE", chunk_bytes=1 << 20, executor="thread",
            policy="retries=2;chunk-timeout=0.25;backoff=0.01",
        )
        t0 = time.perf_counter()
        with call_report() as rec:
            blob = ck.compress(one_chunk_field, BOUND)
        elapsed = time.perf_counter() - t0
        assert elapsed < 4.0, "job waited for the hung worker"
        np.testing.assert_array_equal(repro.decompress(blob), one_chunk_field)
        rep = rec.resilience
        assert rep is not None and not rep.quiet
        assert any(i.kind == "timeout" for i in rep.incidents)

    def test_retry_budget_is_honored(self, brittle, one_chunk_field):
        """Every attempt hangs: the watchdog must give up after exactly
        ``retries`` fresh workers instead of retrying forever."""
        brittle.hang_on = frozenset(range(1, 10))
        brittle.hang_s = 5.0
        ck = ChunkedCompressor(
            "BRITTLE", chunk_bytes=1 << 20, executor="thread",
            policy="retries=2;chunk-timeout=0.2;backoff=0.01",
        )
        t0 = time.perf_counter()
        with pytest.raises(ChunkTimeoutError, match="2 retries"):
            ck.compress(one_chunk_field, BOUND)
        assert time.perf_counter() - t0 < 4.0, "retry loop did not terminate"
        assert brittle.calls == 3  # initial + 2 retries, not one more

    def test_zero_retries_fails_on_first_timeout(self, brittle, one_chunk_field):
        brittle.hang_on = frozenset(range(1, 10))
        brittle.hang_s = 5.0
        ck = ChunkedCompressor(
            "BRITTLE", chunk_bytes=1 << 20, executor="thread",
            policy="retries=0;chunk-timeout=0.2",
        )
        with pytest.raises(ChunkTimeoutError):
            ck.compress(one_chunk_field, BOUND)
        assert brittle.calls == 1
