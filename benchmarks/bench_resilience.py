"""Resilience bench: the happy-path overhead budget, enforced.

The resilience layer's design promise is that jobs which never fail pay
almost nothing for the machinery that saves the ones that do: the journal
adds one part-file write plus an fsynced manifest append per wave, and
policy checks are a handful of float comparisons per chunk.  This module
puts a number on that promise and wires it into CI:

* ``journaled-compress`` pair -- plain chunked compress-and-write vs the
  same work through :func:`repro.resilience.run_compress_job` (journal
  created, every chunk journaled, output committed, journal removed).
  Both records carry ``overhead_pair``/``overhead_role`` extra-info;
  ``scripts/check_bench_regression.py`` pairs them and **fails when the
  journaled run exceeds the plain one by more than ``overhead_budget``**
  (3%).  The gate is baseline-file-independent, so it also runs on fresh
  reports.
* ``policy-checks`` pair -- the same compress with and without a full
  :class:`~repro.resilience.ResiliencePolicy` (retries, watchdog,
  breaker) attached, none of which fires on the happy path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import RelativeBound, decompress
from repro.core.chunked import ChunkedCompressor
from repro.observe import call_report
from repro.parallel.runner import atomic_write_bytes
from repro.resilience import run_compress_job

BOUND = RelativeBound(1e-3)
CHUNK_BYTES = 1 << 20

#: Allowed slowdown of the journaled/policied happy path over the plain one.
OVERHEAD_BUDGET = 0.03


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    """16 MB float32 smooth positive field (multi-chunk, SZ_T happy path)."""
    n = 2**22
    x = np.linspace(0.0, 160.0 * np.pi, n)
    data = 2.0 + np.sin(x) + 0.1 * np.sin(5.7 * x)
    return data.astype(np.float32)


@pytest.fixture(scope="module")
def field_file(field, tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("resilience") / "field.raw")
    field.tofile(path)
    return path


@pytest.mark.benchmark(group="resilience-overhead", min_rounds=5)
def test_plain_compress_write_baseline(benchmark, field, tmp_path):
    out = str(tmp_path / "plain.rpz")
    chunked = ChunkedCompressor("SZ_T", chunk_bytes=CHUNK_BYTES, workers=1,
                                executor="serial")

    def job():
        blob = chunked.compress(field, BOUND)
        atomic_write_bytes(out, blob)
        return blob

    blob = benchmark(job)
    benchmark.extra_info["nbytes"] = field.nbytes
    benchmark.extra_info["out_bytes"] = len(blob)
    benchmark.extra_info["overhead_pair"] = "journaled-compress"
    benchmark.extra_info["overhead_role"] = "baseline"


@pytest.mark.benchmark(group="resilience-overhead", min_rounds=5)
def test_journaled_compress(benchmark, field, field_file, tmp_path):
    out = str(tmp_path / "journaled.rpz")

    def job():
        return run_compress_job(
            field_file, out, BOUND, shape=field.shape,
            compressor="SZ_T", chunk_bytes=CHUNK_BYTES, workers=1,
            executor="serial",
        )

    result = benchmark(job)
    assert result.n_chunks == field.nbytes // CHUNK_BYTES
    assert not os.path.exists(out + ".journal")
    np.testing.assert_allclose(
        decompress(open(out, "rb").read()), field, rtol=1e-3
    )
    benchmark.extra_info["nbytes"] = field.nbytes
    benchmark.extra_info["out_bytes"] = result.nbytes
    benchmark.extra_info["overhead_pair"] = "journaled-compress"
    benchmark.extra_info["overhead_role"] = "safeguarded"
    benchmark.extra_info["overhead_budget"] = OVERHEAD_BUDGET


@pytest.mark.benchmark(group="resilience-overhead", min_rounds=5)
def test_policy_free_compress_baseline(benchmark, field):
    chunked = ChunkedCompressor("SZ_T", chunk_bytes=CHUNK_BYTES, workers=1,
                                executor="serial")
    blob = benchmark(chunked.compress, field, BOUND)
    benchmark.extra_info["nbytes"] = field.nbytes
    benchmark.extra_info["out_bytes"] = len(blob)
    benchmark.extra_info["overhead_pair"] = "policy-checks"
    benchmark.extra_info["overhead_role"] = "baseline"


@pytest.mark.benchmark(group="resilience-overhead", min_rounds=5)
def test_policied_compress(benchmark, field):
    chunked = ChunkedCompressor(
        "SZ_T", chunk_bytes=CHUNK_BYTES, workers=1, executor="serial",
        policy="retries=3;backoff=0.1;job-timeout=3600;breaker=0.5/10",
    )
    with call_report() as rec:
        blob = benchmark(chunked.compress, field, BOUND)
    assert rec.resilience is not None and rec.resilience.quiet
    benchmark.extra_info["nbytes"] = field.nbytes
    benchmark.extra_info["out_bytes"] = len(blob)
    benchmark.extra_info["overhead_pair"] = "policy-checks"
    benchmark.extra_info["overhead_role"] = "safeguarded"
    benchmark.extra_info["overhead_budget"] = OVERHEAD_BUDGET
