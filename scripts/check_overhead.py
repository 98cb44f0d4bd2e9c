#!/usr/bin/env python
"""Fail CI when a layer costs more than its overhead budget.

Usage::

    python scripts/check_overhead.py

Times each pair in ``PAIRS`` -- a variant against the baseline it must
stay close to, on the same work and input -- the same way:

* one warm-up run per side, whose time is discarded (caches, allocators
  and lazy imports settle before any round counts);
* a fixed number of rounds, each timing both sides back to back, with
  even rounds running the baseline first and odd rounds the variant, so
  sustained drift (CPU frequency, noisy neighbours) and "second run is
  warmer" effects land on both sides equally;
* a round's overhead is ``variant / baseline - 1``, with the baseline
  floored at 5 ms so timer jitter on a near-zero baseline cannot read as
  a huge overhead;
* the pair fails when the **median** round overhead exceeds its budget,
  so a stall that hits one side of a few rounds moves nothing.

Each side's mode switch (tracing, profiler, quality collection) happens
outside its timed region.  Each pair also checks that its variant still
does what its baseline does (same stream, empty patch channel, journal
removed, quiet resilience report): an overhead measured on broken work
would mean nothing.

One further check rides along: with tracing off and no profiler
installed, disabled ``span()`` entries, ``run_traced`` and the
compressor trace wrappers must retain no memory per call (tracemalloc's
net traced allocation over 20000 entries within 64 KiB of cache slack)
and must leave the tracer buffer empty.

Prints each pair's median, quartiles and round count; exits 1 when any
pair exceeds its budget or fails its check, or the allocation check
fails.  Writes only inside a temporary directory that it removes.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import Container, RelativeBound, compress, decompress  # noqa: E402
from repro.compressors import get_compressor  # noqa: E402
from repro.observe import (  # noqa: E402
    call_report,
    enable_tracing,
    get_tracer,
    profiling,
    run_traced,
    set_quality_enabled,
    span,
    tracing_enabled,
)

#: Baseline floor of a round's ratio, in seconds.
FLOOR_S = 0.005
#: Sampling rate of the profiler pair (the profiler's default, a prime).
PROFILE_HZ = 97.0
#: Disabled span entries in the no-op allocation check, and the net
#: bytes they may retain (interned caches).
ALLOC_CALLS = 20000
ALLOC_BUDGET = 64 * 1024

BOUND = RelativeBound(1e-3)
#: Chunk size of the resilience pairs.
CHUNK_BYTES = 1 << 20
#: The policied pair's policy: none of it fires on the happy path.
POLICY = "retries=3;backoff=0.1;job-timeout=3600;breaker=0.5/10"

#: A side of a pair: runs its work once and returns the work's seconds.
Side = Callable[[], float]
#: ``None`` when the last run of a pair did what it should, else why not.
Check = Callable[[], str | None]


class Pair(NamedTuple):
    name: str
    what: str
    budget: float
    rounds: int
    #: ``build(workdir) -> (baseline, variant, check)``; files go under
    #: ``workdir``.
    build: Callable[[str], tuple[Side, Side, Check]]


def timed(work: Callable[[], object], mode=nullcontext) -> Side:
    """A side running ``work`` inside ``mode()``; only ``work`` is timed.

    The tracer's span buffer is emptied before each run, so neither side
    pays for spans the other left behind.
    """

    def side() -> float:
        get_tracer().clear()
        with mode():
            t0 = time.perf_counter()
            work()
            return time.perf_counter() - t0

    return side


def paired_times(baseline: Side, variant: Side, rounds: int) -> list[tuple[float, float]]:
    """``(baseline_s, variant_s)`` per round, after one discarded warm-up
    per side; even rounds run the baseline first, odd rounds the variant."""
    baseline()
    variant()
    times = []
    for i in range(rounds):
        if i % 2:
            v = variant()
            b = baseline()
        else:
            b = baseline()
            v = variant()
        times.append((b, v))
    return times


def overheads(times: list[tuple[float, float]]) -> list[float]:
    """Per-round ``variant / max(baseline, FLOOR_S) - 1``."""
    return [v / max(b, FLOOR_S) - 1.0 for b, v in times]


def run_pair(pair: Pair, workdir: str) -> tuple[bool, str]:
    """``(passed, report line)`` for one pair."""
    baseline, variant, check = pair.build(workdir)
    times = paired_times(baseline, variant, pair.rounds)
    ratios = overheads(times)
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    problem = check()
    passed = median <= pair.budget and problem is None
    verdict = "ok" if passed else "FAIL" + (f" ({problem})" if problem else "")
    base_ms = statistics.median(b for b, _ in times) * 1e3
    return passed, (
        f"{pair.name}: {pair.what}: median {median * 100:+.1f}% "
        f"(quartiles {q1 * 100:+.1f}% to {q3 * 100:+.1f}%, {pair.rounds} rounds, "
        f"baseline median {base_ms:.0f} ms), budget {pair.budget * 100:.0f}%: {verdict}"
    )


# -- the pairs ----------------------------------------------------------------


def _signed_lognormal(n: int = 64) -> np.ndarray:
    rng = np.random.default_rng(42)
    mags = rng.lognormal(mean=0.0, sigma=1.5, size=(n, n, n))
    signs = rng.choice([-1.0, 1.0], size=mags.shape)
    return (mags * signs).astype(np.float32)


def _smooth(n: int, periods: float) -> np.ndarray:
    """Smooth positive float32 field: SZ_T's happy path, nothing patched."""
    x = np.linspace(0.0, periods * np.pi, n)
    return (2.0 + np.sin(x) + 0.1 * np.sin(5.7 * x)).astype(np.float32)


def _no_check() -> None:
    return None


@contextmanager
def _tracing(on: bool, profile_hz: float = 0.0):
    was = tracing_enabled()
    enable_tracing(on)
    try:
        with profiling(hz=profile_hz) if profile_hz else nullcontext():
            yield
    finally:
        enable_tracing(was)


@contextmanager
def _quality(on: bool):
    set_quality_enabled(on)
    try:
        yield
    finally:
        set_quality_enabled(None)


def _szt_roundtrip() -> Callable[[], object]:
    data = _signed_lognormal()
    return lambda: decompress(compress(data, BOUND, compressor="SZ_T"))


def _tracing_pair(workdir: str):
    work = _szt_roundtrip()
    return (timed(work, partial(_tracing, False)),
            timed(work, partial(_tracing, True)), _no_check)


def _profiler_pair(workdir: str):
    # The profiler always runs beside tracing (samples are attributed to
    # spans), so its baseline is the traced run.
    work = _szt_roundtrip()
    return (timed(work, partial(_tracing, True)),
            timed(work, partial(_tracing, True, PROFILE_HZ)), _no_check)


def _quality_pair(workdir: str):
    # Full-scale NYX velocity_x (64^3): at half scale, fixed per-call
    # costs dominate and the per-point budget loses its meaning.
    from repro.data import load_field

    data = load_field("NYX", "velocity_x", scale=1.0)
    blobs: dict[bool, bytes] = {}

    def compress_as(on: bool):
        def work() -> None:
            blobs[on] = compress(data, BOUND, compressor="SZ_T")
        return timed(work, partial(_quality, on))

    def check():
        if blobs[False] != blobs[True]:
            return "quality collection changed the stream"
        return None

    return compress_as(False), compress_as(True), check


def _safeguards_pair(workdir: str):
    from repro.safeguards import SafeguardedCompressor

    data = _smooth(2**20, 40.0)  # 4 MB
    blobs: dict[str, bytes] = {}

    def roundtrip(codec):
        def work() -> None:
            blobs[codec.name] = blob = codec.compress(data, BOUND)
            decompress(blob)
        return timed(work)

    def check():
        if Container.from_bytes(blobs["SAFE"]).get_u64("n_patch"):
            return "SAFE patched points SZ_T should have bounded itself"
        return None

    return (roundtrip(get_compressor("SZ_T")),
            roundtrip(SafeguardedCompressor("SZ_T", ["rel:0.001"])), check)


def _chunked(policy: str | None = None):
    from repro.core.chunked import ChunkedCompressor

    return ChunkedCompressor("SZ_T", chunk_bytes=CHUNK_BYTES, workers=1,
                             executor="serial", policy=policy)


def _journal_pair(workdir: str):
    from repro.parallel.runner import atomic_write_bytes
    from repro.resilience import run_compress_job

    data = _smooth(2**22, 160.0)  # 16 MB, 16 chunks
    field = os.path.join(workdir, "field.raw")
    data.tofile(field)
    plain_out = os.path.join(workdir, "plain.rpz")
    job_out = os.path.join(workdir, "journaled.rpz")
    chunked = _chunked()
    jobs = {}

    def plain() -> None:
        atomic_write_bytes(plain_out, chunked.compress(data, BOUND))

    def journaled() -> None:
        jobs["last"] = run_compress_job(
            field, job_out, BOUND, shape=data.shape, compressor="SZ_T",
            chunk_bytes=CHUNK_BYTES, workers=1, executor="serial",
        )

    def check():
        if jobs["last"].n_chunks != data.nbytes // CHUNK_BYTES:
            return f"the job wrote {jobs['last'].n_chunks} chunks"
        if os.path.exists(job_out + ".journal"):
            return "the journal outlived its commit"
        with open(job_out, "rb") as fh:
            recon = decompress(fh.read()).astype(np.float64)
        x = data.astype(np.float64)
        if not np.all(np.abs(recon - x) <= BOUND.value * np.abs(x)):
            return "the journaled output violates the bound"
        return None

    return timed(plain), timed(journaled), check


def _policy_pair(workdir: str):
    data = _smooth(2**22, 160.0)
    plain = _chunked()
    policied = _chunked(POLICY)
    reports = {}

    def with_policy() -> None:
        with call_report() as rec:
            policied.compress(data, BOUND)
        reports["last"] = rec.resilience

    def check():
        res = reports["last"]
        if res is None or not res.quiet:
            return f"the happy path was not quiet: {res}"
        return None

    return timed(partial(plain.compress, data, BOUND)), timed(with_policy), check


PAIRS = (
    Pair("tracing", "traced vs untraced SZ_T round trip, 64^3 signed lognormal",
         0.05, 9, _tracing_pair),
    Pair("profiler", f"{PROFILE_HZ:g} Hz profiler vs traced, same round trip",
         0.05, 9, _profiler_pair),
    Pair("quality", "digest on vs off, SZ_T compress of NYX velocity_x 64^3",
         0.05, 21, _quality_pair),
    Pair("safeguards", "SAFE(SZ_T, rel:0.001) vs SZ_T round trip, 4 MB smooth field",
         0.10, 25, _safeguards_pair),
    Pair("journal", "run_compress_job vs chunked compress + atomic write, "
         "16 MB in 1 MiB chunks, 1 serial worker", 0.03, 15, _journal_pair),
    Pair("policy", "policied vs policy-free chunked compress, same field",
         0.03, 15, _policy_pair),
)


# -- the no-op fast path --------------------------------------------------------


def _noop() -> None:
    pass


def check_noop_allocation(n_calls: int, budget_bytes: int) -> tuple[int, bool]:
    """Net bytes retained by ``n_calls`` disabled instrumentation entries.

    With tracing off and no profiler installed, ``span()`` entries, the
    compressor trace wrappers, and ``run_traced`` must not buffer
    anything: tracemalloc's net traced allocation over a measured round
    must stay under ``budget_bytes`` (a small slack for interned caches),
    and the tracer buffer must stay empty.  Returns
    ``(net_retained_bytes, ok)``.
    """
    enable_tracing(False)
    tracer = get_tracer()
    tracer.clear()
    comp = get_compressor("SZ_T")
    data = np.linspace(1.0, 2.0, 4096).astype(np.float32)
    blob = comp.compress(data, RelativeBound(1e-3))

    def one_round() -> None:
        for _ in range(n_calls):
            with span("noop", codec="SZ_T"):
                pass
        for _ in range(64):
            run_traced(_noop)
        comp.decompress(blob)

    one_round()  # warm caches/allocators outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        one_round()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    buffered = bool(tracer.render())
    return retained, (retained <= budget_bytes and not buffered)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(prefix="repro-overhead-") as workdir:
        for pair in PAIRS:
            passed, line = run_pair(pair, workdir)
            print(line, flush=True)
            failed |= not passed

    retained, alloc_ok = check_noop_allocation(ALLOC_CALLS, ALLOC_BUDGET)
    print(f"no-op fast path: {retained:+d} net bytes retained over "
          f"{ALLOC_CALLS} disabled span entries (budget {ALLOC_BUDGET} B): "
          + ("ok" if alloc_ok else "FAIL"))
    failed |= not alloc_ok

    if failed:
        print("FAIL: an overhead budget or check failed", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
