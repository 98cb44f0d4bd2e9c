"""Self-healing bench: parity encode overhead, repair throughput, watchdog.

Reed-Solomon parity buys chunk-level erasure tolerance; this bench puts
numbers on what it costs:

* parity encode overhead as a fraction of compression wall time at the
  default geometry (asserted < 15%, the CI gate duplicated from
  ``tests/test_selfheal.py`` at benchmark scale),
* storage overhead of the parity sections vs. the v2 stream,
* repair throughput: rebuilding two lost chunks per group from parity,
* watchdog overhead: an armed-but-never-firing per-chunk timeout must
  be free.

No BENCH baseline is committed for this module on purpose -- repair and
parity times are dominated by a handful of GF(256) table passes and too
small/noisy for the median-normalized regression gate; the hard 15%
assertion here is the actual gate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import RelativeBound
from repro.core.chunked import ChunkedCompressor
from repro.integrity import repair_stream
from repro.observe.metrics import metrics
from repro.testing import corrupt_chunk

BOUND = 1e-3
MB = 2**20


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    """32 MB float32 smooth positive field (8 default-size chunks)."""
    n = 32 * MB // 4
    x = np.linspace(0.0, 120.0 * np.pi, n)
    data = 2.0 + np.sin(x) + 0.1 * np.sin(5.7 * x)
    return data.astype(np.float32)


@pytest.mark.benchmark(group="selfheal-parity-overhead", min_rounds=1)
def test_parity_encode_overhead(benchmark, field):
    plain = ChunkedCompressor("SZ_T", executor="serial")
    with_parity = ChunkedCompressor("SZ_T", parity=2, executor="serial")

    t0 = time.perf_counter()
    v2 = plain.compress(field, RelativeBound(BOUND))
    plain_s = time.perf_counter() - t0

    before = metrics().snapshot()
    t0 = time.perf_counter()
    v3 = benchmark.pedantic(
        with_parity.compress, args=(field, RelativeBound(BOUND)),
        rounds=1, iterations=1,
    )
    wall = time.perf_counter() - t0
    parity_s = metrics().diff(before).get("parity.encode_s", {}).get("value", 0.0)

    benchmark.extra_info["nbytes"] = field.nbytes
    benchmark.extra_info["out_bytes"] = len(v3)
    benchmark.extra_info["parity_s"] = round(parity_s, 4)
    benchmark.extra_info["parity_frac_of_wall"] = round(parity_s / wall, 4)
    benchmark.extra_info["storage_overhead"] = round(len(v3) / len(v2) - 1.0, 4)
    benchmark.extra_info["plain_s"] = round(plain_s, 4)
    assert parity_s < 0.15 * wall, (
        f"parity encode {parity_s:.4f}s is {100 * parity_s / wall:.1f}% "
        f"of the {wall:.4f}s compression wall time"
    )
    # k=2/m=8 parity costs ~25% of the *compressed* bytes, and the
    # longest-chunk padding keeps it under ~35% for near-equal chunks.
    assert len(v3) / len(v2) - 1.0 < 0.35


@pytest.mark.benchmark(group="selfheal-repair", min_rounds=1)
def test_repair_two_losses_per_group(benchmark, field):
    cc = ChunkedCompressor("SZ_T", parity=2, executor="serial")
    blob = cc.compress(field, RelativeBound(BOUND))
    damaged = corrupt_chunk(blob, 1, n_bits=3, seed=0)
    damaged = corrupt_chunk(damaged, 5, n_bits=3, seed=1)

    fixed, report = benchmark.pedantic(
        repair_stream, args=(damaged,), rounds=1, iterations=1
    )
    assert report.ok and fixed == blob
    benchmark.extra_info["nbytes"] = len(damaged)
    benchmark.extra_info["n_repaired"] = report.n_repaired
    benchmark.extra_info["MB_repaired"] = round(
        sum(1 for _ in report.repaired) * len(blob) / cc.last_chunk_count / MB, 2
    )


@pytest.mark.benchmark(group="selfheal-watchdog", min_rounds=1)
def test_armed_watchdog_is_free(benchmark, field):
    """A generous never-firing timeout must not slow compression down."""
    plain = ChunkedCompressor("SZ_T", executor="serial")
    armed = ChunkedCompressor("SZ_T", executor="serial", policy="chunk-timeout=600")

    t0 = time.perf_counter()
    want = plain.compress(field, RelativeBound(BOUND))
    plain_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    got = benchmark.pedantic(
        armed.compress, args=(field, RelativeBound(BOUND)), rounds=1, iterations=1
    )
    armed_s = time.perf_counter() - t0
    assert got == want
    assert armed.last_timed_out_chunks == 0
    benchmark.extra_info["nbytes"] = field.nbytes
    benchmark.extra_info["overhead_frac"] = round(armed_s / plain_s - 1.0, 4)
    # Allow generous noise; the point is "no pathological slowdown".
    assert armed_s < 2.0 * plain_s
