"""Safeguards bench: the non-compliant direction, bound-checked.

``SAFE(ZFP_P, rel)`` makes a precision codec rel-bounded by patching.
The record carries ``max_rel_err`` / ``rel_bound`` so the
bound-conformance gate (``scripts/check_bench_regression.py``) proves
the wrap delivers the bound ZFP_P alone cannot.  The compliant
direction's overhead budget (``SAFE(SZ_T)`` vs ``SZ_T``) is timed by
``scripts/check_overhead.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Container, PrecisionBound, decompress
from repro.safeguards import SafeguardedCompressor

BOUND = 1e-3


@pytest.mark.benchmark(group="safeguards-zfp", min_rounds=3)
def test_zfp_p_safeguarded_holds_rel_bound(benchmark):
    """The non-compliant direction: precision codec -> guaranteed rel bound.

    A wide-dynamic-range field, where 20 bits of precision genuinely
    violate ``rel:1e-3`` at a minority of points (~10%, ``n_patch`` > 0
    in the record): the patches are the cost being measured.
    """
    rng = np.random.default_rng(7)
    field = rng.lognormal(mean=0.0, sigma=1.0, size=(64, 64, 64)).astype(np.float32)
    safe = SafeguardedCompressor("ZFP_P", [f"rel:{BOUND!r}"])
    bound = PrecisionBound(20)

    blob = benchmark(safe.compress, field, bound)
    recon = decompress(blob)
    x64 = field.astype(np.float64)
    nz = x64 != 0
    max_rel = float(
        (np.abs(recon.astype(np.float64) - x64)[nz] / np.abs(x64)[nz]).max()
    )
    benchmark.extra_info["nbytes"] = field.nbytes
    benchmark.extra_info["out_bytes"] = len(blob)
    benchmark.extra_info["rel_bound"] = BOUND
    benchmark.extra_info["max_rel_err"] = max_rel
    benchmark.extra_info["n_patch"] = Container.from_bytes(blob).get_u64("n_patch")
