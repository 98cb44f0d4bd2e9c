"""Table III bench: pre/post-processing time per logarithm base.

This *is* the table's measurement: forward mapping + sign compression
(preprocessing) and inverse mapping + sign decompression (postprocessing)
timed per base.  The reproduced claim: base 10's postprocessing is the
slowest (no dedicated exp10 kernel), base 2 the best overall choice.
"""

import math

import numpy as np
import pytest

import _emit
from repro.core import LogTransform, abs_bound_for
from repro.encoding import decode_sign_bitmap, encode_sign_bitmap

BASES = {"base2": 2.0, "base_e": math.e, "base10": 10.0}
BOUND = 1e-3


@pytest.mark.benchmark(group="table3-preprocessing", min_rounds=5)
@pytest.mark.parametrize("base_name", list(BASES))
def test_preprocessing(benchmark, nyx_vx, base_name):
    tf = LogTransform(BASES[base_name])
    ba = abs_bound_for(BOUND, tf.base)
    magnitudes = np.abs(nyx_vx)

    def pre():
        encode_sign_bitmap(nyx_vx)
        return tf.forward(magnitudes, ba)

    benchmark(pre)
    benchmark.extra_info["nbytes"] = nyx_vx.nbytes


@pytest.mark.benchmark(group="table3-postprocessing", min_rounds=5)
@pytest.mark.parametrize("base_name", list(BASES))
def test_postprocessing(benchmark, nyx_vx, base_name):
    tf = LogTransform(BASES[base_name])
    ba = abs_bound_for(BOUND, tf.base)
    d = tf.forward(np.abs(nyx_vx), ba)
    _, payload = encode_sign_bitmap(nyx_vx)

    def post():
        mags = tf.inverse(d, ba, nyx_vx.dtype)
        negatives = decode_sign_bitmap(False, payload, mags.size)
        return np.where(negatives.reshape(mags.shape), -mags, mags)

    benchmark(post)
    benchmark.extra_info["nbytes"] = nyx_vx.nbytes


@pytest.mark.benchmark(group="table3-sz_t-roundtrip", min_rounds=2)
def test_sz_t_roundtrip_traced(benchmark, nyx_vx):
    """SZ_T round-trip at the table's bound, with a per-stage span capture.

    The spans land in ``BENCH_table3.json`` so the report shows *where*
    pre/post-processing time goes inside a full pipeline, not just the
    isolated transform kernels above.
    """
    from repro import RelativeBound, compress, decompress

    def roundtrip():
        blob = compress(nyx_vx, RelativeBound(BOUND), compressor="SZ_T")
        decompress(blob)
        return blob

    blob = benchmark(roundtrip)
    _, spans = _emit.trace_once(roundtrip)
    benchmark.extra_info["nbytes"] = nyx_vx.nbytes
    benchmark.extra_info["out_bytes"] = len(blob)
    benchmark.extra_info["spans"] = spans

    # Bound conformance travels with the perf numbers so the regression
    # gate (scripts/check_bench_regression.py) can refuse any run whose
    # max point-wise relative error crept past the bound.
    from repro.observe.audit import audit_stream

    audit = audit_stream(blob, nyx_vx, check_theorem3=False)
    benchmark.extra_info["rel_bound"] = BOUND
    benchmark.extra_info["max_rel_err"] = audit.max_rel
    benchmark.extra_info["audit_ok"] = audit.ok
    # Error-distribution summary (p50/p90/p99, signed bias) travels with
    # the record so the ledger trend and the quality gate see drift in
    # typical-point accuracy, not just the hard max-error bound.
    benchmark.extra_info.update(_emit.quality_info(audit))
