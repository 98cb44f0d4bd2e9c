"""Bound-conformance auditing: the per-call record, audit_stream, Theorem 3."""

import sys
import threading

import numpy as np
import pytest

from repro import (
    AbsoluteBound,
    DegradationLadder,
    PrecisionBound,
    RelativeBound,
    SafeguardedCompressor,
    decompress,
    get_compressor,
)
from repro.core.chunked import ChunkedCompressor
from repro.core.pwr import make_sz_t
from repro.metrics.error import measure_errors
from repro.observe.audit import (
    ChunkAudit,
    audit_stream,
    call_report,
    current_report,
    record_audit_metrics,
    theorem3_check,
)
from repro.observe.metrics import MetricsRegistry, metrics
from repro.observe.quality import ErrorHistogram


def _chunk(x, xd, rel_bound, index=None):
    """A ChunkAudit of ``xd`` against ``x`` (what a verify pass records)."""
    e = measure_errors(x, xd, ("rel", rel_bound))
    return ChunkAudit(
        index=index, codec="SZ_T", n=e.n, bound_kind="rel", bound_value=rel_bound,
        max_rel=e.max_rel, max_abs=e.max_abs, bounded_fraction=e.bounded_fraction,
        violations=e.violations, zeros=e.zeros, negatives=e.negatives, patched=None,
        effective_ba=None, theorem2_ba=None, lemma2_ba=None, lemma2_ok=None,
    )


class TestCallReport:
    def test_compress_feeds_open_record(self, smooth_positive_3d):
        with call_report() as rec:
            get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-3))
        chunks = rec.entries
        assert len(chunks) == 1
        (c,) = chunks
        assert c.n == smooth_positive_3d.size
        assert c.bound_value == 1e-3
        assert c.violations == 0
        assert c.lemma2_ok is True
        assert c.ok
        rep = rec.audit(codec="SZ_T")
        assert rep.ok and rep.n_points == smooth_positive_3d.size

    def test_chunked_compress_feeds_one_audit_per_chunk(self, smooth_positive_3d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8192, executor="serial")
        with call_report() as rec:
            comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        assert len(rec.entries) == comp.last_chunk_count > 1
        rep = rec.audit()
        assert rep.n_points == smooth_positive_3d.size
        assert rep.ok

    def test_nested_record_restores_outer(self):
        prev = current_report()
        with call_report() as rec:
            assert current_report() is rec
            with call_report() as inner:
                assert current_report() is inner
            assert current_report() is rec
        assert current_report() is prev

    def test_chunked_record_survives_pool_boundary(self, smooth_positive_3d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8192, executor="process", workers=2)
        with call_report() as rec:
            comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = rec.audit()
        assert rec.entries
        assert rep.n_points == smooth_positive_3d.size
        assert rep.n_chunks == comp.last_chunk_count
        assert rep.bound_value == 1e-2
        assert rep.ok

    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("process", 2)])
    def test_chunked_record_formats(self, smooth_positive_3d, executor, workers):
        comp = ChunkedCompressor(
            "SZ_T", chunk_bytes=8192, executor=executor, workers=workers
        )
        with call_report() as rec:
            comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = rec.audit()
        assert rep.max_abs is not None and rep.max_abs > 0
        text = rep.format()
        assert "max abs:" in text and "PASS" in text

    def test_two_ranks_share_one_instance(self):
        """Two SPMD ranks compress different fields through one shared
        instance; each call's record holds that call's field only."""
        comp = ChunkedCompressor("SZ_T", chunk_bytes=16 << 10, executor="thread",
                                 workers=2)
        t = np.linspace(0.0, 40.0, 40_000)
        fields = {
            "big": (2.0 + np.sin(t)).astype(np.float32),
            "small": (2.0 + np.cos(t[:10_000])).astype(np.float32),
        }
        want_chunks = {"big": 10, "small": 3}
        barrier = threading.Barrier(2)
        seen: dict[str, list] = {"big": [], "small": []}

        def rank(name):
            barrier.wait()
            for _ in range(20):
                with call_report() as rec:
                    comp.compress(fields[name], RelativeBound(1e-3))
                audit = rec.audit()
                seen[name].append(
                    (audit.n_points, audit.n_chunks, rec.resilience.n_chunks)
                )

        threads = [threading.Thread(target=rank, args=(n,)) for n in fields]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the ranks as often as possible
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for name, x in fields.items():
            want = (x.size, want_chunks[name], want_chunks[name])
            assert seen[name] == [want] * 20


class TestRegistryExport:
    """The ``audit.*`` counters stay the ``--metrics-out`` export."""

    def test_record_moves_audit_metrics(self):
        reg = MetricsRegistry()
        x = np.linspace(1.0, 2.0, 100)
        record_audit_metrics(_chunk(x, x, rel_bound=1e-3), reg)
        assert reg.counter("audit.points").value == 100
        assert reg.counter("audit.violations").value == 0
        assert reg.histogram("audit.max_rel").n == 1
        assert reg.histogram("audit.max_abs").n == 1

    def test_verify_hook_feeds_global_registry_without_record(self, smooth_positive_3d):
        before = metrics().snapshot()
        get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-3))
        delta = metrics().diff(before)
        # Counters in the delta are exact; the histogram's max is the
        # registry's post-state max (bounds cannot be un-observed), so only
        # its presence is asserted here.
        assert delta["audit.points"]["value"] == smooth_positive_3d.size
        assert delta.get("audit.violations", {"value": 0})["value"] == 0  # 0: unmoved
        assert delta["audit.max_rel"]["n"] == 1
        assert delta["quality.points"]["value"] == smooth_positive_3d.size


class TestAuditStream:
    def test_sz_t_conforms(self, smooth_positive_3d):
        blob = get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-3))
        rep = audit_stream(blob, smooth_positive_3d)
        assert rep.ok
        assert rep.codec == "SZ_T"
        assert rep.bound_kind == "rel" and rep.bound_value == 1e-3
        assert rep.violations == 0
        assert rep.max_rel is not None and rep.max_rel <= 1e-3
        assert rep.bounded_fraction == 1.0
        # Strictly positive 3-D original: Theorem 3 must have run and passed.
        assert rep.theorem3 is not None and rep.theorem3.ok
        assert "PASS" in rep.format()

    def test_zfp_t_conforms(self, smooth_positive_3d):
        blob = get_compressor("ZFP_T").compress(smooth_positive_3d, RelativeBound(1e-3))
        rep = audit_stream(blob, smooth_positive_3d, check_theorem3=False)
        assert rep.ok
        assert rep.max_rel <= 1e-3
        assert rep.violations == 0

    def test_lemma2_fields(self, smooth_positive_3d):
        blob = get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-2))
        (c,) = audit_stream(blob, check_theorem3=False).chunks
        assert c.lemma2_ok is True
        # Shrink ordering: recorded b_a' within Lemma 2, strictly below Theorem 2.
        assert c.effective_ba <= c.lemma2_ba < c.theorem2_ba
        assert c.patched == 0  # Lemma-2 shrink leaves the patch channel empty

    def test_chunked_stream_audited_per_chunk(self, smooth_positive_3d):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=8192, executor="serial")
        blob = comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = audit_stream(blob, smooth_positive_3d, check_theorem3=False)
        assert rep.codec == "CHUNKED"
        assert rep.n_chunks == comp.last_chunk_count > 1
        assert [c.index for c in rep.chunks] == list(range(rep.n_chunks))
        assert rep.n_points == smooth_positive_3d.size
        assert rep.ok and rep.violations == 0
        assert rep.violating_chunks == ()

    def test_wrong_original_flags_violations(self, smooth_positive_3d):
        blob = get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = audit_stream(blob, smooth_positive_3d * 1.5, check_theorem3=False)
        assert not rep.ok
        assert rep.violations > 0
        text = rep.format()
        assert "VIOLATION" in text and "FAIL" in text

    def test_without_original_checks_internals_only(self, smooth_positive_3d):
        blob = get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = audit_stream(blob)
        assert rep.ok
        assert rep.max_rel is None and rep.violations == 0
        assert any("no original" in n for n in rep.notes)

    def test_size_mismatch_raises(self, smooth_positive_3d):
        blob = get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-2))
        with pytest.raises(ValueError, match="elements"):
            audit_stream(blob, smooth_positive_3d.ravel()[:100])

    def test_signed_data_skips_theorem3_with_note(self, signed_2d):
        blob = get_compressor("SZ_T").compress(signed_2d, RelativeBound(1e-2))
        rep = audit_stream(blob, signed_2d)
        assert rep.ok
        assert rep.theorem3 is None
        assert any("theorem 3" in n for n in rep.notes)
        assert rep.negatives > 0  # sign bitmap restored negatives

    def test_nonfinite_recon_of_finite_original_violates(self):
        # A nonfinite="preserve" stream decodes NaN/Inf where the original
        # handed to the audit is finite: every such point is a violation,
        # and the maxima stay over the finite residuals.
        x = np.random.default_rng(11).lognormal(size=5000).astype(np.float32)
        src = x.copy()
        src[[10, 20, 30]] = [np.nan, np.inf, -np.inf]
        blob = make_sz_t(nonfinite="preserve").compress(src, RelativeBound(1e-3))
        x[[20, 30]] = [0.0, np.finfo(np.float32).tiny / 8]  # zero, subnormal
        rep = audit_stream(blob, x, check_theorem3=False)
        assert rep.violations == 3 and not rep.ok
        assert rep.bounded_fraction == pytest.approx(1 - 3 / 5000)
        assert 0 < rep.max_rel <= 1e-3 and np.isfinite(rep.max_abs)
        assert rep.error_summary["nonfinite"] == 3

    def test_reproduced_nonfinite_original_conforms(self):
        x = np.random.default_rng(12).lognormal(size=5000).astype(np.float32)
        x[[10, 20, 30]] = [np.nan, np.inf, -np.inf]
        blob = make_sz_t(nonfinite="preserve").compress(x, RelativeBound(1e-3))
        rep = audit_stream(blob, x, check_theorem3=False)
        assert rep.ok and rep.violations == 0
        assert 0 < rep.max_rel <= 1e-3 and np.isfinite(rep.max_abs)
        assert rep.error_summary["nonfinite"] == 3

    def test_lost_nonfinite_original_violates(self):
        x = np.random.default_rng(13).lognormal(size=5000).astype(np.float32)
        blob = get_compressor("SZ_T").compress(x, RelativeBound(1e-3))
        claimed = x.copy()
        claimed[[10, 20]] = [np.nan, np.inf]
        rep = audit_stream(blob, claimed, check_theorem3=False)
        assert rep.violations == 2 and not rep.ok
        assert rep.max_rel <= 1e-3

    def test_boundless_codec_noted(self, signed_2d):
        blob = get_compressor("GZIP").compress(signed_2d)
        rep = audit_stream(blob, signed_2d)
        assert rep.bound_kind is None
        assert any("no recoverable native bound" in n for n in rep.notes)


class TestCompressPathMatchesOffline:
    """The compress path's record and ``audit_stream`` grade one stream
    identically, whichever layer graded it."""

    @pytest.mark.parametrize("kind", [
        "zero-free", "zero-heavy", "nonfinite",
        "chunked-serial", "chunked-thread", "chunked-process",
        "SZ2_T", "SZ3_T", "ZFP_T", "SZ_PWR", "ISABELA", "GZIP",
        "SAFE-ZFP_P", "SAFE-ZFP_A", "SAFE-SZ_T", "ladder",
    ])
    def test_digest_and_counts_agree(self, kind):
        rng = np.random.default_rng(4)
        n = 40_000  # past the digest's 32Ki-point bucket sample
        x = rng.lognormal(0.0, 2.0, n).astype(np.float32)
        x[::3] *= -1
        comp = get_compressor("SZ_T")
        bound = RelativeBound(1e-3)
        if kind == "zero-heavy":
            x[rng.random(n) < 0.5] = 0.0
        elif kind == "nonfinite":
            x[[5, 17, 18, 300]] = [np.nan, np.inf, -np.inf, 0.0]
            comp = make_sz_t(nonfinite="preserve")
        elif kind.startswith("chunked-"):
            # One record whichever executor ran the 10 chunks.
            comp = ChunkedCompressor("SZ_T", chunk_bytes=16 << 10, workers=2,
                                     executor=kind.split("-")[1])
        elif kind.startswith("SAFE-"):
            inner = kind.split("-")[1]
            comp = SafeguardedCompressor(inner, ["rel:1e-3"])
            bound = {"ZFP_P": PrecisionBound(20), "ZFP_A": AbsoluteBound(1e-2)}.get(
                inner, bound
            )
        elif kind == "ladder":
            comp = DegradationLadder(["ZFP_P", "GZIP"])
        elif kind != "zero-free":
            comp = get_compressor(kind)
        with call_report() as rec:
            blob = comp.compress(x, bound)
        online = rec.audit()
        offline = audit_stream(blob, x, check_theorem3=False)
        assert (online.n_points, online.n_chunks) == (offline.n_points, offline.n_chunks)
        assert online.n_chunks == (10 if kind.startswith("chunked-") else 1)
        assert online.violations == offline.violations == 0
        bounded = kind not in ("GZIP", "ladder")  # GZIP streams carry no bound
        for got, want in zip(online.chunks, offline.chunks):
            assert got.index == want.index
            assert got.error_hist is not None
            assert got.error_hist == want.error_hist
            assert got.zeros == want.zeros
            assert got.negatives == want.negatives
            assert (got.max_rel, got.max_abs) == (want.max_rel, want.max_abs)
            if bounded:
                assert (got.bound_kind, got.bound_value) == (want.bound_kind, want.bound_value)
                assert got.violations == want.violations
                assert got.zeros_modified == want.zeros_modified
        if kind == "nonfinite":
            (got,) = online.chunks
            assert got.zeros == 1 and got.error_hist["nonfinite"] == 3

    def test_compress_path_bias_is_exact(self):
        rng = np.random.default_rng(6)
        x = rng.lognormal(0.0, 2.0, 40_000).astype(np.float32)
        with call_report() as rec:
            blob = get_compressor("SZ_T").compress(x, RelativeBound(1e-3))
        (online,) = rec.entries
        x64 = x.astype(np.float64)
        rel = (decompress(blob).astype(np.float64) - x64) / np.abs(x64)
        summary = ErrorHistogram.from_snapshot(online.error_hist).summary()
        assert summary["rel_bias"] == pytest.approx(rel.mean(), rel=1e-9)


class TestTheorem3:
    @pytest.mark.parametrize("shape", [(4096,), (64, 64), (16, 16, 16)])
    def test_lorenzo_fixture_within_ceiling(self, shape):
        rng = np.random.default_rng(7)
        data = rng.lognormal(mean=0.0, sigma=1.0, size=shape).astype(np.float64)
        chk = theorem3_check(data, 1e-3)
        assert chk.ndim == len(shape)
        assert chk.bases == (2.0, pytest.approx(np.e), 10.0)
        assert chk.max_deviation <= chk.ceiling
        assert chk.ok

    def test_ceiling_grows_with_dimensionality(self):
        from repro.core.theory import quant_index_bound

        c1, c2, c3 = (quant_index_bound(1e-3, d) for d in (1, 2, 3))
        assert c1 < c2 < c3
        # Theorem 3: the 1,3,7 progression of Lorenzo corner counts.
        assert c2 / c1 == pytest.approx(3.0)
        assert c3 / c1 == pytest.approx(7.0)
