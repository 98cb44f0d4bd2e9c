"""Bound-conformance auditing: BoundAuditor, audit_stream, Theorem 3."""

import numpy as np
import pytest

from repro import RelativeBound, decompress, get_compressor
from repro.core.pwr import make_sz_t
from repro.metrics.error import measure_errors
from repro.observe.audit import (
    AuditReport,
    BoundAuditor,
    ChunkAudit,
    audit_stream,
    auditing,
    get_auditor,
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


class TestBoundAuditor:
    def test_record_moves_audit_metrics(self):
        reg = MetricsRegistry()
        aud = BoundAuditor(registry=reg)
        x = np.linspace(1.0, 2.0, 100)
        aud.record(_chunk(x, x, rel_bound=1e-3))
        assert reg.counter("audit.points").value == 100
        assert reg.counter("audit.violations").value == 0
        assert reg.histogram("audit.max_rel").n == 1
        assert reg.histogram("audit.max_abs").n == 1

    def test_compress_feeds_installed_auditor(self, smooth_positive_3d):
        with auditing() as aud:
            get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-3))
        chunks = aud.chunks()
        assert len(chunks) == 1
        (c,) = chunks
        assert c.n == smooth_positive_3d.size
        assert c.bound_value == 1e-3
        assert c.violations == 0
        assert c.lemma2_ok is True
        assert c.ok
        rep = aud.report(codec="SZ_T")
        assert rep.ok and rep.n_points == smooth_positive_3d.size

    def test_chunked_compress_feeds_one_audit_per_chunk(self, smooth_positive_3d):
        from repro.core.chunked import ChunkedCompressor

        comp = ChunkedCompressor("SZ_T", chunk_bytes=8192, executor="serial")
        with auditing() as aud:
            comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        assert len(aud.chunks()) == comp.last_chunk_count > 1
        rep = aud.report()
        assert rep.n_points == smooth_positive_3d.size
        assert rep.ok

    def test_context_manager_restores_previous_auditor(self):
        prev = get_auditor()
        with auditing() as aud:
            assert get_auditor() is aud
            with auditing() as inner:
                assert get_auditor() is inner
            assert get_auditor() is aud
        assert get_auditor() is prev


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
        from repro.core.chunked import ChunkedCompressor

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
    """The verify pass and ``audit_stream`` measure one stream identically."""

    @pytest.mark.parametrize("kind", ["zero-free", "zero-heavy", "nonfinite"])
    def test_digest_and_counts_agree(self, kind):
        rng = np.random.default_rng(4)
        n = 40_000  # past the digest's 32Ki-point bucket sample
        x = rng.lognormal(0.0, 2.0, n).astype(np.float32)
        x[::3] *= -1
        comp = get_compressor("SZ_T")
        if kind == "zero-heavy":
            x[rng.random(n) < 0.5] = 0.0
        elif kind == "nonfinite":
            x[[5, 17, 18, 300]] = [np.nan, np.inf, -np.inf, 0.0]
            comp = make_sz_t(nonfinite="preserve")
        with auditing() as aud:
            blob = comp.compress(x, RelativeBound(1e-3))
        (online,) = aud.chunks()
        (offline,) = audit_stream(blob, x, check_theorem3=False).chunks
        assert online.error_hist is not None
        assert online.error_hist == offline.error_hist
        assert online.zeros == offline.zeros
        assert online.negatives == offline.negatives
        assert (online.max_rel, online.max_abs) == (offline.max_rel, offline.max_abs)
        if kind == "nonfinite":
            assert online.zeros == 1 and online.error_hist["nonfinite"] == 3

    def test_compress_path_bias_is_exact(self):
        rng = np.random.default_rng(6)
        x = rng.lognormal(0.0, 2.0, 40_000).astype(np.float32)
        with auditing() as aud:
            blob = get_compressor("SZ_T").compress(x, RelativeBound(1e-3))
        (online,) = aud.chunks()
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


class TestFromMetrics:
    def test_round_trip_through_isolated_registry(self):
        reg = MetricsRegistry()
        aud = BoundAuditor(registry=reg)
        before = reg.snapshot()
        rng = np.random.default_rng(5)
        xs = []
        for i in range(3):
            x = rng.lognormal(size=500)
            xs.append(x)
            aud.record(_chunk(x, x * (1.0 + 4e-4), rel_bound=1e-3, index=i))
        rep = AuditReport.from_metrics(reg.diff(before), codec="SZ_T", bound_value=1e-3)
        assert rep.n_points == 1500
        assert rep.n_chunks == 3
        assert rep.violations == 0
        assert rep.max_rel == pytest.approx(4e-4)
        assert rep.max_abs == pytest.approx(4e-4 * max(v.max() for v in xs))
        assert rep.bound_kind == "rel" and rep.bound_value == 1e-3
        assert rep.bounded_fraction == 1.0
        assert rep.ok

    def test_verify_hook_feeds_global_registry_without_auditor(self, smooth_positive_3d):
        before = metrics().snapshot()
        get_compressor("SZ_T").compress(smooth_positive_3d, RelativeBound(1e-3))
        delta = metrics().diff(before)
        rep = AuditReport.from_metrics(delta, codec="SZ_T", bound_value=1e-3)
        # Counters in the delta are exact; the histogram's max is the
        # registry's post-state max (bounds cannot be un-observed), so only
        # its presence is asserted here.
        assert rep.n_points == smooth_positive_3d.size
        assert rep.violations == 0
        assert rep.max_rel is not None
        assert rep.bounded_fraction == 1.0
        assert rep.ok

    def test_chunked_last_audit_survives_pool_boundary(self, smooth_positive_3d):
        from repro.core.chunked import ChunkedCompressor

        comp = ChunkedCompressor("SZ_T", chunk_bytes=8192, executor="process", workers=2)
        comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = comp.last_audit
        assert rep is not None
        assert rep.n_points == smooth_positive_3d.size
        assert rep.n_chunks == comp.last_chunk_count
        assert rep.bound_value == 1e-2
        assert rep.ok

    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("process", 2)])
    def test_chunked_last_audit_formats(self, smooth_positive_3d, executor, workers):
        from repro.core.chunked import ChunkedCompressor

        comp = ChunkedCompressor(
            "SZ_T", chunk_bytes=8192, executor=executor, workers=workers
        )
        comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = comp.last_audit
        assert rep.max_abs is not None and rep.max_abs > 0
        text = rep.format()
        assert "max abs:" in text and "PASS" in text

    def test_empty_delta_is_well_defined(self):
        rep = AuditReport.from_metrics({}, codec="X")
        assert rep.n_points == 0 and rep.n_chunks == 0
        assert rep.max_rel is None and rep.bounded_fraction is None
        assert rep.ok
