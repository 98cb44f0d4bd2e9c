"""DegradationLadder: fallback semantics, bound preservation, visibility."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.compressors.base import PrecisionBound, RelativeBound, UnsupportedBound
from repro.core.chunked import ChunkedCompressor
from repro.encoding.container import Container, peek_codec
from repro.observe import call_report
from repro.observe.events import install_event_log, read_events
from repro.observe.metrics import metrics
from repro.resilience import DegradationLadder, LadderExhaustedError


class TestFallback:
    def test_primary_wins_when_healthy(self, brittle, field_2d):
        ladder = DegradationLadder(["BRITTLE", "GZIP"])
        with call_report() as rec:
            blob = ladder.compress(field_2d, RelativeBound(1e-3))
        assert peek_codec(blob) == "BRITTLE"
        assert rec.fallbacks == 0
        np.testing.assert_array_equal(ladder.decompress(blob), field_2d)

    def test_falls_through_on_failure(self, brittle, field_2d):
        brittle.fail_on = frozenset({1})
        ladder = DegradationLadder(["BRITTLE", "GZIP"])
        before = metrics().counter("resilience.fallbacks").value
        with call_report() as rec:
            blob = ladder.compress(field_2d, RelativeBound(1e-3))
        assert peek_codec(blob) == "GZIP"
        assert rec.fallbacks == 1
        assert metrics().counter("resilience.fallbacks").value == before + 1
        np.testing.assert_array_equal(repro.decompress(blob), field_2d)

    def test_fallback_emits_event(self, brittle, field_2d, tmp_path):
        brittle.fail_on = frozenset({1})
        log_path = str(tmp_path / "events.jsonl")
        install_event_log(log_path)
        try:
            DegradationLadder(["BRITTLE", "GZIP"]).compress(
                field_2d, RelativeBound(1e-3)
            )
        finally:
            install_event_log(None)
        events = read_events(log_path)
        fallback = [e for e in events if e.get("event") == "codec-fallback"]
        assert fallback and fallback[0]["from_codec"] == "BRITTLE"
        assert fallback[0]["to_codec"] == "GZIP"
        assert "scripted failure" in fallback[0]["reason"]

    def test_exhausted_ladder_raises_with_all_reasons(self, brittle, field_2d):
        brittle.fail_on = frozenset({1, 2})
        ladder = DegradationLadder(["BRITTLE", "BRITTLE"])
        with pytest.raises(LadderExhaustedError, match="every rung"):
            ladder.compress(field_2d, RelativeBound(1e-3))

    def test_rung_not_supporting_bound_is_skipped(self, field_2d):
        # ZFP_P takes only PrecisionBound: under a RelativeBound it must
        # be skipped (counted as a fallback), landing on GZIP.
        ladder = DegradationLadder(["ZFP_P", "GZIP"])
        with call_report() as rec:
            blob = ladder.compress(field_2d, RelativeBound(1e-3))
        assert peek_codec(blob) == "GZIP"
        assert rec.fallbacks == 1

    def test_ladder_union_of_supported_bounds(self):
        ladder = DegradationLadder(["ZFP_P", "SZ_T"])
        assert isinstance(RelativeBound(1e-3), ladder.supported_bounds)
        assert isinstance(PrecisionBound(16), ladder.supported_bounds)
        with pytest.raises(UnsupportedBound):
            DegradationLadder(["ZFP_P"])._check_bound(RelativeBound(1e-3))


class TestChunkedIntegration:
    def bound(self):
        return RelativeBound(1e-3)

    def compress_mixed(self, brittle, field_2d):
        """4 chunks, calls 2 and 3 fail -> chunks 1,2 degrade to GZIP."""
        brittle.fail_on = frozenset({2, 3})
        ck = ChunkedCompressor("BRITTLE", chunk_bytes=1024, executor="serial",
                               policy="ladder=GZIP")
        with call_report() as rec:
            blob = ck.compress(field_2d, self.bound())
        return rec, blob

    def test_mixed_stream_records_codecs_and_ladder(self, brittle, field_2d):
        _, blob = self.compress_mixed(brittle, field_2d)
        box = Container.from_bytes(blob)
        assert box.get_str("ladder") == "BRITTLE>GZIP"
        assert box.get_str("chunk_codecs").split(";") == [
            "BRITTLE", "GZIP", "GZIP", "BRITTLE",
        ]
        np.testing.assert_array_equal(repro.decompress(blob), field_2d)

    def test_resilience_report_counts_fallbacks(self, brittle, field_2d):
        rec, _ = self.compress_mixed(brittle, field_2d)
        rep = rec.resilience
        assert rep is not None and rep.fallbacks == 2
        assert [i.index for i in rep.incidents if i.kind == "fallback"] == [1, 2]
        assert "2 fell back" in rep.summary()

    def test_policy_ladder_dedupes_primary(self, brittle, field_2d):
        # policy ladder naming the primary again must not double it.
        ck = ChunkedCompressor("BRITTLE", chunk_bytes=1024, executor="serial",
                               policy="ladder=BRITTLE>GZIP")
        assert ck.inner.rung_names == ("BRITTLE", "GZIP")

    def test_quiet_run_adds_no_ladder_sections(self, field_2d):
        blob = ChunkedCompressor("SZ_T", chunk_bytes=1024,
                                 executor="serial").compress(field_2d, self.bound())
        box = Container.from_bytes(blob)
        assert "ladder" not in box and "chunk_codecs" not in box


class TestVisibility:
    def test_stats_explain_verify_audit_surface_fallbacks(self, brittle, field_2d):
        from repro.integrity import verify_stream
        from repro.observe.quality import explain_stream
        from repro.observe.audit import audit_stream
        from repro.report import build_report

        brittle.fail_on = frozenset({2})
        ck = ChunkedCompressor("BRITTLE", chunk_bytes=1024, executor="serial",
                               policy="ladder=GZIP")
        blob = ck.compress(field_2d, RelativeBound(1e-3))

        stats = build_report(blob)
        assert stats.ladder == "BRITTLE>GZIP"
        assert stats.codec_mix == {"BRITTLE": 3, "GZIP": 1}
        assert stats.degraded_chunks == 1
        assert "codec mix" in stats.format()

        explain = explain_stream(blob, original=field_2d)
        assert explain.ladder == "BRITTLE>GZIP"
        fallbacks = [a for a in explain.anomalies if a["metric"] == "fallback"]
        assert [a["index"] for a in fallbacks] == [1]
        assert explain.chunks[1]["codec"] == "GZIP"
        assert explain.format()  # string anomaly values must render

        verify = verify_stream(blob)
        assert verify.ok
        assert any("fallback rung" in note for note in verify.notes)

        # The point-wise bound survives degradation: audit exits clean.
        audit = audit_stream(blob, field_2d)
        assert audit.ok
