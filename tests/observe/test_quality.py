"""Point-wise error analytics, byte attribution and explain reports."""

import numpy as np
import pytest

from repro import Container, RelativeBound, compress
from repro.core.chunked import ChunkedCompressor
from repro.observe.quality import (
    ErrorHistogram,
    attribute_bytes,
    explain_stream,
    mad_outliers,
    quality_enabled,
    section_kind_map,
    set_quality_enabled,
)
from repro.safeguards import SafeguardedCompressor
from repro.testing import faults

BOUND = 1e-3


@pytest.fixture()
def field():
    rng = np.random.default_rng(7)
    return (rng.standard_normal(20000) * np.exp(rng.uniform(-3, 3, 20000))).astype(
        np.float32
    )


def _approx_recon(x, rel=5e-4):
    rng = np.random.default_rng(1)
    return (x * (1.0 + rel * rng.uniform(-1, 1, x.shape))).astype(np.float64)


class TestErrorHistogram:
    def test_summary_tracks_true_errors(self, field):
        recon = _approx_recon(field)
        hist = ErrorHistogram()
        hist.observe(field, recon)
        s = hist.summary()
        x64 = field.astype(np.float64)
        true_rel = np.abs(recon - x64) / np.abs(x64)
        assert s["n"] == field.size
        assert s["max_rel"] == pytest.approx(true_rel.max(), rel=1e-12)
        # log-binned digest: percentile resolution is one bucket (~9%)
        assert s["rel_p50"] == pytest.approx(np.quantile(true_rel, 0.5), rel=0.10)
        assert s["rel_p99"] == pytest.approx(np.quantile(true_rel, 0.99), rel=0.10)
        assert s["rel_bias"] == pytest.approx(
            float(((recon - x64) / np.abs(x64)).mean()), rel=1e-9
        )
        assert s["rel_p50"] <= s["rel_p90"] <= s["rel_p99"] <= s["max_rel"]

    def test_zeros_and_nonfinite_counted_separately(self):
        x = np.array([0.0, 1.0, np.nan, np.inf, 2.0])
        hist = ErrorHistogram()
        hist.observe(x, x.copy())
        snap = hist.snapshot()
        assert snap["zeros"] == 1
        assert snap["nonfinite"] == 2
        assert hist.summary()["rel_n"] == 2  # the two finite nonzeros

    def test_split_merge_matches_whole(self, field):
        recon = _approx_recon(field)
        whole = ErrorHistogram()
        whole.observe(field, recon)
        merged = ErrorHistogram()
        for sl in (slice(0, 7000), slice(7000, 13000), slice(13000, None)):
            part = ErrorHistogram()
            part.observe(field[sl], recon[sl])
            merged.merge(part)
        ws, ms = whole.summary(), merged.summary()
        # bias is a float sum: summation order may move the last ulp
        assert ms["rel_bias"] == pytest.approx(ws["rel_bias"], rel=1e-12)
        assert ms["abs_bias"] == pytest.approx(ws["abs_bias"], rel=1e-12)
        for key in ws:
            if key.endswith("bias"):
                continue
            assert ms[key] == ws[key], key

    def test_snapshot_roundtrip(self, field):
        hist = ErrorHistogram()
        hist.observe(field, _approx_recon(field))
        back = ErrorHistogram.from_snapshot(hist.snapshot())
        assert back.summary() == hist.summary()
        assert back.snapshot() == hist.snapshot()

    def test_merge_accepts_snapshots(self, field):
        recon = _approx_recon(field)
        a, b = ErrorHistogram(), ErrorHistogram()
        a.observe(field[:10000], recon[:10000])
        b.observe(field[10000:], recon[10000:])
        a.merge(b.snapshot())
        assert a.summary()["n"] == field.size


class TestQualityGate:
    def test_env_and_force_override(self, monkeypatch):
        assert quality_enabled()  # default on
        set_quality_enabled(False)
        try:
            assert not quality_enabled()
        finally:
            set_quality_enabled(None)
        monkeypatch.setenv("REPRO_QUALITY", "off")
        assert not quality_enabled()

    def test_streams_byte_identical_on_vs_off(self, field):
        set_quality_enabled(False)
        try:
            off = compress(field, RelativeBound(BOUND), "SZ_T")
        finally:
            set_quality_enabled(None)
        set_quality_enabled(True)
        try:
            on = compress(field, RelativeBound(BOUND), "SZ_T")
        finally:
            set_quality_enabled(None)
        assert off == on

    def test_process_pool_merges_quality(self, field):
        from repro.observe import audit_stream, call_report

        comp = ChunkedCompressor(
            "SZ_T", chunk_bytes=1 << 15, executor="process", workers=2
        )
        with call_report() as rec:
            blob = comp.compress(field, RelativeBound(BOUND))
        summary = rec.audit().error_summary
        assert summary is not None
        assert summary["n"] == field.size
        # Each chunk's own digest comes back with its record, so the merged
        # maximum is exact: the offline audit's digest, within the bound.
        offline = audit_stream(blob, field, check_theorem3=False).error_summary
        assert summary["max_rel"] == offline["max_rel"] <= BOUND


def _v1(blob):
    return Container.from_bytes(blob).to_bytes(checksums=False, version=1)


def _streams(field):
    """{label: blob} covering container versions 1-4 and the key codecs."""
    sz = compress(field, RelativeBound(BOUND), "SZ_T")
    chunked = ChunkedCompressor("SZ_T", chunk_bytes=1 << 14, executor="serial")
    parity = ChunkedCompressor(
        "SZ_T", chunk_bytes=1 << 14, executor="serial", parity=2
    )
    safe = SafeguardedCompressor("SZ_T", ["rel:1e-3"])
    return {
        "sz_v2": sz,
        "sz_v1": _v1(sz),
        "chunked_v2": chunked.compress(field, RelativeBound(BOUND)),
        "parity_v3": parity.compress(field, RelativeBound(BOUND)),
        "safe_v4": safe.compress(field, RelativeBound(BOUND)),
        "zfp_v2": compress(field, RelativeBound(BOUND), "ZFP_T"),
    }


class TestByteAttribution:
    def test_exhaustive_for_every_codec_and_version(self, field):
        for label, blob in _streams(field).items():
            tree = attribute_bytes(blob)
            tree.check_exhaustive()
            assert sum(leaf.nbytes for leaf in tree.leaves()) == len(blob), label
            assert sum(tree.kind_totals().values()) == len(blob), label
            assert not tree.damage_notes(), label

    def test_sz_stream_kinds(self, field):
        blob = compress(field, RelativeBound(BOUND), "SZ_T")
        totals = attribute_bytes(blob).kind_totals()
        # entropy-coded payload dominates; framing+CRC stay small
        assert totals["entropy"] > 0.5 * len(blob)
        assert "signs" in totals
        overhead = totals.get("framing", 0) + totals.get("checksum", 0)
        assert overhead < 0.05 * len(blob)

    def test_parity_stream_attributes_parity_bytes(self, field):
        comp = ChunkedCompressor(
            "SZ_T", chunk_bytes=1 << 14, executor="serial", parity=2
        )
        totals = attribute_bytes(comp.compress(field, RelativeBound(BOUND))).kind_totals()
        assert totals.get("parity", 0) > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_parity_split_per_group_and_block(self, field, k):
        comp = ChunkedCompressor(
            "SZ_T", chunk_bytes=1 << 14, executor="serial", parity=k, group_size=2
        )
        blob = comp.compress(field, RelativeBound(BOUND))
        lens = Container.from_bytes(blob).get_array("parity_lens").tolist()
        assert len(lens) >= 2  # several groups, each of k blocks
        tree = attribute_bytes(blob)
        tree.check_exhaustive()
        node = next(n for n in tree.walk() if n.name == "parity" and n.kind == "parity")
        assert node.note is None and node.nbytes == k * sum(lens)
        assert [g.name for g in node.children] == [f"parity[{g}]" for g in range(len(lens))]
        for g, (group, ln) in enumerate(zip(node.children, lens)):
            assert [b.name for b in group.children] == [
                f"parity[{g}].block[{j}]" for j in range(k)
            ]
            assert [b.nbytes for b in group.children] == [ln] * k
            assert all(b.kind == "parity" for b in group.children)

    def test_section_kind_map_names_payload_kinds(self, field):
        blob = compress(field, RelativeBound(BOUND), "SZ_T")
        kinds = section_kind_map(attribute_bytes(blob))
        assert kinds["signs"] == "signs"
        assert kinds["inner"] == "entropy"

    def test_truncated_stream_degrades_to_partial_tree(self, field):
        blob = compress(field, RelativeBound(BOUND), "SZ_T")
        for keep in (5, 17, len(blob) // 3, len(blob) - 2):
            cut = faults.truncate(blob, keep)
            tree = attribute_bytes(cut)
            tree.check_exhaustive()
            assert sum(leaf.nbytes for leaf in tree.leaves()) == len(cut), keep

    def test_garbage_is_one_damaged_leaf(self):
        tree = attribute_bytes(b"not a stream at all")
        tree.check_exhaustive()
        assert tree.kind_totals() == {"damaged": 19}

    def test_offset_shifts_coordinates(self, field):
        blob = compress(field, RelativeBound(BOUND), "SZ_T")
        tree = attribute_bytes(blob, offset=1000)
        assert tree.start == 1000 and tree.stop == 1000 + len(blob)
        tree.check_exhaustive()


class TestMadOutliers:
    def test_flags_single_deviant(self):
        values = [1.0] * 9 + [50.0]
        flags, median, _ = mad_outliers(values, k=5.0)
        assert median == 1.0
        assert [f["index"] for f in flags] == [9]

    def test_needs_three_points(self):
        assert mad_outliers([1.0, 99.0], k=5.0)[0] == []

    def test_uniform_values_produce_no_flags(self):
        assert mad_outliers([2.0] * 8, k=5.0)[0] == []


class TestExplain:
    def test_clean_stream_reports_ok(self, field):
        for label, blob in _streams(field).items():
            report = explain_stream(blob)
            assert report.ok, (label, report.notes)
            assert report.nbytes == len(blob)
            assert sum(report.kind_totals.values()) == len(blob)
            text = report.format()
            assert "Byte attribution" in text

    def test_original_enables_quality_and_audit(self, field):
        blob = compress(field, RelativeBound(BOUND), "SZ_T")
        report = explain_stream(blob, field)
        assert report.audit_ok
        assert report.quality is not None
        assert report.quality["rel_p99"] <= BOUND * (1 + 1e-9)
        assert "Point-wise error quality" in report.format()

    def test_chunked_stream_lists_chunks(self, field):
        comp = ChunkedCompressor("SZ_T", chunk_bytes=1 << 14, executor="serial")
        report = explain_stream(comp.compress(field, RelativeBound(BOUND)), field)
        assert len(report.chunks) >= 3
        assert all(c["nbytes"] > 0 for c in report.chunks)

    def test_truncated_stream_never_crashes(self, field):
        for label, blob in _streams(field).items():
            for keep in (6, len(blob) // 2, len(blob) - 3):
                report = explain_stream(faults.truncate(blob, keep))
                assert not report.ok, (label, keep)
                assert any(n.startswith("StreamError") for n in report.notes)
                report.format()  # renders without raising
                report.to_dict()

    def test_bit_flipped_stream_never_crashes(self, field):
        for label, blob in _streams(field).items():
            flipped = faults.flip_random_bits(blob, n=4, seed=3)
            report = explain_stream(flipped, field)
            report.format()
            report.to_dict()
            assert sum(report.kind_totals.values()) == len(flipped), label

    def test_to_dict_is_json_clean(self, field):
        import json

        blob = compress(field, RelativeBound(BOUND), "SZ_T")
        payload = json.dumps(explain_stream(blob, field).to_dict())
        assert "attribution" in payload
