"""Quality-report and stream-statistics assembly."""

import math

import numpy as np
import pytest

from repro import AbsoluteBound, RelativeBound, compress
from repro.report import build_report, quality_report


class TestQualityReport:
    def test_relative_codec_report(self, smooth_positive_3d):
        blob = compress(smooth_positive_3d, RelativeBound(1e-2))
        rep = quality_report(smooth_positive_3d, blob)
        assert rep.codec == "SZ_T"
        assert rep.bound_kind == "rel"
        assert rep.bound_value == 1e-2
        assert rep.errors.strictly_bounded
        assert rep.errors.max_rel <= 1e-2
        assert rep.ratio > 1
        assert rep.bits_per_value == pytest.approx(
            8 * rep.compressed_nbytes / smooth_positive_3d.size
        )
        assert rep.distribution is not None and rep.distribution.looks_uniform

    def test_absolute_codec_report(self, signed_2d):
        blob = compress(signed_2d, AbsoluteBound(0.5), compressor="SZ_ABS")
        rep = quality_report(signed_2d, blob)
        assert rep.bound_kind == "abs"
        assert rep.errors.max_abs <= 0.5
        assert rep.errors.bounded_fraction == 1.0

    def test_precision_codec_reports_knob_without_grading(self, smooth_positive_3d):
        from repro import PrecisionBound

        blob = compress(smooth_positive_3d, PrecisionBound(19), compressor="FPZIP")
        rep = quality_report(smooth_positive_3d, blob)
        assert rep.bound_kind == "prec"
        assert rep.bound_value == 19.0
        assert rep.errors is None  # precision parameterizes fidelity, no guarantee
        assert math.isfinite(rep.psnr_db)
        assert "fidelity knob, no point-wise guarantee" in rep.format()

    def test_format_is_human_readable(self, smooth_positive_3d):
        blob = compress(smooth_positive_3d, RelativeBound(1e-2))
        text = quality_report(smooth_positive_3d, blob).format()
        assert "SZ_T" in text
        assert "bounded: 100%" in text
        assert "bits/value" in text
        assert "error shape" in text

    def test_shape_mismatch_rejected(self, smooth_positive_3d):
        blob = compress(smooth_positive_3d, RelativeBound(1e-2))
        with pytest.raises(ValueError, match="shape"):
            quality_report(smooth_positive_3d.ravel(), blob)

    def test_cli_report_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data.io import write_raw

        data = np.exp(np.random.default_rng(0).normal(0, 1, (16, 16))).astype(np.float32)
        src = str(tmp_path / "f.f32")
        write_raw(src, data)
        main(["compress", src, str(tmp_path / "f.rpz"), "--shape", "16,16",
              "--rel-bound", "1e-2", "--report"])
        out = capsys.readouterr().out
        assert "error shape" in out and "PSNR" in out


class TestStreamBoundEveryCodec:
    """Every registered codec either exposes its bound or is known boundless."""

    #: Codecs with deliberately no recoverable bound: lossless, the
    #: CHUNKED wrapper (its per-chunk inner streams carry the bounds),
    #: and the adversarial EVIL codec registered by the safeguards suite
    #: when it runs in the same session.
    BOUNDLESS = {"GZIP", "CHUNKED", "EVIL"}
    #: Codecs whose bound is derived from another stream section rather
    #: than a ``_BOUND_KEYS`` entry: SAFE reads its ``safeguards`` list.
    DERIVED = {"SAFE"}
    EXPECTED_VALUE = {"abs": 0.5, "rel": 1e-2, "prec": 19.0, "rate": 8.0}

    def test_registry_and_bound_keys_in_sync(self):
        from repro.compressors.base import available_compressors
        from repro.report import _BOUND_KEYS

        unmapped = (
            set(available_compressors())
            - set(_BOUND_KEYS)
            - self.BOUNDLESS
            - self.DERIVED
        )
        assert not unmapped, (
            f"codecs {sorted(unmapped)} are registered but have no _BOUND_KEYS "
            "entry; add one (or list them as deliberately boundless)"
        )

    @staticmethod
    def _bound_for(kind):
        from repro import PrecisionBound, RateBound

        return {
            "abs": AbsoluteBound(0.5),
            "rel": RelativeBound(1e-2),
            "prec": PrecisionBound(19),
            "rate": RateBound(8),
        }[kind]

    def _all_codecs():
        import repro  # noqa: F401 - triggers codec registration
        from repro.compressors.base import available_compressors

        return available_compressors()

    @pytest.mark.parametrize("codec", _all_codecs())
    def test_stream_bound_recovered_from_stream(self, codec, smooth_positive_3d):
        from repro import get_compressor
        from repro.encoding.container import Container
        from repro.report import _BOUND_KEYS, stream_bound

        if codec == "SAFE":
            from repro.safeguards import SafeguardedCompressor

            comp = SafeguardedCompressor("SZ_T", ["rel:1e-2"])
        else:
            comp = get_compressor(codec)
        if codec == "GZIP":
            blob = comp.compress(smooth_positive_3d)
        elif codec == "SAFE":
            blob = comp.compress(smooth_positive_3d, self._bound_for("rel"))
        else:
            kind = _BOUND_KEYS[codec][1] if codec in _BOUND_KEYS else "rel"
            blob = comp.compress(smooth_positive_3d, self._bound_for(kind))
        got_kind, got_value = stream_bound(Container.from_bytes(blob))
        if codec in self.BOUNDLESS:
            assert (got_kind, got_value) == (None, None)
        elif codec in self.DERIVED:
            assert (got_kind, got_value) == ("rel", 1e-2)
        else:
            want_kind = _BOUND_KEYS[codec][1]
            assert got_kind == want_kind
            assert got_value == self.EXPECTED_VALUE[want_kind]


class TestStreamStats:
    def test_plain_stream(self, smooth_positive_3d):
        blob = compress(smooth_positive_3d, RelativeBound(1e-2))
        stats = build_report(blob)
        assert stats.codec == "SZ_T"
        assert stats.nbytes == len(blob)
        assert stats.shape == smooth_positive_3d.shape
        assert stats.dtype == smooth_positive_3d.dtype.name
        assert stats.decoded_nbytes == smooth_positive_3d.nbytes
        assert stats.n_chunks is None
        assert stats.decode_s > 0
        assert stats.crc_verify_s >= 0
        assert sum(stats.sections.values()) <= len(blob)
        assert "inner" in stats.sections

    def test_chunked_stream(self, smooth_positive_3d):
        from repro.core.chunked import ChunkedCompressor

        comp = ChunkedCompressor("SZ_T", chunk_bytes=4096, executor="serial")
        blob = comp.compress(smooth_positive_3d, RelativeBound(1e-2))
        stats = build_report(blob)
        assert stats.codec == "CHUNKED"
        assert stats.inner_codec == "SZ_T"
        assert stats.n_chunks == comp.last_chunk_count
        assert stats.crc_verify_s > 0
        assert stats.metrics["chunks.decompressed"]["value"] == comp.last_chunk_count

    def test_format_lists_sections_and_crc(self, smooth_positive_3d):
        blob = compress(smooth_positive_3d, RelativeBound(1e-2))
        text = build_report(blob).format()
        assert "CRC verification" in text
        assert "sections:" in text
        assert "inner" in text


class TestTolerateCorruption:
    """build_report(tolerate_corruption=True) on damaged CHUNKED v2 streams."""

    @pytest.fixture()
    def chunked_blob(self, smooth_positive_3d):
        from repro.core.chunked import ChunkedCompressor

        comp = ChunkedCompressor("SZ_T", chunk_bytes=8192, executor="serial")
        return comp.compress(smooth_positive_3d, RelativeBound(1e-2))

    def test_clean_stream_has_no_recovery(self, chunked_blob):
        stats = build_report(chunked_blob, tolerate_corruption=True)
        assert stats.recovery is None
        assert "recovery:" not in stats.format()
        assert stats.codec == "CHUNKED" and stats.n_chunks > 1

    def test_corrupt_chunk_recovered_and_reported(self, chunked_blob):
        from repro import StreamError
        from repro.testing.faults import corrupt_chunk

        bad = corrupt_chunk(chunked_blob, index=1)
        with pytest.raises(StreamError):
            build_report(bad)  # strict decode still refuses damaged bytes
        stats = build_report(bad, tolerate_corruption=True)
        assert stats.codec == "CHUNKED"
        assert stats.recovery is not None and not stats.recovery.complete
        assert stats.recovery.n_lost_chunks == 1
        assert stats.recovery.failures[0].index == 1
        assert stats.n_chunks == stats.recovery.n_chunks
        assert "payload" in stats.sections and "lens" in stats.sections
        text = stats.format()
        assert "recovery:" in text and "lost 1/" in text

    def test_unrecoverable_stream_still_raises(self):
        from repro.encoding.container import ContainerError

        with pytest.raises(ContainerError, match="unrecoverable"):
            build_report(b"this is not a stream at all", tolerate_corruption=True)


class TestParityStats:
    def test_v3_stream_reports_parity_geometry(self):
        from repro.core.chunked import ChunkedCompressor

        rng = np.random.default_rng(0)
        data = rng.lognormal(size=4000).astype(np.float32)
        from tests.test_legacy_corpus import reframe

        blob = ChunkedCompressor(
            chunk_bytes=4000, parity=2, group_size=4, executor="serial"
        ).compress(data, RelativeBound(1e-2))
        assert build_report(blob).version == 5
        stats = build_report(reframe(blob, 3))
        assert stats.version == 3
        assert stats.parity == (2, 4)
        assert "k=2 per group of 4" in stats.format()
        assert "parity" in stats.sections

    def test_plain_stream_has_no_parity(self):
        rng = np.random.default_rng(0)
        data = rng.lognormal(size=500).astype(np.float32)
        stats = build_report(compress(data, RelativeBound(1e-2)))
        assert stats.parity is None
