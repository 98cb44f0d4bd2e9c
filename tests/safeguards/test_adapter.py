"""SafeguardedCompressor vs an adversarial codec: every property, bit-exactly.

``EvilCodec`` (conftest) corrupts its reconstruction deterministically per
mode; wrapping it with the matching safeguard must restore the declared
property exactly -- across dtypes and dimensionalities -- while a compliant
codec pays only an empty patch channel.
"""

import numpy as np
import pytest

from repro import (
    AbsoluteBound,
    Container,
    RelativeBound,
    decompress,
)
from repro.safeguards import (
    MonotoneSafeguard,
    SafeguardedCompressor,
    bit_view,
)

from .conftest import EvilCodec


def field(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(0, 1, size=shape)).astype(dtype)


BOUND = AbsoluteBound(1e30)  # loose: the safeguards do the guaranteeing


class TestAdversarial:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(101,), (17, 13), (7, 8, 9)])
    def test_rel_bound_restored(self, dtype, shape):
        data = field(shape, dtype)
        safe = SafeguardedCompressor(EvilCodec("perturb"), ["rel:1e-3"])
        blob = safe.compress(data, BOUND)
        recon = decompress(blob)
        assert recon.shape == shape and recon.dtype == dtype
        x64 = data.astype(np.float64)
        err = np.abs(recon.astype(np.float64) - x64)
        assert (err <= 1e-3 * np.abs(x64)).all()

    def test_rel_repairs_nan_reconstructions_of_finite_points(self):
        data = field((210,), np.float32)
        safe = SafeguardedCompressor(EvilCodec("nanify"), ["rel:1e-3"])
        recon = decompress(safe.compress(data, BOUND))
        assert np.isfinite(recon).all()
        x64 = data.astype(np.float64)
        err = np.abs(recon.astype(np.float64) - x64)
        assert (err <= 1e-3 * np.abs(x64)).all()

    def test_abs_bound_restored(self):
        data = field((64,), np.float64)
        safe = SafeguardedCompressor(EvilCodec("perturb"), ["abs:1e-4"])
        recon = decompress(safe.compress(data, BOUND))
        assert np.abs(recon - data).max() <= 1e-4

    def test_ulp_zero_means_bit_exact(self):
        data = field((33, 5), np.float32)
        safe = SafeguardedCompressor(EvilCodec("perturb"), ["ulp:0"])
        recon = decompress(safe.compress(data, BOUND))
        np.testing.assert_array_equal(bit_view(recon), bit_view(data))

    def test_signs_restored(self):
        data = field((128,), np.float64) * np.where(
            np.arange(128) % 2 == 0, 1.0, -1.0
        )
        safe = SafeguardedCompressor(EvilCodec("negate"), ["sign"])
        recon = decompress(safe.compress(data, BOUND))
        np.testing.assert_array_equal(np.sign(recon), np.sign(data))

    def test_zeros_restored_bit_exactly(self):
        data = field((64,), np.float32)
        data[::4] = 0.0
        data[2::8] = -0.0
        safe = SafeguardedCompressor(EvilCodec("zero"), ["zero"])
        recon = decompress(safe.compress(data, BOUND))
        zeros = data == 0
        np.testing.assert_array_equal(
            bit_view(recon)[zeros], bit_view(data)[zeros]
        )

    @pytest.mark.parametrize("shape", [(64,), (16, 6)])
    def test_monotone_restored(self, shape):
        data = np.sort(field(shape, np.float64), axis=0)
        safe = SafeguardedCompressor(EvilCodec("swap"), ["monotone:axis=0"])
        recon = decompress(safe.compress(data, BOUND))
        assert not MonotoneSafeguard(0).violation_mask(data, recon).any()

    def test_range_restored(self):
        data = field((97,), np.float64)
        safe = SafeguardedCompressor(EvilCodec("spike"), ["range"])
        recon = decompress(safe.compress(data, BOUND))
        assert recon.min() >= data.min() and recon.max() <= data.max()

    def test_nonfinite_restored_bit_exactly(self):
        data = field((50,), np.float32)
        data[7] = np.nan
        data[13] = np.inf
        data[21] = -np.inf
        safe = SafeguardedCompressor(EvilCodec("unfinite"), ["nonfinite"])
        recon = decompress(safe.compress(data, BOUND))
        nf = ~np.isfinite(data)
        np.testing.assert_array_equal(bit_view(recon)[nf], bit_view(data)[nf])

    def test_stacked_safeguards_all_hold(self):
        data = field((256,), np.float64)
        data[::11] = 0.0
        safe = SafeguardedCompressor(
            EvilCodec("perturb"), ["rel:1e-3", "sign", "zero"]
        )
        recon = decompress(safe.compress(data, BOUND))
        nz = data != 0
        assert (np.abs(recon - data)[nz] <= 1e-3 * np.abs(data)[nz]).all()
        np.testing.assert_array_equal(np.sign(recon), np.sign(data))
        np.testing.assert_array_equal(recon[~nz], data[~nz])


class TestAdapter:
    def test_compliant_codec_leaves_channel_empty(self):
        data = field((512,), np.float64)
        safe = SafeguardedCompressor(EvilCodec("faithful"), ["rel:1e-3", "sign"])
        blob = safe.compress(data, BOUND)
        box = Container.from_bytes(blob)
        assert box.version == 4
        assert box.get_u64("n_patch") == 0
        assert box.get_str("inner_codec") == "EVIL"

    def test_transformed_compress_verified_matches_decompress(self):
        # The adapter reuses the verify pass's reconstruction instead of
        # re-decoding the stream it just produced; that is only sound if
        # compress_verified returns bit-for-bit what decompress yields --
        # including the patch channel (forced here via non-finite input).
        from repro.core.pwr import make_sz_t

        data = field((129, 31), np.float32, seed=5)
        data[::17, 3] = np.nan
        data[5, ::7] = np.inf
        sz_t = make_sz_t(nonfinite="preserve")
        blob, final = sz_t.compress_verified(data, RelativeBound(1e-3))
        ref = decompress(blob)
        assert final.dtype == ref.dtype and final.shape == ref.shape
        np.testing.assert_array_equal(bit_view(final), bit_view(ref))

    def test_safe_compress_verified_matches_decompress(self):
        data = field((4097,), np.float32, seed=6)
        safe = SafeguardedCompressor(EvilCodec("perturb"), ["rel:1e-3", "sign"])
        blob, final = safe.compress_verified(data, BOUND)
        ref = decompress(blob)
        np.testing.assert_array_equal(bit_view(final), bit_view(ref))

    def test_registry_dispatch_decodes_safe_streams(self):
        # repro.decompress resolves SAFE via the registry (decode-only
        # instance) -- no safeguard or inner-codec knowledge needed.
        data = field((40,), np.float32)
        blob = SafeguardedCompressor(EvilCodec("perturb"), ["ulp:0"]).compress(
            data, BOUND
        )
        np.testing.assert_array_equal(decompress(blob), data)

    def test_decode_only_instance_refuses_to_compress(self):
        with pytest.raises(ValueError, match="decode-only"):
            SafeguardedCompressor().compress(np.ones(4), BOUND)

    def test_inner_by_registry_name(self):
        data = field((16, 16), np.float32)
        safe = SafeguardedCompressor("SZ_ABS", ["abs:0.01"])
        recon = decompress(safe.compress(data, AbsoluteBound(0.01)))
        assert np.abs(recon - data).max() <= 0.01

    def test_nonfinite_auto_appended_and_sanitized(self):
        data = field((64,), np.float64)
        data[5] = np.nan
        data[6] = -np.inf
        safe = SafeguardedCompressor(EvilCodec("faithful"), ["rel:1e-3"])
        blob = safe.compress(data, BOUND)
        specs = Container.from_bytes(blob).get_str("safeguards")
        assert "nonfinite" in specs.split(";")
        recon = decompress(blob)
        nf = ~np.isfinite(data)
        np.testing.assert_array_equal(bit_view(recon)[nf], bit_view(data)[nf])

    def test_inner_codec_header_cross_check(self):
        data = field((32,), np.float32)
        blob = SafeguardedCompressor(EvilCodec(), ["sign"]).compress(data, BOUND)
        box = Container.from_bytes(blob)
        forged = Container(box.codec)
        forged.version = box.version
        for k in box.keys():
            forged.put(k, b"SZ_T" if k == "inner_codec" else box.get(k))
        from repro import StreamError

        with pytest.raises(StreamError, match="claims codec"):
            decompress(forged.to_bytes(version=box.version))

    def test_safeguard_metrics_and_event(self):
        from repro.observe import metrics

        data = field((200,), np.float64)
        reg = metrics()
        before = reg.snapshot()
        safe = SafeguardedCompressor(EvilCodec("negate"), ["sign"])
        safe.compress(data, BOUND)
        delta = reg.diff(before)
        assert delta["safeguard.points"]["value"] == 200
        assert delta["safeguard.patched"]["value"] > 0
        assert delta["safeguard.patched.sign"]["value"] == \
            delta["safeguard.patched"]["value"]


class TestChunkedIntegration:
    def test_chunked_safe_repairs_every_chunk(self):
        from repro.core.chunked import ChunkedCompressor

        data = field((8192,), np.float32, seed=5)
        safe = SafeguardedCompressor(EvilCodec("perturb"), ["rel:1e-3"])
        chunked = ChunkedCompressor(safe, chunk_bytes=4096, workers=2)
        blob = chunked.compress(data, BOUND)
        recon = decompress(blob)
        x64 = data.astype(np.float64)
        err = np.abs(recon.astype(np.float64) - x64)
        assert (err <= 1e-3 * np.abs(x64)).all()

    def test_record_merges_safeguard_counts(self):
        from repro.core.chunked import ChunkedCompressor
        from repro.observe import call_report

        data = field((8192,), np.float32, seed=6)
        safe = SafeguardedCompressor(EvilCodec("perturb"), ["rel:1e-3"])
        chunked = ChunkedCompressor(safe, chunk_bytes=4096, workers=2)
        with call_report() as rec:
            chunked.compress(data, BOUND)
        audit = rec.audit()
        assert rec.entries
        assert audit.n_points == data.size
        assert audit.patched > 0
        # The rel safeguard's declared bound stands in for the (absolute)
        # bound handed to the pipeline.
        assert audit.bound_value == 1e-3
