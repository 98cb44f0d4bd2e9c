"""SZ absolute-error mode: bound guarantees, side channels, stages."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compressors import AbsoluteBound, SZCompressor
from repro.encoding import Container, deflate, inflate


def roundtrip(data, eb, **kw):
    comp = SZCompressor(**kw)
    blob = comp.compress(data, AbsoluteBound(eb))
    return blob, comp.decompress(blob)


class TestBoundGuarantee:
    @pytest.mark.parametrize("eb", [1e-6, 1e-3, 1e-1, 10.0])
    def test_archetypes_strictly_bounded(self, all_archetypes, eb):
        for name, data in all_archetypes.items():
            blob, recon = roundtrip(data, eb)
            err = np.abs(recon.astype(np.float64) - data.astype(np.float64))
            assert err.max() <= eb, f"{name} violates bound at eb={eb}"
            assert recon.shape == data.shape and recon.dtype == data.dtype

    def test_float64_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, size=(16, 16, 16))
        _, recon = roundtrip(data, 1e-9)
        assert np.abs(recon - data).max() <= 1e-9

    def test_extreme_values_via_patch_channel(self):
        data = np.array([1e300, -1e300, 0.0, 1.0], dtype=np.float64)
        blob, recon = roundtrip(data, 1e-6)
        # risky points are stored verbatim -> exact
        np.testing.assert_array_equal(recon[:2], data[:2])
        assert np.abs(recon - data).max() <= 1e-6

    def test_constant_data(self):
        data = np.full((32, 32), 3.25, dtype=np.float32)
        blob, recon = roundtrip(data, 1e-4)
        assert np.abs(recon - data).max() <= 1e-4
        assert len(blob) < data.nbytes / 10  # constant compresses hard

    @given(
        st.floats(1e-8, 1e3),
        st.integers(0, 2**31 - 1),
    )
    def test_property_bound(self, eb, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 10, size=257).astype(np.float32)
        _, recon = roundtrip(data, eb)
        assert np.abs(recon.astype(np.float64) - data.astype(np.float64)).max() <= eb


class TestCompressionBehaviour:
    def test_smooth_data_beats_rough_data(self, smooth_positive_3d, rough_1d):
        eb_smooth = float(smooth_positive_3d.std()) * 1e-3
        eb_rough = float(rough_1d.std()) * 1e-3
        blob_s, _ = roundtrip(smooth_positive_3d, eb_smooth)
        blob_r, _ = roundtrip(rough_1d, eb_rough)
        cr_s = smooth_positive_3d.nbytes / len(blob_s)
        cr_r = rough_1d.nbytes / len(blob_r)
        assert cr_s > cr_r

    def test_larger_bound_compresses_more(self, smooth_positive_3d):
        sizes = []
        for eb in (1e-5, 1e-3, 1e-1):
            blob, _ = roundtrip(smooth_positive_3d, eb)
            sizes.append(len(blob))
        assert sizes[0] > sizes[1] > sizes[2]

    def test_small_radius_forces_escapes(self, rough_1d):
        eb = 1e-4
        blob_small, recon = roundtrip(rough_1d, eb, radius=3)
        err = np.abs(recon.astype(np.float64) - rough_1d.astype(np.float64))
        assert err.max() <= eb  # escapes keep the bound
        box = Container.from_bytes(blob_small)
        assert box.get_u64("n_esc") > 0

    def test_stage3_flag_recorded(self, smooth_positive_3d):
        blob, _ = roundtrip(smooth_positive_3d, 1e-3, use_stage3=False)
        assert Container.from_bytes(blob).get_u64("stage3") == 0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            SZCompressor(radius=0)


class _StubHuffman:
    """Returns a crafted payload whatever the codes."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload

    def encode(self, codes) -> bytes:
        return self.payload


class TestStage3Rule:
    """Stage 3 deflates a payload over 64 KiB only when a sample of it
    deflates by at least 1%; smaller payloads always take the trial."""

    @staticmethod
    def pack(monkeypatch, payload: bytes, use_stage3: bool = True):
        from repro.compressors.sz import sz

        sizes = []  # input sizes of the entropy stage's own deflate calls

        def spy(data, *args):
            sizes.append(len(data))
            return deflate(data, *args)

        monkeypatch.setattr(sz, "deflate", spy)
        box = Container("SZ_ABS")
        sz._pack_payload(box, _StubHuffman(payload), np.zeros(4, np.int64),
                         np.zeros(0, np.int64), np.zeros(0, np.uint64),
                         np.zeros(0, np.float32), use_stage3)
        return box, sizes

    @staticmethod
    def payload(size: int, alphabet: int) -> bytes:
        # Bytes uniform over ``alphabet`` values: entropy log2(alphabet) bits.
        rng = np.random.default_rng(size + alphabet)
        return rng.integers(0, alphabet, size, dtype=np.uint8).tobytes()

    def test_large_payload_deflating_under_1pct_skips_the_trial(self, monkeypatch):
        payload = self.payload(200_000, 240)
        assert 0.99 < len(deflate(payload)) / len(payload) < 1.0  # premise
        box, sizes = self.pack(monkeypatch, payload)
        assert box.get_u64("stage3") == 0
        assert box.get("codes") == payload
        assert len(payload) not in sizes
        assert max(sizes) == 8 * 4096  # the sample alone

    def test_large_payload_deflating_over_1pct_takes_the_trial(self, monkeypatch):
        payload = self.payload(200_000, 200)
        box, sizes = self.pack(monkeypatch, payload)
        assert box.get_u64("stage3") == 1
        assert len(payload) in sizes
        assert inflate(box.get("codes")) == payload

    def test_small_payload_keeps_the_exact_rule(self, monkeypatch):
        payload = self.payload(60_000, 250)
        assert 0.998 < len(deflate(payload)) / len(payload) < 1.0  # ~0.1% smaller
        box, sizes = self.pack(monkeypatch, payload)
        assert box.get_u64("stage3") == 1
        assert inflate(box.get("codes")) == payload

    def test_stage3_off_never_deflates_the_payload(self, monkeypatch):
        payload = self.payload(200_000, 200)
        box, sizes = self.pack(monkeypatch, payload, use_stage3=False)
        assert box.get_u64("stage3") == 0
        assert box.get("codes") == payload
        assert max(sizes) < 8 * 4096


class TestStreamIntegrity:
    def test_corrupt_escape_channel_detected(self, signed_2d):
        comp = SZCompressor(radius=3)
        blob = comp.compress(signed_2d, AbsoluteBound(1e-3))
        box = Container.from_bytes(blob)
        bad = Container(box.codec)
        for key in box.keys():
            if key == "n_esc":
                bad.put_u64("n_esc", box.get_u64("n_esc") + 1)
            else:
                bad.put(key, box.get(key))
        with pytest.raises(ValueError, match="escape"):
            comp.decompress(bad.to_bytes())

    def test_decompress_is_deterministic(self, smooth_positive_3d):
        comp = SZCompressor()
        blob = comp.compress(smooth_positive_3d, AbsoluteBound(1e-3))
        a = comp.decompress(blob)
        b = comp.decompress(blob)
        np.testing.assert_array_equal(a, b)

    def test_compress_is_deterministic(self, signed_2d):
        comp = SZCompressor()
        b1 = comp.compress(signed_2d, AbsoluteBound(1e-2))
        b2 = comp.compress(signed_2d, AbsoluteBound(1e-2))
        assert b1 == b2


class TestCoderEquivalence:
    """Whole-pipeline byte identity under the retained reference coder.

    Streams written with the vectorized Huffman codec must be identical,
    byte for byte, to streams written with the pre-vectorization
    reference implementation -- across dimensionalities, predictor
    orders and dtypes -- so old archives decode and new archives are
    reproducible by either implementation.
    """

    @pytest.mark.parametrize("shape", [(4000,), (64, 64), (16, 16, 16)])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blob_byte_identical(self, shape, order, dtype):
        from tests.encoding.huffman_ref import ReferenceHuffmanCodec

        rng = np.random.default_rng(int(np.prod(shape)) + order)
        data = np.cumsum(rng.normal(0, 1, size=shape), axis=-1).astype(dtype)
        fast = SZCompressor(order=order)
        ref = SZCompressor(order=order)
        ref._huffman = ReferenceHuffmanCodec()
        blob_fast = fast.compress(data, AbsoluteBound(1e-3))
        blob_ref = ref.compress(data, AbsoluteBound(1e-3))
        assert blob_fast == blob_ref
        # Each decoder reads the other's stream to the same array.
        np.testing.assert_array_equal(fast.decompress(blob_ref),
                                      ref.decompress(blob_fast))

    def test_compress_verified_matches_decompress(self):
        rng = np.random.default_rng(7)
        data = rng.normal(0, 50, size=(32, 32)).astype(np.float32)
        comp = SZCompressor()
        blob, recon = comp.compress_verified(data, AbsoluteBound(1e-2))
        np.testing.assert_array_equal(recon, comp.decompress(blob))
