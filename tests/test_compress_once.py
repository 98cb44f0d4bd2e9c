"""``repro compress`` encodes once: no decode, one event per codec level.

The compress command grades the array the verify pass returns
(``compress_verified``) instead of decoding the stream it has just
written, so it must succeed with every decoder disabled and print the
same numbers a decode would give.  Every SZ- and ZFP-family codec but
ZFP_R builds that array in ``compress_verified`` from its encoder's
state, so it too runs with every decoder disabled.  Every
``compress_verified`` is traced like ``compress``: one ``compress`` event
per codec level, in the order the levels finish.
"""

import numpy as np
import pytest

import repro
import repro.cli
from repro import (
    AbsoluteBound,
    Compressor,
    PrecisionBound,
    RelativeBound,
    decompress,
    get_compressor,
)
from repro.cli import main
from repro.compressors.zfp import embedded as zfp_embedded
from repro.compressors.zfp import zfp as zfp_codec
from repro.core.chunked import iter_chunk_blobs
from repro.data.generators import gaussian_random_field
from repro.encoding import Container, HuffmanCodec
from repro.metrics import bounded_fraction
from repro.observe.events import install_event_log, read_events

BR = 1e-3


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


def _refuse(*args, **kwargs):
    raise AssertionError("this call must not run")


@pytest.fixture()
def field(tmp_path):
    """A smooth signed 1 MiB float32 field (two 512 KiB chunks)."""
    data = gaussian_random_field((64, 64, 64), beta=3.0, seed=5).astype(np.float32)
    path = str(tmp_path / "field.npy")
    np.save(path, data)
    return path, data


def _compress(path, out, *extra) -> bytes:
    assert main(["compress", path, out, "--rel-bound", repr(BR), *extra]) == 0
    with open(out, "rb") as fh:
        return fh.read()


class TestCompressDecodesNothing:
    @pytest.fixture()
    def no_decoding(self, monkeypatch):
        """Every decoder raises: ``repro.decompress``, each class's,
        ``HuffmanCodec.decode`` and ZFP's ``decode_blocks``."""
        monkeypatch.setattr(repro, "decompress", _refuse)
        monkeypatch.setattr(repro.cli, "decompress", _refuse)
        for cls in _subclasses(Compressor):
            if "decompress" in vars(cls):
                monkeypatch.setattr(cls, "decompress", _refuse)
        monkeypatch.setattr(HuffmanCodec, "decode", _refuse)
        for module in (zfp_embedded, zfp_codec):
            monkeypatch.setattr(module, "decode_blocks", _refuse)
        return monkeypatch

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "name",
        ["SZ_ABS", "SZ2_ABS", "SZ3_ABS", "SZ_PWR", "ZFP_A", "ZFP_P",
         "SZ_T", "SZ2_T", "SZ3_T", "ZFP_T"],
    )
    def test_codec_derives_its_array(self, name, dtype, no_decoding):
        """These codecs' ``compress_verified`` decodes nothing.

        The rest still compress, then decode (the base class's default):
        ZFP_R (its bit budget cuts blocks short, so only a decode knows
        which planes survive), FPZIP, GZIP, ISABELA and third-party codecs.
        """
        data = gaussian_random_field((10, 11, 13), beta=3.0, seed=5).astype(dtype)
        data[:, :, :4] = 0.0
        comp = get_compressor(name)
        bounds = (RelativeBound(BR), AbsoluteBound(1e-3), PrecisionBound(20))
        bound = next(b for b in bounds if isinstance(b, comp.supported_bounds))
        blob, recon = comp.compress_verified(data, bound)
        no_decoding.undo()
        bits = np.uint32 if dtype == np.float32 else np.uint64
        np.testing.assert_array_equal(recon.view(bits), decompress(blob).view(bits))

    @pytest.mark.parametrize(
        "extra",
        [
            (),
            ("--safeguard", "rel:1e-3"),
            ("--ladder", "SZ_T>GZIP"),
            ("--chunk-size", "512K", "--workers", "2"),
        ],
        ids=["SZ_T", "safeguard", "ladder", "chunked"],
    )
    def test_prints_the_decoded_bound(self, field, tmp_path, capsys, no_decoding, extra):
        path, data = field
        out = str(tmp_path / "f.rpz")
        blob = _compress(path, out, *extra)
        line = capsys.readouterr().out.strip()
        no_decoding.undo()
        stats = bounded_fraction(data, decompress(blob), BR)
        assert line.startswith(
            f"{path}: {data.nbytes} -> {len(blob)} bytes "
            f"({data.nbytes / len(blob):.2f}x) with "
        )
        assert line.endswith(
            f", bounded {stats.bounded_label()}, max rel err {stats.max_rel:.3e}"
        )

    def test_unbounded_report_runs_plain_compress(self, field, tmp_path, capsys,
                                                  no_decoding):
        path, _ = field
        for cls in [Compressor, *_subclasses(Compressor)]:
            if "compress_verified" in vars(cls):
                no_decoding.setattr(cls, "compress_verified", _refuse)
        out = str(tmp_path / "f.rpz")
        assert main(["compress", path, out, "--compressor", "FPZIP",
                     "--precision", "19"]) == 0
        assert capsys.readouterr().out.strip().endswith(" with FPZIP")


class TestCompressEvents:
    @pytest.fixture()
    def events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        install_event_log(path)
        yield lambda: [
            (e["codec"], e["bytes_in"], e["bytes_out"])
            for e in read_events(path)
            if e["event"] == "compress"
        ]
        install_event_log(None)

    @staticmethod
    def _levels(blob: bytes, nbytes: int, *codecs: str) -> list[tuple]:
        """``(codec, bytes_in, bytes_out)`` per level, innermost first."""
        out = []
        for codec in codecs:
            out.append((codec, nbytes, len(blob)))
            if codec != codecs[-1]:
                blob = Container.from_bytes(blob).get("inner")
        return out[::-1]

    def test_sz_t(self, field, tmp_path, events):
        path, data = field
        blob = _compress(path, str(tmp_path / "f.rpz"))
        assert events() == self._levels(blob, data.nbytes, "SZ_T", "SZ_ABS")

    def test_safeguard(self, field, tmp_path, events):
        path, data = field
        blob = _compress(path, str(tmp_path / "f.rpz"), "--safeguard", "rel:1e-3")
        assert events() == self._levels(blob, data.nbytes, "SAFE", "SZ_T", "SZ_ABS")

    def test_chunked(self, field, tmp_path, events):
        path, data = field
        blob = _compress(path, str(tmp_path / "f.rpz"),
                         "--chunk-size", "32K", "--workers", "1")
        want = []
        for chunk in iter_chunk_blobs(blob):
            box = Container.from_bytes(chunk)
            n = int(np.prod(box.get_shape("shape"))) * data.itemsize
            want += self._levels(chunk, n, "SZ_T", "SZ_ABS")
        assert len(want) == 2 * 32
        assert events() == [*want, ("CHUNKED", data.nbytes, len(blob))]

    def test_each_level_once_under_tracing(self, field, tmp_path, events):
        """The traced path emits the same single event per level."""
        from repro.observe.tracer import enable_tracing

        path, data = field
        enable_tracing(True)
        try:
            blob = _compress(path, str(tmp_path / "f.rpz"), "--safeguard", "rel:1e-3")
        finally:
            enable_tracing(False)
        assert events() == self._levels(blob, data.nbytes, "SAFE", "SZ_T", "SZ_ABS")
