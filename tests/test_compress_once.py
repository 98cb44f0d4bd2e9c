"""``repro compress`` encodes once: no decode, one event per codec level,
one measurement per array.

The compress command prints the bound the enforcing layer graded into the
call record instead of decoding the stream it has just written, so it
must succeed with every decoder disabled, print the same numbers a decode
would give, and measure each array (or chunk) exactly once.  Every SZ-
and ZFP-family codec but ZFP_R, and ISABELA, builds the array
``compress_verified`` returns from its encoder's state, so it too runs
with every decoder disabled.  Every ``compress_verified`` is traced like
``compress``: one ``compress`` event per codec level, in the order the
levels finish.
"""

import sys

import numpy as np
import pytest

import repro
import repro.cli
import repro.metrics.error
from repro import (
    AbsoluteBound,
    ChunkedCompressor,
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


@pytest.fixture()
def small_field(tmp_path):
    """A signed 16384-point lognormal float32 field with zeros."""
    rng = np.random.default_rng(3)
    data = rng.lognormal(0.0, 2.0, 16384).astype(np.float32)
    data[::3] *= -1
    data[::7] = 0.0
    path = str(tmp_path / "small.npy")
    np.save(path, data)
    return path, data


def _compress(path, out, *extra, bound=("--rel-bound", repr(BR))) -> bytes:
    assert main(["compress", path, out, *bound, *extra]) == 0
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
         "SZ_T", "SZ2_T", "SZ3_T", "ZFP_T", "ISABELA"],
    )
    def test_codec_derives_its_array(self, name, dtype, no_decoding):
        """These codecs' ``compress_verified`` decodes nothing.

        The rest still compress, then decode (the base class's default):
        ZFP_R (its bit budget cuts blocks short, so only a decode knows
        which planes survive), FPZIP, GZIP and third-party codecs.
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
        "size,extra",
        [
            ("1M", ()),
            ("1M", ("--safeguard", "rel:1e-3")),
            ("1M", ("--ladder", "SZ_T>GZIP")),
            ("1M", ("--chunk-size", "512K", "--workers", "2")),
            *[("16K", ("--compressor", name)) for name in
              ("ZFP_T", "SZ2_T", "SZ3_T", "SZ_PWR", "ISABELA", "GZIP")],
            ("16K", ("--compressor", "ZFP_P", "--precision", "20",
                     "--safeguard", "rel:1e-3")),
            ("16K", ("--compressor", "ZFP_P", "--ladder", "GZIP")),
            ("16K", ("--chunk-size", "4K", "--workers", "2")),
            ("16K", ("--chunk-size", "4K", "--workers", "2", "--parity", "2")),
            ("0", ()),
        ],
        ids=["SZ_T", "safeguard", "ladder", "chunked",
             "ZFP_T", "SZ2_T", "SZ3_T", "SZ_PWR", "ISABELA", "GZIP",
             "ZFP_P-safeguard", "ZFP_P-ladder", "chunked-4K", "chunked-parity",
             "empty"],
    )
    def test_prints_the_decoded_bound(self, field, small_field, tmp_path, capsys,
                                      no_decoding, size, extra):
        """The printed line is what grading a decode gives, and a chunked
        compress brings no chunk's array back from the pool."""
        if size == "0":
            path, data = str(tmp_path / "empty.npy"), np.zeros(0, np.float32)
            np.save(path, data)
        else:
            path, data = field if size == "1M" else small_field
        if "--chunk-size" in extra:
            no_decoding.setattr(ChunkedCompressor, "compress_verified", _refuse)
        bound = () if "--precision" in extra else ("--rel-bound", repr(BR))
        blob = _compress(path, str(tmp_path / "f.rpz"), *extra, bound=bound)
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


class TestOneMeasurementPerArray:
    """``repro compress`` measures each array, or each chunk, once: in the
    layer that enforces the bound, never again in a wrapper or the CLI."""

    @pytest.fixture()
    def measured(self, monkeypatch):
        """Sizes of the originals every ``measure_errors`` call grades."""
        sizes = []
        real = repro.metrics.error.measure_errors

        def counting(original, recon, *args, **kwargs):
            sizes.append(np.asarray(original).size)
            return real(original, recon, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and vars(module).get("measure_errors") is real:
                monkeypatch.setattr(module, "measure_errors", counting)
        return sizes

    @pytest.mark.parametrize(
        "extra,calls",
        [
            ((), 1),
            (("--safeguard", "rel:1e-3"), 1),
            (("--chunk-size", "16K", "--workers", "1"), 4),
            (("--compressor", "SZ_PWR"), 1),
            (("--compressor", "ZFP_P", "--precision", "20", "--safeguard", "rel:1e-3"), 1),
        ],
        ids=["SZ_T", "safeguard", "chunked", "SZ_PWR", "ZFP_P-safeguard"],
    )
    def test_compress(self, tmp_path, measured, extra, calls):
        data = np.random.default_rng(0).lognormal(0.0, 2.0, 16384).astype(np.float32)
        path = str(tmp_path / "field.npy")
        np.save(path, data)
        bound = () if "--precision" in extra else ("--rel-bound", repr(BR))
        _compress(path, str(tmp_path / "f.rpz"), *extra, bound=bound)
        assert len(measured) == calls
        assert sum(measured) == data.size


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
