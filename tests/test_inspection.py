"""The stream model every inspection command renders: ``inspect_stream``."""

import zlib

import numpy as np
import pytest

import repro.encoding.container as container
from repro import Container, RelativeBound, compress, decompress
from repro.cli import main
from repro.core.chunked import ChunkedCompressor
from repro.encoding.container import ContainerError
from repro.inspection import inspect_stream
from repro.integrity import repair_stream, verify_stream
from repro.observe.quality import explain_stream
from repro.testing import faults


@pytest.fixture(scope="module")
def parity_blob() -> bytes:
    rng = np.random.default_rng(3)
    data = (rng.standard_normal(12000) * np.exp(rng.uniform(-2, 2, 12000))).astype(
        np.float32
    )
    comp = ChunkedCompressor("SZ_T", chunk_bytes=1 << 13, executor="serial", parity=2)
    return comp.compress(data, RelativeBound(1e-3))


def test_every_byte_is_hashed_once(parity_blob, monkeypatch):
    hashed = []

    def counting(data, value=0):
        hashed.append(len(data))
        return zlib.crc32(data, value)

    monkeypatch.setattr(container, "crc32", counting)
    model = inspect_stream(parity_blob)
    assert sum(hashed) == len(parity_blob)
    assert model.crc == zlib.crc32(parity_blob)
    assert model.actual_crc == model.stored_crc == zlib.crc32(parity_blob[:-4])


def test_clean_stream_model(parity_blob):
    model = inspect_stream(parity_blob)
    assert model.damage() is None and model.problems == ()
    assert all(sec.crc_ok for sec in model.sections)
    assert len(model.chunks) == model.meta("n_chunks") == model.table.lens.size
    assert model.parity.k == 2
    for chunk in model.chunks:
        assert chunk.damage() is None
        inner = next(s.child for s in chunk.sections if s.key == "inner")
        assert inner.codec == "SZ_ABS"
    payload = next(s for s in model.sections if s.key == "payload")
    assert parity_blob[payload.payload_start : payload.payload_stop] == b"".join(
        parity_blob[c.start : c.stop] for c in model.chunks
    )


def test_damage_is_localized_to_the_chunk(parity_blob):
    bad = faults.corrupt_chunk(parity_blob, 1, n_bits=2, seed=0)
    model = inspect_stream(bad)
    assert not model.stream_crc_ok
    assert [s.key for s in model.sections if not s.crc_ok] == ["payload"]
    assert [i for i, c in enumerate(model.chunks) if c.damage()] == [1]
    assert any(p.startswith("chunk 1: ") for p in model.problems)


def test_one_chunk_table_validator(parity_blob):
    box = Container.from_bytes(parity_blob)
    tampered = Container(box.codec)
    for key in box.keys():
        if key == "elems":
            elems = box.get_array("elems").copy()
            elems[0] += 1
            tampered.put_array("elems", elems)
        else:
            tampered.put(key, box.get(key))
    blob = tampered.to_bytes(version=3)
    with pytest.raises(ContainerError, match="element counts") as decoded:
        decompress(blob)
    with pytest.raises(ContainerError, match="element counts") as repaired:
        repair_stream(blob)
    assert str(decoded.value) == str(repaired.value)
    assert verify_stream(blob).problems == (str(decoded.value),)


def test_parity_that_disagrees_with_its_chunks(parity_blob, tmp_path, capsys):
    """One flipped parity byte under freshly computed CRCs: only the
    re-encode of the intact chunks can tell, and every verdict says so."""
    box = Container.from_bytes(parity_blob)
    tampered = Container(box.codec)
    for key in box.keys():
        data = bytes(box.get(key))
        if key == "parity":
            data = bytes([data[0] ^ 1]) + data[1:]
        tampered.put(key, data)
    blob = tampered.to_bytes(version=box.version)
    problem = "parity group 0: bytes do not match recomputed parity"
    assert inspect_stream(blob).stream_crc_ok
    assert verify_stream(blob).problems == (problem,)
    path = tmp_path / "bad.rpz"
    path.write_bytes(blob)
    assert main(["verify", str(path)]) == 2
    assert problem in capsys.readouterr().out
    report = explain_stream(blob)
    assert f"StreamError: {problem}" in report.notes and not report.ok


def test_header_damage_never_raises():
    blob = compress(np.linspace(1, 2, 64, dtype=np.float32), RelativeBound(1e-3))
    for cut in (b"", blob[:3], b"junkjunkjunk", blob[:7]):
        model = inspect_stream(cut)
        assert model.box is None and model.damage() is not None
        assert model.problems
