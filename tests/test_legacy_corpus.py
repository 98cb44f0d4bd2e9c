"""Streams that the v1-v4 writers produced still decode, verify and repair.

``tests/golden/legacy/`` holds one small field (``field.npy``) and streams
of it written by the last release that wrote container v1-v4 (commit
a31bcf6), with :func:`write_streams`:

* v1: SZ_T without checksums;
* v2: SZ_T, ZFP_T, CHUNKED and a two-field ARCHIVE;
* v3: CHUNKED with Reed-Solomon parity;
* v4: SAFE.

v1-v4 checksum with CRC-32C; since v5 every CRC is CRC-32, so these bytes
can no longer be regenerated: ``python -m tests.test_legacy_corpus
--write DIR`` refuses to run on a v5 writer.  Each stream must decode to
the same bits as its own v5 re-framing (:func:`reframe`), stay within the
bound, pass the inspection commands, still catch a flipped payload bit,
and (v3) repair to its original bytes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import RelativeBound
from repro.archive import compress_dataset, decompress_dataset
from repro.cli import main
from repro.core.chunked import ChunkedCompressor
from repro.encoding.container import _MAGIC, ChecksumError, Container
from repro.encoding.rs import encode_parity
from repro.integrity import repair_stream
from repro.safeguards import SafeguardedCompressor
from repro.testing import faults

CORPUS = Path(__file__).parent / "golden" / "legacy"
BOUND = 1e-3
#: label -> container version the corpus stream was written as.
VERSIONS = {
    "sz_v2": 2, "sz_v1": 1, "chunked_v2": 2, "parity_v3": 3,
    "safe_v4": 4, "zfp_v2": 2, "archive_v2": 2,
}
#: How the ARCHIVE splits the field.
_SPLIT = 2400


def corpus_field() -> np.ndarray:
    return np.load(CORPUS / "field.npy")


def legacy_streams() -> dict[str, bytes]:
    """``{label: blob}`` of the committed corpus, in :data:`VERSIONS` order."""
    return {label: (CORPUS / f"{label}.rpz").read_bytes() for label in VERSIONS}


def write_streams(field: np.ndarray) -> dict[str, bytes]:
    """``{label: blob}`` of ``field`` as the corpus was written, by the
    running writer: the corpus labels under a v2-v4 writer; under a v5 one,
    the v5 counterpart of each checksummed label (``sz_v5``, ...)."""
    bound = RelativeBound(BOUND)
    sz = repro.compress(field, bound, "SZ_T")
    streams = {
        "sz_v2": sz,
        "sz_v1": Container.from_bytes(sz).to_bytes(version=1),
        "chunked_v2": ChunkedCompressor(
            "SZ_T", chunk_bytes=1 << 12, executor="serial"
        ).compress(field, bound),
        "parity_v3": ChunkedCompressor(
            "SZ_T", chunk_bytes=1 << 12, executor="serial", parity=2
        ).compress(field, bound),
        "safe_v4": SafeguardedCompressor("SZ_T", ["rel:1e-3"]).compress(field, bound),
        "zfp_v2": repro.compress(field, bound, "ZFP_T"),
        "archive_v2": compress_dataset(
            {"a": field[:_SPLIT], "b": field[_SPLIT:]}, bound, {"a": "SZ_T", "b": "ZFP_T"}
        ),
    }
    if sz[4] < 5:
        return streams
    return {
        label.rsplit("_v", 1)[0] + "_v5": blob
        for label, blob in streams.items()
        if label != "sz_v1"
    }


def reframe(blob: bytes, version: int = 5) -> bytes:
    """``blob`` with every container in it, nested ones included, written
    again as checksummed ``version`` (2-5): same sections, new CRCs (and,
    for CHUNKED parity, parity re-encoded over the re-framed chunks)."""
    box = Container.from_bytes(blob)
    chunks = None
    if box.codec == "CHUNKED" and box.get_u64("n_chunks"):
        chunks = [reframe(c, version) for c in ChunkedCompressor._read_chunks(blob)[2]]
    out = Container(box.codec)
    for key in box.keys():
        payload = box.get(key)
        if key == "payload" and chunks is not None:
            out.put_nested(key, *chunks)
        elif key == "parity" and chunks is not None:
            k, m = box.get_u64("parity_k"), box.get_u64("group_size")
            out.put(key, b"".join(
                b"".join(encode_parity(chunks[g : g + m], k))
                for g in range(0, len(chunks), m)
            ))
        elif (key == "inner" and payload[:4] == _MAGIC) or (
            box.codec == "ARCHIVE" and key.startswith("field:")
        ):
            out.put_nested(key, reframe(payload, version))
        else:
            out.put(key, payload)
    return out.to_bytes(version=version)


def decode(blob: bytes) -> dict[str, np.ndarray]:
    """Every array the stream holds, by field name (``""`` for a single one)."""
    if Container.from_bytes(blob).codec == "ARCHIVE":
        return decompress_dataset(blob)
    return {"": repro.decompress(blob)}


def _originals(field: np.ndarray, label: str) -> dict[str, np.ndarray]:
    if label.startswith("archive"):
        return {"a": field[:_SPLIT], "b": field[_SPLIT:]}
    return {"": field}


def _bits(arrays: dict[str, np.ndarray]) -> dict[str, bytes]:
    return {name: a.tobytes() for name, a in arrays.items()}


@pytest.fixture(scope="module")
def corpus() -> dict[str, bytes]:
    return legacy_streams()


def test_corpus_is_small_and_of_its_versions(corpus):
    total = sum(p.stat().st_size for p in CORPUS.iterdir())
    assert total <= 128 * 1024
    assert {label: blob[4] for label, blob in corpus.items()} == VERSIONS


@pytest.mark.parametrize("label", VERSIONS)
def test_decodes_as_its_v5_reframing(corpus, label):
    new = reframe(corpus[label])
    assert new[4] == 5
    assert _bits(decode(corpus[label])) == _bits(decode(new))


@pytest.mark.parametrize("label", VERSIONS)
def test_decoded_within_the_bound(corpus, label):
    field = corpus_field()
    got = decode(corpus[label])
    for name, original in _originals(field, label).items():
        recon = got[name]
        assert recon.shape == original.shape and recon.dtype == original.dtype
        x = original.astype(np.float64)
        assert np.all(np.abs(recon.astype(np.float64) - x) <= BOUND * np.abs(x))
        assert np.array_equal(np.signbit(recon), np.signbit(original))


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("label", VERSIONS)
def test_inspection_commands_pass(corpus, label, tmp_path):
    path = tmp_path / "s.rpz"
    path.write_bytes(corpus[label])
    for command in ("verify", "info", "explain"):
        assert _run([command, str(path)]) == 0, command
    # audit grades a single array; an ARCHIVE points to decompress_dataset.
    assert _run(["audit", str(path)]) == (1 if label.startswith("archive") else 0)


@pytest.mark.parametrize("label", [lb for lb, v in VERSIONS.items() if v >= 2])
def test_flipped_payload_bit_raises(corpus, label):
    blob = corpus[label]
    box = Container.from_bytes(blob)
    key = max(box.keys(), key=lambda k: len(box.get(k)))
    _, start, stop = box.spans[key]
    with pytest.raises(ChecksumError):
        decode(faults.flip_bit(blob, 8 * ((start + stop) // 2) + 3))


def test_repair_restores_damaged_v3(corpus):
    blob = corpus["parity_v3"]
    damaged = faults.corrupt_chunk(blob, 1, n_bits=3, seed=0)
    assert damaged != blob
    fixed, report = repair_stream(damaged)
    assert report.ok and report.repaired == (1,)
    assert fixed == blob


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        sys.exit("usage: python -m tests.test_legacy_corpus --write DIR")
    rng = np.random.default_rng(7)
    n = 4096
    field = (rng.standard_normal(n) * np.exp(rng.uniform(-3, 3, n))).astype(np.float32)
    streams = write_streams(field)
    if sorted(streams) != sorted(VERSIONS):
        sys.exit("this writer writes container v5; the corpus holds v1-v4 streams")
    os.makedirs(sys.argv[2], exist_ok=True)
    np.save(os.path.join(sys.argv[2], "field.npy"), field)
    for label, blob in streams.items():
        Path(sys.argv[2], f"{label}.rpz").write_bytes(blob)
    print(f"wrote {len(streams)} streams to {sys.argv[2]}")
