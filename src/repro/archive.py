"""Multi-field archives: one byte stream for a whole snapshot.

Simulation snapshots carry tens of named fields (Table I lists 101); this
module packs every field's compressed stream into a single
self-describing archive, the way a dump step would write one object per
rank.  Fields may use different compressors and bounds -- the triage
pattern from ``examples/climate_ensemble.py``.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, ErrorBound
from repro.encoding.container import Container

__all__ = ["compress_dataset", "decompress_dataset", "archive_manifest"]

_CODEC = "ARCHIVE"


def compress_dataset(
    fields: dict[str, np.ndarray],
    bound: ErrorBound | dict[str, ErrorBound],
    compressor: str | Compressor | dict[str, str | Compressor] = "SZ_T",
) -> bytes:
    """Compress named fields into one archive.

    ``bound`` and ``compressor`` may be single values applied to every
    field or per-field dictionaries (which must cover every field).
    """
    from repro import get_compressor

    if not fields:
        raise ValueError("archive needs at least one field")
    box = Container(_CODEC)
    box.put_u64("n_fields", len(fields))
    for name, data in fields.items():
        b = bound[name] if isinstance(bound, dict) else bound
        c = compressor[name] if isinstance(compressor, dict) else compressor
        if isinstance(c, str):
            c = get_compressor(c)
        box.put_nested(f"field:{name}", c.compress(data, b))
    return box.to_bytes()


def decompress_dataset(blob: bytes) -> dict[str, np.ndarray]:
    """Reconstruct every field of an archive (insertion order preserved)."""
    from repro import _decompress_nested

    box = Container.from_bytes(blob)
    if box.codec != _CODEC:
        raise ValueError(f"not an archive stream (codec {box.codec!r})")
    out: dict[str, np.ndarray] = {}
    for key in box.keys():
        if key.startswith("field:"):
            # A v2+ archive's CRC, checked just above, covered the field.
            out[key[len("field:"):]] = _decompress_nested(box.get(key), box.checksummed)
    if len(out) != box.get_u64("n_fields"):
        raise ValueError("corrupt archive: field count mismatch")
    return out


def archive_manifest(blob: bytes) -> dict[str, dict]:
    """Per-field codec/shape/size summary without decompressing; raises on damage."""
    from repro.inspection import inspect_stream

    model = inspect_stream(blob)
    model.raise_if_damaged()
    if model.codec != _CODEC:
        raise ValueError(f"not an archive stream (codec {model.codec!r})")
    manifest: dict[str, dict] = {}
    for sec in model.sections:
        if not sec.key.startswith("field:"):
            continue
        inner = sec.child
        inner.raise_if_damaged()
        manifest[sec.key[len("field:"):]] = {
            "codec": inner.codec,
            "shape": inner.box.get_shape("shape"),
            "dtype": inner.box.get_dtype("dtype").name,
            "nbytes": sec.nbytes,
        }
    return manifest
