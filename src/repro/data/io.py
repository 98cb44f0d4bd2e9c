"""Reading and writing raw binary fields.

HPC snapshot fields are conventionally stored as headerless little-endian
binaries (the format SZ/ZFP's command-line tools consume).  These helpers
move between such files, ``.npy`` files, and numpy arrays, with the shape
and dtype supplied out-of-band exactly as the reference tools require.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["read_raw", "write_raw", "load_array", "save_array"]


def read_raw(
    path: str,
    shape: tuple[int, ...],
    dtype: np.dtype = np.float32,
) -> np.ndarray:
    """Read a headerless little-endian binary field.

    The file size must match ``prod(shape) * itemsize`` exactly --
    mismatches almost always mean a wrong shape/dtype, so they are an
    error rather than a truncation.
    """
    dtype = np.dtype(dtype)
    expected = int(np.prod(shape)) * dtype.itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValueError(
            f"{path}: file holds {actual} bytes but shape {shape} of "
            f"{dtype.name} needs {expected}"
        )
    data = np.fromfile(path, dtype=dtype.newbyteorder("<"))
    return data.astype(dtype).reshape(shape)


def write_raw(path: str, data: np.ndarray) -> None:
    """Write a headerless little-endian binary field."""
    arr = np.ascontiguousarray(data)
    arr.astype(arr.dtype.newbyteorder("<"), copy=False).tofile(path)


def load_array(path: str, shape: tuple[int, ...] | None = None,
               dtype: np.dtype = np.float32) -> np.ndarray:
    """Load ``.npy`` (self-describing, float32/float64) or raw binary (shape required)."""
    if path.endswith(".npy"):
        data = np.load(path)
        if data.dtype not in (np.float32, np.float64):
            raise ValueError(f"{path}: expected float32/float64 data, got {data.dtype}")
        return data
    if shape is None:
        raise ValueError(f"{path}: raw binary input needs an explicit shape")
    return read_raw(path, shape, dtype)


def save_array(path: str, data: np.ndarray) -> None:
    """Save as ``.npy`` when the extension asks for it, else raw binary."""
    if path.endswith(".npy"):
        np.save(path, data)
    else:
        write_raw(path, data)
