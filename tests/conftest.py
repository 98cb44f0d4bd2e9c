"""Shared fixtures: deterministic field archetypes exercising every code path.

The archetypes mirror the value distributions the paper's applications
exhibit (DESIGN.md section 2): smooth positive, log-normal heavy-tailed,
signed, zero-heavy, rough/spiky, and tiny-magnitude data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


def _smooth(shape, seed, sigma=3):
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    f = gaussian_filter(rng.normal(size=shape), sigma)
    s = f.std()
    return f / (s if s else 1.0)


@pytest.fixture(scope="session")
def smooth_positive_3d() -> np.ndarray:
    """Smooth strictly-positive 3-D field (log-normal-ish)."""
    return np.exp(1.5 * _smooth((24, 24, 24), 1)).astype(np.float32)


@pytest.fixture(scope="session")
def signed_2d() -> np.ndarray:
    """Smooth signed 2-D field crossing zero."""
    return (1000.0 * _smooth((48, 64), 2)).astype(np.float32)


@pytest.fixture(scope="session")
def zero_heavy_3d() -> np.ndarray:
    """Mostly-zero condensate-style field (exercises zero handling)."""
    f = _smooth((20, 24, 24), 3)
    return (np.maximum(f - 0.8, 0.0) * 1e-3).astype(np.float32)


@pytest.fixture(scope="session")
def rough_1d() -> np.ndarray:
    """Hard-to-predict 1-D particle-style data."""
    rng = np.random.default_rng(4)
    smooth = np.cumsum(rng.normal(size=8192)) / 20.0
    return (500.0 * (smooth + rng.normal(size=8192))).astype(np.float32)


@pytest.fixture(scope="session")
def wide_range_3d() -> np.ndarray:
    """Heavy-tailed positive data spanning ~10 decades (float64)."""
    return np.exp(8.0 * _smooth((16, 16, 16), 5)).astype(np.float64)


@pytest.fixture(scope="session")
def all_archetypes(
    smooth_positive_3d, signed_2d, zero_heavy_3d, rough_1d, wide_range_3d
) -> dict[str, np.ndarray]:
    return {
        "smooth_positive_3d": smooth_positive_3d,
        "signed_2d": signed_2d,
        "zero_heavy_3d": zero_heavy_3d,
        "rough_1d": rough_1d,
        "wide_range_3d": wide_range_3d,
    }


@pytest.fixture(scope="session", params=[(5, 8), (5, 7)], ids=["sizes-13", "sizes-12"])
def mismatched_chunks(request) -> bytes:
    """A CHUNKED stream of shape (12,) whose chunk table says 6 + 6
    elements while its two chunks hold ``request.param`` -- whatever the
    sum, no reader may return an array from it."""
    from repro import Container, RelativeBound, compress

    parts = [
        compress(np.linspace(1.0, 2.0, n, dtype=np.float32), RelativeBound(1e-3))
        for n in request.param
    ]
    box = Container("CHUNKED")
    box.put_dtype("dtype", np.float32)
    box.put_shape("shape", (12,))
    box.put_str("inner_codec", "SZ_T")
    box.put_u64("n_chunks", 2)
    box.put_array("offs", np.array([0, len(parts[0])], dtype=np.uint64))
    box.put_array("lens", np.array([len(p) for p in parts], dtype=np.uint64))
    box.put_array("elems", np.array([6, 6], dtype=np.uint64))
    box.put_nested("payload", *parts)
    return box.to_bytes()
