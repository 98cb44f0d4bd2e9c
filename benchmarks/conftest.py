"""Shared benchmark fixtures: session-cached synthetic fields.

Benchmarks run at half linear scale (NYX 32^3, CESM 128x256, HACC 256k,
Hurricane 16x64x64) so a full ``pytest benchmarks/ --benchmark-only``
finishes in minutes while exercising the identical code paths as the
full-scale experiment harness (``repro-experiments run all``).

Every benchmark in this directory additionally lands in a machine-readable
``BENCH_<name>.json`` report (one per ``bench_<name>.py``): the
``benchmark`` fixture override below records each test's mean time and
``extra_info`` into :mod:`_emit`, and the session-finish hook writes the
files.  Set ``REPRO_BENCH_DIR`` to redirect them (default: repo root).
"""

from __future__ import annotations

import numpy as np
import pytest

import _emit
from repro.data import load_field

SCALE = 0.5


@pytest.fixture
def benchmark(benchmark, request):
    """pytest-benchmark's fixture, plus automatic BENCH_*.json recording."""
    yield benchmark
    _emit.record_from_fixture(benchmark, request)


def pytest_sessionfinish(session, exitstatus):
    for path in _emit.write_reports():
        print(f"\nwrote {path}")


@pytest.fixture(scope="session")
def nyx_dmd() -> np.ndarray:
    return load_field("NYX", "dark_matter_density", scale=SCALE)


@pytest.fixture(scope="session")
def nyx_vx() -> np.ndarray:
    return load_field("NYX", "velocity_x", scale=SCALE)


@pytest.fixture(scope="session")
def cesm_cld() -> np.ndarray:
    return load_field("CESM-ATM", "CLDHGH", scale=SCALE)


@pytest.fixture(scope="session")
def hacc_vx() -> np.ndarray:
    return load_field("HACC", "velocity_x", scale=SCALE)


@pytest.fixture(scope="session")
def hurricane_cloud() -> np.ndarray:
    return load_field("Hurricane", "CLOUDf48", scale=SCALE)
