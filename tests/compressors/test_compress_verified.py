"""The ``compress_verified`` contract, for every codec and wrapper.

``compress_verified(data, bound)`` must return exactly ``compress``'s bytes
and exactly the array ``decompress`` yields for them: ``repro compress``
prints its bounded fraction and max rel err from that array and never
decodes the stream it writes.  Arrays compare as unsigned-int views, so
-0.0 and NaN payload bits count.  Where ``compress`` rejects an input (an
empty array, NaN/Inf), ``compress_verified`` must raise the same way.
"""

import numpy as np
import pytest

from repro import (
    AbsoluteBound,
    ChunkedCompressor,
    Compressor,
    DegradationLadder,
    PrecisionBound,
    RateBound,
    RelativeBound,
    SafeguardedCompressor,
    available_compressors,
    decompress,
    get_compressor,
    make_sz_t,
    make_zfp_t,
)
from repro.observe import call_report

BOUNDS = {
    "rel": RelativeBound(1e-3),
    "abs": AbsoluteBound(1e-2),
    "prec": PrecisionBound(20),
    "rate": RateBound(16),
}


def _field(dtype) -> np.ndarray:
    """Signed lognormal magnitudes with exact zeros and -0.0."""
    rng = np.random.default_rng(11)
    data = np.exp(rng.normal(0, 2, (8, 16, 16))).astype(dtype)
    data[rng.random(data.shape) < 0.3] *= -1
    data.flat[::13] = 0.0
    data.flat[5::29] = -0.0
    return data


def _nonfinite() -> np.ndarray:
    data = _field(np.float32)
    data.flat[[3, 70, 500]] = [np.nan, np.inf, -np.inf]
    # A NaN with a payload: only a bit-level comparison sees it survive.
    data.flat[900] = np.array(0x7FC00123, dtype=np.uint32).view(np.float32)
    return data


def _ragged() -> np.ndarray:
    """Partial blocks everywhere: ZFP's 4^3 and SZ_PWR's 8^3 both pad.

    An all-zero slab fills whole ZFP blocks (they code nothing), a corner
    block of tiny values gets 0 coded planes at an absolute bound, and
    magnitudes span 1e-30 to 1e30 with +-finfo.max and a subnormal.
    """
    rng = np.random.default_rng(12)
    data = (10.0 ** rng.uniform(-30, 30, (5, 6, 7))).astype(np.float32)
    data[rng.random(data.shape) < 0.4] *= -1
    data[:4, :4, :4] = 10.0 ** rng.uniform(-30, -20, (4, 4, 4))
    data[4] = 0.0
    top = np.finfo(np.float32)
    data[0, 5, 6], data[1, 5, 6] = top.max, -top.max
    data[2, 4, 5] = top.tiny / 8
    return data


def _line() -> np.ndarray:
    """37 float64 points: a partial last block for every 1-D block size."""
    rng = np.random.default_rng(13)
    data = np.exp(rng.normal(0, 2, 37))
    data[rng.random(37) < 0.3] *= -1
    data[::9] = 0.0
    return data


INPUTS = {
    "f32": lambda: _field(np.float32),
    "f64": lambda: _field(np.float64),
    "empty": lambda: np.zeros((0, 5), dtype=np.float32),
    "nonfinite": _nonfinite,
    "ragged": _ragged,
    "line": _line,
}


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype.itemsize == 4 else np.uint64)


def _check_contract(comp: Compressor, data: np.ndarray, bound) -> None:
    try:
        expected = comp.compress(data, bound)
    except Exception as exc:  # noqa: BLE001 - the input is rejected: so be it,
        # but both entry points must reject it alike.
        with pytest.raises(type(exc)):
            comp.compress_verified(data, bound)
        return
    blob, recon = comp.compress_verified(data, bound)
    assert blob == expected
    decoded = decompress(blob)
    assert recon.dtype == decoded.dtype and recon.shape == decoded.shape
    np.testing.assert_array_equal(_bits(recon), _bits(decoded))


# -- every registered codec, under each bound kind it accepts ----------------

# The bare SAFE registry entry is decode-only; SafeguardedCompressor is
# covered with an inner codec below.
CODECS = [name for name in available_compressors() if name != "SAFE"]
CODEC_CASES = [
    (name, kind)
    for name in CODECS
    for kind, bound in BOUNDS.items()
    if isinstance(bound, get_compressor(name).supported_bounds)
]


@pytest.mark.parametrize("inp", sorted(INPUTS))
@pytest.mark.parametrize("name,kind", CODEC_CASES)
def test_registered_codec(name, kind, inp):
    _check_contract(get_compressor(name), INPUTS[inp](), BOUNDS[kind])


@pytest.mark.parametrize("inp", sorted(INPUTS))
@pytest.mark.parametrize("factory", [make_sz_t, make_zfp_t])
def test_transformed_preserving_nonfinite(factory, inp):
    _check_contract(factory(nonfinite="preserve"), INPUTS[inp](), BOUNDS["rel"])


# -- wrappers ------------------------------------------------------------------


@pytest.mark.parametrize("inp", sorted(INPUTS))
@pytest.mark.parametrize("parity", [0, 2])
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_chunked(executor, parity, inp):
    inner = make_sz_t(nonfinite="preserve") if inp == "nonfinite" else "SZ_T"
    comp = ChunkedCompressor(
        inner, chunk_bytes=2048, workers=2, executor=executor, parity=parity
    )
    _check_contract(comp, INPUTS[inp](), BOUNDS["rel"])


class _Broken(Compressor):
    """A rung that always fails, forcing the ladder onto its next rung."""

    name = "BROKEN"
    supported_bounds = (RelativeBound, AbsoluteBound)

    def compress(self, data, bound):
        raise RuntimeError("broken rung")

    def decompress(self, blob):  # pragma: no cover - never produces a stream
        raise RuntimeError("broken rung")


@pytest.mark.parametrize("inp", sorted(INPUTS))
@pytest.mark.parametrize(
    "rungs,fallbacks",
    [
        (("SZ_T", "GZIP"), 0),
        ((_Broken, "SZ_T"), 1),
    ],
    ids=["primary", "broken-rung"],
)
def test_ladder(rungs, fallbacks, inp):
    ladder = DegradationLadder([r() if isinstance(r, type) else r for r in rungs])
    data = INPUTS[inp]()
    with call_report() as rec:
        _check_contract(ladder, data, BOUNDS["rel"])
    if inp in ("f32", "f64"):
        # compress and compress_verified each fall back as often.
        assert rec.fallbacks == 2 * fallbacks


@pytest.mark.parametrize("inp", sorted(INPUTS))
@pytest.mark.parametrize(
    "inner,specs,kind",
    [
        ("SZ_T", ("rel:1e-3",), "rel"),
        ("SZ_ABS", ("rel:1e-3", "sign"), "abs"),
        ("ZFP_P", ("rel:1e-3",), "prec"),
    ],
)
def test_safeguarded(inner, specs, kind, inp):
    _check_contract(SafeguardedCompressor(inner, specs), INPUTS[inp](), BOUNDS[kind])
