"""Pluggable point-wise safeguards over any registered codec.

See ``docs/safeguards.md``.  The subsystem has three layers:

* :mod:`repro.safeguards.kinds` — the :class:`Safeguard` protocol and the
  concrete kinds (``abs``, ``rel``, ``ulp``, ``sign``, ``zero``,
  ``nonfinite``, ``monotone``, ``range``) plus the spec-string parser.
* :mod:`repro.safeguards.engine` — vectorized violation evaluation to a
  fixed point and the single shared patch-channel serialization used by
  every patching codec in the repo.
* :mod:`repro.safeguards.adapter` — :class:`SafeguardedCompressor`, the
  blackbox wrapper registered as codec ``SAFE``.
"""
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.safeguards.kinds import (
        SAFEGUARD_KINDS,
        AbsErrorSafeguard,
        bit_view,
        MonotoneSafeguard,
        NonFiniteSafeguard,
        RangeSafeguard,
        RelErrorSafeguard,
        Safeguard,
        SignSafeguard,
        UlpSafeguard,
        ZeroSafeguard,
        parse_safeguard,
        parse_safeguards,
    )
    from repro.safeguards.engine import (
        PatchChannel,
        apply_patch_sections,
        compute_patch_channel,
        put_patch_sections,
        read_patch_sections,
    )
    from repro.safeguards.adapter import SafeguardedCompressor, read_stream_safeguards

__all__ = [
    "Safeguard",
    "AbsErrorSafeguard",
    "RelErrorSafeguard",
    "UlpSafeguard",
    "SignSafeguard",
    "ZeroSafeguard",
    "NonFiniteSafeguard",
    "MonotoneSafeguard",
    "RangeSafeguard",
    "SAFEGUARD_KINDS",
    "bit_view",
    "parse_safeguard",
    "parse_safeguards",
    "PatchChannel",
    "compute_patch_channel",
    "put_patch_sections",
    "read_patch_sections",
    "apply_patch_sections",
    "SafeguardedCompressor",
    "read_stream_safeguards",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.safeguards.kinds": (
        "SAFEGUARD_KINDS", "AbsErrorSafeguard", "bit_view", "MonotoneSafeguard",
        "NonFiniteSafeguard", "RangeSafeguard", "RelErrorSafeguard", "Safeguard",
        "SignSafeguard", "UlpSafeguard", "ZeroSafeguard", "parse_safeguard", "parse_safeguards",
    ),
    "repro.safeguards.engine": (
        "PatchChannel", "apply_patch_sections", "compute_patch_channel", "put_patch_sections",
        "read_patch_sections",
    ),
    "repro.safeguards.adapter": ("SafeguardedCompressor", "read_stream_safeguards"),
})
