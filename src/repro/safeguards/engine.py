"""Safeguard evaluation engine and the shared patch-channel code path.

Every patch channel in the repo — ``TransformedCompressor``'s verify pass,
the SZ family's escape/verify patches and the ``SafeguardedCompressor``
adapter — flows through the helpers here, so there is exactly one
serialization layout and one application path:

* ``patch_idx`` — deflated ``uint64`` flat indices of patched points
* ``patch_val`` — deflated original-dtype bit-exact values
* ``n_patch``   — ``u64`` count, cross-checked at decode

:func:`compute_patch_channel` runs the declared safeguards to a fixed point:
each round evaluates every mask against the reconstruction *with patches
applied so far*; points already bit-identical to the original are never
flagged, so each round either grows the patch set or terminates.  A
compliant reconstruction costs exactly one vectorized pass per safeguard
and yields an empty channel.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..encoding import deflate, inflate
from .kinds import Safeguard, bit_view

__all__ = [
    "PatchChannel",
    "compute_patch_channel",
    "put_patch_sections",
    "read_patch_sections",
    "apply_patch_sections",
]


@dataclass(frozen=True)
class PatchChannel:
    """Result of a safeguard evaluation pass.

    ``counts`` maps each safeguard spec to the number of points it flagged
    (first round it flagged them).
    """

    patch_idx: np.ndarray
    patch_val: np.ndarray
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.patch_idx.size)


def compute_patch_channel(
    safeguards: tuple[Safeguard, ...] | list[Safeguard],
    original: np.ndarray,
    recon: np.ndarray,
) -> PatchChannel:
    """Evaluate ``safeguards`` on ``(original, recon)`` and build the patches.

    Returns sorted ``uint64`` flat indices plus the original bit-exact values
    at those points.  Applying the channel makes every declared property hold
    exactly: the fixed-point loop re-evaluates masks on the patched
    reconstruction until no safeguard flags a new point (relevant for
    pair-based kinds like monotonicity, where repairing one point can expose
    a neighbour).
    """
    x = np.ascontiguousarray(original)
    xd = np.asarray(recon)
    if x.shape != xd.shape:
        raise ValueError(
            f"safeguard evaluation needs matching shapes, got {x.shape} vs {xd.shape}"
        )
    xd = np.ascontiguousarray(xd.astype(x.dtype, copy=False))
    same = (bit_view(x) == bit_view(xd)).ravel()
    mask = np.zeros(x.size, dtype=bool)
    counts: dict[str, int] = {}
    cur = xd
    for _ in range(x.size + 1):
        fresh_any = False
        for sg in safeguards:
            fresh = sg.violation_mask(x, cur).ravel() & ~same & ~mask
            n_fresh = int(np.count_nonzero(fresh))
            if n_fresh:
                counts[sg.spec()] = counts.get(sg.spec(), 0) + n_fresh
                mask |= fresh
                fresh_any = True
        if not fresh_any:
            break
        cur = np.where(mask.reshape(x.shape), x, xd)
    patch_idx = np.flatnonzero(mask).astype(np.uint64)
    patch_val = x.ravel()[patch_idx.astype(np.int64)]
    return PatchChannel(patch_idx=patch_idx, patch_val=patch_val, counts=counts)


def put_patch_sections(box, patch_idx: np.ndarray, patch_val: np.ndarray) -> None:
    """Write the canonical patch sections into a container."""
    box.put("patch_idx", deflate(np.ascontiguousarray(patch_idx).tobytes()))
    box.put("patch_val", deflate(np.ascontiguousarray(patch_val).tobytes()))
    box.put_u64("n_patch", patch_idx.size)


def read_patch_sections(
    box, dtype: np.dtype, codec: str, n_points: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Read and validate the patch sections of a container.

    Raises ``ValueError`` (translated to ``ContainerError`` by the decode
    guard) when the three sections disagree with each other or index outside
    the array — corruption must never silently drop a guaranteed property.
    """
    n_patch = box.get_u64("n_patch")
    patch_idx = np.frombuffer(inflate(box.get("patch_idx")), dtype=np.uint64)
    patch_val = np.frombuffer(inflate(box.get("patch_val")), dtype=dtype)
    if patch_idx.size != n_patch or patch_val.size != n_patch:
        raise ValueError(f"corrupt {codec} stream: patch channel size mismatch")
    if n_points is not None and patch_idx.size and int(patch_idx.max()) >= n_points:
        raise ValueError(f"corrupt {codec} stream: patch index out of range")
    return patch_idx, patch_val


def apply_patch_sections(flat: np.ndarray, box, dtype: np.dtype, codec: str) -> np.ndarray:
    """Apply a container's patch channel to a flat reconstruction in place."""
    patch_idx, patch_val = read_patch_sections(box, dtype, codec, n_points=flat.size)
    if patch_idx.size:
        flat[patch_idx.astype(np.int64)] = patch_val
    return flat
