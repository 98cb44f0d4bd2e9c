"""Graceful-degradation codec ladder.

:class:`DegradationLadder` wraps an ordered chain of compressors.  Each
compress call walks the chain: the first rung that produces a stream
wins; a rung that raises is abandoned and the next rung tries.  Every
rung that accepts a relative bound enforces and grades it itself, so a
rung's stream never violates the bound it accepted.  The produced
stream is the winning rung's own container, completely unchanged -- so
decompression needs no knowledge of the ladder and a mixed-codec
CHUNKED payload decodes like any other.

The canonical final rung is ``GZIP`` (:class:`repro.LosslessDeflate`):
lossless storage accepts every bound kind and satisfies any error bound
vacuously, so a ladder ending in it cannot leave data uncompressed short
of an environment failure.

Fallbacks are observable: each one bumps the ``resilience.fallbacks``
counter and emits a ``codec-fallback`` event (both propagate back from
process-pool workers), the open :func:`~repro.observe.call_report` record
counts them and keeps only the winning rung's audit entries, and
:class:`~repro.core.chunked.ChunkedCompressor`
records the per-chunk winning codec in the stream itself (the
``chunk_codecs`` section) so ``stats``/``explain``/``info`` can show
which chunks degraded long after the run.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor, ErrorBound, get_compressor
from repro.observe.audit import call_report, current_report
from repro.observe.events import emit as emit_event
from repro.observe.metrics import metrics
from repro.resilience.policy import LadderExhaustedError

__all__ = ["DegradationLadder"]


class DegradationLadder(Compressor):
    """Compressor chain with automatic per-call fallback.

    Parameters
    ----------
    rungs:
        Compressor instances or registry names, tried in order.  At least
        one rung is required; ending with ``"GZIP"`` makes the ladder
        total (lossless storage never fails on finite input).
    """

    name = "LADDER"

    @staticmethod
    def with_fallbacks(primary, fallbacks) -> "DegradationLadder":
        """``primary`` -- a codec, or a ladder whose rungs come first --
        plus ``fallbacks``, dropping consecutive duplicate names (a rung
        re-listed as its own first fallback adds nothing -- same-codec
        retries belong to the retry policy)."""
        rungs = list(primary._rungs) if isinstance(primary, DegradationLadder) else [primary]
        last = rungs[-1] if isinstance(rungs[-1], str) else rungs[-1].name
        for rung in fallbacks:
            rung_name = rung if isinstance(rung, str) else rung.name
            if rung_name != last:
                rungs.append(rung)
                last = rung_name
        return DegradationLadder(rungs)

    def __init__(self, rungs=("SZ_T", "GZIP")) -> None:
        rungs = list(rungs) if not isinstance(rungs, (str, Compressor)) else [rungs]
        if not rungs:
            raise ValueError("a degradation ladder needs at least one rung")
        self._rungs = rungs

    # -- configuration -------------------------------------------------------

    @property
    def rungs(self) -> tuple[Compressor, ...]:
        """Rung instances, resolving registry names on first use."""
        self._rungs = [
            get_compressor(r) if isinstance(r, str) else r for r in self._rungs
        ]
        return tuple(self._rungs)

    @property
    def rung_names(self) -> tuple[str, ...]:
        return tuple(
            r if isinstance(r, str) else r.name for r in self._rungs
        )

    @property
    def chain(self) -> str:
        """The ladder as a spec string: ``"SZ_T>GZIP"``."""
        return ">".join(self.rung_names)

    @property
    def supported_bounds(self) -> tuple[type, ...]:  # type: ignore[override]
        seen: dict[type, None] = {}
        for rung in self.rungs:
            for kind in rung.supported_bounds:
                seen[kind] = None
        return tuple(seen)

    @property
    def allows_nonfinite(self) -> bool:  # type: ignore[override]
        return all(getattr(r, "allows_nonfinite", False) for r in self.rungs)

    # -- compression ---------------------------------------------------------

    def compress(self, data: np.ndarray, bound: ErrorBound) -> bytes:
        return self._compress_impl(data, bound, verified=False)[0]

    def compress_verified(
        self, data: np.ndarray, bound: ErrorBound
    ) -> tuple[bytes, np.ndarray]:
        """The winning rung's stream and the exact array it decodes to."""
        return self._compress_impl(data, bound, verified=True)

    def _compress_impl(
        self, data: np.ndarray, bound: ErrorBound, verified: bool
    ) -> tuple[bytes, np.ndarray | None]:
        self._check_bound(bound)
        fallbacks = 0
        failures: list[str] = []
        rungs = self.rungs
        for pos, rung in enumerate(rungs):
            try:
                if not isinstance(bound, rung.supported_bounds):
                    raise TypeError(
                        f"{rung.name} does not accept {type(bound).__name__}"
                    )
                with call_report() as sub:
                    if verified:
                        blob, recon = rung.compress_verified(data, bound)
                    else:
                        blob, recon = rung.compress(data, bound), None
            except Exception as exc:  # noqa: BLE001 - each rung failure is a
                # fallback trigger by design; BaseException (kills,
                # simulated crash points) still propagates.
                reason = f"{type(exc).__name__}: {exc}"
                failures.append(f"{rung.name}: {reason}")
                if pos + 1 < len(rungs):
                    fallbacks += 1
                    metrics().counter("resilience.fallbacks").inc()
                    emit_event(
                        "codec-fallback",
                        from_codec=rung.name,
                        to_codec=rungs[pos + 1].name,
                        reason=reason[:200],
                    )
                continue
            if pos:
                metrics().counter("resilience.degraded_chunks").inc()
            rec = current_report()
            if rec is not None:
                rec.add(sub)
                rec.fallbacks += fallbacks
            return blob, recon
        raise LadderExhaustedError(
            "every rung of the degradation ladder failed: " + "; ".join(failures)
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        # Streams self-identify as the winning rung's codec; dispatch
        # generically so a ladder instance round-trips like any codec.
        from repro import decompress

        return decompress(blob)


def _wrapped_compressor(name: str, safeguards=None, ladder=None):
    """``(compressor, label)``: codec ``name`` inside its safeguards, then
    its ladder -- the one wrapping of every CLI compress and journaled job.
    ``label`` names the primary rung; see :func:`_chain_label`."""
    inner = get_compressor(name)
    label = name
    if safeguards:
        from repro.safeguards.adapter import SafeguardedCompressor

        inner = SafeguardedCompressor(inner, list(safeguards))
        label = f"SAFE({label}; {'; '.join(safeguards)})"
    if ladder:
        inner = DegradationLadder.with_fallbacks(inner, [str(r) for r in ladder])
    return inner, label


def _chain_label(compressor: Compressor, label: str) -> str:
    """``label``, the primary rung's, then ``compressor``'s fallback rungs
    when it is a ladder: the chain its streams record."""
    if not isinstance(compressor, DegradationLadder):
        return label
    return ">".join([label, *compressor.rung_names[1:]])
