"""Deterministic, seedable fault injectors for stream and I/O robustness.

Every injector is a pure function of its inputs (bytes in, bytes out, a
seed where randomness is involved), so a failing corruption test can be
reproduced exactly from its seed -- including from the command line via
``repro-compress faults``.  The two stateful shims
(:class:`FlakyFilesystem`, :class:`CrashingExecutor`) fail a *configured,
counted* number of times, never randomly.

Injector catalogue:

* :func:`flip_bit` / :func:`flip_random_bits` -- bit-level corruption,
* :func:`truncate` -- mid-write cuts,
* :func:`drop_section` -- a container section vanishes (re-serialized
  with valid checksums, exercising structural validation),
* :func:`corrupt_section` / :func:`corrupt_chunk` -- damage aimed at a
  named section or a single chunk of a CHUNKED stream,
* :func:`corrupt_safeguards` -- damage aimed at the safeguard machinery
  of a SAFE stream (spec list, patch channel, patch count),
* :class:`FlakyFilesystem` -- ``open()`` for writing fails N times,
* :class:`FailingFilesystem` -- ``write()`` on open files fails N times
  with a real errno (``ENOSPC``/``EIO``), modelling a disk that fills or
  errors mid-write rather than at ``open()``,
* :class:`CrashingExecutor` -- the Nth submitted chunk task dies like a
  crashed process-pool worker,
* :class:`StallingExecutor` -- the Nth submitted chunk task hangs (or is
  delayed), for exercising the watchdog's timeout -> cancel -> retry path.
"""

from __future__ import annotations

import builtins
import errno
import os
import time
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.encoding.container import Container, ContainerError, section_byte_ranges
from repro.inspection import StreamModel, inspect_stream

__all__ = [
    "CrashingExecutor",
    "FailingFilesystem",
    "FlakyFilesystem",
    "StallingExecutor",
    "corrupt_chunk",
    "corrupt_safeguards",
    "corrupt_section",
    "drop_section",
    "flip_bit",
    "flip_random_bits",
    "truncate",
]


# -- byte-stream injectors ---------------------------------------------------


def flip_bit(blob: bytes, bit_index: int) -> bytes:
    """Flip exactly one bit; ``bit_index`` counts MSB-first from byte 0."""
    if not 0 <= bit_index < 8 * len(blob):
        raise ValueError(f"bit_index {bit_index} outside stream of {len(blob)} bytes")
    out = bytearray(blob)
    out[bit_index // 8] ^= 0x80 >> (bit_index % 8)
    return bytes(out)


def flip_random_bits(
    blob: bytes, n: int = 1, seed: int = 0, start: int = 0, stop: int | None = None
) -> bytes:
    """Flip ``n`` distinct random bits within ``blob[start:stop]``."""
    stop = len(blob) if stop is None else stop
    nbits = 8 * (stop - start)
    if n > nbits:
        raise ValueError(f"cannot flip {n} distinct bits in {nbits} available")
    rng = np.random.default_rng(seed)
    out = blob
    for bit in rng.choice(nbits, size=n, replace=False):
        out = flip_bit(out, 8 * start + int(bit))
    return out


def truncate(blob: bytes, keep: int | float) -> bytes:
    """Cut the stream: ``keep`` is a byte count (int) or a fraction (float)."""
    if isinstance(keep, float):
        if not 0.0 <= keep <= 1.0:
            raise ValueError(f"fractional keep must be in [0, 1], got {keep}")
        keep = int(len(blob) * keep)
    if not 0 <= keep <= len(blob):
        raise ValueError(f"keep {keep} outside stream of {len(blob)} bytes")
    return blob[:keep]


def _sound_model(blob: bytes) -> StreamModel:
    """``blob`` inspected; raises if its framing is broken (checksums may fail)."""
    model = inspect_stream(blob)
    if model.error is not None:
        raise model.error
    return model


def drop_section(blob: bytes, key: str) -> bytes:
    """Remove a named section and re-serialize (checksums made valid again).

    Models a buggy writer rather than wire damage: the resulting stream
    is self-consistent, so only structural validation can reject it.
    """
    box = _sound_model(blob).box
    if key not in box:
        raise ContainerError(f"stream has no section {key!r} to drop")
    out = Container(box.codec)
    out.version = box.version
    for k in box.keys():
        if k != key:
            out.put(k, box.get(k))
    return out.to_bytes(version=box.version)


def corrupt_section(blob: bytes, key: str, n_bits: int = 1, seed: int = 0) -> bytes:
    """Flip ``n_bits`` random bits inside the named section's payload."""
    ranges = section_byte_ranges(blob)
    if key not in ranges:
        raise ContainerError(f"stream has no section {key!r} to corrupt")
    start, stop = ranges[key]
    if stop == start:
        raise ValueError(f"section {key!r} is empty; nothing to corrupt")
    return flip_random_bits(blob, n=n_bits, seed=seed, start=start, stop=stop)


def corrupt_chunk(blob: bytes, index: int, n_bits: int = 1, seed: int = 0) -> bytes:
    """Flip ``n_bits`` random bits inside chunk ``index`` of a CHUNKED stream."""
    model = _sound_model(blob)
    if model.codec != "CHUNKED":
        raise ContainerError(f"stream is {model.codec!r}, not CHUNKED")
    chunk = model.chunks[index] if 0 <= index < len(model.chunks) else None
    if chunk is None:
        raise ValueError(f"chunk {index} not in the payload ({len(model.chunks)} in the table)")
    return flip_random_bits(blob, n=n_bits, seed=seed, start=chunk.start, stop=chunk.stop)


def corrupt_safeguards(blob: bytes, n_bits: int = 1, seed: int = 0) -> bytes:
    """Flip ``n_bits`` random bits inside a SAFE stream's safeguard machinery.

    Picks one of the safeguard-bearing sections -- the spec list
    (``safeguards``), the patch channel (``patch_idx``, ``patch_val``) or
    the patch count (``n_patch``) -- by ``seed``, skipping empty ones, so a
    seed sweep covers every part of the machinery.  Decoding the result
    must raise a clean ``StreamError``; a guaranteed property silently not
    holding is the one failure mode the safeguards layer may never have.
    """
    box = _sound_model(blob).box
    if box.codec != "SAFE":
        raise ContainerError(f"stream is {box.codec!r}, not SAFE")
    targets = [
        key
        for key in ("safeguards", "patch_idx", "patch_val", "n_patch")
        if key in box and len(box.get(key))
    ]
    if not targets:
        raise ValueError("stream has no non-empty safeguard sections to corrupt")
    return corrupt_section(blob, targets[seed % len(targets)], n_bits=n_bits, seed=seed)


# -- environment shims -------------------------------------------------------


class FlakyFilesystem:
    """Context manager: the first ``failures`` writable ``open()`` calls fail.

    Patches :func:`builtins.open` for the duration of the ``with`` block;
    opens with a write/append mode raise ``OSError`` until the failure
    budget is spent, then behave normally.  Reads are never touched.
    Thread-safe enough for the SPMD runner's rank threads: the counter
    decrement is guarded by the GIL.
    """

    def __init__(self, failures: int = 1, message: str = "injected filesystem fault"):
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        self.failures = failures
        self.message = message
        self.calls = 0
        self._real_open = None

    def __enter__(self) -> "FlakyFilesystem":
        self._real_open = builtins.open

        def flaky_open(file, mode="r", *args, **kwargs):
            if any(c in str(mode) for c in "wax+"):
                self.calls += 1
                if self.failures > 0:
                    self.failures -= 1
                    raise OSError(f"{self.message}: open({file!r}, {mode!r})")
            return self._real_open(file, mode, *args, **kwargs)

        builtins.open = flaky_open
        return self

    def __exit__(self, *exc_info) -> None:
        builtins.open = self._real_open


class _FailingFile:
    """File proxy whose ``write()`` draws from a shared failure budget."""

    def __init__(self, fh, fs: "FailingFilesystem"):
        self._fh = fh
        self._fs = fs

    def write(self, data):
        self._fs._on_write()
        return self._fh.write(data)

    def writelines(self, lines):
        self._fs._on_write()
        return self._fh.writelines(lines)

    def __enter__(self) -> "_FailingFile":
        self._fh.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._fh.__exit__(*exc_info)

    def __iter__(self):
        return iter(self._fh)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class FailingFilesystem:
    """Context manager: the first ``failures`` ``write()`` calls fail with
    a real errno.

    Where :class:`FlakyFilesystem` rejects the ``open()`` itself, this shim
    lets the file open fine and fails *mid-write* -- the shape of a disk
    filling up (``ENOSPC``, the default) or erroring (``EIO``) halfway
    through a stream.  Patches :func:`builtins.open` for the ``with``
    block; files opened with a write/append mode come back wrapped in a
    proxy whose ``write``/``writelines`` raise ``OSError(code, ...)``
    until the budget is spent.  Reads, and writes after the budget, are
    untouched; an optional ``match`` substring restricts the fault to
    paths containing it.  Deterministic: the budget is counted, never
    random.
    """

    def __init__(
        self,
        failures: int = 1,
        code: int = errno.ENOSPC,
        match: str | None = None,
    ):
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        self.failures = failures
        self.code = code
        self.match = match
        self.write_calls = 0
        self._real_open = None

    def _on_write(self) -> None:
        self.write_calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise OSError(self.code, os.strerror(self.code))

    def __enter__(self) -> "FailingFilesystem":
        self._real_open = builtins.open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = self._real_open(file, mode, *args, **kwargs)
            if any(c in str(mode) for c in "wax+") and (
                self.match is None or self.match in str(file)
            ):
                return _FailingFile(fh, self)
            return fh

        builtins.open = failing_open
        return self

    def __exit__(self, *exc_info) -> None:
        builtins.open = self._real_open


class _FailedFuture(Future):
    def __init__(self, exc: BaseException) -> None:
        super().__init__()
        self.set_exception(exc)


class CrashingExecutor(Executor):
    """Executor wrapper whose ``crash_on``-th submitted task dies.

    The doomed task's future raises ``BrokenProcessPool`` -- exactly what
    callers observe when a real process-pool worker is OOM-killed -- while
    every other task runs on the wrapped executor.  ``crash_on`` counts
    from 1; pass a collection to kill several tasks.
    """

    def __init__(self, inner: Executor, crash_on: int | tuple[int, ...] = 1):
        self.inner = inner
        self.crash_on = (crash_on,) if isinstance(crash_on, int) else tuple(crash_on)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs) -> Future:
        self.submitted += 1
        if self.submitted in self.crash_on:
            return _FailedFuture(
                BrokenProcessPool(f"injected worker crash on task {self.submitted}")
            )
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        self.inner.shutdown(wait=wait, **kwargs)


class StallingExecutor(Executor):
    """Executor wrapper whose ``stall_on``-th submitted task hangs.

    The deterministic companion to :class:`CrashingExecutor` for the
    watchdog path: the doomed task's future never completes (the default,
    ``delay_s=None`` -- a bare pending :class:`Future` that holds no
    thread, so nothing blocks interpreter exit), or completes only after
    ``delay_s`` seconds (a straggler rather than a corpse).  Every other
    task runs on the wrapped executor untouched.  ``stall_on`` counts
    submissions from 1; pass a collection to stall several.
    """

    def __init__(
        self,
        inner: Executor,
        stall_on: int | tuple[int, ...] = 1,
        delay_s: float | None = None,
    ):
        if delay_s is not None and delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.inner = inner
        self.stall_on = (stall_on,) if isinstance(stall_on, int) else tuple(stall_on)
        self.delay_s = delay_s
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs) -> Future:
        self.submitted += 1
        if self.submitted in self.stall_on:
            if self.delay_s is None:
                return Future()  # pending forever; cancellable, joinless
            delay = self.delay_s

            def delayed(*a, **kw):
                time.sleep(delay)
                return fn(*a, **kw)

            return self.inner.submit(delayed, *args, **kwargs)
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        self.inner.shutdown(wait=wait, **kwargs)
