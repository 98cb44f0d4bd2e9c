"""Low-overhead sampling profiler attached to the tracing layer.

Where spans answer *which stage* is slow, the profiler answers *which
function inside the stage*: a background thread samples every Python
thread's call stack (``sys._current_frames``) at a configurable rate and
attributes each sample to the innermost tracing span open on the sampled
thread (via :meth:`Tracer.active_stacks`).  The result is a
:class:`Profile` that renders as

* a per-function self/cumulative time table (:meth:`Profile.table`),
* collapsed-stack lines for ``flamegraph.pl``-style tooling
  (:meth:`Profile.collapsed`), and
* a speedscope-compatible JSON document
  (:meth:`Profile.to_speedscope` / :meth:`Profile.speedscope_json`) --
  drop it on https://www.speedscope.app for an interactive flamegraph.

Span attribution is prepended to every stack as synthetic ``span:<name>``
frames, so flamegraphs group by pipeline stage and the per-span tables
(:meth:`Profile.by_span`) fall out of the same samples.

An optional memory mode (``memory=True``) runs ``tracemalloc`` alongside
the sampler and records the traced-allocation high-water mark seen while
each span was innermost (:attr:`Profile.memory`).

The profiler is stdlib-only and observational: it never touches the
pipeline's data path, so compressed streams are byte-identical with and
without it (tested), and CI enforces a <5% wall-clock overhead budget at
the default rate (``scripts/check_overhead.py``).

Process pools: :func:`install_profiler` exports ``REPRO_PROFILE=<hz>``
into the environment, worker processes see it inside
:func:`repro.observe.propagate.run_traced` (via :func:`task_sampler`) and
sample themselves for the duration of the task; the exported samples ride
back on :class:`TaskTelemetry` and :func:`absorb` stitches them into the
installed profiler under the dispatching span -- the same route the
worker's span trees take.

The default rate is 97 Hz: prime, so sampling cannot phase-lock with
periodic work, and low enough that the sampler itself stays well under
the overhead budget.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager

from repro.observe.tracer import get_tracer, span_label

__all__ = [
    "DEFAULT_HZ",
    "PROFILE_ENV",
    "Profile",
    "SamplingProfiler",
    "get_profiler",
    "install_profiler",
    "profiler_active",
    "profiling",
    "task_sampler",
    "uninstall_profiler",
]

DEFAULT_HZ = 97.0

#: Environment variable carrying the requested sampling rate into worker
#: processes (set by :func:`install_profiler`, read by :func:`task_sampler`).
PROFILE_ENV = "REPRO_PROFILE"

#: Distinct (thread, span path, stack) combinations kept per profile; the
#: cap bounds memory on pathological workloads (deep recursion with
#: varying stacks).  Beyond it, new combinations are counted in
#: ``Profile.dropped`` instead of stored.
MAX_UNIQUE_STACKS = 100_000

#: Leaf frames from these files, sampled on a thread with no open span,
#: are executor/interpreter idle time (workers parked on a queue), not
#: pipeline work; tables hide them by default.
_IDLE_FILES = ("threading.py", "queue.py", "selectors.py", "_base.py", "connection.py")


def _short_file(path: str) -> str:
    """Project-relative file label: ``repro/encoding/huffman.py``."""
    norm = path.replace(os.sep, "/")
    for anchor in ("/repro/", "/benchmarks/", "/scripts/", "/tests/"):
        idx = norm.rfind(anchor)
        if idx >= 0:
            return norm[idx + 1 :]
    return "/".join(norm.rsplit("/", 2)[-2:])


class _FrameNames:
    """Cache of code object -> display name (one lookup per unique code)."""

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: dict[int, str] = {}

    def name(self, code) -> str:
        key = id(code)
        got = self._cache.get(key)
        if got is None:
            got = f"{code.co_name} ({_short_file(code.co_filename)}:{code.co_firstlineno})"
            self._cache[key] = got
        return got


def _extract_stack(frame, names: _FrameNames, limit: int = 128) -> tuple[str, ...]:
    """Root-first tuple of frame names for one sampled thread."""
    out: list[str] = []
    while frame is not None and len(out) < limit:
        out.append(names.name(frame.f_code))
        frame = frame.f_back
    out.reverse()
    return tuple(out)


class Profile:
    """Aggregated samples from one profiling session.

    ``samples`` maps ``(thread name, span path, stack)`` -- span path and
    stack both root-first tuples of strings -- to accumulated seconds.
    ``memory`` maps a span label to the tracemalloc high-water mark (bytes)
    observed while that span was innermost (empty unless ``memory=True``).
    """

    def __init__(self, hz: float) -> None:
        self.hz = float(hz)
        self.duration_s = 0.0
        self.n_samples = 0
        self.dropped = 0
        self.samples: dict[tuple[str, tuple[str, ...], tuple[str, ...]], float] = {}
        self.memory: dict[str, int] = {}

    # -- accumulation (profiler-side) -------------------------------------------

    def add(
        self,
        thread: str,
        span_path: tuple[str, ...],
        stack: tuple[str, ...],
        weight: float,
    ) -> None:
        key = (thread, span_path, stack)
        if key not in self.samples and len(self.samples) >= MAX_UNIQUE_STACKS:
            self.dropped += 1
            return
        self.samples[key] = self.samples.get(key, 0.0) + weight
        self.n_samples += 1

    def note_memory(self, label: str, current_bytes: int) -> None:
        if current_bytes > self.memory.get(label, -1):
            self.memory[label] = int(current_bytes)

    def ingest(self, exported: dict, prefix: tuple[str, ...] = ()) -> None:
        """Fold a :meth:`to_dict` export (e.g. from a pool worker) in.

        ``prefix`` is prepended to every ingested sample's span path, so a
        chunk worker's samples stitch under the dispatching span the same
        way its span trees do.
        """
        for thread, path, stack, weight in exported.get("samples", ()):
            self.add(str(thread), prefix + tuple(path), tuple(stack), float(weight))
        # add() counts one sample per call; preserve the worker's true count
        self.n_samples += int(exported.get("n_samples", 0)) - len(
            exported.get("samples", ())
        )
        self.dropped += int(exported.get("dropped", 0))
        for label, hw in (exported.get("memory") or {}).items():
            key = "/".join(prefix + (label,)) if prefix else label
            self.note_memory(key, int(hw))
        self.duration_s = max(self.duration_s, float(exported.get("duration_s", 0.0)))

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "hz": self.hz,
            "duration_s": self.duration_s,
            "n_samples": self.n_samples,
            "dropped": self.dropped,
            "samples": [
                [thread, list(path), list(stack), weight]
                for (thread, path, stack), weight in self.samples.items()
            ],
            "memory": dict(self.memory),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        prof = cls(float(data.get("hz", DEFAULT_HZ)))
        prof.ingest(data)
        prof.n_samples = int(data.get("n_samples", prof.n_samples))
        return prof

    # -- analysis ---------------------------------------------------------------

    def total_weight(self) -> float:
        return sum(self.samples.values())

    def _is_idle(self, span_path: tuple[str, ...], stack: tuple[str, ...]) -> bool:
        if span_path or not stack:
            return False
        leaf = stack[-1]
        return any(f"{name}:" in leaf for name in _IDLE_FILES)

    def self_time(self, hide_idle: bool = True) -> dict[str, float]:
        """Seconds each function was the sampled leaf frame."""
        out: dict[str, float] = {}
        for (_, path, stack), weight in self.samples.items():
            if not stack or (hide_idle and self._is_idle(path, stack)):
                continue
            leaf = stack[-1]
            out[leaf] = out.get(leaf, 0.0) + weight
        return out

    def cumulative_time(self, hide_idle: bool = True) -> dict[str, float]:
        """Seconds each function was anywhere on a sampled stack."""
        out: dict[str, float] = {}
        for (_, path, stack), weight in self.samples.items():
            if not stack or (hide_idle and self._is_idle(path, stack)):
                continue
            for name in set(stack):  # dedup: recursion counts once per sample
                out[name] = out.get(name, 0.0) + weight
        return out

    def by_span(self) -> dict[str, float]:
        """Seconds attributed to each innermost span label."""
        out: dict[str, float] = {}
        for (_, path, _stack), weight in self.samples.items():
            label = path[-1] if path else "(no span)"
            out[label] = out.get(label, 0.0) + weight
        return out

    def table(self, top: int = 20, hide_idle: bool = True) -> str:
        """Per-span and per-function self/cumulative time tables."""
        lines = [
            f"sampled {self.n_samples} stacks over {self.duration_s:.3f}s "
            f"at {self.hz:g} Hz"
            + (f" ({self.dropped} unique stacks dropped)" if self.dropped else "")
        ]
        spans = sorted(self.by_span().items(), key=lambda kv: kv[1], reverse=True)
        if spans:
            lines.append("")
            lines.append(f"  {'span':<40s} {'time':>9s} {'%':>6s}")
            total = sum(w for _, w in spans) or 1.0
            for label, weight in spans[:top]:
                lines.append(
                    f"  {label:<40s} {weight:8.3f}s {100.0 * weight / total:5.1f}%"
                )
        selfs = self.self_time(hide_idle)
        cums = self.cumulative_time(hide_idle)
        rows = sorted(selfs.items(), key=lambda kv: kv[1], reverse=True)[:top]
        if rows:
            lines.append("")
            lines.append(f"  {'function':<56s} {'self':>9s} {'%':>6s} {'cumul':>9s}")
            total = sum(selfs.values()) or 1.0
            for name, self_s in rows:
                lines.append(
                    f"  {name:<56s} {self_s:8.3f}s {100.0 * self_s / total:5.1f}% "
                    f"{cums.get(name, self_s):8.3f}s"
                )
        if self.memory:
            lines.append("")
            lines.append(f"  {'span (memory high-water)':<48s} {'bytes':>12s}")
            mem = sorted(self.memory.items(), key=lambda kv: kv[1], reverse=True)
            for label, hw in mem[:top]:
                lines.append(f"  {label:<48s} {hw:>12d}")
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack lines: ``span:a;frame;frame <microseconds>``.

        The Brendan Gregg format every flamegraph tool ingests; weights
        are integer microseconds (the conventional unit-less count).
        """
        agg: dict[str, float] = {}
        for (_, path, stack), weight in self.samples.items():
            key = ";".join(tuple(f"span:{p}" for p in path) + stack)
            if key:
                agg[key] = agg.get(key, 0.0) + weight
        lines = [
            f"{key} {max(1, round(weight * 1e6))}"
            for key, weight in sorted(agg.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "repro profile") -> dict:
        """Speedscope file-format document (one sampled profile per thread)."""
        frame_index: dict[str, int] = {}
        frames: list[dict] = []

        def fid(label: str) -> int:
            got = frame_index.get(label)
            if got is None:
                got = frame_index[label] = len(frames)
                frames.append({"name": label})
            return got

        by_thread: dict[str, list[tuple[list[int], float]]] = {}
        for (thread, path, stack), weight in sorted(self.samples.items()):
            ids = [fid(f"span:{p}") for p in path] + [fid(f) for f in stack]
            by_thread.setdefault(thread, []).append((ids, weight))

        profiles = []
        for thread in sorted(by_thread):
            entries = by_thread[thread]
            total = sum(w for _, w in entries)
            profiles.append(
                {
                    "type": "sampled",
                    "name": thread,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": [ids for ids, _ in entries],
                    "weights": [w for _, w in entries],
                }
            )
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.observe.profile",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": profiles,
        }

    def speedscope_json(self, name: str = "repro profile", indent: int | None = None) -> str:
        return json.dumps(self.to_speedscope(name), indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profile(hz={self.hz:g}, n_samples={self.n_samples}, "
            f"duration={self.duration_s:.3f}s)"
        )


class SamplingProfiler:
    """Background thread sampling every Python thread's stack.

    ``start()`` spawns the sampler; ``stop()`` joins it and returns the
    accumulated :class:`Profile` (also kept as :attr:`profile`).  Use
    :func:`profiling` for the context-managed form and
    :func:`install_profiler` for the process-global one that pool workers
    inherit.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        memory: bool = False,
        tracer=None,
    ) -> None:
        if not 1.0 <= float(hz) <= 10_000.0:
            raise ValueError(f"sampling rate must be in [1, 10000] Hz, got {hz}")
        self.hz = float(hz)
        self.memory = bool(memory)
        self.profile: Profile | None = None
        self._tracer = tracer if tracer is not None else get_tracer()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._names = _FrameNames()
        self._started_tracemalloc = False
        self._pid = os.getpid()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            raise RuntimeError("profiler already running")
        self._pid = os.getpid()
        self.profile = Profile(self.hz)
        self._stop.clear()
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        if self._thread is None:
            raise RuntimeError("profiler was never started")
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False
        assert self.profile is not None
        return self.profile

    # -- sampler loop -----------------------------------------------------------

    def _run(self) -> None:
        prof = self.profile
        period = 1.0 / self.hz
        own = threading.get_ident()
        t_begin = time.perf_counter()
        last = t_begin
        next_t = t_begin + period
        while not self._stop.wait(max(0.0, next_t - time.perf_counter())):
            now = time.perf_counter()
            weight = now - last
            last = now
            next_t += period
            if next_t < now:  # fell behind (GIL contention); skip, don't burst
                next_t = now + period
            self._sample_once(prof, own, weight)
        prof.duration_s = time.perf_counter() - t_begin

    def _sample_once(self, prof: Profile, own_ident: int, weight: float) -> None:
        try:
            frames = sys._current_frames()
            stacks = self._tracer.active_stacks()
            thread_names = {t.ident: t.name for t in threading.enumerate()}
            mem_now = None
            if self.memory:
                import tracemalloc

                if tracemalloc.is_tracing():
                    mem_now = tracemalloc.get_traced_memory()[0]
            for tid, frame in frames.items():
                if tid == own_ident:
                    continue
                span_stack = stacks.get(tid)
                path = (
                    tuple(span_label(sp) for sp in span_stack) if span_stack else ()
                )
                stack = _extract_stack(frame, self._names)
                prof.add(thread_names.get(tid, f"thread-{tid}"), path, stack, weight)
                if mem_now is not None and path:
                    prof.note_memory(path[-1], mem_now)
        except Exception:
            # A sampler crash must never take the workload down; one lost
            # tick is invisible, a dead sampler just under-reports.
            pass
        finally:
            del frames  # frames hold other threads' locals; drop promptly


# -- process-global installation ------------------------------------------------

_INSTALLED: SamplingProfiler | None = None
_LOCK = threading.Lock()


def get_profiler() -> SamplingProfiler | None:
    """The installed process-global profiler, if any."""
    return _INSTALLED


def profiler_active() -> bool:
    return _INSTALLED is not None


def install_profiler(hz: float = DEFAULT_HZ, memory: bool = False) -> SamplingProfiler:
    """Start a process-global sampler that pool workers inherit.

    Exports ``REPRO_PROFILE=<hz>`` so worker *processes* (which cannot see
    this process's sampler) profile their own tasks inside ``run_traced``
    and ship the samples back.  Replaces any previously installed
    profiler (its profile is discarded -- call :func:`uninstall_profiler`
    first to keep it).
    """
    global _INSTALLED
    with _LOCK:
        if _INSTALLED is not None and _INSTALLED.running:
            _INSTALLED.stop()
        prof = SamplingProfiler(hz=hz, memory=memory)
        prof.start()
        _INSTALLED = prof
        os.environ[PROFILE_ENV] = repr(float(hz))
    return prof


def uninstall_profiler() -> Profile | None:
    """Stop the process-global sampler; returns its :class:`Profile`."""
    global _INSTALLED
    with _LOCK:
        if _INSTALLED is None:
            return None
        prof = _INSTALLED.stop() if _INSTALLED.running else _INSTALLED.profile
        _INSTALLED = None
        os.environ.pop(PROFILE_ENV, None)
    return prof


@contextmanager
def profiling(hz: float = DEFAULT_HZ, memory: bool = False):
    """``with profiling() as p: ...`` -- read ``p.profile`` after the block."""
    prof = install_profiler(hz=hz, memory=memory)
    try:
        yield prof
    finally:
        uninstall_profiler()


def task_sampler() -> SamplingProfiler | None:
    """Worker-side sampler for one pool task, or None when not needed.

    Returns a *not yet started* sampler when profiling was requested
    (``REPRO_PROFILE`` is set, typically inherited from the parent's
    :func:`install_profiler`) but no in-process sampler is running -- the
    worker-process case.  In-process (thread pool / serial) workers return
    None: the installed sampler already watches their threads, so a
    second one would double-count.  A *forked* worker inherits the
    parent's installed-profiler object, but its sampler thread did not
    survive the fork -- only a profiler started in this very process
    counts as coverage.
    """
    if _INSTALLED is not None and _INSTALLED._pid == os.getpid():
        return None
    raw = os.environ.get(PROFILE_ENV)
    if not raw:
        return None
    try:
        hz = float(raw)
    except ValueError:
        return None
    if not 1.0 <= hz <= 10_000.0:
        return None
    return SamplingProfiler(hz=hz)
