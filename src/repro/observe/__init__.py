"""Zero-dependency pipeline telemetry: tracing, metrics, audit, export.

Eight parts (see ``docs/observability.md``):

* :mod:`repro.observe.tracer` -- nested :class:`Span` trees with wall/CPU
  time and byte counters per pipeline stage, rendered as a tree
  (``repro-compress ... --trace``) or exported as JSON;
* :mod:`repro.observe.metrics` -- named counters/gauges/histograms in a
  process-global :class:`MetricsRegistry` with snapshot/diff/merge;
* :mod:`repro.observe.propagate` -- plumbing that carries spans and
  counters across thread/process pool boundaries, so parallel chunk
  workers report into the dispatching span;
* :mod:`repro.observe.audit` -- error-bound conformance auditing: the
  per-call record of :func:`call_report`, which the compressor verify
  hooks, wrappers and chunk workers fill, and :func:`audit_stream` for
  offline stream audits (Theorem 1 / Lemma 2 / Theorem 3 checks), both
  surfaced as :class:`AuditReport`;
* :mod:`repro.observe.export` / :mod:`repro.observe.events` -- renderers
  for standard formats (OpenMetrics text, JSON lines) and a structured
  JSON-lines event log (``REPRO_EVENTS=<path>``) whose records carry
  trace-span correlation ids;
* :mod:`repro.observe.profile` -- span-attached sampling profiler
  (``sys._current_frames`` at a configurable Hz) with per-function
  self/cumulative tables, collapsed stacks and speedscope flamegraph
  export, propagated across process pools like spans are;
* :mod:`repro.observe.ledger` -- append-only JSON-lines perf history
  (``results/ledger.jsonl``) every benchmark run appends to, plus the
  markdown trend report behind ``repro perf report``;
* :mod:`repro.observe.quality` -- point-wise error analytics: a
  streaming, mergeable :class:`ErrorHistogram` (log-binned rel/abs
  error with signed bias and percentiles) fed by the verify hooks, and
  :func:`explain_stream` behind ``repro-compress explain``;
* :mod:`repro.observe.attribution` -- :func:`attribute_bytes`, decomposing
  any stream into an exhaustive byte-attribution tree.

Tracing is on by default; ``REPRO_TRACE=off`` (or
:func:`enable_tracing(False) <enable_tracing>`) reduces every
instrumentation point to a no-op attribute check.  Metrics are cheap
enough to stay on unconditionally.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# Imported up front: the registry accessor shares its name with its
# module, and loading a submodule binds the submodule's name on this
# package; bound here, the name always means the function.
from repro.observe.metrics import Counter, Gauge, Histogram, MetricsRegistry, metrics

if TYPE_CHECKING:
    from repro.observe.audit import (
        AuditReport,
        CallReport,
        ChunkAudit,
        Theorem3Check,
        audit_stream,
        call_report,
        theorem3_check,
    )
    from repro.observe.events import (
        EventLog,
        emit,
        event_log_enabled,
        get_event_log,
        install_event_log,
        read_events,
    )
    from repro.observe.export import (
        metric_name,
        metrics_to_jsonl,
        parse_openmetrics,
        spans_to_jsonl,
        to_openmetrics,
    )
    from repro.observe.ledger import (
        append_entry,
        machine_fingerprint,
        make_entry,
        read_ledger,
        render_trend_report,
    )
    from repro.observe.profile import (
        Profile,
        SamplingProfiler,
        get_profiler,
        install_profiler,
        profiler_active,
        profiling,
        uninstall_profiler,
    )
    from repro.observe.propagate import TaskTelemetry, absorb, run_traced
    from repro.observe.attribution import ByteNode, attribute_bytes
    from repro.observe.quality import (
        ErrorHistogram,
        ExplainReport,
        explain_stream,
        mad_outliers,
        quality_enabled,
        record_quality_snapshot,
        set_quality_enabled,
    )
    from repro.observe.tracer import (
        Span,
        Tracer,
        current_span,
        enable_tracing,
        export_spans,
        get_tracer,
        render_spans,
        render_top_spans,
        span,
        span_label,
        spans_from_dicts,
        top_spans,
        tracing_enabled,
    )

__all__ = [
    "AuditReport",
    "ByteNode",
    "CallReport",
    "ChunkAudit",
    "Counter",
    "ErrorHistogram",
    "EventLog",
    "ExplainReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profile",
    "SamplingProfiler",
    "Span",
    "TaskTelemetry",
    "Theorem3Check",
    "Tracer",
    "absorb",
    "append_entry",
    "attribute_bytes",
    "audit_stream",
    "call_report",
    "current_span",
    "explain_stream",
    "emit",
    "enable_tracing",
    "event_log_enabled",
    "export_spans",
    "get_event_log",
    "get_profiler",
    "get_tracer",
    "install_event_log",
    "install_profiler",
    "machine_fingerprint",
    "mad_outliers",
    "make_entry",
    "metric_name",
    "metrics",
    "metrics_to_jsonl",
    "parse_openmetrics",
    "profiler_active",
    "profiling",
    "quality_enabled",
    "read_events",
    "read_ledger",
    "record_quality_snapshot",
    "render_spans",
    "render_top_spans",
    "render_trend_report",
    "run_traced",
    "set_quality_enabled",
    "span",
    "span_label",
    "spans_from_dicts",
    "spans_to_jsonl",
    "theorem3_check",
    "to_openmetrics",
    "top_spans",
    "tracing_enabled",
    "uninstall_profiler",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.observe.audit": (
        "AuditReport", "CallReport", "ChunkAudit", "Theorem3Check", "audit_stream",
        "call_report", "theorem3_check",
    ),
    "repro.observe.events": (
        "EventLog", "emit", "event_log_enabled", "get_event_log", "install_event_log",
        "read_events",
    ),
    "repro.observe.export": (
        "metric_name", "metrics_to_jsonl", "parse_openmetrics", "spans_to_jsonl",
        "to_openmetrics",
    ),
    "repro.observe.ledger": (
        "append_entry", "machine_fingerprint", "make_entry", "read_ledger",
        "render_trend_report",
    ),
    "repro.observe.profile": (
        "Profile", "SamplingProfiler", "get_profiler", "install_profiler", "profiler_active",
        "profiling", "uninstall_profiler",
    ),
    "repro.observe.propagate": ("TaskTelemetry", "absorb", "run_traced"),
    "repro.observe.attribution": ("ByteNode", "attribute_bytes"),
    "repro.observe.quality": (
        "ErrorHistogram", "ExplainReport", "explain_stream", "mad_outliers",
        "quality_enabled", "record_quality_snapshot", "set_quality_enabled",
    ),
    "repro.observe.tracer": (
        "Span", "Tracer", "current_span", "enable_tracing", "export_spans", "get_tracer",
        "render_spans", "render_top_spans", "span", "span_label", "spans_from_dicts",
        "top_spans", "tracing_enabled",
    ),
})
