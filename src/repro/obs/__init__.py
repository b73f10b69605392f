"""Observability for the OLIVE stack: spans, counters, gauges, sinks.

Dependency-free telemetry with a no-op fast path (disabled by
default).  Typical use::

    from repro import obs

    with obs.session(sinks=[obs.JsonlSink("round_telemetry.jsonl")]):
        system.run(rounds=2, traced=True)
    print(obs.render_summary())

Instrumented modules call ``obs.span(...)`` / ``obs.add(...)`` /
``obs.gauge(...)`` / ``obs.observe(...)`` unconditionally; with
telemetry disabled these are single-attribute-check no-ops, so the hot
paths stay unmeasurably close to uninstrumented speed (see the
overhead guard in ``benchmarks/bench_trace_engine.py``).

Since the flight-recorder PR the layer is also a distributed tracer:
spans carry ``trace_id``/``span_id``/``parent_id``, contexts propagate
explicitly across executor and shard boundaries
(:func:`current_context` / ``span(parent=...)``), and the recording
renders as a round-health report (:mod:`repro.obs.report`,
``python -m repro report``) or diffs against another run
(:mod:`repro.obs.diffing`).
"""

from .sinks import JsonlSink, MemorySink, NullSink, read_jsonl
from .summary import dump_jsonl, render_summary, summary_tree
from .telemetry import (
    NOOP_SPAN,
    Histogram,
    Span,
    SpanStats,
    Telemetry,
    TraceContext,
    add,
    configure,
    current_context,
    disable,
    enabled,
    event,
    gauge,
    get_telemetry,
    observe,
    reset,
    session,
    span,
)

__all__ = [
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "NOOP_SPAN",
    "NullSink",
    "Span",
    "SpanStats",
    "Telemetry",
    "TraceContext",
    "add",
    "configure",
    "current_context",
    "disable",
    "dump_jsonl",
    "enabled",
    "event",
    "gauge",
    "get_telemetry",
    "observe",
    "read_jsonl",
    "render_summary",
    "reset",
    "session",
    "span",
    "summary_tree",
]
