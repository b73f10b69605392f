"""Structured telemetry: traced spans, counters, gauges, histograms.

The simulator's performance story (Figures 10-12, Table 1) depends on
knowing *where* a round spends its time -- client training vs ECALL
decryption vs the oblivious kernel vs cost-model replay.  This module
is the single instrumentation substrate for the whole stack, and since
the flight-recorder PR it is also a *distributed tracer*: every span
carries ``trace_id``/``span_id``/``parent_id``, contexts propagate
explicitly across thread executor boundaries, and the event stream
reconstructs one causally-linked tree per round even when parts of it
were recorded on worker threads.

* :func:`span` -- a nested context manager recording wall time, CPU
  time, and (opt-in) the tracemalloc memory high-water mark of one
  phase.  Spans know their parents: ``span("round")`` containing
  ``span("aggregate")`` yields the path ``"round/aggregate"``.  An
  explicit ``parent=`` :class:`TraceContext` (captured with
  :func:`current_context`, shipped to a worker inside its job) re-roots
  the span under a remote parent -- the worker's span then carries the
  coordinator's ``trace_id`` and full path, so the stream needs no
  path rewriting.  ``hist=`` additionally records the span's wall time
  into the named histogram.
* :func:`add` / :func:`gauge` -- cumulative counters (accesses
  recorded, bytes sealed, clients dropped) and last-value gauges.
  Gauge sets are also emitted to sinks as timestamped events so
  time-series (the privacy-budget trajectory) survive into the JSONL.
* :func:`observe` -- record one value into a fixed-bucket log-spaced
  :class:`Histogram` with p50/p95/p99 export; the latency-distribution
  primitive (per-client train latency, ECALL duration, shard latency).
* :func:`event` -- a timestamped point event (a leaf crash, a
  failover) linked to the currently open span.
* pluggable sinks (:mod:`repro.obs.sinks`) receiving one event dict per
  finished span plus counter/gauge/histogram snapshots on flush.
  Sinks are flushed whenever a span tree completes (the local stack
  empties), so a crashed run still leaves a parseable stream.

Telemetry is **disabled by default** and the disabled path is a single
attribute check: :func:`span` returns a shared no-op context manager
and :func:`add`/:func:`gauge`/:func:`observe` return immediately, so
instrumented hot paths cost nothing measurable (guarded by
``benchmarks/bench_trace_engine.py::test_telemetry_overhead_guard``).
Consequently instrumentation sits at *call* granularity (one span per
kernel invocation, per ECALL, per phase) -- never per element.

Event schema (what sinks receive):

``{"type": "span", "seq": int, "name": str, "path": str, "depth": int,
"trace_id": str, "span_id": str, "parent_id": str | None,
"t_start": float, "wall_s": float, "cpu_s": float, "attrs": dict}``
plus optional ``"mem_peak"`` (bytes, when memory tracking is on) and
``"error": true`` when the span body raised.  Point events emit
``{"type": "event", "name": str, "t": float, "trace_id": str | None,
"parent_id": str | None, "attrs": dict}``; gauge sets emit
``{"type": "gauge", "name": str, "value": float, "t": float}``.
Snapshots emit ``{"type": "counter"|"gauge", "name": str, "value":
float}`` and ``{"type": "hist", "name": str, "count": int, "sum":
float, "min": float, "max": float, "p50": float, "p95": float,
"p99": float, "buckets": {str(bucket_index): count}}``; consumers of a
stream with several snapshots take the last value per name (counters
are cumulative).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence


class _NoopSpan:
    """Shared do-nothing span returned when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        """Ignore attributes on the disabled path."""
        return self


#: The singleton no-op span (allocation-free disabled fast path).
NOOP_SPAN = _NoopSpan()


@dataclass(frozen=True)
class TraceContext:
    """A portable reference to an open span: ship it to a worker.

    Carries everything a remote child span needs to link itself into
    the originating tree -- the trace id, the parent's span id, and the
    parent's full path (so the child's path continues the tree without
    any rewriting).  It rides inside
    :class:`repro.runtime.jobs.ClientJob` onto the thread executor's
    workers, whose span stacks start empty.
    """

    trace_id: str
    span_id: str
    path: str = ""


@dataclass
class SpanStats:
    """Aggregated statistics for every span sharing one path."""

    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0
    mem_peak: int = 0  # max over instances, bytes


#: Histogram bucket geometry: log-spaced upper bounds covering
#: 1e-7 .. 1e+5 (12 decades) at 8 buckets per decade, plus one
#: underflow bucket below the first bound and one overflow bucket
#: above the last -- wide enough for seconds-scale latencies and
#: count-scale metrics alike at ~33% relative resolution.
_HIST_MIN = 1e-7
_HIST_PER_DECADE = 8
_HIST_DECADES = 12
HIST_BOUNDS: tuple[float, ...] = tuple(
    _HIST_MIN * 10.0 ** (i / _HIST_PER_DECADE)
    for i in range(_HIST_PER_DECADE * _HIST_DECADES + 1)
)


class Histogram:
    """Dependency-free fixed-bucket histogram with percentile export.

    Buckets are log-spaced (:data:`HIST_BOUNDS`); values at or below
    the smallest bound (including zero and negatives) land in the
    underflow bucket, values above the largest in the overflow bucket.
    Percentiles interpolate geometrically inside a bucket and are
    clamped to the observed ``[min, max]``, so small-count histograms
    stay honest.
    """

    __slots__ = ("counts", "count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.counts = [0] * (len(HIST_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @staticmethod
    def _bucket_index(value: float) -> int:
        if not value > _HIST_MIN:  # zero, negative, NaN -> underflow
            return 0
        idx = int(math.log10(value / _HIST_MIN) * _HIST_PER_DECADE) + 1
        if idx < 1:
            return 1
        return min(idx, len(HIST_BOUNDS))

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) from the bucket counts."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            seen += c
            if seen >= target:
                lo = HIST_BOUNDS[i - 1] if 0 < i <= len(HIST_BOUNDS) \
                    else _HIST_MIN
                hi = HIST_BOUNDS[i] if i < len(HIST_BOUNDS) else self.vmax
                if i == 0 or hi <= lo:
                    est = self.vmin if i == 0 else hi
                else:
                    frac = 1.0 - (seen - target) / c
                    est = lo * (hi / lo) ** frac
                return min(max(est, self.vmin), self.vmax)
        return self.vmax

    def snapshot(self, name: str) -> dict:
        """The ``hist`` snapshot event for this histogram."""
        return {
            "type": "hist", "name": name, "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }

class Span:
    """A live span; use via ``with telemetry.span(name): ...``.

    ``set(**attrs)`` attaches attributes after entry (e.g. a result
    size known only at the end of the phase).
    """

    __slots__ = ("_tel", "name", "attrs", "path", "depth", "_t_start",
                 "_t0_wall", "_t0_cpu", "_mem0", "trace_id", "span_id",
                 "parent_id", "_parent_ctx", "_hist")

    def __init__(self, tel: "Telemetry", name: str, attrs: dict,
                 parent: TraceContext | None = None,
                 hist: str | None = None) -> None:
        self._tel = tel
        self.name = name
        self.attrs = attrs
        self.path = name
        self.depth = 0
        self._t_start = 0.0
        self._t0_wall = 0.0
        self._t0_cpu = 0.0
        self._mem0 = -1
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: str | None = None
        self._parent_ctx = parent
        self._hist = hist

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tel = self._tel
        stack = tel._stack()
        ctx = self._parent_ctx
        if ctx is not None:
            # Explicit (possibly remote) parent wins over the local
            # stack: every executor's client spans then share one path
            # family regardless of where the work physically ran.
            self.trace_id = ctx.trace_id
            self.parent_id = ctx.span_id
            self.path = (ctx.path + "/" + self.name) if ctx.path \
                else self.name
            self.depth = self.path.count("/")
        elif stack:
            parent = stack[-1]
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
            self.path = parent.path + "/" + self.name
            self.depth = parent.depth + 1
        else:
            self.trace_id = tel._next_id("t")
        self.span_id = tel._next_id("s")
        stack.append(self)
        if tel._track_memory and tracemalloc.is_tracing():
            self._mem0 = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self._t_start = time.perf_counter() - tel._epoch
        self._t0_wall = time.perf_counter()
        self._t0_cpu = time.process_time()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        wall = time.perf_counter() - self._t0_wall
        cpu = time.process_time() - self._t0_cpu
        mem_peak = -1
        if self._mem0 >= 0 and tracemalloc.is_tracing():
            # Peak since the most recent reset_peak (approximate under
            # nesting: a child span's reset narrows the parent window).
            mem_peak = max(0, tracemalloc.get_traced_memory()[1] - self._mem0)
        stack = self._tel._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # unbalanced exit; recover
            stack.remove(self)
        self._tel._finish_span(self, wall, cpu, mem_peak,
                               error=exc_type is not None,
                               tree_complete=not stack)
        return False


class Telemetry:
    """One telemetry domain: registry state plus attached sinks.

    A module-level instance (:func:`get_telemetry`) serves the whole
    process; tests may build private instances.  All mutation is
    guarded by one lock; the span stack is thread-local so parallel
    client runners each get a coherent nesting.
    """

    def __init__(self, enabled: bool = False, sinks: Sequence[Any] = (),
                 track_memory: bool = False) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._enabled = False
        self._track_memory = False
        self.sinks: list[Any] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.span_stats: dict[str, SpanStats] = {}
        self._seq = 0
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self.configure(enabled=enabled, sinks=sinks,
                       track_memory=track_memory)

    # -- state -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when spans/counters are being recorded."""
        return self._enabled

    def configure(self, enabled: bool = True,
                  sinks: Sequence[Any] | None = None,
                  track_memory: bool = False) -> "Telemetry":
        """(Re)configure; keeps accumulated state (see :meth:`reset`)."""
        self._enabled = enabled
        if sinks is not None:
            self.sinks = list(sinks)
        self._track_memory = track_memory
        if track_memory and enabled and not tracemalloc.is_tracing():
            tracemalloc.start()
        return self

    def reset(self) -> None:
        """Drop every counter, gauge, span aggregate, and the sequence."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.span_stats.clear()
            self._seq = 0
            self._epoch = time.perf_counter()
            self._ids = itertools.count(1)

    def _next_id(self, prefix: str) -> str:
        # itertools.count.__next__ is atomic under the GIL, so thread
        # workers opening spans in parallel never share an id.
        return f"{prefix}{next(self._ids):x}"

    # -- recording -------------------------------------------------------
    def span(self, name: str, *, parent: TraceContext | None = None,
             hist: str | None = None, **attrs: Any) -> Span | _NoopSpan:
        """Open a span; no-op (and allocation-free) when disabled.

        ``parent`` re-roots the span under an explicit (possibly
        remote) :class:`TraceContext`; ``hist`` additionally records
        the span's wall seconds into the named histogram on exit.
        """
        if not self._enabled:
            return NOOP_SPAN
        return Span(self, name, attrs, parent=parent, hist=hist)

    def current_context(self) -> TraceContext | None:
        """The innermost open span on this thread, as a portable ref."""
        if not self._enabled:
            return None
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        top = stack[-1]
        return TraceContext(trace_id=top.trace_id, span_id=top.span_id,
                            path=top.path)

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment a cumulative counter."""
        if not self._enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge (emitted to sinks with a time)."""
        if not self._enabled:
            return
        with self._lock:
            self.gauges[name] = float(value)
            if self.sinks:
                event = {"type": "gauge", "name": name,
                         "value": float(value),
                         "t": round(time.perf_counter() - self._epoch, 9)}
                for sink in self.sinks:
                    sink.emit(event)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        if not self._enabled:
            return
        with self._lock:
            self._observe_locked(name, value)

    def _observe_locked(self, name: str, value: float) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        h.observe(value)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a timestamped point event linked to the open span."""
        if not self._enabled:
            return
        stack = getattr(self._local, "stack", None)
        trace_id = parent_id = None
        if stack:
            trace_id, parent_id = stack[-1].trace_id, stack[-1].span_id
        with self._lock:
            if not self.sinks:
                return
            event = {
                "type": "event", "name": name,
                "t": round(time.perf_counter() - self._epoch, 9),
                "trace_id": trace_id, "parent_id": parent_id,
                "attrs": attrs,
            }
            for sink in self.sinks:
                sink.emit(event)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish_span(self, span: Span, wall: float, cpu: float,
                     mem_peak: int, error: bool,
                     tree_complete: bool = False) -> None:
        with self._lock:
            seq = self._seq
            self._seq += 1
            stats = self.span_stats.get(span.path)
            if stats is None:
                stats = self.span_stats[span.path] = SpanStats()
            stats.count += 1
            stats.wall_s += wall
            stats.cpu_s += cpu
            if error:
                stats.errors += 1
            if mem_peak > stats.mem_peak:
                stats.mem_peak = mem_peak
            if span._hist is not None:
                self._observe_locked(span._hist, wall)
            if not self.sinks:
                return
            event: dict[str, Any] = {
                "type": "span", "seq": seq, "name": span.name,
                "path": span.path, "depth": span.depth,
                "trace_id": span.trace_id, "span_id": span.span_id,
                "parent_id": span.parent_id,
                "t_start": round(span._t_start, 9),
                "wall_s": round(wall, 9), "cpu_s": round(cpu, 9),
                "attrs": span.attrs,
            }
            if mem_peak >= 0:
                event["mem_peak"] = mem_peak
            if error:
                event["error"] = True
            for sink in self.sinks:
                sink.emit(event)
            if tree_complete:
                # Crash safety: a completed span tree is a consistent
                # prefix -- push it to disk so a killed run still
                # leaves a parseable recording.
                for sink in self.sinks:
                    sink.flush()

    # -- output ----------------------------------------------------------
    def snapshot_events(self) -> list[dict]:
        """Current counters, gauges, and histograms as snapshot events."""
        with self._lock:
            return (
                [{"type": "counter", "name": n, "value": v}
                 for n, v in sorted(self.counters.items())]
                + [{"type": "gauge", "name": n, "value": v}
                   for n, v in sorted(self.gauges.items())]
                + [h.snapshot(n)
                   for n, h in sorted(self.histograms.items())]
            )

    def flush(self, snapshot: bool = True) -> None:
        """Emit a counter/gauge/histogram snapshot and flush sinks."""
        if snapshot:
            for event in self.snapshot_events():
                for sink in self.sinks:
                    sink.emit(event)
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Flush and close every sink."""
        self.flush()
        for sink in self.sinks:
            sink.close()


#: Process-global telemetry instance used by the instrumented modules.
_GLOBAL = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-global :class:`Telemetry` instance."""
    return _GLOBAL


def configure(enabled: bool = True, sinks: Sequence[Any] | None = None,
              track_memory: bool = False) -> Telemetry:
    """Configure the global instance; returns it."""
    return _GLOBAL.configure(enabled=enabled, sinks=sinks,
                             track_memory=track_memory)


def disable() -> None:
    """Disable the global instance and detach its sinks."""
    _GLOBAL.configure(enabled=False, sinks=[])


def reset() -> None:
    """Clear the global instance's accumulated state."""
    _GLOBAL.reset()


def span(name: str, *, parent: TraceContext | None = None,
         hist: str | None = None, **attrs: Any) -> Span | _NoopSpan:
    """Open a span on the global instance (no-op when disabled)."""
    if not _GLOBAL._enabled:
        return NOOP_SPAN
    return Span(_GLOBAL, name, attrs, parent=parent, hist=hist)


def current_context() -> TraceContext | None:
    """Portable context of the open span (None when disabled/empty)."""
    if not _GLOBAL._enabled:
        return None
    return _GLOBAL.current_context()


def add(name: str, value: float = 1.0) -> None:
    """Increment a global counter (no-op when disabled)."""
    if not _GLOBAL._enabled:
        return
    _GLOBAL.add(name, value)


def gauge(name: str, value: float) -> None:
    """Set a global gauge (no-op when disabled)."""
    if not _GLOBAL._enabled:
        return
    _GLOBAL.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record into a global histogram (no-op when disabled)."""
    if not _GLOBAL._enabled:
        return
    _GLOBAL.observe(name, value)


def event(name: str, **attrs: Any) -> None:
    """Emit a global point event (no-op when disabled)."""
    if not _GLOBAL._enabled:
        return
    _GLOBAL.event(name, **attrs)


def enabled() -> bool:
    """Is the global instance recording?"""
    return _GLOBAL._enabled


@contextmanager
def session(sinks: Sequence[Any] = (), track_memory: bool = False,
            keep_state: bool = False) -> Iterator[Telemetry]:
    """Enable global telemetry for one ``with`` block, then restore.

    Starts from a clean registry unless ``keep_state``; flushes a final
    counter/gauge snapshot to the sinks on exit.  The previous
    enabled/sink configuration is restored afterwards, so nested tests
    cannot leak instrumentation into each other.
    """
    prev_enabled = _GLOBAL._enabled
    prev_sinks = list(_GLOBAL.sinks)
    prev_track = _GLOBAL._track_memory
    if not keep_state:
        _GLOBAL.reset()
    _GLOBAL.configure(enabled=True, sinks=sinks, track_memory=track_memory)
    try:
        yield _GLOBAL
    finally:
        _GLOBAL.flush()
        _GLOBAL.configure(enabled=prev_enabled, sinks=prev_sinks,
                          track_memory=prev_track)
