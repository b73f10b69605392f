"""Round-health report: render a flight recording as a human story.

``python -m repro report <telemetry.jsonl>`` turns the JSONL event
stream a run leaves behind (``--telemetry-out``, ``BENCH_TELEMETRY=1``
bench archives) into the questions an operator actually asks:

* **where did each round's time go?** -- a per-round phase waterfall
  reconstructed from the span trees (spans are causally linked through
  ``trace_id``/``parent_id``, including spans recorded inside shard
  leaves);
* **what failed, and why?** -- failure-reason and retry breakdowns from
  the runtime counters, plus the shard crash/failover/restart event
  log in time order;
* **how slow is the tail?** -- p50/p95/p99 tables for every recorded
  histogram (client latency, ECALL duration, seal/unseal, shard
  latency, backoff);
* **what did privacy cost?** -- the ε trajectory from the accountant's
  timestamped ``dp.epsilon`` gauge events.

``--strict`` makes structural damage fatal (non-zero exit): any
unparseable line or any span whose ``parent_id`` never appears in its
trace ("orphans" -- the signature of a truncated or spliced recording,
whose parent spans never reached the stream).  CI feeds the chaos-smoke
archive through strict mode so a broken span tree fails the build, not
just the aesthetics.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Width of the waterfall bar column.
_BAR_WIDTH = 30


@dataclass
class SpanNode:
    """One span event plus its reconstructed children."""

    event: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.event.get("name", "?")

    @property
    def t_start(self) -> float:
        return float(self.event.get("t_start", 0.0))

    @property
    def wall_s(self) -> float:
        return float(self.event.get("wall_s", 0.0))


@dataclass
class FlightRecording:
    """A parsed telemetry stream, indexed for reporting."""

    events: list[dict]
    parse_errors: int = 0

    #: Derived indexes (filled by :func:`build_recording`).
    roots: dict[str, list[SpanNode]] = field(default_factory=dict)
    orphans: list[dict] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    hists: dict[str, dict] = field(default_factory=dict)
    point_events: list[dict] = field(default_factory=list)
    gauge_series: dict[str, list[tuple[float, float]]] = \
        field(default_factory=dict)

    @property
    def spans(self) -> list[dict]:
        return [e for e in self.events if e.get("type") == "span"]


def parse_stream(path: str | Path) -> FlightRecording:
    """Read a JSONL telemetry stream, counting unparseable lines."""
    events: list[dict] = []
    errors = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                errors += 1
                continue
            if isinstance(event, dict):
                events.append(event)
            else:
                errors += 1
    return FlightRecording(events=events, parse_errors=errors)


def build_recording(rec: FlightRecording) -> FlightRecording:
    """Index the raw events: span trees, snapshots, series, events."""
    spans = rec.spans
    by_id = {e["span_id"]: SpanNode(e) for e in spans if "span_id" in e}
    for event in spans:
        sid = event.get("span_id")
        node = by_id.get(sid) if sid is not None else SpanNode(event)
        if node is None:
            node = SpanNode(event)
        parent_id = event.get("parent_id")
        if parent_id is None:
            rec.roots.setdefault(
                event.get("trace_id", "?"), []).append(node)
        elif parent_id in by_id:
            by_id[parent_id].children.append(node)
        else:
            rec.orphans.append(event)
    for nodes in rec.roots.values():
        nodes.sort(key=lambda n: n.t_start)
    for trace in by_id.values():
        trace.children.sort(key=lambda n: n.t_start)

    # Snapshots: last-per-name wins (a stream may carry several, e.g.
    # one per ``obs.session`` flush); span summaries are skipped.
    for event in rec.events:
        kind = event.get("type")
        if kind == "counter":
            rec.counters[event["name"]] = float(event["value"])
        elif kind == "gauge":
            rec.gauges[event["name"]] = float(event["value"])
            if "t" in event:
                rec.gauge_series.setdefault(event["name"], []).append(
                    (float(event["t"]), float(event["value"])))
        elif kind == "hist":
            rec.hists[event["name"]] = event
        elif kind == "event":
            rec.point_events.append(event)
    rec.point_events.sort(key=lambda e: e.get("t", 0.0))
    return rec


def load_recording(path: str | Path) -> FlightRecording:
    """Parse + index one telemetry JSONL file."""
    return build_recording(parse_stream(path))


def _fmt_s(s: float) -> str:
    if s >= 1.0:
        return f"{s:.2f}s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f}ms"
    return f"{s * 1e6:.0f}us"


def _tree_lines(node: SpanNode, lines: list[str], depth: int,
                max_children: int = 8) -> None:
    attrs = node.event.get("attrs") or {}
    label = ", ".join(f"{k}={v}" for k, v in attrs.items()
                      if k in ("index", "client", "shard", "leaf",
                               "attempt"))
    err = "  ERROR" if node.event.get("error") else ""
    lines.append(f"{'  ' * depth}{node.name:<22} "
                 f"+{node.t_start:8.3f}s  {_fmt_s(node.wall_s):>9}"
                 f"{'  [' + label + ']' if label else ''}{err}")
    shown = node.children[:max_children]
    for child in shown:
        _tree_lines(child, lines, depth + 1, max_children)
    hidden = len(node.children) - len(shown)
    if hidden > 0:
        lines.append(f"{'  ' * (depth + 1)}... {hidden} more "
                     f"child span(s) elided")


def _waterfall(round_node: SpanNode) -> list[str]:
    """Direct children of a round span as a time-aligned waterfall.

    Same-named phases (the N per-client ``train``/``client`` spans)
    collapse into one row: the bar spans first start to last end, the
    wall column sums the instances.
    """
    t0 = round_node.t_start
    total = max(round_node.wall_s, 1e-9)
    phases: dict[str, dict] = {}
    for child in round_node.children:
        entry = phases.setdefault(child.name, {
            "count": 0, "wall_s": 0.0,
            "first": child.t_start, "last": child.t_start + child.wall_s,
        })
        entry["count"] += 1
        entry["wall_s"] += child.wall_s
        entry["first"] = min(entry["first"], child.t_start)
        entry["last"] = max(entry["last"], child.t_start + child.wall_s)
    lines: list[str] = []
    for name, entry in sorted(phases.items(), key=lambda kv: kv[1]["first"]):
        offset = max(0.0, entry["first"] - t0)
        extent = max(0.0, entry["last"] - entry["first"])
        start = int(_BAR_WIDTH * min(offset / total, 1.0))
        width = max(1, int(_BAR_WIDTH * min(extent / total, 1.0)))
        width = min(width, _BAR_WIDTH - start)
        bar = " " * start + "#" * width
        share = 100.0 * entry["wall_s"] / total
        count = f" x{entry['count']}" if entry["count"] > 1 else ""
        lines.append(f"    {name + count:<20} |{bar:<{_BAR_WIDTH}}| "
                     f"{_fmt_s(entry['wall_s']):>9} {share:5.1f}%")
    return lines


def render_report(rec: FlightRecording, title: str = "round-health report",
                  max_rounds: int = 8) -> str:
    """Render the full report as text."""
    lines = [title, "=" * len(title)]

    all_roots = [n for nodes in rec.roots.values() for n in nodes]
    round_roots = [n for n in all_roots if n.name in ("round", "shard.round")]
    n_spans = len(rec.spans)
    lines.append(
        f"events: {len(rec.events)}  spans: {n_spans}  "
        f"traces: {len(rec.roots)}  orphans: {len(rec.orphans)}  "
        f"parse errors: {rec.parse_errors}")

    # -- per-round timelines ------------------------------------------
    if round_roots:
        lines.append("")
        lines.append("rounds:")
        shown = round_roots[:max_rounds]
        for node in shown:
            attrs = node.event.get("attrs") or {}
            idx = attrs.get("index", "?")
            lines.append(f"  round {idx}: {_fmt_s(node.wall_s)} wall, "
                         f"{len(node.children)} phase span(s)")
            lines.extend(_waterfall(node))
        if len(round_roots) > len(shown):
            lines.append(f"  ... {len(round_roots) - len(shown)} more "
                         f"round(s) elided")
        lines.append("")
        lines.append("span tree (first round):")
        _tree_lines(shown[0], lines, 1)

    # -- histogram percentiles ----------------------------------------
    if rec.hists:
        lines.append("")
        lines.append("latency histograms:")
        lines.append(f"  {'name':<26} {'n':>6} {'p50':>10} {'p95':>10} "
                     f"{'p99':>10} {'max':>10}")
        for name, h in sorted(rec.hists.items()):
            lines.append(
                f"  {name:<26} {h.get('count', 0):>6} "
                f"{_fmt_s(float(h.get('p50', 0.0))):>10} "
                f"{_fmt_s(float(h.get('p95', 0.0))):>10} "
                f"{_fmt_s(float(h.get('p99', 0.0))):>10} "
                f"{_fmt_s(float(h.get('max', 0.0))):>10}")

    # -- failure / retry breakdown ------------------------------------
    reasons = {k.split(".", 2)[2]: v for k, v in rec.counters.items()
               if k.startswith("runtime.failure_reason.")}
    rejects = {k.split(".", 2)[2]: v for k, v in rec.counters.items()
               if k.startswith("shard.reject_reason.")}
    retry_keys = ("runtime.retries", "runtime.transient_failures", "runtime.failures",
                  "runtime.dropouts", "runtime.stragglers_dropped")
    retries = {k: rec.counters[k] for k in retry_keys if k in rec.counters}
    if reasons or rejects or retries:
        lines.append("")
        lines.append("failures and retries:")
        for name, value in sorted(retries.items()):
            lines.append(f"  {name:<40} {value:g}")
        for reason, value in sorted(reasons.items()):
            lines.append(f"  client failure reason: {reason:<17} {value:g}")
        for reason, value in sorted(rejects.items()):
            lines.append(f"  enclave reject reason: {reason:<17} {value:g}")

    # -- shard / failover event log -----------------------------------
    shard_events = [e for e in rec.point_events
                    if str(e.get("name", "")).startswith("shard.")]
    if shard_events:
        lines.append("")
        lines.append("shard event log:")
        for event in shard_events:
            attrs = event.get("attrs") or {}
            detail = " ".join(f"{k}={v}" for k, v in attrs.items())
            lines.append(f"  +{event.get('t', 0.0):8.3f}s  "
                         f"{event['name']:<22} {detail}")

    # -- privacy-budget trajectory ------------------------------------
    eps = rec.gauge_series.get("dp.epsilon", [])
    if eps:
        lines.append("")
        lines.append("privacy budget (epsilon trajectory):")
        for t, value in eps:
            lines.append(f"  +{t:8.3f}s  epsilon = {value:.4f}")
    elif "dp.epsilon" in rec.gauges:
        lines.append("")
        lines.append(f"privacy budget: final epsilon = "
                     f"{rec.gauges['dp.epsilon']:.4f}")

    # -- structural problems ------------------------------------------
    if rec.orphans or rec.parse_errors:
        lines.append("")
        lines.append("structural problems:")
        if rec.parse_errors:
            lines.append(f"  {rec.parse_errors} unparseable line(s)")
        for event in rec.orphans[:10]:
            lines.append(
                f"  orphan span {event.get('path', event.get('name'))} "
                f"(parent_id={event.get('parent_id')} not in stream)")
        if len(rec.orphans) > 10:
            lines.append(f"  ... {len(rec.orphans) - 10} more orphan(s)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro report`` entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render a telemetry JSONL stream as a round-health "
                    "report (timelines, percentiles, failure breakdowns, "
                    "shard event log).",
    )
    parser.add_argument("path", help="telemetry JSONL file to render")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on unparseable lines or orphaned spans",
    )
    parser.add_argument(
        "--max-rounds", type=int, default=8, metavar="N",
        help="render at most N round timelines (default 8)",
    )
    args = parser.parse_args(argv)

    if not Path(args.path).exists():
        print(f"error: no such telemetry file: {args.path}",
              file=sys.stderr)
        return 2
    rec = load_recording(args.path)
    print(render_report(rec, title=f"round-health report: {args.path}",
                        max_rounds=args.max_rounds))
    if args.strict and (rec.parse_errors or rec.orphans):
        print(f"strict: {rec.parse_errors} parse error(s), "
              f"{len(rec.orphans)} orphaned span(s)", file=sys.stderr)
        return 1
    return 0
