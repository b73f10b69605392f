"""Telemetry diff: which *phase* regressed between two runs.

``check_regression.py`` gates CI on a bench's ``wall_seconds``; that
catches "the run got slower" but says nothing about *where*.  This
module compares two flight recordings (telemetry JSONL archives) at
span-path granularity -- per-path count / total-wall / mean deltas,
plus per-histogram percentile deltas -- so a regression report reads
"``round/aggregate`` got 2.1x slower, ``ecall.load_gradient`` p95 grew
40%" instead of a single opaque number.

The summaries are built from whichever evidence a stream carries:
``span_summary`` events (written by :func:`repro.obs.summary.dump_jsonl`
bench archives) when present, else aggregated from raw ``span``
events; histograms from the last ``hist`` snapshot per name.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .sinks import read_jsonl

#: Histogram fields compared per name.
_HIST_FIELDS = ("p50", "p95", "p99", "max")


@dataclass
class PathDelta:
    """One span path's before/after comparison."""

    path: str
    base_count: int
    cur_count: int
    base_wall_s: float
    cur_wall_s: float

    @property
    def wall_ratio(self) -> float:
        if self.base_wall_s <= 0.0:
            return float("inf") if self.cur_wall_s > 0.0 else 1.0
        return self.cur_wall_s / self.base_wall_s


@dataclass
class HistDelta:
    """One histogram field's before/after comparison."""

    name: str
    field: str
    base: float
    cur: float

    @property
    def ratio(self) -> float:
        if self.base <= 0.0:
            return float("inf") if self.cur > 0.0 else 1.0
        return self.cur / self.base


def summarize_events(events: list[dict]) -> tuple[dict, dict]:
    """Per-path ``{count, wall_s}`` and per-name hist snapshots.

    Prefers ``span_summary`` events (exact registry totals); falls back
    to summing raw ``span`` events when a stream has none.
    """
    paths: dict[str, dict] = {}
    hists: dict[str, dict] = {}
    have_summary = any(e.get("type") == "span_summary" for e in events)
    for event in events:
        kind = event.get("type")
        if kind == "span_summary":
            paths[event["path"]] = {
                "count": int(event.get("count", 0)),
                "wall_s": float(event.get("wall_s", 0.0)),
            }
        elif kind == "span" and not have_summary:
            entry = paths.setdefault(event.get("path", event.get("name")),
                                     {"count": 0, "wall_s": 0.0})
            entry["count"] += 1
            entry["wall_s"] += float(event.get("wall_s", 0.0))
        elif kind == "hist":
            hists[event["name"]] = event
    return paths, hists


def load_summary(path: str | Path) -> tuple[dict, dict]:
    """Parse one telemetry JSONL archive into comparison summaries.

    A torn final line is dropped; a corrupt line anywhere else raises
    (:func:`repro.obs.sinks.read_jsonl`) rather than silently losing
    spans from the comparison.
    """
    return summarize_events(read_jsonl(path))


def diff_runs(
    base: str | Path,
    cur: str | Path,
    tolerance: float = 1.5,
    grace_s: float = 0.05,
) -> tuple[list[PathDelta], list[HistDelta]]:
    """Compare two archives; returns (path deltas, histogram deltas).

    A path delta is *regressed* when the current total wall exceeds
    ``tolerance``x the base and the absolute growth exceeds
    ``grace_s`` (micro-spans jitter wildly in ratio terms).
    """
    base_paths, base_hists = load_summary(base)
    cur_paths, cur_hists = load_summary(cur)

    path_deltas = [
        PathDelta(
            path=path,
            base_count=base_paths.get(path, {}).get("count", 0),
            cur_count=cur_paths.get(path, {}).get("count", 0),
            base_wall_s=base_paths.get(path, {}).get("wall_s", 0.0),
            cur_wall_s=cur_paths.get(path, {}).get("wall_s", 0.0),
        )
        for path in sorted(set(base_paths) | set(cur_paths))
    ]
    hist_deltas = [
        HistDelta(name=name, field=f,
                  base=float(base_hists[name].get(f, 0.0)),
                  cur=float(cur_hists[name].get(f, 0.0)))
        for name in sorted(set(base_hists) & set(cur_hists))
        for f in _HIST_FIELDS
    ]
    return path_deltas, hist_deltas


def regressed_paths(
    deltas: list[PathDelta], tolerance: float = 1.5, grace_s: float = 0.05
) -> list[PathDelta]:
    """The path deltas that exceed the ratio + absolute-growth gates."""
    return [
        d for d in deltas
        if d.base_wall_s > 0.0
        and d.cur_wall_s > tolerance * d.base_wall_s
        and d.cur_wall_s - d.base_wall_s > grace_s
    ]


def regressed_hists(
    deltas: list[HistDelta], tolerance: float = 1.5, grace_s: float = 0.05
) -> list[HistDelta]:
    """The histogram deltas that exceed the same gates."""
    return [
        d for d in deltas
        if d.base > 0.0 and d.cur > tolerance * d.base
        and d.cur - d.base > grace_s
    ]


def render_diff(
    path_deltas: list[PathDelta],
    hist_deltas: list[HistDelta],
    tolerance: float = 1.5,
    grace_s: float = 0.05,
) -> str:
    """Render the comparison, flagging regressed rows with ``!``."""
    lines = ["telemetry diff (base -> current)"]
    bad_paths = {id(d) for d in regressed_paths(path_deltas, tolerance,
                                                grace_s)}
    bad_hists = {id(d) for d in regressed_hists(hist_deltas, tolerance,
                                                grace_s)}
    if path_deltas:
        lines.append(f"  {'span path':<34} {'count':>11} "
                     f"{'wall_s':>19} {'ratio':>7}")
        for d in sorted(path_deltas, key=lambda d: -d.cur_wall_s):
            flag = "!" if id(d) in bad_paths else " "
            ratio = (f"{d.wall_ratio:.2f}x"
                     if d.wall_ratio != float("inf") else "new")
            lines.append(
                f"{flag} {d.path:<34} {d.base_count:>5}->{d.cur_count:<5} "
                f"{d.base_wall_s:>8.3f}->{d.cur_wall_s:<8.3f} {ratio:>7}")
    if hist_deltas:
        lines.append(f"  {'histogram':<34} {'field':>5} "
                     f"{'base':>10} {'current':>10} {'ratio':>7}")
        for d in hist_deltas:
            flag = "!" if id(d) in bad_hists else " "
            ratio = f"{d.ratio:.2f}x" if d.ratio != float("inf") else "new"
            lines.append(f"{flag} {d.name:<34} {d.field:>5} "
                         f"{d.base:>10.6f} {d.cur:>10.6f} {ratio:>7}")
    if len(lines) == 1:
        lines.append("  (nothing to compare)")
    return "\n".join(lines)
