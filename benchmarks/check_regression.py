"""Benchmark-regression gate for CI.

Compares the ``wall_seconds`` each quick-mode benchmark recorded under
``bench_results/<name>.json`` against the committed reference in
``bench_results/baseline.json`` and fails (exit 1) when any bench
slowed down past the tolerance band: worse than 1.5x the baseline
(default) *and* past a small absolute grace (default 1 s), so
sub-second benches are not gated on scheduler jitter.

The committed baseline stores, per bench, the wall seconds measured on
the reference runner plus a free-form note.  Speed-ups and small
regressions inside the band pass; the full comparison is always
written to ``bench_results/regression_report.json`` so CI can upload
it as an artifact whether the gate passes or not.

Usage::

    python benchmarks/check_regression.py [--tolerance 1.5]
        [--baseline bench_results/baseline.json]
        [--results bench_results] [--report <path>]

Besides wall clock, any ``min_`` floor recorded in the baseline is
enforced on the matching key of the bench's payload (e.g.
``min_replay_speedup`` gates ``replay_speedup`` in ``fig11.json``),
letting the gate also catch *model-level* perf regressions that wall
clock alone would hide behind runner noise.  ``max_`` ceilings work
symmetrically (e.g. ``max_audit_overhead_frac`` gates the audit
subsystem's per-round commitment overhead in ``audit.json``).

Two telemetry-aware extensions ride on the flight-recorder layer:

* a bench entry may carry an ``"obs"`` block of histogram ceilings,
  e.g. ``{"ecall.wall_s": {"max_p95": 0.05}}`` -- enforced against the
  last ``hist`` snapshot in the bench's archived
  ``<name>_telemetry.json`` stream (recorded under ``BENCH_TELEMETRY=1``),
  so a latency-distribution regression in one phase fails the gate even
  when total wall clock hides it;
* ``--diff BASE CURRENT`` compares two telemetry archives through
  :mod:`repro.obs.diffing` and reports per-span-path and per-histogram
  deltas -- *which phase* regressed, not just that something did.  It
  exits 1 on a regression and 2 on an archive with a corrupt interior
  line, naming the archive and the line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 1.5
DEFAULT_GRACE_SECONDS = 1.0
RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


def read_hist_snapshots(path: Path) -> dict[str, dict]:
    """Last ``hist`` snapshot per name from a telemetry JSONL archive.

    Parsed inline (no repro import -- CI runs this script without the
    package on ``sys.path``); torn final lines are tolerated.
    """
    hists: dict[str, dict] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict) and event.get("type") == "hist":
            hists[event["name"]] = event
    return hists


def check_obs_ceilings(
    name: str, ceilings: dict, results_dir: Path
) -> list[str]:
    """Failures from one bench's telemetry-histogram ceilings."""
    tele_path = results_dir / f"{name}_telemetry.json"
    if not tele_path.exists():
        return [f"obs ceilings set but {tele_path.name} missing "
                f"(bench not run with BENCH_TELEMETRY=1?)"]
    hists = read_hist_snapshots(tele_path)
    failures = []
    for hist_name, limits in sorted(ceilings.items()):
        snapshot = hists.get(hist_name)
        if snapshot is None:
            failures.append(f"histogram {hist_name!r} missing from "
                            f"{tele_path.name}")
            continue
        for key, ceiling in sorted(limits.items()):
            if not key.startswith("max_"):
                continue
            field = key[len("max_"):]
            value = snapshot.get(field)
            if value is None:
                failures.append(
                    f"{hist_name} field {field!r} missing from snapshot")
            elif float(value) > float(ceiling):
                failures.append(
                    f"{hist_name} {field} {float(value):.6f}s above "
                    f"ceiling {float(ceiling):.6f}s")
    return failures


def compare(
    baseline: dict, results_dir: Path, tolerance: float,
    grace: float = DEFAULT_GRACE_SECONDS,
) -> tuple[list[dict], bool]:
    """Return (per-bench comparison rows, ok flag)."""
    rows = []
    ok = True
    for name, ref in sorted(baseline.get("benches", {}).items()):
        row = {"bench": name, "baseline_seconds": ref["wall_seconds"]}
        path = results_dir / f"{name}.json"
        if not path.exists():
            row.update(status="missing", detail=f"{path} not found")
            ok = False
            rows.append(row)
            continue
        payload = json.loads(path.read_text())
        current = payload.get("wall_seconds")
        if current is None:
            row.update(status="missing", detail="no wall_seconds recorded")
            ok = False
            rows.append(row)
            continue
        ratio = current / ref["wall_seconds"]
        row.update(current_seconds=current, ratio=round(ratio, 3))
        failures = []
        if ratio > tolerance and current > ref["wall_seconds"] + grace:
            failures.append(
                f"wall {current:.2f}s is {ratio:.2f}x baseline "
                f"{ref['wall_seconds']:.2f}s (tolerance {tolerance}x)"
            )
        for key, floor in ref.items():
            if not key.startswith("min_"):
                continue
            metric = key[len("min_"):]
            value = payload.get(metric)
            row[metric] = value
            if value is None:
                failures.append(f"metric {metric!r} missing from payload")
            elif value < floor:
                failures.append(f"{metric} {value} below floor {floor}")
        for key, ceiling in ref.items():
            if not key.startswith("max_"):
                continue
            metric = key[len("max_"):]
            value = payload.get(metric)
            row[metric] = value
            if value is None:
                failures.append(f"metric {metric!r} missing from payload")
            elif value > ceiling:
                failures.append(
                    f"{metric} {value} above ceiling {ceiling}")
        obs_ceilings = ref.get("obs")
        if obs_ceilings:
            failures.extend(
                check_obs_ceilings(name, obs_ceilings, results_dir))
        if failures:
            row.update(status="fail", detail="; ".join(failures))
            ok = False
        else:
            row.update(status="ok")
        rows.append(row)
    return rows, ok


def report_gated_metrics(baseline_path: Path, results_dir: Path) -> None:
    """Informational floor/ceiling table for ``--diff`` mode.

    Prints every ``min_``/``max_`` bound the baseline declares next to
    the current payload value (when the bench's results exist), so a
    telemetry diff also shows where the gated model-level metrics stand
    -- without failing on them (the baseline gate owns that).
    """
    if not baseline_path.exists():
        return
    baseline = json.loads(baseline_path.read_text())
    rows = []
    for name, ref in sorted(baseline.get("benches", {}).items()):
        bounds = [(k, v) for k, v in ref.items()
                  if k.startswith(("min_", "max_"))]
        if not bounds:
            continue
        path = results_dir / f"{name}.json"
        payload = json.loads(path.read_text()) if path.exists() else {}
        for key, bound in bounds:
            kind, metric = key.split("_", 1)
            value = payload.get(metric)
            if value is None:
                status = "n/a"
            elif kind == "min":
                status = "ok" if value >= bound else "OUT"
            else:
                status = "ok" if value <= bound else "OUT"
            shown = f"{value:.4g}" if isinstance(value, (int, float)) \
                else "-"
            rows.append((name, metric, f"{kind} {bound:g}", shown, status))
    if not rows:
        return
    print("\ngated metrics (informational; enforced by the baseline gate):")
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    for row in rows:
        print("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)))


def run_diff(base: Path, cur: Path, tolerance: float, grace: float,
             baseline_path: Path | None = None,
             results_dir: Path | None = None) -> int:
    """Compare two telemetry archives phase-by-phase; 1 on regression,
    2 on a corrupt archive."""
    try:
        from repro.obs import diffing
    except ImportError:
        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "src"))
        from repro.obs import diffing

    try:
        path_deltas, hist_deltas = diffing.diff_runs(base, cur)
    except json.JSONDecodeError as exc:
        print(f"telemetry diff: FAIL ({exc})")
        return 2
    print(diffing.render_diff(path_deltas, hist_deltas,
                              tolerance=tolerance, grace_s=grace))
    if baseline_path is not None and results_dir is not None:
        report_gated_metrics(baseline_path, results_dir)
    bad = (diffing.regressed_paths(path_deltas, tolerance, grace)
           + diffing.regressed_hists(hist_deltas, tolerance, grace))
    if bad:
        print(f"telemetry diff: FAIL ({len(bad)} regressed row(s), "
              f"tolerance {tolerance}x, grace {grace}s)")
        return 1
    print(f"telemetry diff: PASS (tolerance {tolerance}x, grace {grace}s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=RESULTS_DIR / "baseline.json"
    )
    parser.add_argument(
        "--diff", nargs=2, type=Path, metavar=("BASE", "CURRENT"),
        default=None,
        help="compare two telemetry JSONL archives per span path and "
             "histogram instead of running the baseline gate",
    )
    parser.add_argument("--results", type=Path, default=RESULTS_DIR)
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="slowdown factor that fails the gate "
             f"(default: baseline's, else {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--grace", type=float, default=None,
        help="absolute seconds a bench may exceed baseline before the "
             "ratio gate applies (default: baseline's, else "
             f"{DEFAULT_GRACE_SECONDS})",
    )
    parser.add_argument(
        "--report", type=Path,
        default=RESULTS_DIR / "regression_report.json",
    )
    args = parser.parse_args(argv)

    if args.diff is not None:
        return run_diff(args.diff[0], args.diff[1],
                        args.tolerance or DEFAULT_TOLERANCE,
                        args.grace if args.grace is not None else 0.05,
                        baseline_path=args.baseline,
                        results_dir=args.results)

    baseline = json.loads(args.baseline.read_text())
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = baseline.get("tolerance", DEFAULT_TOLERANCE)
    grace = args.grace
    if grace is None:
        grace = baseline.get("grace_seconds", DEFAULT_GRACE_SECONDS)
    rows, ok = compare(baseline, args.results, tolerance, grace)

    report = {
        "baseline": str(args.baseline),
        "tolerance": tolerance,
        "grace_seconds": grace,
        "ok": ok,
        "benches": rows,
    }
    args.report.parent.mkdir(exist_ok=True)
    args.report.write_text(json.dumps(report, indent=2) + "\n")

    width = max((len(r["bench"]) for r in rows), default=5)
    for row in rows:
        line = f"{row['bench']:<{width}}  {row['status']:>7}"
        if "ratio" in row:
            line += (
                f"  {row['current_seconds']:8.2f}s vs"
                f" {row['baseline_seconds']:8.2f}s  ({row['ratio']:.2f}x)"
            )
        if row.get("detail"):
            line += f"  -- {row['detail']}"
        print(line)
    print(f"regression gate: {'PASS' if ok else 'FAIL'}"
          f" (tolerance {tolerance}x, report: {args.report})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
