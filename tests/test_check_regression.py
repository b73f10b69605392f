"""Tests for the CI benchmark-regression gate (benchmarks/check_regression.py)."""

import json

from benchmarks.check_regression import compare, main


def write_baseline(tmp_path, benches, tolerance=1.5, grace=0.0):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"tolerance": tolerance, "grace_seconds": grace, "benches": benches}
    ))
    return path


def write_result(tmp_path, name, payload):
    (tmp_path / f"{name}.json").write_text(json.dumps(payload))


class TestCompare:
    def test_pass_speedup_and_small_regression(self, tmp_path):
        baseline = {"benches": {
            "fast": {"wall_seconds": 2.0}, "slow": {"wall_seconds": 2.0},
        }}
        write_result(tmp_path, "fast", {"wall_seconds": 0.5})
        write_result(tmp_path, "slow", {"wall_seconds": 2.9})
        rows, ok = compare(baseline, tmp_path, tolerance=1.5, grace=0.0)
        assert ok
        assert {r["bench"]: r["status"] for r in rows} == {
            "fast": "ok", "slow": "ok",
        }

    def test_slowdown_past_band_fails(self, tmp_path):
        baseline = {"benches": {"b": {"wall_seconds": 2.0}}}
        write_result(tmp_path, "b", {"wall_seconds": 3.1})
        rows, ok = compare(baseline, tmp_path, tolerance=1.5, grace=0.0)
        assert not ok
        assert rows[0]["status"] == "fail"
        assert "tolerance" in rows[0]["detail"]

    def test_grace_absorbs_tiny_bench_jitter(self, tmp_path):
        # 3x slowdown on a 0.1 s bench is scheduler noise, not a
        # regression; the absolute grace keeps the gate quiet.
        baseline = {"benches": {"tiny": {"wall_seconds": 0.1}}}
        write_result(tmp_path, "tiny", {"wall_seconds": 0.3})
        _, ok = compare(baseline, tmp_path, tolerance=1.5, grace=1.0)
        assert ok
        _, ok = compare(baseline, tmp_path, tolerance=1.5, grace=0.0)
        assert not ok

    def test_missing_result_fails(self, tmp_path):
        baseline = {"benches": {"gone": {"wall_seconds": 1.0}}}
        rows, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert not ok
        assert rows[0]["status"] == "missing"

    def test_missing_wall_seconds_fails(self, tmp_path):
        baseline = {"benches": {"b": {"wall_seconds": 1.0}}}
        write_result(tmp_path, "b", {"cycles": 123})
        rows, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert not ok

    def test_metric_floor_enforced(self, tmp_path):
        baseline = {"benches": {
            "fig": {"wall_seconds": 10.0, "min_replay_speedup": 10.0},
        }}
        write_result(
            tmp_path, "fig", {"wall_seconds": 9.0, "replay_speedup": 12.4}
        )
        rows, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert ok and rows[0]["replay_speedup"] == 12.4
        write_result(
            tmp_path, "fig", {"wall_seconds": 9.0, "replay_speedup": 6.0}
        )
        rows, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert not ok
        assert "below floor" in rows[0]["detail"]

    def test_metric_floor_missing_metric_fails(self, tmp_path):
        baseline = {"benches": {
            "fig": {"wall_seconds": 10.0, "min_replay_speedup": 10.0},
        }}
        write_result(tmp_path, "fig", {"wall_seconds": 9.0})
        _, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert not ok

    def test_metric_ceiling_enforced(self, tmp_path):
        baseline = {"benches": {
            "audit": {"wall_seconds": 5.0, "max_audit_overhead_frac": 0.2},
        }}
        write_result(tmp_path, "audit",
                     {"wall_seconds": 4.0, "audit_overhead_frac": 0.05})
        rows, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert ok and rows[0]["audit_overhead_frac"] == 0.05
        write_result(tmp_path, "audit",
                     {"wall_seconds": 4.0, "audit_overhead_frac": 0.5})
        rows, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert not ok
        assert "above ceiling" in rows[0]["detail"]

    def test_metric_ceiling_missing_metric_fails(self, tmp_path):
        baseline = {"benches": {
            "audit": {"wall_seconds": 5.0, "max_audit_overhead_frac": 0.2},
        }}
        write_result(tmp_path, "audit", {"wall_seconds": 4.0})
        rows, ok = compare(baseline, tmp_path, tolerance=1.5)
        assert not ok
        assert "missing from payload" in rows[0]["detail"]


class TestMain:
    def _run(self, tmp_path, baseline, results):
        baseline_path = write_baseline(tmp_path, baseline)
        for name, payload in results.items():
            write_result(tmp_path, name, payload)
        report = tmp_path / "report.json"
        code = main([
            "--baseline", str(baseline_path),
            "--results", str(tmp_path),
            "--report", str(report),
        ])
        return code, json.loads(report.read_text())

    def test_exit_zero_and_report_on_pass(self, tmp_path):
        code, report = self._run(
            tmp_path,
            {"b": {"wall_seconds": 1.0}},
            {"b": {"wall_seconds": 1.1}},
        )
        assert code == 0
        assert report["ok"] is True
        assert report["benches"][0]["ratio"] == 1.1

    def test_exit_one_and_report_on_regression(self, tmp_path):
        code, report = self._run(
            tmp_path,
            {"b": {"wall_seconds": 1.0}},
            {"b": {"wall_seconds": 9.0}},
        )
        assert code == 1
        assert report["ok"] is False

    def test_tolerance_from_baseline_file(self, tmp_path):
        baseline_path = write_baseline(
            tmp_path, {"b": {"wall_seconds": 1.0}}, tolerance=10.0
        )
        write_result(tmp_path, "b", {"wall_seconds": 9.0})
        report = tmp_path / "report.json"
        code = main([
            "--baseline", str(baseline_path),
            "--results", str(tmp_path),
            "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["tolerance"] == 10.0

    def test_repo_baseline_names_real_benches(self, tmp_path):
        # The committed baseline must reference benches that exist and
        # carry the fig11 speedup floor the acceptance criteria gate.
        from benchmarks.check_regression import RESULTS_DIR

        baseline = json.loads((RESULTS_DIR / "baseline.json").read_text())
        assert "fig11" in baseline["benches"]
        assert baseline["benches"]["fig11"]["min_replay_speedup"] >= 4.0
        assert baseline["tolerance"] == 1.5


class TestObsCeilings:
    """Histogram-ceiling enforcement against archived telemetry."""

    def _hist(self, name, p95):
        return {"type": "hist", "name": name, "count": 10, "sum": 1.0,
                "min": 0.001, "max": p95 * 2, "p50": p95 / 2,
                "p95": p95, "p99": p95 * 1.5, "buckets": {}}

    def _write_telemetry(self, tmp_path, name, hists):
        path = tmp_path / f"{name}_telemetry.json"
        path.write_text(
            "".join(json.dumps(h) + "\n" for h in hists))

    def _baseline(self, ceilings):
        return {"benches": {"b": {"wall_seconds": 1.0, "obs": ceilings}}}

    def test_ceiling_pass(self, tmp_path):
        write_result(tmp_path, "b", {"wall_seconds": 1.0})
        self._write_telemetry(tmp_path, "b",
                              [self._hist("ecall.wall_s", 0.001)])
        rows, ok = compare(self._baseline(
            {"ecall.wall_s": {"max_p95": 0.01}}),
            tmp_path, tolerance=1.5, grace=0.0)
        assert ok and rows[0]["status"] == "ok"

    def test_ceiling_exceeded_fails(self, tmp_path):
        write_result(tmp_path, "b", {"wall_seconds": 1.0})
        self._write_telemetry(tmp_path, "b",
                              [self._hist("ecall.wall_s", 0.5)])
        rows, ok = compare(self._baseline(
            {"ecall.wall_s": {"max_p95": 0.01}}),
            tmp_path, tolerance=1.5, grace=0.0)
        assert not ok
        assert "ecall.wall_s p95" in rows[0]["detail"]
        assert "ceiling" in rows[0]["detail"]

    def test_last_snapshot_wins(self, tmp_path):
        # The final flush's snapshot supersedes mid-run worker ones.
        write_result(tmp_path, "b", {"wall_seconds": 1.0})
        self._write_telemetry(tmp_path, "b",
                              [self._hist("ecall.wall_s", 0.5),
                               self._hist("ecall.wall_s", 0.001)])
        _, ok = compare(self._baseline(
            {"ecall.wall_s": {"max_p95": 0.01}}),
            tmp_path, tolerance=1.5, grace=0.0)
        assert ok

    def test_missing_telemetry_file_fails(self, tmp_path):
        write_result(tmp_path, "b", {"wall_seconds": 1.0})
        rows, ok = compare(self._baseline(
            {"ecall.wall_s": {"max_p95": 0.01}}),
            tmp_path, tolerance=1.5, grace=0.0)
        assert not ok
        assert "BENCH_TELEMETRY" in rows[0]["detail"]

    def test_missing_histogram_fails(self, tmp_path):
        write_result(tmp_path, "b", {"wall_seconds": 1.0})
        self._write_telemetry(tmp_path, "b",
                              [self._hist("other.hist", 0.001)])
        rows, ok = compare(self._baseline(
            {"ecall.wall_s": {"max_p95": 0.01}}),
            tmp_path, tolerance=1.5, grace=0.0)
        assert not ok
        assert "missing" in rows[0]["detail"]

    def test_torn_final_line_tolerated(self, tmp_path):
        write_result(tmp_path, "b", {"wall_seconds": 1.0})
        path = tmp_path / "b_telemetry.json"
        path.write_text(
            json.dumps(self._hist("ecall.wall_s", 0.001)) + "\n"
            + '{"type": "hist", "tru')
        _, ok = compare(self._baseline(
            {"ecall.wall_s": {"max_p95": 0.01}}),
            tmp_path, tolerance=1.5, grace=0.0)
        assert ok


class TestDiffCorruptArchive:
    def _archive(self, path, corrupt_line=None):
        lines = [json.dumps({"type": "span_summary", "path": f"round/{i}",
                             "count": 1, "wall_s": 0.1}) for i in range(3)]
        if corrupt_line is not None:
            lines.insert(corrupt_line - 1, "NOT JSON")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_corrupt_interior_line_names_archive_and_line(self, tmp_path,
                                                          capsys):
        base = self._archive(tmp_path / "base.jsonl")
        cur = self._archive(tmp_path / "cur.jsonl", corrupt_line=2)
        assert main(["--diff", str(base), str(cur)]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out and f"{cur}: line 2 " in out
        assert main(["--diff", str(cur), str(base)]) == 2
        assert f"{cur}: line 2 " in capsys.readouterr().out
