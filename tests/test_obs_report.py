"""Flight-recorder report tests: re-parenting, rendering, diffing.

Covers the round-health report (:mod:`repro.obs.report`), the run
comparator (:mod:`repro.obs.diffing`), and the property that client
spans recorded on parallel workers re-parent into exactly one
causally-linked tree per (round, trace) regardless of interleaving
order.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import diffing, report


@pytest.fixture(autouse=True)
def _clean_global():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _round_span(r: int) -> dict:
    return {
        "type": "span", "name": "round", "path": "round", "depth": 0,
        "trace_id": f"t{r}", "span_id": f"R{r}", "parent_id": None,
        "t_start": float(r), "wall_s": 1.0, "cpu_s": 0.5,
        "attrs": {"index": r},
    }


def _client_span(r: int, worker: int, i: int, wall: float) -> dict:
    return {
        "type": "span", "name": "client", "path": "round/client",
        "depth": 1, "trace_id": f"t{r}", "span_id": f"w{worker}c{r}.{i}",
        "parent_id": f"R{r}", "t_start": float(r) + 0.01 * i,
        "wall_s": wall, "cpu_s": wall, "attrs": {"client": i},
    }


class TestShardMergeProperty:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           n_rounds=st.integers(min_value=1, max_value=3),
           n_workers=st.integers(min_value=1, max_value=4),
           per_worker=st.integers(min_value=1, max_value=4))
    def test_any_interleaving_reparents_one_tree_per_round(
            self, data, n_rounds, n_workers, per_worker):
        # Each worker thread finishes client spans for every round,
        # parented on the round span ids it was handed.
        per_worker_spans = []
        for w in range(n_workers):
            spans = [_client_span(r, w, i, wall=0.1 * (w + 1))
                     for r in range(n_rounds) for i in range(per_worker)]
            per_worker_spans.append(spans)
        expected_wall = sum(e["wall_s"] for s in per_worker_spans for e in s)

        # Random interleaving that preserves each worker's own order --
        # the shape a stream written by parallel worker threads has.
        labels = [w for w, s in enumerate(per_worker_spans) for _ in s]
        order = data.draw(st.permutations(labels))
        queues = [list(s) for s in per_worker_spans]
        interleaved = [queues[w].pop(0) for w in order]
        # Round spans close after their clients, as in a live stream.
        events = interleaved + [_round_span(r) for r in range(n_rounds)]

        rec = report.build_recording(report.FlightRecording(events=events))
        # Exactly one tree per (round, trace): every trace has a single
        # root, every client span found its round, nothing orphaned.
        assert not rec.orphans
        assert len(rec.roots) == n_rounds
        for trace_id, nodes in rec.roots.items():
            assert len(nodes) == 1
            root = nodes[0]
            assert root.event["name"] == "round"
            assert len(root.children) == n_workers * per_worker
            assert all(c.event["trace_id"] == trace_id
                       for c in root.children)

        # The trees hold every worker's spans, and the waterfall
        # folds each round's clients into one row.
        clients = [c for nodes in rec.roots.values()
                   for c in nodes[0].children]
        assert len(clients) == n_rounds * n_workers * per_worker
        assert sum(c.event["wall_s"] for c in clients) == \
            pytest.approx(expected_wall)
        text = report.render_report(rec)
        per_round = n_workers * per_worker
        assert (f"client x{per_round}" if per_round > 1 else "client") \
            in text


class TestBuildRecording:
    def test_orphan_detection(self):
        events = [_round_span(0),
                  _client_span(0, 0, 0, 0.1),
                  {**_client_span(0, 0, 1, 0.1),
                   "parent_id": "missing-span"}]
        rec = report.build_recording(
            report.FlightRecording(events=events))
        assert len(rec.orphans) == 1
        assert rec.orphans[0]["parent_id"] == "missing-span"

    def test_snapshots_last_per_name_and_series(self):
        events = [
            {"type": "counter", "name": "retries", "value": 1},
            {"type": "counter", "name": "retries", "value": 4},
            {"type": "gauge", "name": "dp.epsilon", "value": 1.0, "t": 1.0},
            {"type": "gauge", "name": "dp.epsilon", "value": 2.0, "t": 2.0},
        ]
        rec = report.build_recording(
            report.FlightRecording(events=events))
        assert rec.counters["retries"] == 4
        assert rec.gauges["dp.epsilon"] == 2.0
        assert rec.gauge_series["dp.epsilon"] == [(1.0, 1.0), (2.0, 2.0)]

    def test_waterfall_aggregates_same_named_children(self):
        events = [_round_span(0)] + [
            _client_span(0, 0, i, 0.1) for i in range(6)]
        rec = report.build_recording(
            report.FlightRecording(events=events))
        text = report.render_report(rec)
        assert "client x6" in text


class TestReportMain:
    def _write(self, path, events):
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events))

    def test_strict_clean_stream_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write(path, [_round_span(0), _client_span(0, 0, 0, 0.1)])
        assert report.main([str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "orphans: 0" in out

    def test_strict_orphan_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write(path, [{**_client_span(0, 0, 0, 0.1),
                            "parent_id": "nope"}])
        assert report.main([str(path), "--strict"]) == 1
        assert report.main([str(path)]) == 0  # non-strict still renders

    def test_strict_unparseable_line_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(_round_span(0)) + "\nNOT JSON\n")
        assert report.main([str(path), "--strict"]) == 1
        assert "1 parse error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert report.main([str(tmp_path / "absent.jsonl")]) == 2


class TestChaosEndToEnd:
    def test_chaos_shard_round_renders_single_causal_trees(
            self, tmp_path, capsys):
        from repro.__main__ import main as demo_main

        out = tmp_path / "chaos.jsonl"
        demo_main(["--shards", "4", "--leaf-crash-rate", "0.4",
                   "--telemetry-out", str(out)])
        capsys.readouterr()

        rec = report.load_recording(out)
        assert rec.parse_errors == 0
        assert not rec.orphans
        # One causally-linked tree per round trace.
        round_roots = [nodes for nodes in rec.roots.values()
                       if any(n.event["name"].endswith("round")
                              for n in nodes)]
        assert round_roots
        assert all(len(nodes) == 1 for nodes in round_roots)
        # The injected crashes left a failover/crash event trail.
        names = {e["name"] for e in rec.point_events}
        assert "shard.crash" in names
        assert names & {"shard.failover", "shard.restart",
                        "shard.leaf_lost"}
        # Latency distributions made it into the stream.
        assert "ecall.wall_s" in rec.hists
        assert "shard.latency_s" in rec.hists

        assert report.main([str(out), "--strict"]) == 0
        text = capsys.readouterr().out
        assert "latency histograms" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "shard event log" in text


class TestDiffing:
    def _archive(self, path, scale=1.0):
        events = [_round_span(0)] + [
            _client_span(0, 0, i, 0.1 * scale) for i in range(4)]
        h = obs.Histogram()
        for i in range(20):
            h.observe(0.01 * scale * (1 + i % 3))
        events.append(h.snapshot("runtime.train_s"))
        path.write_text("".join(json.dumps(e) + "\n" for e in events))

    def test_identical_runs_do_not_regress(self, tmp_path):
        base, cur = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._archive(base)
        self._archive(cur)
        paths, hists = diffing.diff_runs(base, cur)
        assert not diffing.regressed_paths(paths)
        assert not diffing.regressed_hists(hists)

    def test_slower_run_flags_the_regressed_phase(self, tmp_path):
        base, cur = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._archive(base, scale=1.0)
        self._archive(cur, scale=40.0)
        paths, hists = diffing.diff_runs(base, cur)
        bad_paths = diffing.regressed_paths(paths)
        assert [d.path for d in bad_paths] == ["round/client"]
        assert bad_paths[0].wall_ratio == pytest.approx(40.0)
        bad_hists = diffing.regressed_hists(hists)
        assert {d.name for d in bad_hists} == {"runtime.train_s"}
        text = diffing.render_diff(paths, hists)
        assert "round/client" in text and "!" in text

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "a.jsonl"
        self._archive(path)
        with open(path, "a") as fh:
            fh.write('{"type": "span", "name": "cli')
        paths, hists = diffing.load_summary(path)
        assert paths["round/client"]["count"] == 4
        assert set(hists) == {"runtime.train_s"}

    def test_corrupt_interior_line_raises(self, tmp_path):
        # Skipping it would drop spans from the comparison unnoticed.
        path = tmp_path / "a.jsonl"
        self._archive(path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(2, "NOT JSON\n")
        path.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError):
            diffing.load_summary(path)

    def test_check_regression_diff_mode(self, tmp_path, capsys):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(
            Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            import check_regression
        finally:
            sys.path.pop(0)
        base, cur = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._archive(base)
        self._archive(cur, scale=40.0)
        rc = check_regression.main(["--diff", str(base), str(cur)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "round/client" in out
        rc = check_regression.main(["--diff", str(base), str(base)])
        assert rc == 0
