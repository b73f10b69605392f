"""Tests for the telemetry subsystem (repro.obs)."""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs import (
    JsonlSink,
    MemorySink,
    NOOP_SPAN,
    NullSink,
    Telemetry,
    read_jsonl,
    render_summary,
    summary_tree,
)


@pytest.fixture(autouse=True)
def _clean_global():
    """Every test starts and ends with disabled, empty global telemetry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_span_records_wall_and_cpu(self):
        tel = Telemetry(enabled=True)
        with tel.span("work"):
            time.sleep(0.01)
        stats = tel.span_stats["work"]
        assert stats.count == 1
        assert stats.wall_s >= 0.01
        assert stats.cpu_s >= 0.0

    def test_nesting_builds_paths(self):
        tel = Telemetry(enabled=True)
        with tel.span("round"):
            with tel.span("aggregate"):
                with tel.span("sort"):
                    pass
            with tel.span("aggregate"):
                pass
        assert set(tel.span_stats) == {
            "round", "round/aggregate", "round/aggregate/sort",
        }
        assert tel.span_stats["round/aggregate"].count == 2

    def test_sibling_spans_share_parent_path(self):
        tel = Telemetry(enabled=True)
        with tel.span("round"):
            with tel.span("a"):
                pass
            with tel.span("b"):
                pass
        assert "round/a" in tel.span_stats
        assert "round/b" in tel.span_stats

    def test_span_event_contains_schema_fields(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        with tel.span("phase", foo=1).set(bar=2):
            pass
        (event,) = sink.spans()
        assert event["type"] == "span"
        assert event["name"] == "phase"
        assert event["path"] == "phase"
        assert event["depth"] == 0
        assert event["wall_s"] >= 0.0
        assert event["cpu_s"] >= 0.0
        assert event["attrs"] == {"foo": 1, "bar": 2}

    def test_exception_marks_error_and_propagates(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("x")
        (event,) = sink.spans()
        assert event["error"] is True
        assert tel.span_stats["boom"].errors == 1

    def test_events_ordered_children_first(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        paths = [e["path"] for e in sink.spans()]
        assert paths == ["outer/inner", "outer"]
        seqs = [e["seq"] for e in sink.spans()]
        assert seqs == sorted(seqs)

    def test_thread_local_stacks(self):
        tel = Telemetry(enabled=True)
        errors = []

        def worker(name):
            try:
                for _ in range(50):
                    with tel.span(name):
                        with tel.span("child"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(4):
            assert tel.span_stats[f"t{i}/child"].count == 50


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        tel = Telemetry(enabled=True)
        tel.add("bytes", 10)
        tel.add("bytes", 5)
        tel.add("events")
        assert tel.counters == {"bytes": 15.0, "events": 1.0}

    def test_gauge_last_value_wins(self):
        tel = Telemetry(enabled=True)
        tel.gauge("epsilon", 1.0)
        tel.gauge("epsilon", 2.5)
        assert tel.gauges == {"epsilon": 2.5}

    def test_flush_emits_snapshot(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        tel.add("c", 3)
        tel.gauge("g", 7)
        tel.flush()
        assert sink.last_values("counter") == {"c": 3.0}
        assert sink.last_values("gauge") == {"g": 7.0}

    def test_reset_clears_state(self):
        tel = Telemetry(enabled=True)
        tel.add("c")
        with tel.span("s"):
            pass
        tel.reset()
        assert not tel.counters and not tel.span_stats


class TestDisabledPath:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything", x=1) is NOOP_SPAN
        with obs.span("anything") as sp:
            sp.set(y=2)  # no-op, must not raise
        assert obs.get_telemetry().span_stats == {}

    def test_disabled_counters_record_nothing(self):
        obs.add("c", 5)
        obs.gauge("g", 1)
        tel = obs.get_telemetry()
        assert tel.counters == {} and tel.gauges == {}

    def test_enabled_flag(self):
        assert not obs.enabled()
        obs.configure(enabled=True, sinks=[])
        assert obs.enabled()

    def test_session_restores_previous_state(self):
        assert not obs.enabled()
        with obs.session(sinks=[MemorySink()]):
            assert obs.enabled()
            obs.add("inside")
        assert not obs.enabled()

    def test_disabled_span_overhead_is_tiny(self):
        reps = 20_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with obs.span("noop"):
                pass
        per_span = (time.perf_counter() - t0) / reps
        assert per_span < 50e-6  # loose sanity bound; bench guards 2%


class TestSinks:
    def test_null_sink_swallows(self):
        tel = Telemetry(enabled=True, sinks=[NullSink()])
        with tel.span("x"):
            pass
        tel.close()  # nothing raised, nothing stored

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        tel = Telemetry(enabled=True, sinks=[sink])
        with tel.span("round", index=0):
            with tel.span("aggregate"):
                pass
        tel.add("accesses", 42)
        tel.close()  # flushes one final counter/gauge snapshot
        events = read_jsonl(path)
        spans = [e for e in events if e["type"] == "span"]
        counters = [e for e in events if e["type"] == "counter"]
        assert [e["path"] for e in spans] == ["round/aggregate", "round"]
        assert counters == [
            {"type": "counter", "name": "accesses", "value": 42.0}
        ]
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_jsonl_truncates_by_default(self, tmp_path):
        path = tmp_path / "e.jsonl"
        for _ in range(2):
            tel = Telemetry(enabled=True, sinks=[JsonlSink(path)])
            with tel.span("only"):
                pass
            tel.close()
        assert len(read_jsonl(path)) == 1

    def test_dump_jsonl_archives_registry(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        with obs.session(sinks=[MemorySink()]):
            with obs.span("phase"):
                pass
            obs.add("n", 2)
            out = obs.dump_jsonl(path)
        assert out == str(path)
        types = {e["type"] for e in read_jsonl(path)}
        assert {"span", "span_summary", "counter"} <= types

    def test_dump_jsonl_disabled_returns_none(self, tmp_path):
        assert obs.dump_jsonl(tmp_path / "never.jsonl") is None
        assert not (tmp_path / "never.jsonl").exists()


class TestSummary:
    def test_summary_tree_nests(self):
        tel = Telemetry(enabled=True)
        with tel.span("round"):
            with tel.span("aggregate"):
                pass
        tree = summary_tree(tel)
        assert "round" in tree["children"]
        assert "aggregate" in tree["children"]["round"]["children"]
        assert tree["children"]["round"]["stats"]["count"] == 1

    def test_render_summary_mentions_everything(self):
        tel = Telemetry(enabled=True)
        with tel.span("round"):
            with tel.span("noise"):
                pass
        tel.add("clients", 8)
        tel.gauge("epsilon", 1.25)
        text = render_summary(tel)
        assert "round" in text
        assert "noise" in text
        assert "clients" in text
        assert "epsilon" in text
        assert "1.25" in text

    def test_render_summary_empty(self):
        assert "no telemetry recorded" in render_summary(Telemetry())


class TestMemoryTracking:
    def test_span_records_memory_peak(self):
        tel = Telemetry(enabled=True, sinks=[MemorySink()],
                        track_memory=True)
        with tel.span("alloc"):
            blob = bytearray(4 * 1024 * 1024)
            del blob
        assert tel.span_stats["alloc"].mem_peak >= 4 * 1024 * 1024


class TestTraceContext:
    def test_spans_carry_ids(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        with tel.span("round") as r:
            with tel.span("child") as c:
                assert c.trace_id == r.trace_id
                assert c.parent_id == r.span_id
                assert c.span_id != r.span_id
        events = sink.spans()
        assert all("trace_id" in e and "span_id" in e for e in events)
        root = [e for e in events if e["name"] == "round"][0]
        assert root["parent_id"] is None

    def test_root_spans_mint_distinct_traces(self):
        tel = Telemetry(enabled=True)
        with tel.span("a") as a:
            pass
        with tel.span("b") as b:
            pass
        assert a.trace_id != b.trace_id


class TestHistogram:
    def test_percentiles_land_in_right_buckets(self):
        h = obs.Histogram()
        for v in [0.001] * 50 + [0.01] * 45 + [0.1] * 5:
            h.observe(v)
        assert h.count == 100
        assert h.vmin == 0.001 and h.vmax == 0.1
        assert 0.0005 < h.percentile(0.50) < 0.002
        assert 0.005 < h.percentile(0.95) < 0.02
        assert 0.03 < h.percentile(0.99) <= 0.1

    def test_percentiles_clamped_to_observed_range(self):
        h = obs.Histogram()
        h.observe(0.5)
        assert h.percentile(0.5) == 0.5
        assert h.percentile(0.99) == 0.5

    def test_zero_and_negative_underflow(self):
        h = obs.Histogram()
        h.observe(0.0)
        h.observe(-1.0)
        assert h.count == 2
        assert h.counts[0] == 2

    def test_empty_percentile_is_zero(self):
        assert obs.Histogram().percentile(0.5) == 0.0

    def test_observe_module_api(self):
        obs.configure(enabled=True, sinks=[])
        obs.observe("lat", 0.25)
        obs.observe("lat", 0.5)
        h = obs.get_telemetry().histograms["lat"]
        assert h.count == 2 and h.vmax == 0.5

    def test_observe_disabled_noop(self):
        obs.observe("lat", 0.25)
        assert "lat" not in obs.get_telemetry().histograms

    def test_span_hist_option_records_wall(self):
        tel = Telemetry(enabled=True)
        with tel.span("ecall", hist="ecall.wall_s"):
            time.sleep(0.005)
        h = tel.histograms["ecall.wall_s"]
        assert h.count == 1 and h.vmax >= 0.005

    def test_render_summary_includes_histograms(self):
        tel = Telemetry(enabled=True)
        tel.observe("lat", 0.1)
        text = render_summary(tel)
        assert "histograms:" in text and "lat" in text and "p95" in text

    def test_flush_emits_hist_snapshot(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        tel.observe("lat", 0.1)
        tel.flush()
        hists = [e for e in sink.events if e["type"] == "hist"]
        assert hists and hists[0]["name"] == "lat"


class TestEventsAndGauges:
    def test_event_linked_to_open_span(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        with tel.span("round") as r:
            tel.event("shard.crash", shard=1, fatal=True)
        ev = [e for e in sink.events if e["type"] == "event"][0]
        assert ev["name"] == "shard.crash"
        assert ev["parent_id"] == r.span_id
        assert ev["trace_id"] == r.trace_id
        assert ev["attrs"] == {"shard": 1, "fatal": True}
        assert "t" in ev

    def test_event_without_open_span(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        tel.event("lonely")
        ev = [e for e in sink.events if e["type"] == "event"][0]
        assert ev["trace_id"] is None and ev["parent_id"] is None

    def test_event_disabled_noop(self):
        obs.event("nothing")  # must not raise nor record

    def test_gauge_emits_timestamped_event(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        tel.gauge("dp.epsilon", 1.5)
        tel.gauge("dp.epsilon", 2.5)
        series = [e for e in sink.events if e["type"] == "gauge"]
        assert [e["value"] for e in series] == [1.5, 2.5]
        assert all("t" in e for e in series)
        assert series[0]["t"] <= series[1]["t"]


class TestCrashSafety:
    def test_flush_on_span_tree_completion(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(enabled=True, sinks=[JsonlSink(path)])
        with tel.span("round"):
            with tel.span("inner"):
                pass
        # No close() yet: the completed tree must already be on disk.
        names = [e["name"] for e in read_jsonl(path)
                 if e["type"] == "span"]
        assert names == ["inner", "round"]

    def test_read_jsonl_tolerates_truncated_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"torn": tru')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path, strict=True)

    def test_read_jsonl_mid_stream_corruption_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\nBAD LINE\n{"b": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path)

    def test_reopen_after_close_appends(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"n": 1})
        sink.close()
        sink.emit({"n": 2})
        sink.close()
        assert read_jsonl(path) == [{"n": 1}, {"n": 2}]

    @pytest.mark.skipif(not hasattr(__import__("os"), "fork"),
                        reason="no fork on this platform")
    def test_forked_child_cannot_write_parent_stream(self, tmp_path):
        # A forked child inherits the enabled registry and the open
        # JSONL handle; the sink's owner-pid guard keeps its spans and
        # flushes out of the parent's file.
        import multiprocessing as mp

        path = tmp_path / "parent.jsonl"
        sink = JsonlSink(path)
        ctx = mp.get_context("fork")

        def child():
            with obs.span("child.span"):  # tree completion flushes
                obs.add("child.counter")
            sink.emit({"type": "event", "name": "child.raw"})
            sink.flush()

        with obs.session(sinks=[sink]):
            with obs.span("parent.before"):
                pass  # opens the JSONL handle pre-fork
            proc = ctx.Process(target=child)
            proc.start()
            proc.join(timeout=30)
            assert not proc.is_alive()
            assert proc.exitcode == 0
            with obs.span("parent.after"):
                pass
        events = read_jsonl(path)
        names = {e.get("name") for e in events}
        assert "parent.before" in names and "parent.after" in names
        assert not any(str(n).startswith("child.") for n in names)
        lines = [ln for ln in path.read_text().splitlines() if ln]
        assert len(lines) == len(set(lines))
