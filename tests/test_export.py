"""Tests for the Perfetto and Prometheus exporters (``repro.obs.export``)."""

import json

from repro.obs.export import (
    load_trace_events,
    main as export_main,
    metrics_to_prometheus,
    trace_to_perfetto,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _recorded_trace(tmp_path, max_events=None):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer.to_path(str(path), producer="export-test", max_events=max_events)
    with tracer.span("run", algorithm="pincer"):
        with tracer.span("pass", k=1):
            pass
        with tracer.span("pass", k=2):
            pass
    tracer.emit_event("progress", phase="pass", k=2, candidates=7, mfcs_size=3)
    tracer.close()
    return str(path)


class TestPerfetto:
    def test_spans_become_complete_events(self, tmp_path):
        doc = trace_to_perfetto(load_trace_events(_recorded_trace(tmp_path)))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "export-test"
        spans = [e for e in events if e["ph"] == "X"]
        assert sorted(e["name"] for e in spans) == ["pass", "pass", "run"]
        for event in spans:
            assert event["ts"] >= 0.0  # relative to the trace origin
            assert event["dur"] >= 0.0
            assert event["pid"] == meta[0]["pid"]

    def test_span_attrs_ride_in_args(self, tmp_path):
        doc = trace_to_perfetto(load_trace_events(_recorded_trace(tmp_path)))
        run = [e for e in doc["traceEvents"] if e.get("name") == "run"][0]
        assert run["args"]["algorithm"] == "pincer"

    def test_progress_events_become_counters(self, tmp_path):
        doc = trace_to_perfetto(load_trace_events(_recorded_trace(tmp_path)))
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert names == {"candidates", "mfcs_size"}
        by_name = {e["name"]: e for e in counters}
        assert by_name["candidates"]["args"] == {"candidates": 7}

    def test_truncated_marker_becomes_instant(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(str(path), max_events=2)
        for k in range(5):
            with tracer.span("pass", k=k):
                pass
        tracer.close()
        doc = trace_to_perfetto(load_trace_events(str(path)))
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert "dropped" in instants[0]["name"]

    def test_document_is_json_serialisable(self, tmp_path):
        doc = trace_to_perfetto(load_trace_events(_recorded_trace(tmp_path)))
        round_tripped = json.loads(json.dumps(doc))
        assert round_tripped["displayTimeUnit"] == "ms"


class TestPrometheus:
    def _document(self):
        registry = MetricsRegistry()
        registry.counter("miner.runs").inc(3)
        registry.gauge("mfcs.size").set(41)
        hist = registry.histogram("engine.batch_size")
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        return registry.to_dict()

    def test_counter_gauge_summary_rendering(self):
        text = metrics_to_prometheus(self._document())
        assert "# TYPE repro_miner_runs_total counter" in text
        assert "repro_miner_runs_total 3" in text
        assert "repro_mfcs_size 41" in text
        assert "repro_engine_batch_size_count 3" in text
        assert "repro_engine_batch_size_sum 12" in text
        assert "repro_engine_batch_size_min 2" in text
        assert "repro_engine_batch_size_max 6" in text
        assert "repro_engine_batch_size_stddev" in text
        assert text.endswith("\n")

    def test_names_are_sanitised(self):
        text = metrics_to_prometheus(
            {"counters": {"weird-name.with:chars": 1}, "gauges": {}, "histograms": {}}
        )
        assert "repro_weird_name_with_chars_total 1" in text

    def test_prefix_override(self):
        text = metrics_to_prometheus(
            {"counters": {"x": 1}, "gauges": {}, "histograms": {}},
            prefix="pincer_",
        )
        assert "pincer_x_total 1" in text


class TestExportCli:
    def test_perfetto_roundtrip_via_cli(self, tmp_path, capsys):
        trace = _recorded_trace(tmp_path)
        out = tmp_path / "perf.json"
        rc = export_main([trace, "--format", "perfetto", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_prometheus_to_stdout(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        metrics = tmp_path / "metrics.json"
        registry.write(str(metrics))
        rc = export_main([str(metrics), "--format", "prometheus"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "repro_runs_total 1" in captured.out

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = export_main(
            [str(tmp_path / "nope.jsonl"), "--format", "perfetto"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "export failed" in captured.err
