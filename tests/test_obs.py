"""Unit tests for the observability subsystem (``repro.obs``)."""

import io
import json
import logging
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.obs import (
    Instrumentation,
    NOOP,
    SCHEMA_VERSION,
    SchemaError,
    capture,
    configure_logging,
    get_logger,
    validate_metrics_document,
    validate_metrics_file,
    validate_trace_event,
    validate_trace_file,
    validate_trace_lines,
)
from repro.obs.logsetup import resolve_level
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NullRegistry,
)
from repro.obs.tracing import NOOP_SPAN, NOOP_TRACER, Tracer


def trace_events(sink):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestTracer:
    def test_meta_header_is_first_event(self):
        sink = io.StringIO()
        Tracer(sink, producer="unit-test")
        events = trace_events(sink)
        assert events[0]["type"] == "meta"
        assert events[0]["v"] == SCHEMA_VERSION
        assert events[0]["producer"] == "unit-test"

    def test_spans_emit_on_close_children_first(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.span("run"):
            with tracer.span("pass", k=1):
                pass
        events = trace_events(sink)
        names = [e["name"] for e in events if e["type"] == "span"]
        assert names == ["pass", "run"]

    def test_parent_inferred_from_nesting(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.span("run"):
            with tracer.span("pass"):
                with tracer.span("count"):
                    pass
            with tracer.span("pass"):
                pass
        spans = {e["name"]: e for e in trace_events(sink) if e["type"] == "span"}
        by_id = {
            e["span"]: e for e in trace_events(sink) if e["type"] == "span"
        }
        assert spans["run"]["parent"] is None
        assert by_id[spans["count"]["parent"]]["name"] == "pass"
        for event in trace_events(sink):
            if event["type"] == "span" and event["name"] == "pass":
                assert event["parent"] == spans["run"]["span"]

    def test_span_ids_unique_and_positive(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        for _ in range(3):
            with tracer.span("pass"):
                pass
        ids = [e["span"] for e in trace_events(sink) if e["type"] == "span"]
        assert len(set(ids)) == 3
        assert all(span_id > 0 for span_id in ids)

    def test_set_attaches_attrs(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.span("pass", k=2) as span:
            span.set(candidates=17, done=True)
        (event,) = [e for e in trace_events(sink) if e["type"] == "span"]
        assert event["attrs"] == {"k": 2, "candidates": 17, "done": True}
        assert event["dur"] >= 0

    def test_exception_marks_error_attr(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                raise RuntimeError("boom")
        (event,) = [e for e in trace_events(sink) if e["type"] == "span"]
        assert event["attrs"]["error"] == "RuntimeError"

    def test_exotic_attr_values_become_repr(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.span("run", payload=(1, 2)):
            pass
        (event,) = [e for e in trace_events(sink) if e["type"] == "span"]
        assert event["attrs"]["payload"] == "(1, 2)"

    def test_events_emitted_counts_meta_and_spans(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.span("run"):
            pass
        assert tracer.events_emitted == 2

    def test_to_path_writes_valid_trace(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        tracer = Tracer.to_path(path)
        with tracer.span("run"):
            pass
        tracer.close()
        assert validate_trace_file(path) == 2

    def test_noop_tracer_returns_shared_span(self):
        span = NOOP_TRACER.span("run", k=1)
        assert span is NOOP_SPAN
        assert span.set(x=1) is NOOP_SPAN
        with span:
            pass
        assert not NOOP_TRACER.enabled
        NOOP_TRACER.close()


class TestTracerBind:
    def test_bound_attrs_stamp_every_span(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.bind(request_id="req-1"):
            with tracer.span("run"):
                with tracer.span("pass", k=1):
                    pass
        spans = [e for e in trace_events(sink) if e["type"] == "span"]
        assert len(spans) == 2
        assert all(e["attrs"]["request_id"] == "req-1" for e in spans)

    def test_binding_restores_on_exit(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.bind(request_id="req-1"):
            pass
        with tracer.span("run"):
            pass
        (event,) = [e for e in trace_events(sink) if e["type"] == "span"]
        assert "request_id" not in event.get("attrs", {})

    def test_explicit_attrs_win_over_ambient(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.bind(k=9):
            with tracer.span("pass", k=1):
                pass
        (event,) = [e for e in trace_events(sink) if e["type"] == "span"]
        assert event["attrs"]["k"] == 1

    def test_sink_collects_closed_span_events(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        collected = []
        with tracer.bind(sink=collected, request_id="req-1"):
            with tracer.span("run"):
                pass
        assert [e["name"] for e in collected] == ["run"]
        assert collected[0]["attrs"]["request_id"] == "req-1"

    def test_none_valued_attrs_are_dropped(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.bind(request_id=None):
            with tracer.span("run"):
                pass
        (event,) = [e for e in trace_events(sink) if e["type"] == "span"]
        assert "request_id" not in event.get("attrs", {})

    def test_bindings_nest_and_restore(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        with tracer.bind(a=1):
            with tracer.bind(b=2):
                with tracer.span("inner"):
                    pass
            with tracer.span("outer"):
                pass
        spans = {
            e["name"]: e for e in trace_events(sink) if e["type"] == "span"
        }
        assert spans["inner"]["attrs"] == {"a": 1, "b": 2}
        assert spans["outer"]["attrs"] == {"a": 1}

    def test_noop_tracer_bind_is_inert(self):
        with NOOP_TRACER.bind(request_id="x"):
            pass


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_keeps_last_value(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (4.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.total == 8.0
        assert histogram.mean == pytest.approx(8.0 / 3)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_registry_instruments_are_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_to_dict_is_schema_valid(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1)
        document = registry.to_dict()
        validate_metrics_document(document)
        assert document["counters"] == {"c": 1}
        assert document["gauges"] == {"g": 2.5}
        assert document["histograms"]["h"]["count"] == 1

    def test_write_round_trips(self, tmp_path):
        path = str(tmp_path / "m.json")
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.write(path)
        validate_metrics_file(path)
        with open(path) as handle:
            assert json.load(handle)["counters"]["c"] == 7

    def test_null_registry_swallows_writes(self):
        registry = NullRegistry()
        instrument = registry.counter("c")
        assert instrument is NULL_INSTRUMENT
        instrument.inc(100)
        instrument.set(5)
        instrument.observe(1.0)
        assert instrument.value == 0
        assert registry.to_dict()["counters"] == {}


class TestInstrumentation:
    def test_capture_without_paths_is_noop(self):
        assert capture() is NOOP
        assert not NOOP.enabled
        assert NOOP.span("run") is NOOP_SPAN
        assert NOOP.counter("c") is NULL_INSTRUMENT
        assert NOOP.gauge("g") is NULL_INSTRUMENT
        assert NOOP.histogram("h") is NULL_INSTRUMENT
        NOOP.finish()  # must be a harmless no-op

    def test_capture_with_paths_writes_both_files(self, tmp_path):
        trace_path = str(tmp_path / "run.jsonl")
        metrics_path = str(tmp_path / "m.json")
        obs = capture(trace_path=trace_path, metrics_path=metrics_path)
        assert obs.enabled
        with obs.span("run"):
            obs.counter("miner.runs").inc()
        obs.finish()
        assert validate_trace_file(trace_path) == 2
        validate_metrics_file(metrics_path)

    def test_capture_metrics_only_uses_noop_tracer(self, tmp_path):
        obs = capture(metrics_path=str(tmp_path / "m.json"))
        assert obs.enabled
        assert obs.span("run") is NOOP_SPAN
        obs.finish()
        validate_metrics_file(str(tmp_path / "m.json"))

    def test_context_manager_finishes(self, tmp_path):
        metrics_path = str(tmp_path / "m.json")
        with capture(metrics_path=metrics_path) as obs:
            obs.counter("c").inc()
        validate_metrics_file(metrics_path)

    def test_default_construction_has_null_sinks(self):
        obs = Instrumentation()
        assert obs.tracer is NOOP_TRACER
        obs.counter("c").inc()
        assert obs.metrics.to_dict()["counters"] == {"c": 1}
        obs.finish()  # no metrics_path: nothing written, nothing raised


class TestSchemaValidators:
    def test_valid_span_event_passes(self):
        validate_trace_event(
            {
                "v": SCHEMA_VERSION,
                "type": "span",
                "span": 1,
                "parent": None,
                "name": "run",
                "ts": 0.0,
                "dur": 0.1,
                "attrs": {"k": 1, "label": "x", "f": 0.5, "b": True, "n": None},
            }
        )

    @pytest.mark.parametrize(
        "mutation",
        [
            {"v": 99},
            {"type": "event"},
            {"span": 0},
            {"span": "one"},
            {"parent": -3},
            {"name": ""},
            {"dur": -1.0},
            {"attrs": {"bad": [1, 2]}},
        ],
    )
    def test_bad_span_event_rejected(self, mutation):
        event = {
            "v": SCHEMA_VERSION,
            "type": "span",
            "span": 1,
            "parent": None,
            "name": "run",
            "ts": 0.0,
            "dur": 0.0,
            "attrs": {},
        }
        event.update(mutation)
        with pytest.raises(SchemaError):
            validate_trace_event(event)

    def test_meta_event_requires_pid_and_producer(self):
        with pytest.raises(SchemaError):
            validate_trace_event(
                {"v": SCHEMA_VERSION, "type": "meta", "ts": 0.0, "pid": "x",
                 "producer": "p"}
            )

    def test_trace_lines_require_meta_first(self):
        span_line = json.dumps(
            {"v": SCHEMA_VERSION, "type": "span", "span": 1, "parent": None,
             "name": "run", "ts": 0.0, "dur": 0.0, "attrs": {}}
        )
        with pytest.raises(SchemaError, match="meta header"):
            validate_trace_lines([span_line])

    def test_trace_lines_reject_non_json(self):
        with pytest.raises(SchemaError, match="line 1"):
            validate_trace_lines(["not json"])

    def test_metrics_document_rejects_float_counter(self):
        with pytest.raises(SchemaError):
            validate_metrics_document(
                {"v": SCHEMA_VERSION, "type": "metrics",
                 "counters": {"c": 1.5}, "gauges": {}, "histograms": {}}
            )

    def test_schema_cli_validates_files(self, tmp_path, capsys):
        from repro.obs.schema import main as schema_main

        trace_path = str(tmp_path / "run.jsonl")
        tracer = Tracer.to_path(trace_path)
        with tracer.span("run"):
            pass
        tracer.close()
        metrics_path = str(tmp_path / "m.json")
        MetricsRegistry().write(metrics_path)
        assert schema_main([trace_path, "--metrics", metrics_path]) == 0
        assert "events ok" in capsys.readouterr().out

    def test_obs_validate_runs_clean_from_the_cli_module(self, tmp_path):
        # the entry point CI calls: a valid trace exits 0, is reported on
        # stdout, and leaves stderr empty (no runpy RuntimeWarning)
        trace_path = str(tmp_path / "run.jsonl")
        tracer = Tracer.to_path(trace_path)
        with tracer.span("run"):
            pass
        tracer.close()
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "obs", "validate", trace_path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "events ok" in done.stdout

    @pytest.mark.parametrize("tool", ["export", "report"])
    def test_obs_tool_help_names_its_one_entry_point(self, tool):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "obs", tool, "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout.startswith("usage: pincer obs %s" % tool)

    def test_schema_cli_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1, "type": "span"}\n')
        from repro.obs.schema import main as schema_main

        assert schema_main([str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err


class TestLogging:
    def test_get_logger_roots_names_under_repro(self):
        assert get_logger().name == "repro"
        assert get_logger("core.pincer").name == "repro.core.pincer"
        assert get_logger("repro.core.pincer").name == "repro.core.pincer"

    def test_resolve_level(self):
        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level("INFO") == logging.INFO
        assert resolve_level(logging.WARNING) == logging.WARNING
        with pytest.raises(ValueError):
            resolve_level("chatty")

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        logger = configure_logging("debug", stream=stream)
        before = len(logger.handlers)
        configure_logging("info", stream=stream)
        try:
            assert len(logger.handlers) == before
            assert logger.level == logging.INFO
        finally:
            configure_logging(logging.WARNING, stream=io.StringIO())

    def test_configured_stream_receives_records(self):
        stream = io.StringIO()
        configure_logging("debug", stream=stream)
        try:
            get_logger("tests.obs").debug("pass %d complete", 3)
            assert "repro.tests.obs: pass 3 complete" in stream.getvalue()
        finally:
            configure_logging(logging.WARNING, stream=io.StringIO())


class TestHistogramSpread:
    def test_stddev_matches_population_formula(self):
        histogram = Histogram()
        for value in (2.0, 4.0, 6.0):
            histogram.observe(value)
        assert histogram.sumsq == pytest.approx(56.0)
        # population stddev of {2,4,6} is sqrt(8/3)
        assert histogram.stddev == pytest.approx((8.0 / 3) ** 0.5)

    def test_empty_and_single_observation_stddev_is_zero(self):
        histogram = Histogram()
        assert histogram.stddev == 0.0
        histogram.observe(5.0)
        assert histogram.stddev == 0.0

    def test_to_dict_carries_sumsq_and_stddev(self):
        histogram = Histogram()
        histogram.observe(3.0)
        cells = histogram.to_dict()
        assert cells["sumsq"] == 9.0
        assert cells["stddev"] == 0.0
        assert set(cells) == {
            "count", "total", "min", "max", "sumsq", "stddev",
            "p50", "p95", "p99",
        }


class TestSchemaV2Compat:
    def test_v1_metrics_histogram_without_spread_rejected(self):
        document = {
            "v": 1,
            "type": "metrics",
            "counters": {},
            "gauges": {},
            "histograms": {
                "engine.batch": {"count": 1, "total": 2.0, "min": 2.0, "max": 2.0}
            },
        }
        with pytest.raises(SchemaError, match="schema version 1"):
            validate_metrics_document(document)
        # the current version demands the spread summary too
        document["v"] = SCHEMA_VERSION
        with pytest.raises(SchemaError, match="sumsq"):
            validate_metrics_document(document)

    def test_v2_metrics_histogram_requires_spread(self):
        document = {
            "v": SCHEMA_VERSION,
            "type": "metrics",
            "counters": {},
            "gauges": {},
            "histograms": {
                "engine.batch": {"count": 1, "total": 2.0, "min": 2.0, "max": 2.0}
            },
        }
        with pytest.raises(SchemaError):
            validate_metrics_document(document)
        document["histograms"]["engine.batch"].update(sumsq=4.0, stddev=0.0)
        validate_metrics_document(document)

    def test_v1_trace_events_rejected(self):
        event = {"v": 1, "type": "span", "name": "pass", "span": 1,
                 "ts": 1.0, "dur": 0.5}
        with pytest.raises(SchemaError, match="schema version 1"):
            validate_trace_event(event)
        validate_trace_event(dict(event, v=SCHEMA_VERSION))

    def test_retired_telemetry_event_rejected(self):
        with pytest.raises(SchemaError, match="event type"):
            validate_trace_event(
                {"v": SCHEMA_VERSION, "type": "telemetry", "ts": 1.0,
                 "workers": 2}
            )

    def test_progress_event_requires_phase_and_scalars(self):
        validate_trace_event(
            {"v": SCHEMA_VERSION, "type": "progress", "ts": 1.0,
             "phase": "pass", "k": 1, "candidates": 5}
        )
        with pytest.raises(SchemaError):
            validate_trace_event(
                {"v": SCHEMA_VERSION, "type": "progress", "ts": 1.0,
                 "phase": ""}
            )
        with pytest.raises(SchemaError):
            validate_trace_event(
                {"v": SCHEMA_VERSION, "type": "progress", "ts": 1.0,
                 "phase": "pass", "bad": [1, 2]}
            )

    def test_truncated_event_requires_positive_dropped(self):
        validate_trace_event(
            {"v": SCHEMA_VERSION, "type": "truncated", "ts": 1.0,
             "dropped": 3, "max_events": 10}
        )
        with pytest.raises(SchemaError):
            validate_trace_event(
                {"v": SCHEMA_VERSION, "type": "truncated", "ts": 1.0,
                 "dropped": 0}
            )


class TestTraceCap:
    def test_cap_drops_and_marks_truncation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(str(path), max_events=3)
        for k in range(6):
            with tracer.span("pass", k=k):
                pass
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[-1]["type"] == "truncated"
        assert events[-1]["dropped"] == 4  # 1 meta + 6 spans - 3 kept
        assert events[-1]["max_events"] == 3
        emitted = [e for e in events if e["type"] != "truncated"]
        assert len(emitted) == 3
        validate_trace_lines(path.read_text().splitlines())

    def test_no_marker_when_under_cap(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(str(path), max_events=100)
        with tracer.span("run"):
            pass
        tracer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(e["type"] != "truncated" for e in events)

    def test_cap_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            Tracer.to_path(str(tmp_path / "t.jsonl"), max_events=0)


class TestCaptureProfileAndProgress:
    def test_profile_requires_trace_path(self, tmp_path):
        with pytest.raises(ValueError):
            capture(profile=True)
        with pytest.raises(ValueError):
            capture(metrics_path=str(tmp_path / "m.json"), profile=True)

    def test_profile_attaches_cpu_and_memory_attrs(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs = capture(trace_path=str(path), profile=True)
        with obs.span("run"):
            with obs.span("pass", k=1):
                blob = bytearray(64 * 1024)
                del blob
        obs.finish()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [e for e in events if e["type"] == "span"]
        assert spans
        for event in spans:
            assert "cpu_s" in event["attrs"]
            assert "mem_peak_kb" in event["attrs"]
        validate_trace_lines(path.read_text().splitlines())

    def test_progress_true_builds_reporter_and_enables_capture(self):
        import repro.obs.progress as progress_module

        obs = capture(progress=True)
        try:
            assert obs.enabled
            assert isinstance(obs.progress, progress_module.ProgressReporter)
        finally:
            obs.finish()

    def test_progress_reporter_mirrors_into_trace(self, tmp_path):
        from repro.obs.progress import ProgressReporter

        path = tmp_path / "trace.jsonl"
        reporter = ProgressReporter(stream=None)
        obs = capture(trace_path=str(path), progress=reporter)
        with obs.span("run"):
            obs.progress.on_pass(
                k=1, candidates=3, mfcs_size=1, candidate_bound=2
            )
        obs.finish()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(e["type"] == "progress" for e in events)


class TestCaptureWiring:
    def test_capture_without_telemetry_is_noop(self):
        from repro.obs.instrument import NOOP

        assert capture() is NOOP


class TestSatellites:
    """Percentiles, registry locking, the progress cap and exposition."""

    def test_histogram_percentile_nearest_rank(self):
        histogram = MetricsRegistry().histogram("t")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert histogram.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert histogram.percentile(99) == pytest.approx(99.0, abs=1.0)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0

    def test_histogram_percentile_empty_and_range(self):
        histogram = MetricsRegistry().histogram("t")
        assert histogram.percentile(50) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_histogram_to_dict_percentile_keys(self):
        histogram = MetricsRegistry().histogram("t")
        histogram.observe(2.0)
        cells = histogram.to_dict()
        assert cells["p50"] == 2.0 and cells["p95"] == 2.0 and cells["p99"] == 2.0

    def test_registry_is_thread_safe_under_contention(self):
        registry = MetricsRegistry()
        errors = []

        def hammer(_):
            try:
                for index in range(300):
                    registry.counter("shared.counter").inc()
                    registry.gauge("gauge.%d" % (index % 7)).set(index)
                    registry.histogram("shared.histogram").observe(index)
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        document = registry.to_dict()
        assert document["counters"]["shared.counter"] == 8 * 300
        assert document["histograms"]["shared.histogram"]["count"] == 8 * 300

    def test_progress_drop_cap_counts_dropped_events(self):
        from repro.obs.progress import ProgressReporter

        registry = MetricsRegistry()
        tracer = Tracer.to_path("/dev/null", max_events=3)
        reporter = ProgressReporter(
            stream=None, tracer=tracer, metrics=registry
        )
        for pass_number in range(10):
            reporter.on_pass(
                pass_number, candidates=5, mfcs_size=1, candidate_bound=10
            )
        tracer.close()
        dropped = registry.to_dict()["counters"].get("progress.dropped_events", 0)
        assert dropped > 0

    def test_prometheus_exposition_has_percentile_gauges(self):
        from repro.obs.export import metrics_to_prometheus

        registry = MetricsRegistry()
        histogram = registry.histogram("pass.seconds")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        rendered = metrics_to_prometheus(registry.to_dict())
        for key in ("p50", "p95", "p99"):
            assert "repro_pass_seconds_%s" % key in rendered
