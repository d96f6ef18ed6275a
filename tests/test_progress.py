"""Tests for the heartbeat progress reporter (``repro.obs.progress``)."""

import io
import json

from repro.obs.progress import NOOP_PROGRESS, ProgressReporter
from repro.obs.schema import validate_trace_event, validate_trace_file
from repro.obs.tracing import Tracer


class TestNoopProgress:
    def test_disabled_and_free(self):
        assert NOOP_PROGRESS.enabled is False
        NOOP_PROGRESS.start_run(algorithm="x")
        NOOP_PROGRESS.on_pass(k=1, candidates=2)
        NOOP_PROGRESS.on_abandon(k=1)
        NOOP_PROGRESS.on_finish()


class TestProgressReporter:
    def test_events_validate_against_schema(self):
        reporter = ProgressReporter(stream=None)
        reporter.start_run(
            algorithm="pincer", num_transactions=100, min_support_count=5
        )
        reporter.on_pass(
            k=1, candidates=10, mfcs_size=1, candidate_bound=45, mfs_size=0
        )
        reporter.on_abandon(k=2, reason="frequent-ratio")
        reporter.on_finish(mfs_size=7, passes=3, seconds=0.5)
        assert [e["phase"] for e in reporter.events] == [
            "start", "pass", "abandon", "finish",
        ]
        for event in reporter.events:
            assert event["type"] == "progress"
            validate_trace_event(event)

    def test_eta_is_bound_over_rate(self):
        reporter = ProgressReporter(stream=None)
        reporter.start_run(algorithm="pincer")
        reporter._started -= 2.0  # pretend 2 seconds elapsed
        reporter.on_pass(k=1, candidates=100, mfcs_size=0, candidate_bound=50)
        event = reporter.events[-1]
        rate = event["rate_per_s"]
        assert rate > 0
        # bound / (candidates per second) within rounding
        assert abs(event["eta_next_pass_s"] - 50 / rate) < 0.1
        assert event["candidates_total"] == 100

    def test_candidates_accumulate_across_passes(self):
        reporter = ProgressReporter(stream=None)
        reporter.on_pass(k=1, candidates=10, mfcs_size=0, candidate_bound=0)
        reporter.on_pass(k=2, candidates=5, mfcs_size=0, candidate_bound=0)
        assert reporter.events[-1]["candidates_total"] == 15

    def test_human_lines_go_to_stream(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.start_run(algorithm="pincer", num_transactions=10)
        reporter.on_pass(k=1, candidates=3, mfcs_size=2, candidate_bound=1)
        reporter.on_finish(mfs_size=1, passes=1, seconds=0.1)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("[pincer] mining 10 transactions")
        assert "|MFCS|=2" in lines[1]
        assert "done: |MFS|=1" in lines[2]

    def test_sweep_phase_in_line_and_event(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.on_pass(
            k=4, candidates=2, mfcs_size=0, candidate_bound=3, phase="sweep"
        )
        assert reporter.events[-1]["phase"] == "sweep"
        assert "sweep 4" in stream.getvalue()

    def test_events_sink_receives_jsonl(self):
        sink = io.StringIO()
        reporter = ProgressReporter(stream=None, events_sink=sink)
        reporter.on_pass(k=1, candidates=1, mfcs_size=0, candidate_bound=0)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(lines) == 1
        assert lines[0]["type"] == "progress"
        validate_trace_event(lines[0])

    def test_tracer_mirror_lands_in_valid_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(str(path))
        reporter = ProgressReporter(stream=None, tracer=tracer)
        with tracer.span("run"):
            reporter.on_pass(k=1, candidates=4, mfcs_size=1, candidate_bound=6)
        tracer.close()
        validate_trace_file(str(path))
        events = [json.loads(line) for line in path.read_text().splitlines()]
        progress = [e for e in events if e["type"] == "progress"]
        assert len(progress) == 1
        assert progress[0]["candidates"] == 4

    def test_abandon_carries_reason(self):
        reporter = ProgressReporter(stream=None)
        reporter.on_abandon(k=3, reason="mfcs-update-cap")
        event = reporter.events[-1]
        assert event["phase"] == "abandon"
        assert event["reason"] == "mfcs-update-cap"

    def test_zero_elapsed_does_not_divide_by_zero(self):
        reporter = ProgressReporter(stream=None)
        reporter._started = float("inf")  # elapsed <= 0
        reporter.on_pass(k=1, candidates=5, mfcs_size=0, candidate_bound=10)
        assert reporter.events[-1]["eta_next_pass_s"] == 0.0
