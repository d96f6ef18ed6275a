"""Tests for the live telemetry plane (``repro.obs.telemetry`` + ``top``)."""

import json
import struct
import threading

import pytest

from repro.obs.instrument import Instrumentation, capture
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_trace_event
from repro.obs.telemetry import (
    COORDINATOR_SLOT,
    FORMAT_VERSION,
    HEADER_SIZE,
    SLOT_SIZE,
    STATE_COUNTING,
    STATE_IDLE,
    STATE_NAMES,
    HeartbeatRecord,
    TelemetryCollector,
    TelemetryConfig,
    TelemetryReader,
    TelemetrySegment,
    TelemetryWriter,
    _SEQ,
    _slot_offset,
)
from repro.obs.top import TopConsole, format_frame
from repro.obs.top import main as top_main
from repro.obs.tracing import Tracer

PLANES = ("shm", "file")


def _plane_available(plane):
    if plane != "shm":
        return True
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover
        return False
    return True


@pytest.fixture(params=PLANES)
def plane(request):
    if not _plane_available(request.param):
        pytest.skip("multiprocessing.shared_memory unavailable")
    return request.param


class TestSegment:
    def test_round_trip_one_slot(self, plane):
        with TelemetrySegment(2, plane=plane) as segment:
            writer = segment.writer(1)
            writer.beat(
                state=STATE_COUNTING,
                pass_no=3,
                candidates_done=40,
                candidates_total=100,
            )
            record = segment.reader().read(1)
            assert record is not None
            assert record.state == STATE_COUNTING
            assert record.state_name == "counting"
            assert record.pass_no == 3
            assert record.candidates_done == 40
            assert record.candidates_total == 100
            assert record.heartbeats == 1
            assert record.mono_ts > 0.0
            assert record.rss_kb > 0

    def test_unwritten_slot_reads_none(self, plane):
        with TelemetrySegment(3, plane=plane) as segment:
            reader = segment.reader()
            assert reader.read(2) is None
            assert reader.workers() == [None, None, None]

    def test_advance_accumulates_until_beat(self, plane):
        with TelemetrySegment(1, plane=plane) as segment:
            writer = segment.writer(1)
            writer.advance(candidates_done=10)
            writer.advance(candidates_done=10)
            assert segment.reader().read(1) is None  # nothing published yet
            writer.beat(state=STATE_IDLE)
            record = segment.reader().read(1)
            assert record.candidates_done == 20

    def test_torn_write_reads_none(self, plane):
        with TelemetrySegment(1, plane=plane) as segment:
            writer = segment.writer(1)
            writer.beat(state=STATE_IDLE)
            # fake a writer dying mid-publish: odd sequence number
            _SEQ.pack_into(segment._buf, _slot_offset(1), 7)
            assert segment.reader().read(1) is None

    def test_worker_spec_attach_and_publish(self, plane):
        with TelemetrySegment(2, plane=plane) as segment:
            spec = segment.worker_spec(0)
            assert spec["slot"] == 1
            writer = TelemetryWriter.attach(spec)
            assert writer is not None
            writer.beat(state=STATE_COUNTING, candidates_done=7)
            record = segment.reader().read(1)
            assert record.state_name == "counting"
            assert record.candidates_done == 7
            writer.close()

    def test_attach_bad_spec_returns_none(self):
        assert TelemetryWriter.attach(None) is None
        assert TelemetryWriter.attach({}) is None
        assert (
            TelemetryWriter.attach(
                {"name": "no-such-segment-xyz", "plane": "file", "slot": 1}
            )
            is None
        )

    def test_external_reader_attach_by_name(self, plane):
        with TelemetrySegment(1, name="t-attach-%s" % plane, plane=plane) as segment:
            segment.writer(1).beat(state=STATE_COUNTING)
            reader = TelemetryReader.attach(segment.name, plane=plane)
            try:
                assert reader.num_slots == 2
                assert reader.read(1).state == STATE_COUNTING
            finally:
                reader.close()

    def test_reader_attach_missing_raises(self):
        with pytest.raises((FileNotFoundError, OSError)):
            TelemetryReader.attach("definitely-not-there", plane="file")

    def test_reader_rejects_corrupt_magic(self, plane):
        with TelemetrySegment(1, name="t-magic-%s" % plane, plane=plane) as segment:
            struct.pack_into("<8s", segment._buf, 0, b"NOTMAGIC")
            with pytest.raises(ValueError):
                TelemetryReader.attach(segment.name, plane=plane)

    def test_close_is_idempotent_and_unlinks(self, plane):
        segment = TelemetrySegment(2, name="t-close-%s" % plane, plane=plane)
        name = segment.name
        segment.close()
        segment.close()
        with pytest.raises((FileNotFoundError, OSError)):
            TelemetryReader.attach(name, plane=plane)

    def test_stale_shm_name_is_reclaimed(self):
        if not _plane_available("shm"):
            pytest.skip("multiprocessing.shared_memory unavailable")
        first = TelemetrySegment(1, name="t-stale", plane="shm")
        # simulate a crashed run: mapping alive, never closed/unlinked
        second = TelemetrySegment(3, name="t-stale", plane="shm")
        try:
            assert second.num_slots == 4
        finally:
            second.close()
            first.close()  # tolerates the reclaim having unlinked it

    def test_slot_geometry(self, plane):
        with TelemetrySegment(3, plane=plane) as segment:
            assert segment.num_slots == 4  # coordinator + 3 workers
            assert _slot_offset(0) == HEADER_SIZE
            assert _slot_offset(2) == HEADER_SIZE + 2 * SLOT_SIZE
            assert FORMAT_VERSION == 2
            assert SLOT_SIZE == 128

    def test_state_names_cover_all_states(self):
        assert set(STATE_NAMES.values()) == {
            "idle", "counting", "done", "dead",
        }


class TestConfig:
    def test_from_option_none_and_false(self):
        assert TelemetryConfig.from_option(None) is None
        assert TelemetryConfig.from_option(False) is None

    def test_from_option_true_and_auto(self):
        assert TelemetryConfig.from_option(True).name is None
        assert TelemetryConfig.from_option("auto").name is None

    def test_from_option_name_and_passthrough(self):
        config = TelemetryConfig.from_option("myrun")
        assert config.name == "myrun"
        assert TelemetryConfig.from_option(config) is config

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(stall_factor=0)
        with pytest.raises(ValueError):
            TelemetryConfig(min_stall_seconds=-1)


class TestCollector:
    def test_rates_and_trace_event(self, tmp_path, plane):
        trace_path = str(tmp_path / "trace.jsonl")
        tracer = Tracer.to_path(trace_path)
        obs = Instrumentation(tracer=tracer, metrics=MetricsRegistry())
        with TelemetrySegment(1, plane=plane) as segment:
            writer = segment.writer(1)
            collector = TelemetryCollector(
                segment.reader(), obs=obs, interval=0.0
            )
            writer.beat(state=STATE_COUNTING, candidates_done=0)
            first = collector.poll(force=True)
            assert first["workers"] == 1
            assert first["workers_active"] == 1
            writer.advance(candidates_done=500)
            writer.beat()
            summary = collector.poll(force=True)
            assert summary["candidates_per_s"] > 0
            assert collector.last_summary is summary
        metrics = obs.metrics.to_dict()
        assert metrics["gauges"]["telemetry.workers_active"] == 1
        assert metrics["gauges"]["telemetry.candidates_per_s"] > 0
        tracer.close()
        events = [
            json.loads(line)
            for line in open(trace_path, encoding="utf-8")
        ]
        telemetry_events = [e for e in events if e["type"] == "telemetry"]
        assert len(telemetry_events) == 2
        for event in telemetry_events:
            validate_trace_event(event)

    def test_poll_is_throttled(self, plane):
        with TelemetrySegment(1, plane=plane) as segment:
            collector = TelemetryCollector(segment.reader(), interval=60.0)
            assert collector.poll() is not None
            assert collector.poll() is None  # within the interval
            assert collector.poll(force=True) is not None


class TestCaptureWiring:
    def test_capture_without_telemetry_is_noop(self):
        from repro.obs.instrument import NOOP

        assert capture() is NOOP

    def test_capture_with_telemetry_enables(self):
        obs = capture(telemetry="wired")
        assert obs.enabled
        assert obs.telemetry.name == "wired"
        obs.finish()

    def test_capture_bool_telemetry(self):
        obs = capture(telemetry=True)
        assert obs.telemetry is not None and obs.telemetry.name is None
        obs.finish()


class TestTopConsole:
    def test_render_live_segment(self, plane):
        with TelemetrySegment(2, name="t-top-%s" % plane, plane=plane) as segment:
            segment.writer(COORDINATOR_SLOT).beat(
                state=STATE_COUNTING, pass_no=2, candidates_total=100, bound=4000
            )
            w0 = segment.writer(1)
            w0.beat(state=STATE_COUNTING, candidates_done=0)
            console = TopConsole(segment.reader())
            console.sample()
            w0.advance(candidates_done=50)
            w0.beat()
            frame = console.render(segment.name)
            assert "pass 2" in frame
            assert "w0" in frame and "counting" in frame
            assert "(no heartbeat)" in frame  # worker 1 never published
            assert "bound 4000" in frame  # rate > 0 => ETA line present

    def test_format_frame_without_coordinator(self):
        frame = format_frame(
            "nameless",
            {"now": 0.0, "coordinator": None, "workers": [None], "rates": [0.0]},
        )
        assert "no heartbeat" in frame

    def test_main_one_frame(self, capsys, plane):
        with TelemetrySegment(1, name="t-main-%s" % plane, plane=plane) as segment:
            segment.writer(1).beat(state=STATE_IDLE, candidates_done=3)
            rc = top_main([segment.name, "--frames", "1", "--no-ansi"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "pincer top" in out
            assert segment.name in out

    def test_main_missing_segment(self, capsys):
        rc = top_main(["absent-segment", "--frames", "1", "--plane", "file"])
        assert rc == 1
        assert "cannot attach" in capsys.readouterr().err


class TestHeartbeatRecord:
    def test_to_dict_and_age(self, plane):
        with TelemetrySegment(1, plane=plane) as segment:
            segment.writer(1).beat(state=STATE_IDLE, candidates_done=9)
            record = segment.reader().read(1)
            as_dict = record.to_dict()
            assert as_dict["candidates_done"] == 9
            assert as_dict["state_name"] == "idle"
            assert record.age(record.mono_ts + 1.5) == pytest.approx(1.5)

    def test_record_is_a_plain_value(self):
        record = HeartbeatRecord(1, 2, (0,) * 12)
        assert record.slot == 1 and record.seq == 2


class TestSatellites:
    """Units for the smaller issue items that ride along this plane."""

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

    def test_perfetto_converts_telemetry_and_stalls(self):
        from repro.obs.export import trace_to_perfetto

        events = [
            {"v": 3, "type": "meta", "pid": 9, "producer": "t"},
            {
                "v": 3, "type": "telemetry", "ts": 10.0, "workers": 2,
                "workers_active": 2, "candidates_per_s": 123.0,
            },
            {
                "v": 3, "type": "shard_stalled", "ts": 11.0, "shard": 1,
                "kind": "wedged", "age_s": 2.5, "threshold_s": 1.0, "pid": 4242,
            },
        ]
        for event in events[1:]:
            validate_trace_event(event)
        document = trace_to_perfetto(events)
        names = [e["name"] for e in document["traceEvents"]]
        assert "candidates_per_s" in names
        assert "workers_active" in names
        stall = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert len(stall) == 1
        assert "wedged" in stall[0]["name"]
        assert stall[0]["args"]["shard"] == 1
