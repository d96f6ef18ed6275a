"""Tests for the run telemetry that rides beside the trace.

Histogram percentiles, the thread-safe metrics registry, the progress
reporter's event cap, the Prometheus percentile gauges, and the no-op
bundle :func:`~repro.obs.instrument.capture` returns when nothing is
asked for.
"""

import threading

import pytest

from repro.obs.instrument import capture
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


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
