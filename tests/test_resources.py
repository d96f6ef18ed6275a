"""Tests for per-span resource attribution (``repro.obs.resources``)."""

import sys
import threading
import time
import tracemalloc

import pytest

from repro.obs.resources import (
    SamplingProfiler,
    SpanProfiler,
    fold_stack,
)


class TestSpanProfiler:
    def test_cpu_attribution_is_positive_and_ordered(self):
        profiler = SpanProfiler(trace_memory=False)
        outer = profiler.begin()
        inner = profiler.begin()
        acc = 0
        for i in range(300_000):
            acc += i
        inner_attrs = profiler.end(inner)
        outer_attrs = profiler.end(outer)
        assert inner_attrs["cpu_s"] >= 0.0
        # the outer frame contains the inner one, so it can't cost less
        assert outer_attrs["cpu_s"] >= inner_attrs["cpu_s"]
        assert "mem_peak_kb" not in inner_attrs

    def test_memory_attribution_sees_allocation(self):
        profiler = SpanProfiler().install()
        try:
            frame = profiler.begin()
            blob = bytearray(512 * 1024)  # ~512 kB held across end()
            attrs = profiler.end(frame)
            assert attrs["mem_peak_kb"] >= 400.0
            del blob
        finally:
            profiler.uninstall()

    def test_parent_peak_covers_child_peak(self):
        profiler = SpanProfiler().install()
        try:
            parent = profiler.begin()
            child = profiler.begin()
            blob = bytearray(512 * 1024)
            child_attrs = profiler.end(child)
            del blob
            parent_attrs = profiler.end(parent)
            # the child's absolute peak is propagated upward, so the
            # parent's window includes the freed allocation
            assert parent_attrs["mem_peak_kb"] >= child_attrs["mem_peak_kb"]
        finally:
            profiler.uninstall()

    def test_out_of_order_close_is_tolerated(self):
        profiler = SpanProfiler(trace_memory=False)
        outer = profiler.begin()
        profiler.begin()  # orphan left open by an unwind
        attrs = profiler.end(outer)
        assert attrs["cpu_s"] >= 0.0
        assert profiler._frames == []

    def test_install_is_idempotent_and_respects_existing_tracing(self):
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        try:
            profiler = SpanProfiler().install()
            # somebody else started tracemalloc: uninstall must not stop it
            profiler.uninstall()
            assert tracemalloc.is_tracing()
        finally:
            if not already:
                tracemalloc.stop()

    def test_memory_inactive_without_install(self):
        profiler = SpanProfiler()
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already tracing in this process")
        frame = profiler.begin()
        attrs = profiler.end(frame)
        assert "mem_peak_kb" not in attrs


class TestFoldStack:
    def test_root_first_semicolon_joined(self):
        frame = sys._getframe()
        folded = fold_stack(frame)
        parts = folded.split(";")
        assert parts  # non-empty
        # the leaf (this function) is last, the root first
        assert parts[-1].endswith(":test_root_first_semicolon_joined")


class TestSamplingProfiler:
    def test_samples_a_busy_thread(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            deadline = time.monotonic() + 0.2
            acc = 0
            while time.monotonic() < deadline:
                acc += 1
        assert profiler.total_samples > 0
        lines = profiler.folded_lines()
        assert lines
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack or ":" in stack

    def test_write_emits_folded_file(self, tmp_path):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            time.sleep(0.05)
        out = tmp_path / "stacks.folded"
        profiler.write(str(out))
        content = out.read_text()
        if profiler.total_samples:
            assert content.strip()

    def test_counts_sorted_hottest_first(self):
        profiler = SamplingProfiler(interval=1.0)
        profiler.samples = {"a;b 1": 0}  # reset below
        profiler.samples = {"cold": 1, "hot": 5, "warm": 3}
        assert profiler.folded_lines() == ["hot 5", "warm 3", "cold 1"]

    def test_rejects_bad_interval_and_double_start(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0)
        profiler = SamplingProfiler(interval=0.01)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_sampling_other_thread(self):
        target_ident = {}
        stop = threading.Event()

        def busy():
            target_ident["id"] = threading.get_ident()
            while not stop.is_set():
                pass

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        while "id" not in target_ident:
            time.sleep(0.001)
        profiler = SamplingProfiler(
            interval=0.001, thread_id=target_ident["id"]
        )
        with profiler:
            time.sleep(0.1)
        stop.set()
        worker.join(timeout=2.0)
        assert profiler.total_samples > 0
        assert any("busy" in line for line in profiler.folded_lines())
