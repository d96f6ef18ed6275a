"""Stall watchdog tests: unit thresholds + wedged/killed worker recovery.

The integration classes wedge (SIGSTOP) or kill (SIGKILL) one shard
worker and assert the pass still completes with counts byte-identical to
an undisturbed serial run, that a schema-v3 ``shard_stalled`` event is
emitted, and that the engine steps its fallback ladder down afterwards.
"""

import json
import os
import signal
import time

import pytest

from repro.db.counting import get_counter
from repro.db.transaction_db import TransactionDatabase
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_trace_event
from repro.obs.telemetry import (
    STATE_COUNTING,
    TelemetryConfig,
    TelemetrySegment,
)
from repro.obs.tracing import Tracer
from repro.obs.watchdog import StallEvent, StallWatchdog

TRANSACTIONS = [[1, 2, 3], [1, 2], [2, 3], [3], [1], [2], [4, 5]] * 60
DB = TransactionDatabase(TRANSACTIONS)
CANDIDATES = [(), (1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3), (4, 5), (9,)]
EXPECTED = get_counter("naive").count(DB, CANDIDATES)

# wide enough that every worker steals several chunks
WIDE = [(i % 6 + 1,) for i in range(600)]
WIDE_EXPECTED = get_counter("naive").count(DB, WIDE)

#: aggressive thresholds so tests finish quickly; the hard override
#: sidesteps the EWMA warm-up entirely
FAST_STALL = dict(stall_after=0.6, poll_interval=0.02)


def _capture(tmp_path, name):
    trace_path = str(tmp_path / ("%s.jsonl" % name))
    tracer = Tracer.to_path(trace_path)
    obs = Instrumentation(tracer=tracer, metrics=MetricsRegistry())
    obs.telemetry = TelemetryConfig(**FAST_STALL)
    return obs, trace_path


def _stall_events(trace_path):
    events = []
    with open(trace_path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("type") == "shard_stalled":
                validate_trace_event(event)
                events.append(event)
    return events


# ----------------------------------------------------------------------
# unit: thresholding and detection logic
# ----------------------------------------------------------------------


class TestWatchdogUnit:
    def _segment(self):
        return TelemetrySegment(2, plane="file")

    def test_wedged_detection_uses_hard_threshold(self):
        with self._segment() as segment:
            writer = segment.writer(1)
            writer.beat(state=STATE_COUNTING)
            watchdog = StallWatchdog(
                segment.reader(), config=TelemetryConfig(stall_after=1.0)
            )
            now = time.monotonic()
            assert watchdog.check({0}, now=now + 0.5) == []
            events = watchdog.check({0}, now=now + 1.5)
            assert len(events) == 1
            assert events[0].kind == "wedged"
            assert events[0].shard == 0
            assert events[0].age_s >= 1.0

    def test_stall_flagged_once(self):
        with self._segment() as segment:
            segment.writer(1).beat(state=STATE_COUNTING)
            watchdog = StallWatchdog(
                segment.reader(), config=TelemetryConfig(stall_after=0.1)
            )
            now = time.monotonic()
            assert len(watchdog.check({0}, now=now + 1.0)) == 1
            assert watchdog.check({0}, now=now + 2.0) == []
            assert len(watchdog.stalled) == 1

    def test_reset_rearms_a_slot(self):
        with self._segment() as segment:
            writer = segment.writer(1)
            writer.beat(state=STATE_COUNTING)
            watchdog = StallWatchdog(
                segment.reader(), config=TelemetryConfig(stall_after=0.1)
            )
            now = time.monotonic()
            assert len(watchdog.check({0}, now=now + 1.0)) == 1
            watchdog.reset(0)
            writer.beat()  # fresh heartbeat after the worker was replaced
            assert watchdog.check({0}, now=time.monotonic()) == []

    def test_dead_worker_flagged_immediately(self):
        with self._segment() as segment:
            segment.writer(1).beat(state=STATE_COUNTING)
            watchdog = StallWatchdog(
                segment.reader(), config=TelemetryConfig(stall_after=60.0)
            )
            events = watchdog.check(
                {0}, alive=lambda shard: False, now=time.monotonic()
            )
            assert len(events) == 1
            assert events[0].kind == "dead"

    def test_non_pending_workers_never_judged(self):
        with self._segment() as segment:
            segment.writer(1).beat(state=STATE_COUNTING)
            watchdog = StallWatchdog(
                segment.reader(), config=TelemetryConfig(stall_after=0.1)
            )
            assert watchdog.check(set(), now=time.monotonic() + 99.0) == []

    def test_never_beaten_slot_ages_from_first_sight(self):
        with self._segment() as segment:
            watchdog = StallWatchdog(
                segment.reader(), config=TelemetryConfig(stall_after=0.5)
            )
            now = time.monotonic()
            assert watchdog.check({0}, now=now) == []  # first sighting
            events = watchdog.check({0}, now=now + 1.0)
            assert len(events) == 1 and events[0].kind == "wedged"

    def test_adaptive_threshold_scales_with_beat_interval(self):
        with self._segment() as segment:
            writer = segment.writer(1)
            config = TelemetryConfig(
                stall_factor=4.0, min_stall_seconds=0.001
            )
            watchdog = StallWatchdog(segment.reader(), config=config)
            for _ in range(6):
                writer.beat(state=STATE_COUNTING)
                watchdog.check({0}, now=time.monotonic())
                time.sleep(0.02)
            threshold = watchdog.threshold_for(1)
            # EWMA of ~20ms beats, factored up; must sit well under the
            # 2s default yet above a single observed interval
            assert 0.01 < threshold < 1.0

    def test_stall_event_metrics_and_trace(self, tmp_path):
        obs, trace_path = _capture(tmp_path, "unit")
        with self._segment() as segment:
            segment.writer(1).beat(state=STATE_COUNTING)
            watchdog = StallWatchdog(
                segment.reader(),
                config=TelemetryConfig(stall_after=0.05),
                obs=obs,
            )
            time.sleep(0.1)
            assert len(watchdog.check({0})) == 1
        obs.finish()
        counters = obs.metrics.to_dict()["counters"]
        assert counters["telemetry.shard_stalled"] == 1
        assert counters["telemetry.shard_stalled.wedged"] == 1
        events = _stall_events(trace_path)
        assert len(events) == 1
        assert events[0]["kind"] == "wedged"

    def test_stall_event_value_object(self):
        event = StallEvent(
            shard=2, slot=3, pid=41, kind="dead", age_s=1.0, threshold_s=0.5
        )
        assert event.shard == 2 and event.kind == "dead"


# ----------------------------------------------------------------------
# integration: the shared-memory plane
# ----------------------------------------------------------------------


try:
    from repro.db.vertical import HAVE_NUMPY
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False


@pytest.mark.skipif(not HAVE_NUMPY, reason="shm plane needs NumPy")
class TestShmPlaneRecovery:
    def _counter(self, obs):
        from repro.db.shm import ShmShardedCounter

        counter = ShmShardedCounter(num_shards=3)
        counter.obs = obs
        return counter

    def _resume(self, pid):
        try:
            os.kill(pid, signal.SIGCONT)
        except (OSError, ProcessLookupError):
            pass

    def test_wedged_worker(self, tmp_path):
        obs, trace_path = _capture(tmp_path, "shm-wedged")
        with self._counter(obs) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            if counter.plane not in ("shm", "mmap"):
                pytest.skip("shared plane unavailable: %s" % counter.plane)
            victim = counter.worker_pids[1]
            os.kill(victim, signal.SIGSTOP)
            try:
                assert counter.count(DB, WIDE) == WIDE_EXPECTED
            finally:
                self._resume(victim)
            assert counter.shards_reassigned == 1
        obs.finish()
        events = _stall_events(trace_path)
        assert len(events) == 1 and events[0]["kind"] == "wedged"

    def test_killed_worker(self, tmp_path):
        obs, trace_path = _capture(tmp_path, "shm-killed")
        with self._counter(obs) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            if counter.plane not in ("shm", "mmap"):
                pytest.skip("shared plane unavailable: %s" % counter.plane)
            os.kill(counter.worker_pids[2], signal.SIGKILL)
            time.sleep(0.1)
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.shards_reassigned == 1
        obs.finish()
        assert len(_stall_events(trace_path)) == 1

    def test_all_workers_dead_parent_counts(self, tmp_path):
        obs, _ = _capture(tmp_path, "shm-all-dead")
        with self._counter(obs) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            if counter.plane not in ("shm", "mmap"):
                pytest.skip("shared plane unavailable: %s" % counter.plane)
            for pid in counter.worker_pids:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.1)
            assert counter.count(DB, WIDE) == WIDE_EXPECTED
            # worker_pids is [] after the post-stall close; all three
            # original workers were retired
            assert counter.shards_reassigned == 3
        obs.finish()

    def test_ladder_steps_below_shared_plane(self, tmp_path):
        obs, _ = _capture(tmp_path, "shm-ladder")
        with self._counter(obs) as counter:
            counter.count(DB, CANDIDATES)
            if counter.plane not in ("shm", "mmap"):
                pytest.skip("shared plane unavailable: %s" % counter.plane)
            victim = counter.worker_pids[0]
            os.kill(victim, signal.SIGSTOP)
            try:
                counter.count(DB, CANDIDATES)
            finally:
                self._resume(victim)
            # one strike: the next attach must land on the serial rung
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "serial"
            assert counter.worker_pids == []
        obs.finish()
