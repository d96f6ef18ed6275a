"""Tests for the process plane (``repro.db.shm``): the ``shm`` engine.

The shared-memory and mmap rungs need NumPy; the serial rung, the
worker-count heuristic and the work-stealing chunk rule do not, so those
run on bare interpreters too.
"""

import gc
import glob
import os
import signal
import time

import pytest

from repro.db import shm as shm_mod
from repro.db.base import EngineClosedError
from repro.db.counting import CountingDeadline, get_counter
from repro.db.shm import (
    MAX_CHUNK,
    MIN_ROWS_PER_SHARD,
    ShmShardedCounter,
    chunk_size,
    default_num_shards,
)
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="shared planes need NumPy"
)

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

# several 64-row matrix words, so every worker's chunks span many words
TRANSACTIONS = [[1, 2, 3], [1, 2], [2, 3], [3], [1], [2], [4, 5]] * 60
DB = TransactionDatabase(TRANSACTIONS)
CANDIDATES = [(), (1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3), (4, 5), (9,)]
EXPECTED = get_counter("naive").count(DB, CANDIDATES)

# a batch wide enough that every worker steals several chunks
WIDE = [(i,) for i in range(1, 600)]
WIDE_EXPECTED = get_counter("naive").count(DB, WIDE)


def _segment_gone(name):
    try:
        segment = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return True
    segment.close()
    return False


class TestShardHeuristics:
    def test_default_num_shards_respects_min_rows(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert default_num_shards(0) == 1
        assert default_num_shards(MIN_ROWS_PER_SHARD - 1) == 1
        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 8)
        assert default_num_shards(MIN_ROWS_PER_SHARD) == 1
        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 2)
        assert default_num_shards(MIN_ROWS_PER_SHARD * 4) == 2

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShmShardedCounter(num_shards=0)


class TestWorkerCapEnv:
    def test_env_variable_caps_shards(self, monkeypatch):
        rows = MIN_ROWS_PER_SHARD * 100
        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert default_num_shards(rows) == 2

    def test_env_variable_never_raises_the_count(self, monkeypatch):
        rows = MIN_ROWS_PER_SHARD * 100
        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "64")
        assert default_num_shards(rows) == 2

    def test_garbage_env_value_is_ignored(self, monkeypatch):
        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "plenty")
        rows = MIN_ROWS_PER_SHARD * 4
        assert default_num_shards(rows) == 2


class TestSerialMode:
    def test_counts_match_naive(self):
        with ShmShardedCounter(num_shards=1) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.worker_pids == []
            assert counter.plane == "serial"

    def test_single_shard_default_on_small_db(self):
        with ShmShardedCounter() as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            # the heuristic refuses to shard a 420-row database
            assert counter.worker_pids == []
            assert counter.plane == "serial"


@needs_numpy
class TestProcessMode:
    def test_counts_match_naive_across_processes(self):
        with ShmShardedCounter(num_shards=3) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert len(counter.worker_pids) == 3

    def test_workers_reused_across_passes(self):
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(DB, [(1,)])
            pids = list(counter.worker_pids)
            counter.count(DB, [(2,), (1, 2)])
            assert counter.worker_pids == pids

    def test_new_database_respawns_workers(self):
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(DB, [(1,)])
            pids = list(counter.worker_pids)
            other = TransactionDatabase([[1, 5]] * 8)
            assert counter.count(other, [(5,)]) == {(5,): 8}
            assert counter.worker_pids != pids

    def test_close_is_idempotent(self):
        counter = ShmShardedCounter(num_shards=2)
        counter.count(DB, [(1,)])
        counter.close()
        assert counter.worker_pids == []
        counter.close()  # second close is free
        # counting after close() is a caller bug, not a silent re-attach
        with pytest.raises(EngineClosedError):
            counter.count(DB, [(1,)])

    def test_more_shards_than_rows_is_clamped(self):
        db = TransactionDatabase([[1], [1, 2]])
        with ShmShardedCounter(num_shards=10) as counter:
            assert counter.count(db, [(1,), (2,)]) == {(1,): 2, (2,): 1}
            assert len(counter.worker_pids) == 2


class TestDeadline:
    def test_expired_deadline_aborts_serial(self):
        with ShmShardedCounter(num_shards=1) as counter:
            counter.deadline = time.perf_counter() - 1.0
            with pytest.raises(CountingDeadline):
                counter.count(DB, [(1,)])

    def test_expired_deadline_aborts_before_dispatch(self):
        counter = ShmShardedCounter(num_shards=2)
        try:
            counter.count(DB, [(1,)])
            counter.deadline = time.perf_counter() - 1.0
            with pytest.raises(CountingDeadline):
                counter.count(DB, [(2,)])
        finally:
            counter.close()

    @needs_numpy
    def test_mid_pass_deadline_drops_worker_pool(self):
        counter = ShmShardedCounter(num_shards=2)
        try:
            counter.count(DB, [(1,)])
            # expire the deadline between dispatch and collection: the
            # reply loop must drop the pool so stale replies cannot
            # poison the next pass
            counter.deadline = time.perf_counter() - 1.0
            with pytest.raises(CountingDeadline):
                counter._count_shared([(2,)])
            assert counter.worker_pids == []
            counter.deadline = None
            assert counter.count(DB, [(2,)]) == {(2,): EXPECTED[(2,)]}
        finally:
            counter.close()


class TestShardResourceAttribution:
    @needs_numpy
    def test_worker_replies_carry_cpu_and_rss(self):
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(DB, CANDIDATES)
            assert len(counter.last_shard_cpu_seconds) == 2
            assert len(counter.last_shard_maxrss_kb) == 2
            assert all(s >= 0.0 for s in counter.last_shard_cpu_seconds)
            # every worker is a live Python process: its high-water RSS
            # cannot be zero on any platform with a resource module
            assert all(kb > 0 for kb in counter.last_shard_maxrss_kb)

    def test_serial_mode_attributes_cpu_per_shard(self):
        # the serial rung is one in-process index: one attribution entry
        with ShmShardedCounter(num_shards=1) as counter:
            counter.count(DB, CANDIDATES)
            assert len(counter.last_shard_cpu_seconds) == 1
            assert all(s >= 0.0 for s in counter.last_shard_cpu_seconds)
            assert len(counter.last_shard_maxrss_kb) == 1

    @needs_numpy
    def test_rusage_parity_serial_vs_workers(self):
        # both rungs expose the same attribution surface, one entry per
        # worker (the serial rung is one worker), so downstream metrics
        # code never branches on the rung
        shapes = {}
        for shards in (1, 2):
            with ShmShardedCounter(num_shards=shards) as counter:
                counter.count(DB, CANDIDATES)
                shapes[shards] = (
                    len(counter.last_shard_seconds),
                    len(counter.last_shard_cpu_seconds),
                    len(counter.last_shard_maxrss_kb),
                )
        assert shapes[1] == (1, 1, 1)
        assert shapes[2] == (2, 2, 2)

    def test_shard_metrics_include_cpu_and_rss(self):
        from repro.obs.instrument import Instrumentation

        obs = Instrumentation()
        with ShmShardedCounter(num_shards=1) as counter:
            counter.obs = obs
            counter.count(DB, CANDIDATES)
        document = obs.metrics.to_dict()
        assert document["histograms"]["shard.cpu_seconds"]["count"] == 1
        assert "shard.max_rss_kb" in document["gauges"]

    def test_close_clears_attribution(self):
        counter = ShmShardedCounter(num_shards=1)
        counter.count(DB, CANDIDATES)
        counter.close()
        assert counter.last_shard_cpu_seconds == []
        assert counter.last_shard_maxrss_kb == []


class TestSpawnContextFallback:
    @needs_numpy
    def test_workers_start_under_spawn_context(self, monkeypatch):
        # simulate a platform without fork: the plane must fall back to
        # the default (spawn) context and still produce exact counts
        import multiprocessing

        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            shm_mod.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(
            shm_mod.multiprocessing, "get_context", lambda method=None: spawn
        )
        with ShmShardedCounter(num_shards=2) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "shm"
            assert len(counter.worker_pids) == 2
            assert len(counter.worker_startup_seconds) == 2

    def test_spawn_failure_falls_back_to_serial_shards(self, monkeypatch):
        import multiprocessing

        spawn = multiprocessing.get_context("spawn")

        class ExplodingContext:
            def __getattr__(self, name):
                return getattr(spawn, name)

            @staticmethod
            def Pipe():
                raise OSError("simulated: cannot create worker pipes")

        monkeypatch.setattr(
            shm_mod.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(
            shm_mod.multiprocessing,
            "get_context",
            lambda method=None: ExplodingContext(),
        )
        with ShmShardedCounter(num_shards=2) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.worker_pids == []  # the serial rung served
            assert counter.plane == "serial"

    @needs_numpy
    def test_worker_startup_seconds_reported(self):
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(DB, CANDIDATES)
            assert len(counter.worker_startup_seconds) == 2
            assert all(s >= 0.0 for s in counter.worker_startup_seconds)


class TestChunkRule:
    def test_about_four_chunks_per_worker(self):
        assert chunk_size(8 * 300, num_workers=2) == 300
        assert chunk_size(4 * 3 * 50, num_workers=3) == 50
        # ceil: a remainder never spills into a fifth chunk per worker
        assert chunk_size(8 * 300 + 1, num_workers=2) == 301

    def test_clamped_to_one_and_max_chunk(self):
        assert chunk_size(1, num_workers=4) == 1
        assert chunk_size(3, num_workers=8) == 1
        assert chunk_size(10 ** 9, num_workers=2) == MAX_CHUNK == 4096

    @needs_numpy
    def test_batch_smaller_than_worker_count_counts_exactly(self):
        with ShmShardedCounter(num_shards=3) as counter:
            assert counter.count(DB, [(2, 3)]) == {(2, 3): EXPECTED[(2, 3)]}
            assert counter.count(DB, [(1,), (3,)]) == {
                (1,): EXPECTED[(1,)], (3,): EXPECTED[(3,)],
            }
            assert counter.plane == "shm"
            assert counter.chunks_dispatched == 3


class TestEquivalence:
    @needs_numpy
    def test_counts_match_naive_on_shm_plane(self):
        with ShmShardedCounter(num_shards=2) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "shm"

    @needs_numpy
    def test_capacity_growth_and_worker_reattach(self):
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(DB, CANDIDATES)
            pids = list(counter.worker_pids)
            # > INITIAL_BATCH_CAPACITY candidates forces a block regrow;
            # workers must re-attach the renamed blocks transparently
            big = [(i,) for i in range(shm_mod.INITIAL_BATCH_CAPACITY + 10)]
            expected = get_counter("naive").count(DB, big)
            assert counter.count(DB, big) == expected
            assert counter.worker_pids == pids

    def test_serial_fallback_still_counts(self):
        with ShmShardedCounter(num_shards=1) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "serial"

    def test_registered_as_an_engine(self):
        counter = get_counter("shm")
        assert isinstance(counter, ShmShardedCounter)
        counter.close()


class TestAccounting:
    def test_accounting_matches_bitmap_engine(self):
        bitmap = get_counter("bitmap")
        with ShmShardedCounter(num_shards=2) as counter:
            for engine in (bitmap, counter):
                engine.count(DB, CANDIDATES)
                engine.count(DB, [(1, 2)])
            assert counter.passes == bitmap.passes == 2
            assert counter.records_read == bitmap.records_read
            assert counter.itemsets_counted == bitmap.itemsets_counted

    def test_records_read_is_passes_times_rows(self):
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(DB, CANDIDATES)
            counter.count(DB, WIDE)
            assert counter.passes == 2
            assert counter.records_read == 2 * len(DB)

    def test_accounting_matches_packed_engine(self):
        packed = get_counter("packed")
        with ShmShardedCounter(num_shards=2) as counter:
            for engine in (packed, counter):
                engine.count(DB, CANDIDATES)
                engine.count(DB, WIDE)
            assert counter.passes == packed.passes
            assert counter.records_read == packed.records_read
            assert counter.itemsets_counted == packed.itemsets_counted

    @needs_numpy
    def test_attach_and_startup_are_reported(self):
        with ShmShardedCounter(num_shards=2) as counter:
            counter.count(DB, CANDIDATES)
            assert counter.last_attach_seconds > 0.0
            assert len(counter.worker_startup_seconds) == 2
            assert all(s >= 0.0 for s in counter.worker_startup_seconds)

    @needs_numpy
    def test_steal_metrics_are_emitted(self):
        from repro.obs.instrument import Instrumentation

        obs = Instrumentation()
        with ShmShardedCounter(num_shards=2) as counter:
            counter.obs = obs
            counter.count(DB, WIDE)
        document = obs.metrics.to_dict()
        assert "shard.steals" in document["counters"]
        assert document["gauges"]["shard.count"] == 2
        assert "shard.attach_seconds" in document["gauges"]


@needs_numpy
class TestCleanup:
    def test_close_unlinks_every_segment(self):
        counter = ShmShardedCounter(num_shards=2)
        counter.count(DB, CANDIDATES)
        names = [segment.name for segment in counter._plane.owned]
        assert names
        counter.close()
        assert all(_segment_gone(name) for name in names)
        assert counter.plane == "unattached"

    def test_garbage_collection_unlinks_segments(self):
        # losing every reference without close() must not leak /dev/shm:
        # the weakref.finalize backstop unlinks the owned blocks
        counter = ShmShardedCounter(num_shards=2)
        counter.count(DB, CANDIDATES)
        names = [segment.name for segment in counter._plane.owned]
        del counter
        gc.collect()
        assert all(_segment_gone(name) for name in names)

    def test_worker_killed_between_passes_is_recounted(self):
        # telemetry off (the default): no watchdog, so the broken pipe
        # alone must retire the worker and recount its share
        before = set(glob.glob("/dev/shm/psm_*"))
        counter = ShmShardedCounter(num_shards=2)
        try:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "shm"
            victim = counter._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert not victim.is_alive()
            assert counter.count(DB, WIDE) == WIDE_EXPECTED
            assert counter.shards_reassigned == 1
            # the stall strike sends the next attach to the serial rung
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "serial"
        finally:
            counter.close()
        assert set(glob.glob("/dev/shm/psm_*")) - before == set()

    def test_close_is_idempotent_then_counting_raises(self):
        counter = ShmShardedCounter(num_shards=2)
        counter.count(DB, CANDIDATES)
        counter.close()
        counter.close()  # second close is free
        with pytest.raises(EngineClosedError):
            counter.count(DB, CANDIDATES)

    def test_detach_keeps_engine_usable(self):
        # internal lifecycle: detach (stall recovery, ladder steps)
        # releases the plane but the next count() re-attaches
        counter = ShmShardedCounter(num_shards=2)
        counter.count(DB, CANDIDATES)
        counter._detach()
        assert counter.plane == "unattached"
        assert counter.count(DB, CANDIDATES) == EXPECTED
        counter.close()


@needs_numpy
class TestFallbackLadder:
    def test_mmap_rung_when_shared_memory_unavailable(self, monkeypatch):
        real = shm_mod._shared_memory

        class Shim:
            @staticmethod
            def SharedMemory(*args, **kwargs):
                if kwargs.get("create"):
                    raise OSError("simulated: /dev/shm unavailable")
                return real.SharedMemory(*args, **kwargs)

        monkeypatch.setattr(shm_mod, "_shared_memory", Shim)
        with ShmShardedCounter(num_shards=2) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "mmap"
            assert counter.count(DB, WIDE) == WIDE_EXPECTED

    def test_mmap_rung_leaves_no_temp_files(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            real = shm_mod._shared_memory

            class Shim:
                @staticmethod
                def SharedMemory(*args, **kwargs):
                    raise OSError("simulated")

            monkeypatch.setattr(shm_mod, "_shared_memory", Shim)
            counter = ShmShardedCounter(num_shards=2)
            assert counter.count(DB, CANDIDATES) == EXPECTED
            counter.close()
            assert [p for p in os.listdir(tmp_path) if "pincer-shm" in p] == []
        finally:
            tempfile.tempdir = None

    def test_pipe_rung_when_worker_spawn_fails(self, monkeypatch):
        # every shared-memory spawn failing must fall through to the
        # serial rung, not error out
        monkeypatch.setattr(
            ShmShardedCounter,
            "_spawn_shm_workers",
            lambda self, *args, **kwargs: False,
        )
        with ShmShardedCounter(num_shards=2) as counter:
            assert counter.count(DB, CANDIDATES) == EXPECTED
            assert counter.plane == "serial"
            assert counter.worker_pids == []

    def test_full_ladder_agrees_on_supports(self, monkeypatch):
        results = {}
        with ShmShardedCounter(num_shards=2) as counter:
            results["shm"] = counter.count(DB, WIDE)
        real = shm_mod._shared_memory

        class Shim:
            @staticmethod
            def SharedMemory(*args, **kwargs):
                raise OSError("simulated")

        monkeypatch.setattr(shm_mod, "_shared_memory", Shim)
        with ShmShardedCounter(num_shards=2) as counter:
            results["mmap"] = counter.count(DB, WIDE)
        monkeypatch.setattr(shm_mod, "_shared_memory", real)
        with ShmShardedCounter(num_shards=1) as counter:
            results["serial"] = counter.count(DB, WIDE)
        assert results["shm"] == results["mmap"] == results["serial"]


class TestPincerIntegration:
    def test_mfs_identical_to_serial_engine(self):
        from repro.core.pincer import PincerSearch

        serial = PincerSearch(engine="packed").mine(DB, 0.05)
        with ShmShardedCounter(num_shards=2) as counter:
            shm = PincerSearch(engine="shm").mine(DB, 0.05, counter=counter)
        assert serial.mfs == shm.mfs
        assert serial.supports == shm.supports

    def test_miner_closes_engines_it_creates(self, monkeypatch):
        from repro.core.pincer import PincerSearch

        closed = []
        original = ShmShardedCounter.close

        def tracking_close(self):
            closed.append(True)
            original(self)

        monkeypatch.setattr(ShmShardedCounter, "close", tracking_close)
        PincerSearch(engine="shm").mine(DB, 0.05)
        assert closed
