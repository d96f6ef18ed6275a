"""Tests for the worker processes that share one mapped snapshot.

Phase I of the partitioned miner can mine a snapshot's partitions in a
pool of worker processes.  Every worker maps the same snapshot file, so
partitions reach the workers through shared pages rather than pickled
matrices.  These cases pin the pool's width rule (the requested width,
capped by the partition count and by ``REPRO_MAX_WORKERS``) and its
fallback to in-process mining when no worker can start.
"""

import random
import types

import pytest

from repro.algorithms import partitioned as partitioned_mod
from repro.algorithms.partitioned import (
    MAX_WORKERS_ENV,
    PartitionedPincerMiner,
    partitioned_mine,
)
from repro.db.disk import DiskTransactionDatabase

#: stands in for a snapshot-backed database: only the path is consulted
SNAPSHOT_DB = types.SimpleNamespace(snapshot_path="unused.snap")


def _width(parallelism, num_partitions=8):
    miner = PartitionedPincerMiner(parallelism=parallelism)
    return miner._effective_parallelism(SNAPSHOT_DB, num_partitions)


def _snapshot_db(tmp_path, num_rows, num_partitions):
    rng = random.Random(3)
    basket = tmp_path / "db.basket"
    with open(basket, "w", encoding="utf-8") as handle:
        for _ in range(num_rows):
            row = [item for item in range(10) if rng.random() < 0.35]
            handle.write(" ".join(str(item) for item in row) + "\n")
    db = DiskTransactionDatabase(basket)
    snap = db.snapshot(num_partitions=num_partitions)
    return DiskTransactionDatabase(basket, snapshot=snap)


class TestShardHeuristics:
    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            PartitionedPincerMiner(parallelism=0)
        with pytest.raises(ValueError):
            PartitionedPincerMiner(num_partitions=0)


class TestWorkerCapEnv:
    def test_env_variable_caps_shards(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "2")
        assert _width(parallelism=8) == 2

    def test_env_variable_never_raises_the_count(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "64")
        assert _width(parallelism=2) == 2
        assert _width(parallelism=8, num_partitions=3) == 3

    def test_garbage_env_value_is_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "plenty")
        assert _width(parallelism=2) == 2


class TestSpawnContextFallback:
    def test_spawn_failure_falls_back_to_serial_shards(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        db = _snapshot_db(tmp_path, num_rows=512, num_partitions=4)
        threshold = 60
        serial = partitioned_mine(db, min_count=threshold, parallelism=1)

        def refuse(*args, **kwargs):
            raise OSError("no worker processes")

        warnings = []
        monkeypatch.setattr(partitioned_mod, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(
            partitioned_mod.logger, "warning",
            lambda message, *args: warnings.append(message % args),
        )
        fallback = partitioned_mine(db, min_count=threshold, parallelism=2)

        assert len(warnings) == 1 and "mining serially" in warnings[0]
        assert sorted(fallback.mfs) == sorted(serial.mfs)
        assert fallback.supports == serial.supports
        # the in-process fallback still runs one task per partition
        accounting = fallback.stats.engine_evidence["worker_accounting"]
        assert len(accounting) == 4
