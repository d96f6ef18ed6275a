"""Tests for the out-of-core partitioned miner and its counting plane.

The load-bearing property is *exactness under any budget*: the
partitioned miner must produce the byte-identical MFS of a
single-partition in-memory Pincer-Search run, whether partitions are
resident, evicted between passes, or counted through sub-budget word
windows — and whether or not a Toivonen sample seeds the local descents.
"""

import random
import types

import pytest

from repro.algorithms import partitioned as partitioned_mod
from repro.algorithms.partitioned import (
    MAX_WORKERS_ENV,
    PartitionedPincerMiner,
    _local_threshold,
    partitioned_mine,
)
from repro.algorithms.sampling import SamplingMiner
from repro.core.pincer import PincerSearch, pincer_search
from repro.db.disk import DiskTransactionDatabase
from repro.db.outofcore import (
    BudgetExceededError,
    BudgetScheduler,
    HandleCounter,
    PartitionedCounter,
    handles_for_database,
)
from repro.db.transaction_db import TransactionDatabase


def _random_db(seed, num_rows=None, num_items=None):
    rng = random.Random(seed)
    num_rows = num_rows or rng.randint(40, 180)
    num_items = num_items or rng.randint(6, 14)
    density = rng.uniform(0.2, 0.55)
    return TransactionDatabase(
        [
            [item for item in range(num_items) if rng.random() < density]
            for _ in range(num_rows)
        ]
    )


def _snapshot_db(tmp_path, rows, num_partitions):
    basket = tmp_path / "db.basket"
    with open(basket, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(" ".join(str(item) for item in sorted(row)) + "\n")
    db = DiskTransactionDatabase(basket)
    snap = db.snapshot(num_partitions=num_partitions)
    return DiskTransactionDatabase(basket, snapshot=snap)


class TestDifferentialLadder:
    """partitioned ≡ pincer on randomized databases, all configurations."""

    @pytest.mark.parametrize("trial", range(8))
    def test_in_memory_matches_pincer(self, trial):
        db = _random_db(trial)
        threshold = random.Random(1000 + trial).randint(2, max(2, len(db) // 3))
        reference = pincer_search(db, min_count=threshold)
        for partitions in (1, 3):
            result = partitioned_mine(
                db, min_count=threshold, num_partitions=partitions
            )
            assert result.mfs == reference.mfs

    @pytest.mark.parametrize("trial", range(4))
    def test_sample_seeded_matches_pincer(self, trial):
        db = _random_db(50 + trial, num_rows=120)
        threshold = max(2, len(db) // 4)
        reference = pincer_search(db, min_count=threshold)
        result = partitioned_mine(
            db, min_count=threshold, num_partitions=2,
            sample_fraction=0.3, sample_seed=trial,
        )
        assert result.mfs == reference.mfs

    def test_snapshot_backed_matches_pincer_under_budget(self, tmp_path):
        rng = random.Random(9)
        rows = [
            [item for item in range(16) if rng.random() < 0.4]
            for _ in range(500)
        ]
        db = _snapshot_db(tmp_path, rows, num_partitions=4)
        reference = pincer_search(TransactionDatabase(rows), min_count=80)
        matrix_bytes = sum(
            handle.matrix_bytes
            for handle in handles_for_database(db, BudgetScheduler())
        )
        for budget in (None, matrix_bytes // 4, matrix_bytes // 10):
            result = partitioned_mine(db, min_count=80, memory_budget=budget)
            assert result.mfs == reference.mfs

    def test_supports_are_exact_global_counts(self):
        db = _random_db(77)
        result = partitioned_mine(db, min_count=max(2, len(db) // 5),
                                  num_partitions=3)
        for member in result.mfs:
            exact = sum(
                1 for transaction in db if set(member) <= transaction
            )
            assert result.supports[member] == exact


class TestBudgetAccounting:
    """The scheduler's books must balance and respect the cap."""

    def test_attach_detach_balances(self, tmp_path):
        rng = random.Random(3)
        rows = [
            [item for item in range(12) if rng.random() < 0.5]
            for _ in range(400)
        ]
        db = _snapshot_db(tmp_path, rows, num_partitions=4)
        counter = PartitionedCounter(memory_budget=None)
        miner = PartitionedPincerMiner()
        miner.mine(db, min_count=60, counter=counter)
        accounting = counter.scheduler.accounting()
        assert accounting["attaches"] >= 4  # every partition touched
        counter.close()
        assert counter.scheduler.mapped_bytes == 0
        assert counter.scheduler.mapped_partitions == 0
        assert (
            counter.scheduler.attaches == counter.scheduler.detaches
        )

    def test_budget_bounds_resident_bytes(self, tmp_path):
        rng = random.Random(4)
        rows = [
            [item for item in range(12) if rng.random() < 0.5]
            for _ in range(512)
        ]
        db = _snapshot_db(tmp_path, rows, num_partitions=4)
        handles = handles_for_database(db, BudgetScheduler())
        one_partition = handles[0].matrix_bytes
        counter = PartitionedCounter(memory_budget=one_partition)
        PartitionedPincerMiner().mine(db, min_count=70, counter=counter)
        accounting = counter.scheduler.accounting()
        assert accounting["max_mapped_bytes"] <= one_partition
        assert accounting["max_mapped_partitions"] == 1
        counter.close()

    def test_sub_partition_budget_counts_in_windows(self, tmp_path):
        rng = random.Random(5)
        rows = [
            [item for item in range(12) if rng.random() < 0.5]
            for _ in range(512)
        ]
        db = _snapshot_db(tmp_path, rows, num_partitions=2)
        handles = handles_for_database(db, BudgetScheduler())
        tiny = max(12 * 8, handles[0].matrix_bytes // 3)
        reference = pincer_search(TransactionDatabase(rows), min_count=70)
        counter = PartitionedCounter(memory_budget=tiny)
        result = PartitionedPincerMiner().mine(
            db, min_count=70, counter=counter
        )
        assert result.mfs == reference.mfs
        assert counter.scheduler.accounting()["max_mapped_bytes"] <= tiny
        counter.close()

    def test_detach_keeps_engine_usable(self, tmp_path):
        # internal lifecycle: detach releases every mapped partition but,
        # unlike close(), the next count() re-attaches
        rng = random.Random(6)
        rows = [
            [item for item in range(12) if rng.random() < 0.5]
            for _ in range(256)
        ]
        db = _snapshot_db(tmp_path, rows, num_partitions=2)
        batch = [(item,) for item in range(12)] + [(0, 1), (2, 3, 4)]
        counter = PartitionedCounter(memory_budget=None)
        first = counter.count(db, batch)
        assert counter.scheduler.mapped_bytes > 0
        counter._detach()
        assert counter.scheduler.mapped_bytes == 0
        assert not counter.closed
        assert counter.count(db, batch) == first
        counter.close()

    def test_scheduler_refuses_over_budget_attach(self):
        scheduler = BudgetScheduler(100)
        scheduler.attach(90)
        with pytest.raises(BudgetExceededError):
            scheduler.attach(20)
        scheduler.detach(90)
        assert scheduler.mapped_bytes == 0

    def test_handle_counter_bills_partition_rows(self):
        db = _random_db(11, num_rows=100)
        scheduler = BudgetScheduler()
        handles = handles_for_database(db, scheduler, num_partitions=2)
        counter = HandleCounter(handles[0])
        counter.count(db, [(0,)])
        assert counter.records_read == handles[0].num_rows
        assert counter.passes == 1
        counter.close()
        assert not handles[0].attached


class TestMinerContract:
    def test_exactly_two_logical_passes_when_no_descent(self):
        # concentrated data: every local maximal itemset is globally
        # frequent, so phase II classifies entirely from cache
        db = TransactionDatabase([[1, 2, 3, 4]] * 60 + [[5]] * 4)
        result = partitioned_mine(db, min_count=30, num_partitions=4)
        assert sorted(result.mfs) == [(1, 2, 3, 4)]
        assert result.stats.num_passes == 2

    def test_stats_record_partitions_and_budget(self):
        db = _random_db(21, num_rows=300)
        result = partitioned_mine(db, min_count=max(2, len(db) // 4),
                                  num_partitions=3)
        evidence = result.stats.engine_evidence
        assert evidence["partitions"] == 3
        assert evidence["engine"] == "partitioned"
        assert "max_mapped_bytes" in evidence
        assert result.stats.records_read >= 2 * len(db)

    def test_sample_seed_recorded_only_when_sampling(self):
        db = _random_db(22)
        threshold = max(2, len(db) // 4)
        plain = partitioned_mine(db, min_count=threshold)
        seeded = partitioned_mine(
            db, min_count=threshold, sample_fraction=0.25, sample_seed=41
        )
        assert plain.stats.sample_seed is None
        assert seeded.stats.sample_seed == 41

    def test_rejects_foreign_counter(self):
        from repro.db.counting import get_counter

        db = _random_db(23)
        with pytest.raises(ValueError, match="PartitionedCounter"):
            PartitionedPincerMiner().mine(
                db, min_count=5, counter=get_counter("bitmap")
            )

    def test_empty_result_when_nothing_frequent(self):
        db = TransactionDatabase([[1], [2], [3], [4]] * 4)
        result = partitioned_mine(db, min_count=15, num_partitions=2)
        assert result.mfs == frozenset()

    def test_local_threshold_is_proportional_ceiling(self):
        assert _local_threshold(10, 50, 100) == 5
        assert _local_threshold(10, 33, 100) == 4  # ceil(3.3)
        assert _local_threshold(1, 1, 1000) == 1  # floor of 1


class TestPartitionedEngine:
    """The ``partitioned`` engine as a plain counting engine."""

    def test_registered_and_counts_exactly(self):
        from repro.db.counting import available_engines, get_counter

        assert "partitioned" in available_engines()
        db = _random_db(31)
        engine = get_counter("partitioned")
        naive = get_counter("naive")
        batch = sorted({(item,) for row in db for item in row})
        assert engine.count(db, batch) == naive.count(db, batch)
        engine.close()

    def test_pincer_runs_on_partitioned_engine(self):
        db = _random_db(32)
        threshold = max(2, len(db) // 4)
        reference = pincer_search(db, min_count=threshold)
        result = PincerSearch(engine="partitioned").mine(
            db, min_count=threshold
        )
        assert result.mfs == reference.mfs


class TestPhaseOnePool:
    """``parallelism > 1`` mines phase I's partitions in worker processes
    and must give the serial loop's answer, supports and pass stats."""

    #: reaches 7-itemsets, and phase II descends below the local union
    THRESHOLD = 200

    @pytest.fixture
    def pool_db(self, tmp_path):
        rng = random.Random(12)
        rows = []
        for _ in range(2048):
            row = {item for item in range(14) if rng.random() < 0.3}
            if rng.random() < 0.3:
                row.update(range(6))  # a planted long pattern
            rows.append(row)
        return _snapshot_db(tmp_path, rows, num_partitions=4)

    @staticmethod
    def _pass_fields(result):
        return [
            {key: value for key, value in entry.to_dict().items()
             if key != "seconds"}
            for entry in result.stats.passes
        ]

    @pytest.mark.parametrize(
        "workers, sample_fraction", [(2, 0.0), (3, 0.25)]
    )
    def test_pool_equals_serial(self, pool_db, workers, sample_fraction):
        threshold = self.THRESHOLD
        serial = partitioned_mine(
            pool_db, min_count=threshold, parallelism=1,
            sample_fraction=sample_fraction, sample_seed=5,
        )
        pooled = partitioned_mine(
            pool_db, min_count=threshold, parallelism=workers,
            sample_fraction=sample_fraction, sample_seed=5,
        )
        assert sorted(pooled.mfs) == sorted(serial.mfs)
        assert pooled.supports == serial.supports
        assert self._pass_fields(pooled) == self._pass_fields(serial)
        assert serial.stats.engine_evidence["parallelism"] == 1
        assert "worker_accounting" not in serial.stats.engine_evidence
        evidence = pooled.stats.engine_evidence
        assert evidence["parallelism"] == workers
        assert len(evidence["worker_accounting"]) == 4
        assert (
            evidence["seeded_partitions"]
            == serial.stats.engine_evidence["seeded_partitions"]
        )

    def test_budget_is_split_between_workers(self, pool_db):
        one_partition = handles_for_database(
            pool_db, BudgetScheduler()
        )[0].matrix_bytes
        budget = one_partition // 2
        serial = partitioned_mine(pool_db, min_count=self.THRESHOLD)
        pooled = partitioned_mine(
            pool_db, min_count=self.THRESHOLD, memory_budget=budget,
            parallelism=2,
        )
        assert sorted(pooled.mfs) == sorted(serial.mfs)
        assert pooled.supports == serial.supports
        accounting = pooled.stats.engine_evidence["worker_accounting"]
        assert len(accounting) == 4
        for worker in accounting:
            assert worker["memory_budget"] == budget // 2
            assert 0 < worker["max_mapped_bytes"] <= budget // 2

    def test_worker_cap_env_forces_serial(self, pool_db, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        result = partitioned_mine(
            pool_db, min_count=self.THRESHOLD, parallelism=2
        )
        evidence = result.stats.engine_evidence
        assert evidence["parallelism"] == 1
        assert "worker_accounting" not in evidence


#: stands in for a snapshot-backed database: only the path is consulted
SNAPSHOT_DB = types.SimpleNamespace(snapshot_path="unused.snap")


def _width(parallelism, num_partitions=8):
    miner = PartitionedPincerMiner(parallelism=parallelism)
    return miner._effective_parallelism(SNAPSHOT_DB, num_partitions)


# The pool's width rule (the requested width, capped by the partition
# count and by ``REPRO_MAX_WORKERS``) and its fallback to in-process
# mining when no worker can start.


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
        rng = random.Random(3)
        rows = [
            [item for item in range(10) if rng.random() < 0.35]
            for _ in range(512)
        ]
        db = _snapshot_db(tmp_path, rows, num_partitions=4)
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


class TestSamplingDeterminism:
    def test_same_seed_same_result_stats(self):
        db = _random_db(41, num_rows=150)
        threshold = max(2, len(db) // 4)
        first = SamplingMiner(sample_fraction=0.3, seed=7).mine(
            db, min_count=threshold
        )
        second = SamplingMiner(sample_fraction=0.3, seed=7).mine(
            db, min_count=threshold
        )
        assert first.mfs == second.mfs
        assert first.supports == second.supports
        assert first.stats.sample_seed == 7
        assert second.stats.sample_seed == 7

    def test_external_rng_overrides_seed(self):
        db = _random_db(42, num_rows=150)
        threshold = max(2, len(db) // 4)
        rng = random.Random(123)
        miner = SamplingMiner(sample_fraction=0.3, seed=7, rng=rng)
        result = miner.mine(db, min_count=threshold)
        # exactness holds regardless of the draw; the stats must not
        # claim a seed the caller's rng did not use
        assert result.stats.sample_seed is None
        reference = pincer_search(db, min_count=threshold)
        assert result.mfs == reference.mfs
