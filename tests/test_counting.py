"""Unit tests for the counting engines (repro.db.counting)."""

import random

import pytest

from repro.db.counting import (
    AUTO_PACKED_MIN_ROWS,
    AUTO_ROARING_MIN_ROWS,
    available_engines,
    engine_decision,
    get_counter,
)
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY


def small_db():
    return TransactionDatabase(
        [[1, 2, 3], [1, 2], [2, 3], [1, 2, 3, 4], [4]], universe=range(1, 6)
    )


CANDIDATES = [(1,), (2,), (5,), (1, 2), (1, 4), (2, 3), (1, 2, 3), (1, 2, 3, 4)]
EXPECTED = {
    (1,): 3, (2,): 4, (5,): 0, (1, 2): 3, (1, 4): 1, (2, 3): 3,
    (1, 2, 3): 2, (1, 2, 3, 4): 1,
}


class TestAllEngines:
    @pytest.mark.parametrize("engine", available_engines())
    def test_counts_match_ground_truth(self, engine):
        counter = get_counter(engine)
        assert counter.count(small_db(), CANDIDATES) == EXPECTED

    @pytest.mark.parametrize("engine", available_engines())
    def test_empty_candidates_cost_nothing(self, engine):
        counter = get_counter(engine)
        assert counter.count(small_db(), []) == {}
        assert counter.passes == 0
        assert counter.records_read == 0

    @pytest.mark.parametrize("engine", available_engines())
    def test_pass_accounting(self, engine):
        counter = get_counter(engine)
        db = small_db()
        counter.count(db, [(1,)])
        counter.count(db, [(2,), (1, 2)])
        assert counter.passes == 2
        assert counter.records_read == 2 * len(db)
        assert counter.itemsets_counted == 3

    @pytest.mark.parametrize("engine", available_engines())
    def test_reset(self, engine):
        counter = get_counter(engine)
        counter.count(small_db(), [(1,)])
        counter.reset()
        assert counter.passes == 0
        assert counter.records_read == 0
        assert counter.itemsets_counted == 0

    @pytest.mark.parametrize("engine", available_engines())
    def test_duplicate_candidates_counted_once(self, engine):
        counter = get_counter(engine)
        counts = counter.count(small_db(), [(1,), (1,)])
        assert counts == {(1,): 3}
        assert counter.itemsets_counted == 1

    @pytest.mark.parametrize("engine", available_engines())
    def test_empty_itemset_supported_by_all_transactions(self, engine):
        counter = get_counter(engine)
        assert counter.count(small_db(), [()]) == {(): 5}

    @pytest.mark.parametrize("engine", available_engines())
    def test_mixed_lengths_single_pass(self, engine):
        counter = get_counter(engine)
        counts = counter.count(small_db(), [(1,), (1, 2, 3), (2, 3)])
        assert counter.passes == 1
        assert counts[(1, 2, 3)] == 2

    @pytest.mark.parametrize("engine", available_engines())
    def test_randomised_agreement_with_naive_scan(self, engine):
        rng = random.Random(3)
        transactions = [
            rng.sample(range(1, 15), rng.randint(0, 8)) for _ in range(60)
        ]
        db = TransactionDatabase(transactions, universe=range(1, 15))
        candidates = [
            tuple(sorted(rng.sample(range(1, 15), rng.randint(1, 4))))
            for _ in range(40)
        ]
        counts = get_counter(engine).count(db, candidates)
        for candidate in candidates:
            assert counts[candidate] == db.support_count(candidate), (
                engine, candidate,
            )


class TestFactory:
    def test_default_engine(self):
        assert get_counter().name == "bitmap"
        assert get_counter("auto").name == "bitmap"

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown counting engine"):
            get_counter("btree")

    def test_available_engines_is_sorted(self):
        engines = available_engines()
        assert engines == sorted(engines)
        assert {"naive", "bitmap", "hashtree", "trie"} <= set(engines)


class TestEngineDecision:
    def test_explicit_name_passes_through(self):
        decision = engine_decision(small_db(), "trie")
        assert decision.engine == "trie"
        assert decision.evidence == {"reason": "explicit"}

    def test_small_database_keeps_the_default(self):
        decision = engine_decision(small_db(), "auto")
        assert decision.engine == "bitmap"
        assert decision.evidence["rows"] == 5

    @pytest.mark.skipif(not HAVE_NUMPY, reason="no NumPy: auto picks bitmap")
    def test_dense_database_evidence(self):
        # every row holds items 0-3 of a 5-item universe: density 0.8
        rows = AUTO_ROARING_MIN_ROWS
        db = TransactionDatabase([[0, 1, 2, 3]] * rows, universe=range(5))
        decision = engine_decision(db, "auto")
        assert decision.engine == "packed"
        evidence = decision.evidence
        assert (evidence["rows"], evidence["items"]) == (rows, 5)
        assert evidence["nnz"] == 4 * rows
        assert evidence["density"] == pytest.approx(0.8)
        assert evidence["reason"] == "dense (density 0.8000 > 0.05)"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="no NumPy: auto picks bitmap")
    def test_sparse_database_evidence(self):
        # one item per row over a 100-item universe: density 0.01
        rows = AUTO_ROARING_MIN_ROWS
        db = TransactionDatabase([[t % 100] for t in range(rows)])
        decision = engine_decision(db, "auto")
        assert decision.engine == "roaring"
        evidence = decision.evidence
        assert (evidence["rows"], evidence["items"]) == (rows, 100)
        assert evidence["nnz"] == rows
        assert evidence["density"] == pytest.approx(0.01)
        assert evidence["reason"] == "sparse (density 0.0100 <= 0.05)"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="no NumPy: auto picks bitmap")
    def test_below_roaring_rows_stays_packed(self):
        rows = AUTO_PACKED_MIN_ROWS
        db = TransactionDatabase([[t % 100] for t in range(rows)])
        decision = engine_decision(db, "auto")
        assert decision.engine == "packed"
        assert decision.evidence["nnz"] == rows
        assert decision.evidence["reason"].startswith(
            "below roaring row threshold"
        )
