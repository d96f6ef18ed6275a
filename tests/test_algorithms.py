"""Tests for the baseline miners (repro.algorithms)."""

import pytest

from repro.algorithms.apriori import Apriori, apriori
from repro.algorithms.brute_force import (
    brute_force,
    brute_force_frequents,
    brute_force_mfs,
)
from repro.algorithms.topdown import TopDown, top_down
from repro.core.pincer import PincerSearch
from repro.core.result import MiningTimeout
from repro.db.counting import get_counter
from repro.db.transaction_db import TransactionDatabase


def toy_db():
    return TransactionDatabase([[1, 2, 3], [1, 2, 3], [1, 2], [3, 4]])


class TestBruteForce:
    def test_frequents_with_supports(self):
        frequents = brute_force_frequents(toy_db(), 0.5)
        assert frequents[(1, 2)] == 3
        assert frequents[(1, 2, 3)] == 2
        assert (3, 4) not in frequents  # support 1 < 2

    def test_mfs(self):
        assert brute_force_mfs(toy_db(), 0.5) == {(1, 2, 3)}

    def test_result_object(self):
        result = brute_force(toy_db(), 0.5)
        assert result.algorithm == "brute-force"
        assert result.is_frequent((1, 3))
        assert not result.is_frequent((4,))

    def test_empty_database(self):
        assert brute_force_frequents(TransactionDatabase([]), min_count=1) == {}

    def test_refuses_oversized_transactions(self):
        db = TransactionDatabase([list(range(40))])
        with pytest.raises(ValueError):
            brute_force(db, 0.5)


class TestApriori:
    def test_mfs_matches_brute_force(self):
        assert set(apriori(toy_db(), 0.5).mfs) == {(1, 2, 3)}

    def test_counts_every_frequent_itemset(self):
        # Apriori explicitly discovers ALL frequent itemsets (the cost
        # the paper's algorithm avoids)
        result = apriori(toy_db(), 0.5)
        truth = brute_force_frequents(toy_db(), 0.5)
        for itemset_, count in truth.items():
            assert result.supports[itemset_] == count

    def test_frequent_itemsets_helper(self):
        frequents = Apriori().frequent_itemsets(toy_db(), 0.5)
        assert frequents == brute_force_frequents(toy_db(), 0.5)

    def test_one_pass_per_level(self):
        result = apriori(toy_db(), 0.5)
        # levels 1..3 exist, plus C_4 is empty: exactly 3 passes
        assert result.stats.num_passes == 3

    def test_pass_accounting_against_counter(self):
        counter = get_counter("bitmap")
        result = Apriori().mine(toy_db(), 0.5, counter=counter)
        assert counter.passes == result.stats.num_passes

    def test_no_mfcs_candidates_ever(self):
        result = apriori(toy_db(), 0.5)
        assert all(s.mfcs_candidates == 0 for s in result.stats.passes)

    def test_time_budget_raises_mining_timeout(self):
        db = TransactionDatabase([[1, 2, 3, 4, 5, 6, 7, 8]] * 4)
        with pytest.raises(MiningTimeout) as excinfo:
            Apriori().mine(db, 0.5, time_budget=0.0)
        assert excinfo.value.algorithm == "apriori"
        assert excinfo.value.stats.num_passes == 0

    def test_generous_budget_finishes(self):
        result = Apriori().mine(toy_db(), 0.5, time_budget=60.0)
        assert set(result.mfs) == {(1, 2, 3)}

    def test_empty_database(self):
        result = apriori(TransactionDatabase([]), 0.5)
        assert result.mfs == frozenset()


class TestTopDown:
    def test_mfs_matches_brute_force(self):
        assert set(top_down(toy_db(), 0.5).mfs) == {(1, 2, 3)}

    def test_counts_only_frontier_itemsets(self):
        result = top_down(toy_db(), 0.5)
        # the top-down miner never counts bottom-up candidates
        assert all(s.bottom_up_candidates == 0 for s in result.stats.passes)
        assert all(s.mfcs_candidates > 0 for s in result.stats.passes)

    def test_fast_when_universe_is_frequent(self):
        db = TransactionDatabase([[1, 2, 3, 4, 5]] * 3)
        result = top_down(db, 1.0)
        assert set(result.mfs) == {(1, 2, 3, 4, 5)}
        assert result.stats.num_passes == 1

    def test_frontier_guard_raises(self):
        db = TransactionDatabase(
            [[i] for i in range(1, 25)], universe=range(1, 25)
        )
        with pytest.raises(RuntimeError, match="frontier exploded"):
            TopDown(max_frontier=10).mine(db, 1.0)

    def test_frontier_guard_holds_after_a_long_maximal_itemset(self):
        # (1..14) is maximal in pass 2, longer than any adaptive length
        # cap; the frontier of 15-containing sets then grows past 50
        db = TransactionDatabase([list(range(1, 15))] * 5 + [[15]] * 5)
        with pytest.raises(RuntimeError, match="frontier exploded"):
            TopDown(max_frontier=50).mine(db, min_count=5)

    def test_empty_database(self):
        result = top_down(TransactionDatabase([]), 0.5)
        assert result.mfs == frozenset()

    def test_all_items_infrequent(self):
        db = TransactionDatabase([[1], [2], [3], [4]])
        result = top_down(db, 0.9)
        assert result.mfs == frozenset()

    @pytest.mark.parametrize("minsup", [0.25, 0.5, 0.75])
    def test_is_pincer_search_top_down_half(self, minsup):
        # the unseeded top-down half of Pincer-Search is this miner
        db = TransactionDatabase(
            [[1, 2, 3, 4], [1, 2, 3], [2, 3, 5], [1, 4, 5], [2, 3, 4, 5]]
        )
        expected = top_down(db, minsup)
        result = PincerSearch().mine(db, minsup, bottom_up=False)
        assert result.mfs == expected.mfs == brute_force_mfs(db, minsup)

        def counts(stats):
            return [
                {k: v for k, v in p.to_dict().items() if k != "seconds"}
                for p in stats.passes
            ]

        assert counts(result.stats) == counts(expected.stats)
        assert expected.algorithm == expected.stats.algorithm == "top-down"


class TestCrossAlgorithmAgreement:
    CASES = [
        ([[1, 2], [2, 3], [1, 3], [1, 2, 3]], 0.5),
        ([[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]], 0.25),
        ([[1, 2, 3, 4, 5]] * 5 + [[6]], 0.5),
        ([[2 * i, 2 * i + 1] for i in range(5)], 0.1),
    ]

    @pytest.mark.parametrize("transactions,minsup", CASES)
    def test_all_miners_agree(self, transactions, minsup):
        from repro.core.pincer import pincer_search

        db = TransactionDatabase(transactions)
        truth = brute_force_mfs(db, minsup)
        assert set(apriori(db, minsup).mfs) == truth
        assert set(top_down(db, minsup).mfs) == truth
        assert set(pincer_search(db, minsup).mfs) == truth
        assert set(pincer_search(db, minsup, adaptive=False).mfs) == truth
