"""Tests for the generalized predicate miner (repro.core.predicate)."""

import random

import pytest

from repro.core.predicate import (
    PredicatePincer,
    brute_force_maximal_satisfying_sets,
    maximal_satisfying_sets,
)
from repro.core.lattice import is_antichain
from repro.core.pincer import PincerSearch
from repro.db.transaction_db import TransactionDatabase


class TestBasics:
    def test_weight_cap_predicate(self):
        result = maximal_satisfying_sets(
            range(1, 5), lambda s: sum(s) <= 4
        )
        assert result == {(4,), (1, 2), (1, 3)}

    def test_always_true_gives_universe(self):
        assert maximal_satisfying_sets(range(1, 5), lambda s: True) == {
            (1, 2, 3, 4)
        }

    def test_always_false_gives_empty(self):
        assert maximal_satisfying_sets(range(1, 5), lambda s: False) == set()

    def test_empty_universe(self):
        assert maximal_satisfying_sets([], lambda s: True) == set()

    def test_cardinality_cap(self):
        result = maximal_satisfying_sets(range(1, 5), lambda s: len(s) <= 2)
        assert result == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        }

    def test_result_is_antichain(self):
        result = maximal_satisfying_sets(
            range(1, 7), lambda s: sum(s) <= 7
        )
        assert is_antichain(result)


class TestOracleAccounting:
    def test_memoisation_no_duplicate_calls(self):
        asked = []

        def predicate(candidate):
            asked.append(candidate)
            return sum(candidate) <= 4

        PredicatePincer(predicate).mine(range(1, 5))
        assert len(asked) == len(set(asked))

    def test_stats_report_calls_and_rounds(self):
        miner = PredicatePincer(lambda s: len(s) <= 1)
        result, stats = miner.mine(range(1, 6))
        assert stats.oracle_calls > 0
        assert stats.rounds >= 1
        assert result == {(i,) for i in range(1, 6)}

    def test_top_down_shortcut_counts(self):
        miner = PredicatePincer(lambda s: True)
        result, stats = miner.mine(range(1, 9))
        # the universe element satisfies immediately: one round
        assert stats.rounds == 1
        assert stats.maximal_found_top_down == 1


class TestAntimonotoneChecking:
    def test_violation_detected(self):
        # "sum is even" is not anti-monotone
        with pytest.raises(ValueError, match="not anti-monotone"):
            maximal_satisfying_sets(
                range(1, 5), lambda s: sum(s) % 2 == 0
            )

    def test_check_can_be_disabled(self):
        # with checking off the result is undefined but must not raise
        maximal_satisfying_sets(
            range(1, 5), lambda s: sum(s) % 2 == 0,
            check_antimonotone=False,
        )


class TestAgainstBruteForce:
    def test_randomised_downward_closed_families(self):
        rng = random.Random(31)
        for trial in range(60):
            n = rng.randint(1, 8)
            family = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
                for _ in range(rng.randint(0, 5))
            ]

            def predicate(candidate, family=family):
                return any(set(candidate) <= member for member in family)

            assert maximal_satisfying_sets(
                range(1, n + 1), predicate
            ) == brute_force_maximal_satisfying_sets(
                range(1, n + 1), predicate
            )

    def test_frequency_predicate_runs_pure_pincer_search(self):
        # frequency is one anti-monotone predicate: the oracle miner asks
        # exactly what pure Pincer-Search counts, once per distinct itemset
        rng = random.Random(33)
        for trial in range(30):
            db = TransactionDatabase([
                rng.sample(range(12), rng.randint(0, 7))
                for _ in range(rng.randint(10, 60))
            ])
            threshold = rng.randint(2, 6)
            miner = PincerSearch(adaptive=False, engine="naive")
            mined = miner.mine(db, min_count=threshold)

            def predicate(candidate, db=db, threshold=threshold):
                return db.support_count(candidate) >= threshold

            result, stats = PredicatePincer(predicate).mine(db.universe)
            assert result == set(mined.mfs)
            assert result == brute_force_maximal_satisfying_sets(
                db.universe, predicate
            )
            assert stats.oracle_calls == len(mined.supports)
            assert stats.oracle_calls == mined.stats.total_candidates
            assert stats.rounds == mined.stats.num_passes

    def test_randomised_weight_thresholds(self):
        rng = random.Random(32)
        for trial in range(60):
            n = rng.randint(1, 8)
            weights = {item: rng.random() for item in range(1, n + 1)}
            cap = rng.random() * n / 2

            def predicate(candidate, weights=weights, cap=cap):
                return sum(weights[item] for item in candidate) <= cap

            assert maximal_satisfying_sets(
                range(1, n + 1), predicate
            ) == brute_force_maximal_satisfying_sets(
                range(1, n + 1), predicate
            )
