"""Tests for border theory utilities (repro.borders)."""

import random

from repro.algorithms.brute_force import brute_force_frequents, brute_force_mfs
from repro.borders.borders import (
    border_certificate,
    is_downward_closed,
    negative_border,
    positive_border,
)
from repro.core.lattice import downward_closure
from repro.db.transaction_db import TransactionDatabase


class TestPositiveBorder:
    def test_positive_border_is_maximal_elements(self):
        family = [(1,), (2,), (1, 2), (3,)]
        assert positive_border(family) == {(1, 2), (3,)}

    def test_positive_border_of_mining_result_is_mfs(self):
        db = TransactionDatabase([[1, 2, 3], [1, 2], [3]])
        frequents = brute_force_frequents(db, min_count=2)
        assert positive_border(frequents) == brute_force_mfs(db, min_count=2)


class TestNegativeBorder:
    def test_single_infrequent_item(self):
        assert negative_border([(1, 2)], [1, 2, 3]) == {(3,)}

    def test_triangle_example(self):
        # all pairs frequent but the triple is not
        assert negative_border([(1, 2), (1, 3), (2, 3)], [1, 2, 3]) == {
            (1, 2, 3)
        }

    def test_empty_mfs_border_is_all_items(self):
        assert negative_border([], [1, 2]) == {(1,), (2,)}

    def test_universe_frequent_has_empty_border(self):
        assert negative_border([(1, 2, 3)], [1, 2, 3]) == set()

    def test_border_members_are_minimal_infrequent(self):
        rng = random.Random(4)
        for trial in range(25):
            universe = list(range(1, rng.randint(3, 8)))
            transactions = [
                [i for i in universe if rng.random() < 0.6]
                for _ in range(rng.randint(2, 12))
            ]
            db = TransactionDatabase(transactions, universe=universe)
            mfs = brute_force_mfs(db, min_count=2)
            frequents = set(brute_force_frequents(db, min_count=2))
            border = negative_border(mfs, universe)
            for candidate in border:
                assert candidate not in frequents
                for dropped_index in range(len(candidate)):
                    subset = (
                        candidate[:dropped_index]
                        + candidate[dropped_index + 1:]
                    )
                    if subset:
                        assert subset in frequents
            # completeness: every minimal infrequent itemset is found
            from itertools import combinations

            for size in range(1, len(universe) + 1):
                for candidate in combinations(universe, size):
                    if candidate in frequents:
                        continue
                    immediate = [
                        candidate[:i] + candidate[i + 1:]
                        for i in range(len(candidate))
                    ]
                    if all(s in frequents for s in immediate if s):
                        assert candidate in border


class TestCertificate:
    def test_certificate_counts_both_borders(self):
        mfs = [(1, 2)]
        universe = [1, 2, 3]
        assert border_certificate(mfs, universe) == 1 + 1  # {(1,2)} + {(3,)}

    def test_certificate_lower_bounds_apriori_candidates(self):
        from repro.algorithms.apriori import apriori

        db = TransactionDatabase(
            [[1, 2, 3], [1, 2, 3], [2, 3, 4], [1, 4], [1, 2]]
        )
        result = apriori(db, min_count=2)
        certificate = border_certificate(result.mfs, db.universe)
        assert result.stats.total_candidates >= certificate


class TestDownwardClosed:
    def test_closed_family(self):
        assert is_downward_closed([(1,), (2,), (1, 2)])

    def test_open_family(self):
        assert not is_downward_closed([(1, 2)])

    def test_closure_output_is_closed(self):
        assert is_downward_closed(downward_closure([(1, 2, 3), (3, 4)]))

    def test_empty_family_is_closed(self):
        assert is_downward_closed([])
