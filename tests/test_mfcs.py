"""Unit tests for the MFCS structure and MFCS-gen (repro.core.mfcs)."""

import random

import pytest

from repro.core.itemset import is_subset
from repro.core.lattice import is_antichain
from repro.core.mfcs import MFCS


class TestConstruction:
    def test_for_universe(self):
        assert MFCS.for_universe([3, 1, 2]).elements == {(1, 2, 3)}

    def test_for_empty_universe(self):
        mfcs = MFCS.for_universe([])
        assert len(mfcs) == 0
        assert not mfcs

    def test_constructor_keeps_only_maximal_members(self):
        mfcs = MFCS([(1,), (1, 2), (2, 3), (3,)])
        assert mfcs.elements == {(1, 2), (2, 3)}

    def test_container_protocol(self):
        mfcs = MFCS([(1, 2), (3, 4)])
        assert len(mfcs) == 2
        assert (1, 2) in mfcs
        assert (1,) not in mfcs
        assert sorted(mfcs) == [(1, 2), (3, 4)]

    def test_repr_previews_elements(self):
        assert "(1, 2)" in repr(MFCS([(1, 2)]))


class TestAddRemove:
    def test_add_rejects_covered_element(self):
        mfcs = MFCS([(1, 2, 3)])
        assert not mfcs.add((1, 2))
        assert mfcs.elements == {(1, 2, 3)}

    def test_add_removes_swallowed_members(self):
        mfcs = MFCS([(1, 2), (3,)])
        assert mfcs.add((1, 2, 3))
        assert mfcs.elements == {(1, 2, 3)}

    def test_add_empty_is_noop(self):
        mfcs = MFCS([(1,)])
        assert not mfcs.add(())
        assert mfcs.elements == {(1,)}

    def test_remove(self):
        mfcs = MFCS([(1, 2), (3, 4)])
        mfcs.remove((1, 2))
        assert mfcs.elements == {(3, 4)}


class TestExclude:
    def test_exclude_singleton_drops_item_everywhere(self):
        mfcs = MFCS([(1, 2, 3)])
        mfcs.exclude((2,))
        assert mfcs.elements == {(1, 3)}

    def test_exclude_untouched_elements_stay(self):
        mfcs = MFCS([(1, 2), (3, 4)])
        mfcs.exclude((1, 3))  # subset of neither
        assert mfcs.elements == {(1, 2), (3, 4)}

    def test_exclude_rejects_empty(self):
        with pytest.raises(ValueError):
            MFCS([(1,)]).exclude(())

    def test_exclude_element_itself_splits_into_immediate_subsets(self):
        # amendment A2: an infrequent MFCS element is split one level down
        mfcs = MFCS([(1, 2, 3)])
        mfcs.exclude((1, 2, 3))
        assert mfcs.elements == {(1, 2), (1, 3), (2, 3)}

    def test_exclude_drops_empty_replacement(self):
        # amendment A5: a 1-item element excluded leaves nothing behind
        mfcs = MFCS([(1,)])
        mfcs.exclude((1,))
        assert len(mfcs) == 0

    def test_exclude_respects_protected_cover(self):
        # amendment A4: replacements under an MFS member are dropped
        mfcs = MFCS([(2, 4, 5, 6)])
        mfcs.exclude((2, 6), protected=[(1, 2, 3, 4, 5)])
        # {4,5,6} survives; {2,4,5} is a subset of the protected member
        assert mfcs.elements == {(4, 5, 6)}

    def test_update_returns_true_without_caps(self):
        mfcs = MFCS([(1, 2, 3, 4)])
        assert mfcs.update([(1, 2), (3, 4)])

    def test_update_size_cap_aborts(self):
        mfcs = MFCS([tuple(range(1, 11))])
        assert not mfcs.update([(i, i + 1) for i in range(1, 10)], size_cap=2)

    def test_update_work_cap_aborts(self):
        mfcs = MFCS([tuple(range(1, 11))])
        assert not mfcs.update([(1, 2)], work_cap=1)

    def test_update_generous_caps_complete(self):
        mfcs = MFCS([(1, 2, 3, 4, 5)])
        assert mfcs.update([(1, 2)], size_cap=100, work_cap=100000)
        assert mfcs.elements == {(1, 3, 4, 5), (2, 3, 4, 5)}


class TestInvariants:
    def test_antichain_preserved_under_random_excludes(self):
        rng = random.Random(11)
        for trial in range(40):
            universe = tuple(range(1, rng.randint(4, 9)))
            mfcs = MFCS.for_universe(universe)
            infrequents = []
            for _ in range(rng.randint(1, 12)):
                size = rng.randint(1, min(3, len(universe)))
                infrequent = tuple(sorted(rng.sample(universe, size)))
                infrequents.append(infrequent)
                mfcs.exclude(infrequent)
                assert is_antichain(mfcs.elements)
            # Definition 1: no classified infrequent itemset stays covered
            for infrequent in infrequents:
                assert not mfcs.covers(infrequent)

    def test_exclusion_is_permanent(self):
        rng = random.Random(23)
        universe = tuple(range(1, 8))
        mfcs = MFCS.for_universe(universe)
        excluded = []
        for _ in range(10):
            infrequent = tuple(sorted(rng.sample(universe, 2)))
            excluded.append(infrequent)
            mfcs.exclude(infrequent)
            for earlier in excluded:
                assert not mfcs.covers(earlier)

    def test_coverage_only_loses_supersets_of_excluded(self):
        # every subset of the universe that contains no excluded itemset
        # must remain covered (this is the paper's Definition 1 coverage)
        from itertools import combinations

        universe = (1, 2, 3, 4, 5)
        excluded = [(1, 2), (3, 5)]
        mfcs = MFCS.for_universe(universe)
        for infrequent in excluded:
            mfcs.exclude(infrequent)
        for size in range(1, 6):
            for candidate in combinations(universe, size):
                contains_excluded = any(
                    is_subset(bad, candidate) for bad in excluded
                )
                assert mfcs.covers(candidate) == (not contains_excluded)

    def test_check_invariants_hook(self):
        mfcs = MFCS([(1, 2, 3)])
        mfcs.exclude((2, 3))
        mfcs.check_invariants(
            frequent=[(1, 2), (1, 3)], infrequent=[(2, 3)], protected=[]
        )

    def test_check_invariants_detects_missing_coverage(self):
        mfcs = MFCS([(1, 2)])
        with pytest.raises(AssertionError):
            mfcs.check_invariants(frequent=[(3,)])


class TestQueries:
    def test_covers(self):
        mfcs = MFCS([(1, 2, 3)])
        assert mfcs.covers((2, 3))
        assert not mfcs.covers((4,))

    def test_supersets_of(self):
        mfcs = MFCS([(1, 2, 3), (2, 3, 4)])
        assert sorted(mfcs.supersets_of((2, 3))) == [(1, 2, 3), (2, 3, 4)]
