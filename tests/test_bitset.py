"""Unit tests for the interned item universe (repro.core.bitset)."""

from itertools import combinations
from math import comb

import pytest

from repro.core.bitset import (
    ItemUniverse,
    bits_of,
    candidate_upper_bound,
    popcount,
)


class TestPrimitives:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount((1 << 300) | 1) == 2

    def test_bits_of_ascending(self):
        assert list(bits_of(0)) == []
        assert list(bits_of(0b10110)) == [1, 2, 4]


class TestItemUniverse:
    def test_bit_positions_follow_item_order(self):
        universe = ItemUniverse([30, 10, 20])
        assert universe.items == (10, 20, 30)
        assert universe.mask_of((10,)) == 0b001
        assert universe.mask_of((30,)) == 0b100
        assert universe.full_mask == 0b111
        assert len(universe) == 3
        assert 20 in universe and 40 not in universe

    def test_roundtrip_interning(self):
        universe = ItemUniverse(range(10))
        original = (2, 3, 7)
        mask = universe.mask_of(original)
        # both directions are interned: decode returns the same object
        assert universe.itemset_of(mask) is original
        assert universe.mask_of(original) == mask

    def test_decode_unseen_mask_is_canonical(self):
        universe = ItemUniverse([5, 1, 9])
        assert universe.itemset_of(0b111) == (1, 5, 9)

    def test_mask_of_raises_on_foreign(self):
        universe = ItemUniverse([1, 2])
        with pytest.raises(KeyError):
            universe.mask_of((1, 3))

    def test_raw_mask_of_does_not_intern(self):
        universe = ItemUniverse(range(8))
        assert universe.raw_mask_of((1, 2)) == 0b110
        assert universe.raw_mask_of((1, 99)) is None
        # the throwaway probe must not have touched the decode cache
        assert universe.itemset_of(0b110) == (1, 2)

    def test_masks_of(self):
        universe = ItemUniverse(range(5))
        assert universe.masks_of([(0,), (0, 1)]) == [0b01, 0b11]


class TestCandidateUpperBound:
    def test_paper_values(self):
        assert candidate_upper_bound(4, 2) == 1
        assert candidate_upper_bound(6, 2) == 4
        assert candidate_upper_bound(0, 3) == 0
        assert candidate_upper_bound(10, 0) == 0

    def test_complete_level_is_tight(self):
        # L_k = all k-subsets of an m-item set attains the bound exactly
        for m, k in [(5, 2), (6, 3), (7, 2)]:
            assert candidate_upper_bound(comb(m, k), k) == comb(m, k + 1)

    def test_bound_dominates_apriori_gen(self):
        # brute force: for every 2-subset family of a 6-item universe of
        # a few random-ish sizes, the join+prune output cannot exceed it
        items = range(6)
        pairs = list(combinations(items, 2))
        for size in (3, 5, 8, 11, 15):
            family = set(pairs[:size])
            joined = set()
            for a, b in combinations(sorted(family), 2):
                union = tuple(sorted(set(a) | set(b)))
                if len(union) == 3 and all(
                    sub in family for sub in combinations(union, 2)
                ):
                    joined.add(union)
            assert len(joined) <= candidate_upper_bound(size, 2)

    def test_monotone_in_level_size(self):
        previous = 0
        for size in range(1, 40):
            bound = candidate_upper_bound(size, 3)
            assert bound >= previous
            previous = bound
