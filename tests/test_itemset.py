"""Unit tests for the itemset algebra (repro.core.itemset)."""

import importlib

import pytest

# repro.core re-exports the itemset() *function*, which shadows the module
# attribute of the same name; load the module itself explicitly.
it = importlib.import_module("repro.core.itemset")


class TestConstruction:
    def test_itemset_sorts_and_dedupes(self):
        assert it.itemset([3, 1, 2, 3, 1]) == (1, 2, 3)

    def test_itemset_of_empty_iterable(self):
        assert it.itemset([]) == ()

    def test_is_canonical_accepts_sorted_distinct(self):
        assert it.is_canonical((1, 2, 5))
        assert it.is_canonical(())
        assert it.is_canonical((7,))

    def test_is_canonical_rejects_unsorted(self):
        assert not it.is_canonical((2, 1))

    def test_is_canonical_rejects_duplicates(self):
        assert not it.is_canonical((1, 1, 2))

    def test_validate_passes_canonical_through(self):
        assert it.validate([1, 2, 3]) == (1, 2, 3)

    def test_validate_raises_on_noncanonical(self):
        with pytest.raises(ValueError):
            it.validate((3, 2))


class TestSetAlgebra:
    def test_difference(self):
        assert it.difference((1, 2, 3, 4), (2, 4)) == (1, 3)

    def test_difference_disjoint(self):
        assert it.difference((1, 2), (3,)) == (1, 2)

    def test_without_item(self):
        assert it.without_item((1, 2, 3), 2) == (1, 3)

    def test_without_missing_item_is_identity(self):
        assert it.without_item((1, 2, 3), 9) == (1, 2, 3)


class TestSubsetTests:
    def test_is_subset_basic(self):
        assert it.is_subset((1, 3), (1, 2, 3))
        assert not it.is_subset((1, 4), (1, 2, 3))

    def test_empty_is_subset_of_everything(self):
        assert it.is_subset((), ())
        assert it.is_subset((), (1,))

    def test_equal_sets_are_subsets(self):
        assert it.is_subset((1, 2), (1, 2))

    def test_longer_is_never_subset(self):
        assert not it.is_subset((1, 2, 3), (1, 2))

    def test_is_proper_subset(self):
        assert it.is_proper_subset((1,), (1, 2))
        assert not it.is_proper_subset((1, 2), (1, 2))

    def test_is_subset_of_any(self):
        assert it.is_subset_of_any((1, 2), [(3,), (1, 2, 4)])
        assert not it.is_subset_of_any((1, 2), [(3,), (2, 4)])

    def test_is_subset_agrees_with_python_sets_on_samples(self):
        samples = [(), (1,), (2, 4), (1, 2, 3), (2, 3, 5), (1, 5)]
        for small in samples:
            for large in samples:
                assert it.is_subset(small, large) == (
                    set(small) <= set(large)
                )


class TestEnumeration:
    def test_k_subsets_in_lexicographic_order(self):
        assert list(it.k_subsets((1, 2, 3), 2)) == [(1, 2), (1, 3), (2, 3)]

    def test_k_subsets_full_length(self):
        assert list(it.k_subsets((1, 2), 2)) == [(1, 2)]

    def test_all_subsets_includes_empty_and_self(self):
        subsets = list(it.all_subsets((1, 2)))
        assert () in subsets and (1, 2) in subsets
        assert len(subsets) == 4

class TestMiscHelpers:
    def test_sort_itemsets_by_length_then_lex(self):
        assert it.sort_itemsets([(2, 3), (1,), (1, 2)]) == [
            (1,), (1, 2), (2, 3),
        ]

    def test_format_itemset(self):
        assert it.format_itemset((1, 2, 5)) == "{1, 2, 5}"

    def test_format_empty_itemset(self):
        assert it.format_itemset(()) == "{}"
