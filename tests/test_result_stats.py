"""Tests for MiningResult / MiningStats / MiningTimeout."""

import pytest

from repro.core.result import MiningResult, MiningTimeout
from repro.core.stats import MiningStats


def make_result(**overrides):
    defaults = dict(
        mfs=frozenset({(1, 2), (3,)}),
        supports={(1, 2): 3, (3,): 2, (1,): 4},
        num_transactions=5,
        min_support_count=2,
        min_support=0.4,
        algorithm="test",
    )
    defaults.update(overrides)
    return MiningResult(**defaults)


class TestMiningResult:
    def test_rejects_non_antichain_mfs(self):
        with pytest.raises(ValueError, match="antichain"):
            make_result(mfs=frozenset({(1,), (1, 2)}),
                        supports={(1,): 3, (1, 2): 2})

    def test_rejects_mfs_member_without_support(self):
        with pytest.raises(ValueError, match="supports"):
            make_result(supports={(1, 2): 3})

    def test_is_frequent_via_subset_of_mfs(self):
        result = make_result()
        assert result.is_frequent((1,))
        assert result.is_frequent((1, 2))
        assert result.is_frequent((3,))
        assert not result.is_frequent((1, 3))
        assert not result.is_frequent((4,))

    def test_empty_itemset_frequent_iff_mfs_nonempty(self):
        assert make_result().is_frequent(())
        empty = MiningResult(frozenset(), {}, 5, 2, 0.4, "t")
        assert not empty.is_frequent(())

    def test_frequent_itemsets_closure(self):
        assert make_result().frequent_itemsets() == {
            (1,), (2,), (1, 2), (3,),
        }

    def test_support_lookups(self):
        result = make_result()
        assert result.support_count((1, 2)) == 3
        assert result.support((1, 2)) == pytest.approx(0.6)
        assert result.support_count((9,)) is None
        assert result.support((9,)) is None

    def test_support_normalises_input_order(self):
        assert make_result().support_count([2, 1]) == 3

    def test_sorted_mfs(self):
        assert make_result().sorted_mfs() == [(3,), (1, 2)]

    def test_longest_maximal(self):
        assert make_result().longest_maximal() == (1, 2)
        empty = MiningResult(frozenset(), {}, 5, 2, 0.4, "t")
        assert empty.longest_maximal() is None

    def test_repr(self):
        assert "test" in repr(make_result())


class TestMiningStats:
    def test_new_pass_appends(self):
        stats = MiningStats(algorithm="x")
        first = stats.new_pass(1)
        first.bottom_up_candidates = 10
        assert stats.num_passes == 1
        assert stats.total_candidates == 10

    def test_candidate_totals_split_at_pass_two(self):
        stats = MiningStats()
        for pass_number, candidates in ((1, 100), (2, 200), (3, 30), (4, 4)):
            pass_stats = stats.new_pass(pass_number)
            pass_stats.bottom_up_candidates = candidates
        assert stats.total_candidates == 334
        assert stats.candidates_after_pass2 == 34

    def test_mfcs_candidates_included_in_totals(self):
        stats = MiningStats()
        pass_stats = stats.new_pass(3)
        pass_stats.bottom_up_candidates = 5
        pass_stats.mfcs_candidates = 7
        assert pass_stats.total_candidates == 12
        assert stats.candidates_after_pass2 == 12

    def test_total_maximal_found(self):
        stats = MiningStats()
        stats.new_pass(1).maximal_found = 2
        stats.new_pass(2).maximal_found = 3
        assert stats.total_maximal_found_in_mfcs == 5

    def test_summary_mentions_key_numbers(self):
        stats = MiningStats(algorithm="pincer-search")
        stats.new_pass(1).bottom_up_candidates = 9
        text = stats.summary()
        assert "pincer-search" in text
        assert "1 passes" in text
        assert "9 candidates" in text


class TestMiningTimeout:
    def test_carries_partial_stats(self):
        stats = MiningStats(algorithm="apriori")
        stats.new_pass(1)
        error = MiningTimeout("apriori", 12.5, stats)
        assert error.algorithm == "apriori"
        assert error.seconds == 12.5
        assert error.stats.num_passes == 1
        assert "12.5" in str(error)
