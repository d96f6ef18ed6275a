"""Unit tests for the adaptivity policy (repro.core.adaptive)."""

from dataclasses import replace

import pytest

from repro.algorithms.brute_force import brute_force_mfs
from repro.core.adaptive import AdaptivePolicy, AlwaysMaintain
from repro.core.pincer import PincerSearch
from repro.datagen.configs import parse_name
from repro.datagen.quest import QuestGenerator
from repro.db.transaction_db import TransactionDatabase


def quest_db(name, num_patterns):
    """A 2,000-row, 1,000-item Quest database of the paper's families."""
    config = parse_name(name, num_patterns=num_patterns, num_items=1000, seed=1)
    return QuestGenerator(replace(config, num_transactions=2000)).generate()


class TestDefaults:
    def test_fresh_policy_keeps_mfcs(self):
        policy = AdaptivePolicy()
        for pass_number in range(1, 10):
            assert policy.keep_after_classification(pass_number, 50, 100)

    def test_caps_are_exposed_for_updates(self):
        policy = AdaptivePolicy(mfcs_work_cap=99)
        assert policy.update_caps(0) == (None, 99)


class TestTriggers:
    def test_frequent_ratio_fires_only_at_pass_two(self):
        policy = AdaptivePolicy(frequent_ratio_floor=0.1)
        assert not policy.keep_after_classification(2, 9, 100)
        assert policy.keep_after_classification(2, 10, 100)
        for pass_number in (1, 3, 4, 7):
            assert policy.keep_after_classification(pass_number, 0, 100)

    def test_small_samples_tell_nothing(self):
        policy = AdaptivePolicy(frequent_ratio_floor=0.5, min_ratio_sample=20)
        assert policy.keep_after_classification(2, 0, 19)
        assert not policy.keep_after_classification(2, 0, 20)
        # an empty pass 2 never divides by zero
        assert AdaptivePolicy(min_ratio_sample=0).keep_after_classification(
            2, 0, 0
        )

    def test_abandonment_is_permanent(self):
        # abandoned at pass 2, the mine counts no MFCS element afterwards
        db = TransactionDatabase(
            [[1, 2, 3, 4]] * 4 + [[5, 6, 7, 8, 9]] * 2 + [[5, 6, 7]]
            + [[1, 5], [2, 6], [3, 7], [4, 8]]
        )
        policy = AdaptivePolicy(frequent_ratio_floor=1.0, min_ratio_sample=1)
        result = PincerSearch(policy=policy).mine(db, min_count=3)
        assert result.stats.abandon_reason == "frequent-ratio"
        assert result.stats.abandoned_at_pass == 2
        assert [p.mfcs_candidates for p in result.stats.passes[2:]] == [0] * (
            len(result.stats.passes) - 2
        )
        assert set(result.mfs) == brute_force_mfs(db, min_count=3)

    def test_forced_abandon(self):
        # a zero work budget stops the first MFCS-gen update that splits
        db = TransactionDatabase([[1, 2, 3]] * 3 + [[1, 2], [2, 3], [4]])
        policy = AdaptivePolicy(mfcs_work_cap=0)
        result = PincerSearch(policy=policy).mine(db, min_count=3)
        assert result.stats.abandon_reason == "mfcs-update-cap"
        assert result.stats.abandoned_at_pass == 1
        assert set(result.mfs) == brute_force_mfs(db, min_count=3)


class TestPaperRegimes:
    """The default miner on the paper's two Quest families."""

    def test_concentrated_figure4_cell_keeps_the_mfcs(self):
        # T20.I6 with |L| = 50 at 11%: the pass-2 ratio is far above the
        # floor, so the MFCS carries the mine to the end
        result = PincerSearch().mine(quest_db("T20.I6.D100K", 50), 0.11)
        assert result.stats.abandon_reason is None
        assert result.stats.abandoned_at_pass is None
        assert result.stats.total_maximal_found_in_mfcs > 0

    def test_scattered_figure3_cell_abandons_at_pass_two(self):
        # T10.I4 with |L| = 2000 at 1%: few of the pairs are frequent
        result = PincerSearch().mine(quest_db("T10.I4.D100K", 2000), 0.01)
        assert result.stats.abandon_reason == "frequent-ratio"
        assert result.stats.abandoned_at_pass == 2
        assert "MFCS abandoned at pass 2 (frequent-ratio)" in (
            result.stats.summary()
        )


class TestLengthGuard:
    def test_long_maximal_blocks_all_triggers(self):
        policy = AdaptivePolicy(
            frequent_ratio_floor=1.0, min_ratio_sample=1,
            mfcs_work_cap=0, abandon_length_cap=10,
        )
        # both triggers would fire, but a 15-item maximal was found
        assert policy.keep_after_classification(2, 0, 1000, 15)
        assert policy.update_caps(15) == (None, None)

    def test_short_maximal_does_not_block(self):
        policy = AdaptivePolicy(
            frequent_ratio_floor=1.0, mfcs_work_cap=0, abandon_length_cap=10
        )
        assert not policy.keep_after_classification(2, 0, 1000, 3)
        assert policy.update_caps(3) == (None, 0)


class TestValidation:
    def test_rejects_bad_ratio(self):
        for bad in (-0.01, 1.5):
            with pytest.raises(ValueError):
                AdaptivePolicy(frequent_ratio_floor=bad)

    def test_rejects_negative_work_cap(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(mfcs_work_cap=-1)
        assert AdaptivePolicy(mfcs_work_cap=None).update_caps(0) == (None, None)


class TestFixedPolicies:
    def test_always_maintain_never_gives_up(self):
        policy = AlwaysMaintain()
        for pass_number in range(1, 40):
            assert policy.keep_after_classification(pass_number, 0, 10 ** 6)
        assert policy.update_caps(0) == (None, None)

    def test_always_maintain_refuses_forced_abandon(self):
        with pytest.raises(AssertionError):
            AlwaysMaintain().abandon()


class TestPassRateEstimator:
    def test_none_until_first_observation(self):
        from repro.core.adaptive import PassRateEstimator

        estimator = PassRateEstimator()
        assert estimator.rate is None
        assert estimator.observe(0, 1.0) is None     # nothing counted
        assert estimator.observe(100, 0.0) is None   # clock too coarse

    def test_first_observation_sets_rate_exactly(self):
        from repro.core.adaptive import PassRateEstimator

        estimator = PassRateEstimator()
        assert estimator.observe(500, 0.5) == 1000.0

    def test_ewma_smooths_subsequent_passes(self):
        from repro.core.adaptive import PassRateEstimator

        estimator = PassRateEstimator(alpha=0.5)
        estimator.observe(1000, 1.0)   # 1000 c/s
        assert estimator.observe(3000, 1.0) == 2000.0  # (1000+3000)/2

    def test_alpha_validation(self):
        from repro.core.adaptive import PassRateEstimator

        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                PassRateEstimator(alpha=bad)
