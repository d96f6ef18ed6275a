"""Unit tests for the adaptivity policy (repro.core.adaptive)."""

import pytest

from repro.core.adaptive import AdaptivePolicy, AlwaysMaintain, NeverMaintain


class TestDefaults:
    def test_fresh_policy_keeps_mfcs(self):
        policy = AdaptivePolicy()
        assert policy.keep_mfcs(1, 10, 100, 0)
        assert not policy.abandoned

    def test_caps_are_exposed_for_updates(self):
        policy = AdaptivePolicy(mfcs_size_cap=7, mfcs_work_cap=99)
        assert policy.update_size_cap == 7
        assert policy.update_work_cap == 99


class TestTriggers:
    def test_size_cap_abandons(self):
        policy = AdaptivePolicy(mfcs_size_cap=5)
        assert not policy.keep_mfcs(2, 6, 1000, 0)
        assert policy.abandoned

    def test_ratio_cap_abandons(self):
        policy = AdaptivePolicy(mfcs_ratio_cap=2.0)
        assert not policy.keep_mfcs(2, 50, 10, 0)
        assert policy.abandoned

    def test_futility_counts_consecutive_empty_passes(self):
        policy = AdaptivePolicy(futile_passes=2, min_passes=1)
        assert policy.keep_mfcs(1, 5, 100, 0)   # streak 1
        assert not policy.keep_mfcs(2, 5, 100, 0)  # streak 2 -> abandon

    def test_futility_resets_on_discovery(self):
        policy = AdaptivePolicy(futile_passes=2, min_passes=1)
        assert policy.keep_mfcs(1, 5, 100, 0)
        assert policy.keep_mfcs(2, 5, 100, 3)   # found maximal: reset
        assert policy.keep_mfcs(3, 5, 100, 0)
        assert not policy.keep_mfcs(4, 5, 100, 0)

    def test_futility_waits_for_min_passes(self):
        policy = AdaptivePolicy(futile_passes=1, min_passes=4)
        for pass_number in range(1, 4):
            assert policy.keep_mfcs(pass_number, 5, 100, 0)
        assert not policy.keep_mfcs(4, 5, 100, 0)

    def test_futility_disabled_with_zero(self):
        policy = AdaptivePolicy(futile_passes=0)
        for pass_number in range(1, 30):
            assert policy.keep_mfcs(pass_number, 5, 100, 0)

    def test_abandonment_is_permanent(self):
        policy = AdaptivePolicy(mfcs_size_cap=1)
        assert not policy.keep_mfcs(1, 5, 100, 0)
        # even a pass that would look fine stays abandoned
        assert not policy.keep_mfcs(2, 1, 100, 5)

    def test_forced_abandon(self):
        policy = AdaptivePolicy()
        policy.abandon()
        assert policy.abandoned
        assert not policy.keep_mfcs(1, 1, 100, 5)


class TestLengthGuard:
    def test_long_maximal_blocks_all_triggers(self):
        policy = AdaptivePolicy(
            mfcs_size_cap=1, mfcs_ratio_cap=0.001, futile_passes=1,
            min_passes=1, abandon_length_cap=10,
        )
        # every trigger condition holds, but a 15-item maximal was found
        assert policy.keep_mfcs(5, 1000, 1, 0, longest_maximal=15)
        assert not policy.abandoned

    def test_short_maximal_does_not_block(self):
        policy = AdaptivePolicy(mfcs_size_cap=1, abandon_length_cap=10)
        assert not policy.keep_mfcs(5, 1000, 1, 0, longest_maximal=3)

    def test_length_guard_resets_futility_streak(self):
        policy = AdaptivePolicy(futile_passes=2, min_passes=1,
                                abandon_length_cap=5)
        assert policy.keep_mfcs(1, 5, 100, 0)            # streak 1
        assert policy.keep_mfcs(2, 5, 100, 0, longest_maximal=9)
        assert policy.keep_mfcs(3, 5, 100, 0)            # streak restarts
        assert not policy.keep_mfcs(4, 5, 100, 0)


class TestValidation:
    def test_rejects_bad_size_cap(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(mfcs_size_cap=0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(mfcs_ratio_cap=0)

    def test_rejects_bad_pass_thresholds(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(min_passes=0)
        with pytest.raises(ValueError):
            AdaptivePolicy(futile_passes=-1)


class TestFixedPolicies:
    def test_always_maintain_never_gives_up(self):
        policy = AlwaysMaintain()
        for pass_number in range(1, 40):
            assert policy.keep_mfcs(pass_number, 10 ** 6, 0, 0)
        assert policy.update_size_cap is None
        assert policy.update_work_cap is None

    def test_always_maintain_refuses_forced_abandon(self):
        with pytest.raises(AssertionError):
            AlwaysMaintain().abandon()

    def test_never_maintain_starts_abandoned(self):
        policy = NeverMaintain()
        assert policy.abandoned
        assert not policy.keep_mfcs(0, 1, 0, 0)


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
