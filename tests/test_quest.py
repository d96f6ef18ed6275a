"""Tests for the IBM Quest generator reimplementation (repro.datagen)."""

import pytest

from repro.datagen.configs import (
    CONCENTRATED,
    CONCENTRATED_SUPPORTS,
    SCATTERED,
    SCATTERED_SUPPORTS,
    parse_name,
    scaled,
)
from repro.datagen.quest import QuestConfig, QuestGenerator, generate


class TestConfig:
    def test_name_round_trip(self):
        config = parse_name("T10.I4.D100K")
        assert config.name == "T10.I4.D100K"
        assert config.num_transactions == 100_000
        assert config.avg_transaction_size == 10.0
        assert config.avg_pattern_size == 4.0

    def test_name_without_k_suffix(self):
        config = parse_name("T5.I2.D500")
        assert config.num_transactions == 500

    def test_fractional_sizes(self):
        config = parse_name("T7.5.I2.5.D1K")
        assert config.avg_transaction_size == 7.5
        assert config.name == "T7.5.I2.5.D1K"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_name("X10.I4.D100K")

    def test_scaled_changes_only_transactions(self):
        base = parse_name("T10.I4.D100K", num_patterns=50, seed=3)
        small = scaled(base, 2000)
        assert small.num_transactions == 2000
        assert small.num_patterns == 50
        assert small.seed == 3
        assert small.name == "T10.I4.D2K"

    def test_validation(self):
        with pytest.raises(ValueError):
            QuestConfig(-1, 10, 4)
        with pytest.raises(ValueError):
            QuestConfig(10, 0, 4)
        with pytest.raises(ValueError):
            QuestConfig(10, 10, 4, num_patterns=0)
        with pytest.raises(ValueError):
            QuestConfig(10, 10, 4, correlation=2.0)

    def test_paper_experiment_catalogues(self):
        assert set(SCATTERED) == set(SCATTERED_SUPPORTS)
        assert set(CONCENTRATED) == set(CONCENTRATED_SUPPORTS)
        assert all(c.num_patterns == 2000 for c in SCATTERED.values())
        assert all(c.num_patterns == 50 for c in CONCENTRATED.values())


def small_config(**overrides):
    defaults = dict(
        num_transactions=500,
        avg_transaction_size=8,
        avg_pattern_size=3,
        num_patterns=20,
        num_items=60,
        seed=7,
    )
    defaults.update(overrides)
    return QuestConfig(**defaults)


class TestPatternPool:
    def test_pool_size_is_num_patterns(self):
        generator = QuestGenerator(small_config())
        assert len(generator.patterns) == 20

    def test_pattern_items_within_universe(self):
        generator = QuestGenerator(small_config())
        for pattern in generator.patterns:
            assert all(1 <= item <= 60 for item in pattern.items)
            assert pattern.items == tuple(sorted(set(pattern.items)))

    def test_weights_normalised(self):
        generator = QuestGenerator(small_config())
        total = sum(pattern.weight for pattern in generator.patterns)
        assert total == pytest.approx(1.0)

    def test_corruption_levels_clamped(self):
        generator = QuestGenerator(small_config())
        assert all(0.0 <= p.corruption <= 1.0 for p in generator.patterns)

    def test_mean_pattern_size_tracks_parameter(self):
        generator = QuestGenerator(small_config(num_patterns=400))
        mean = sum(len(p.items) for p in generator.patterns) / 400
        assert mean == pytest.approx(3.0, abs=0.6)

    def test_correlation_produces_overlap(self):
        correlated = QuestGenerator(small_config(correlation=0.9,
                                                 num_patterns=200))
        independent = QuestGenerator(small_config(correlation=0.0,
                                                  num_patterns=200, seed=8))

        def mean_consecutive_overlap(patterns):
            overlaps = []
            for first, second in zip(patterns, patterns[1:]):
                union = len(set(first.items) | set(second.items))
                if union:
                    overlaps.append(
                        len(set(first.items) & set(second.items)) / union
                    )
            return sum(overlaps) / len(overlaps)

        assert mean_consecutive_overlap(correlated.patterns) > (
            mean_consecutive_overlap(independent.patterns)
        )


class TestTransactions:
    def test_database_shape(self):
        db = generate(small_config())
        assert len(db) == 500
        assert db.universe == tuple(range(1, 61))

    def test_determinism_per_seed(self):
        first = generate(small_config())
        second = generate(small_config())
        assert first == second

    def test_different_seeds_differ(self):
        assert generate(small_config()) != generate(small_config(), seed=99)

    def test_seed_override_via_generate(self):
        config = small_config()
        assert generate(config, seed=5) == generate(small_config(seed=5))

    def test_no_empty_transactions(self):
        db = generate(small_config())
        assert all(len(transaction) >= 1 for transaction in db)

    def test_average_size_tracks_parameter(self):
        db = generate(small_config(num_transactions=2000))
        assert db.average_transaction_size() == pytest.approx(8.0, rel=0.35)

    def test_explicit_count_overrides_config(self):
        generator = QuestGenerator(small_config())
        assert len(generator.generate(37)) == 37

    def test_planted_patterns_have_elevated_support(self):
        # the heaviest pattern should occur (possibly corrupted) clearly
        # more often than a random same-size itemset
        config = small_config(num_transactions=3000)
        generator = QuestGenerator(config)
        db = generator.generate()
        heaviest = max(generator.patterns, key=lambda p: p.weight)
        random_itemset = tuple(range(1, len(heaviest.items) + 1))
        planted_support = db.support_count(heaviest.items)
        baseline = db.support_count(random_itemset)
        assert planted_support >= baseline

    def test_concentrated_config_yields_longer_maximal_itemsets(self):
        from repro.core.pincer import pincer_search

        concentrated = generate(small_config(num_patterns=5, seed=2,
                                             num_transactions=1500))
        scattered = generate(small_config(num_patterns=500, seed=2,
                                          num_transactions=1500))
        minsup = 0.03
        long_c = pincer_search(concentrated, minsup).longest_maximal() or ()
        long_s = pincer_search(scattered, minsup).longest_maximal() or ()
        assert len(long_c) >= len(long_s)
