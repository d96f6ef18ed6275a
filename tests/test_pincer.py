"""Algorithm-level tests for Pincer-Search (repro.core.pincer)."""

from itertools import combinations

import pytest

from repro.algorithms.brute_force import brute_force_mfs
from repro.core.adaptive import AdaptivePolicy, AlwaysMaintain
from repro.core.pincer import PincerSearch, pincer_search, resolve_threshold
from repro.db.counting import get_counter
from repro.db.transaction_db import TransactionDatabase


def toy_db():
    # frequent at 50% (threshold 2 of 4): {1,2,3} and all its subsets
    return TransactionDatabase([[1, 2, 3], [1, 2, 3], [1, 2], [3, 4]])


def abandoning_db():
    # at min_count=3 pass 2 finds 9 frequent of 28 pairs, so a policy
    # with a frequent-ratio floor of 1.0 abandons the MFCS there
    return TransactionDatabase(
        [[1, 2, 3, 4]] * 4 + [[5, 6, 7, 8, 9]] * 2 + [[5, 6, 7]]
        + [[1, 5], [2, 6], [3, 7], [4, 8]]
    )


def pass_stats(result):
    """Every per-pass field but the wall clock."""
    return [
        {key: value for key, value in p.to_dict().items() if key != "seconds"}
        for p in result.stats.passes
    ]


class TestBasicMining:
    def test_finds_single_maximal_itemset(self):
        result = pincer_search(toy_db(), 0.5)
        assert set(result.mfs) == {(1, 2, 3)}

    def test_min_count_equivalent_to_fraction(self):
        by_fraction = pincer_search(toy_db(), 0.5)
        by_count = pincer_search(toy_db(), min_count=2)
        assert by_fraction.mfs == by_count.mfs

    def test_everything_infrequent_gives_empty_mfs(self):
        db = TransactionDatabase([[1], [2], [3], [4]])
        assert pincer_search(db, 0.9).mfs == frozenset()

    def test_whole_universe_frequent_in_one_pass(self):
        db = TransactionDatabase([[1, 2, 3]] * 4)
        result = pincer_search(db, 1.0, adaptive=False)
        assert set(result.mfs) == {(1, 2, 3)}
        # the initial MFCS element is counted frequent immediately
        assert result.stats.num_passes == 1
        assert result.stats.total_maximal_found_in_mfcs == 1

    def test_empty_database(self):
        result = pincer_search(TransactionDatabase([]), 0.5)
        assert result.mfs == frozenset()
        assert result.stats.num_passes == 0

    def test_database_with_empty_transactions_only(self):
        result = pincer_search(TransactionDatabase([[], []]), 0.5)
        assert result.mfs == frozenset()

    def test_zero_support_universe_items_are_ignored(self):
        db = TransactionDatabase([[1, 2], [1, 2]], universe=range(1, 30))
        result = pincer_search(db, 0.5)
        assert set(result.mfs) == {(1, 2)}

    def test_singleton_database(self):
        db = TransactionDatabase([[5]])
        assert set(pincer_search(db, 1.0).mfs) == {(5,)}


class TestResultContents:
    def test_supports_cover_mfs_members(self):
        result = pincer_search(toy_db(), 0.5)
        for member in result.mfs:
            assert result.supports[member] == toy_db().support_count(member)

    def test_result_metadata(self):
        result = pincer_search(toy_db(), 0.5)
        assert result.num_transactions == 4
        assert result.min_support_count == 2
        assert result.min_support == 0.5
        assert result.algorithm == "pincer-search"

    def test_pure_variant_is_named_distinctly(self):
        result = pincer_search(toy_db(), 0.5, adaptive=False)
        assert result.algorithm == "pincer-search-pure"

    def test_stats_passes_record_counting_work(self):
        result = pincer_search(toy_db(), 0.5, adaptive=False)
        assert result.stats.num_passes >= 1
        assert result.stats.total_candidates >= 4  # at least C_1


class TestParameterValidation:
    def test_requires_exactly_one_threshold(self):
        with pytest.raises(ValueError):
            pincer_search(toy_db())
        with pytest.raises(ValueError):
            pincer_search(toy_db(), 0.5, min_count=2)

    def test_rejects_nonpositive_min_count(self):
        with pytest.raises(ValueError):
            pincer_search(toy_db(), min_count=0)

    def test_resolve_threshold_on_empty_db(self):
        db = TransactionDatabase([])
        count, fraction = resolve_threshold(db, None, 3)
        assert count == 3
        assert fraction == 1.0

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            pincer_search(toy_db(), 1.5)


class TestEngineAndCounterInjection:
    @pytest.mark.parametrize("engine", ["naive", "bitmap", "hashtree", "trie"])
    def test_all_engines_same_answer(self, engine):
        result = pincer_search(toy_db(), 0.5, engine=engine)
        assert set(result.mfs) == {(1, 2, 3)}

    def test_explicit_counter_records_passes(self):
        counter = get_counter("bitmap")
        miner = PincerSearch(adaptive=False)
        result = miner.mine(toy_db(), 0.5, counter=counter)
        assert counter.passes == result.stats.num_passes
        assert counter.records_read == result.stats.records_read


class AbandonAfterPass(AdaptivePolicy):
    """Maintains the MFCS through pass ``k``, then abandons it: late
    abandonment with a non-empty MFS forces the A6 rebuild.  The miner
    books every pre-update abandonment as ``frequent-ratio``."""

    def __init__(self, k):
        super().__init__(abandon_length_cap=10 ** 6)
        self.k = k

    def keep_after_classification(self, pass_number, *args):
        return pass_number <= self.k


class TestPolicies:
    def test_abandonment_midway_still_correct(self):
        db = TransactionDatabase(
            [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2], [3, 4], [5, 6], [5, 6]]
        )
        pure = pincer_search(db, 2 / 6, adaptive=False)
        for k in (1, 2):
            result = pincer_search(db, 2 / 6, policy=AbandonAfterPass(k))
            assert result.mfs == pure.mfs, k
            assert result.stats.abandoned_at_pass == k + 1, k

    def test_rebuild_classifies_covered_pairs_without_counting(self):
        # the warm seed's (1, 2, 3, 4) is maximal in pass 1, so pass 2 never
        # counts its pairs; abandoning after pass 2 rebuilds from level 1,
        # where the MFS classifies those pairs frequent with no count and
        # the sweep counts only (5, 6, 7), which nothing covers
        db = abandoning_db()
        seed = sorted(pincer_search(db, min_count=2).mfs)
        assert (1, 2, 3, 4) in seed
        counter = get_counter("bitmap")
        counted = []
        count = counter.count

        def spy(db, candidates):
            batch = list(candidates)
            counted.append(batch)
            return count(db, batch)

        counter.count = spy
        policy = AdaptivePolicy(frequent_ratio_floor=1.0, min_ratio_sample=1)
        result = PincerSearch(policy=policy).mine(
            db, min_count=3, counter=counter, initial_mfcs=seed
        )
        assert result.stats.abandon_reason == "frequent-ratio"
        assert set(result.mfs) == brute_force_mfs(db, min_count=3)
        everything = set().union(*counted)
        for pair in combinations((1, 2, 3, 4), 2):
            assert pair not in everything
            assert pair not in result.supports
        # pass 3 is the sweep's level 3
        assert counted[2:] == [[(5, 6, 7)]]
        assert [p.pass_number for p in result.stats.passes] == [1, 2, 3]

    def test_explicit_policy_starts_every_mine_afresh(self):
        # the policy abandons after pass 2; a second mine on the same
        # miner must maintain the MFCS through passes 1 and 2 again
        policy = AdaptivePolicy(frequent_ratio_floor=1.0, min_ratio_sample=1)
        miner = PincerSearch(policy=policy)
        first, second = (
            miner.mine(abandoning_db(), min_count=3) for _ in range(2)
        )
        assert [p.mfcs_candidates for p in first.stats.passes[:2]] == [1, 1]
        assert pass_stats(second) == pass_stats(first)
        assert second.mfs == first.mfs
        assert second.stats.abandon_reason == "frequent-ratio"
        assert second.stats.abandoned_at_pass == 2

    def test_observation2_prunes_mfs_subsets(self):
        # with a concentrated database the pure pincer discovers the long
        # maximal itemset top-down and never counts its subsets bottom-up
        db = TransactionDatabase([[1, 2, 3, 4, 5]] * 9 + [[1, 6]])
        result = pincer_search(db, 0.5, adaptive=False)
        assert (1, 2, 3, 4, 5) in result.mfs
        pruned = sum(
            stats.pruned_as_mfs_subsets for stats in result.stats.passes
        )
        assert pruned > 0 or result.stats.num_passes <= 2


class TestPassAccounting:
    def test_passes_equal_database_reads(self):
        counter = get_counter("bitmap")
        result = PincerSearch(adaptive=False).mine(
            toy_db(), 0.5, counter=counter
        )
        assert result.stats.num_passes == counter.passes

    def test_candidates_after_pass2_excludes_early_passes(self):
        result = pincer_search(toy_db(), 0.5, adaptive=False)
        total = result.stats.total_candidates
        late = result.stats.candidates_after_pass2
        early = sum(
            stats.total_candidates
            for stats in result.stats.passes
            if stats.pass_number <= 2
        )
        assert total == late + early


def join_based_recovered(level_frequents, next_candidates):
    """The recovered count as the plain join defines it."""
    from repro.core.candidates import apriori_join

    plain = apriori_join(level_frequents)
    return sum(1 for candidate in next_candidates if candidate not in plain)


def planted_db(seed, rows=300, items=24):
    """Rows drawn around a few long planted patterns, plus noise."""
    import random

    rng = random.Random(seed)
    patterns = [rng.sample(range(items), rng.randint(4, 9)) for _ in range(4)]
    data = []
    for _ in range(rows):
        row = set(rng.choice(patterns))
        row.difference_update(rng.sample(sorted(row), rng.randint(0, 2)))
        row.update(rng.sample(range(items), rng.randint(0, 3)))
        data.append(sorted(row))
    return TransactionDatabase(data)


class TestRecoveredCount:
    """Each pass's ``recovered_candidates`` comes from two lookups per
    candidate (and from the pair level's items at k = 1), and must equal
    the count the plain join gives."""

    @staticmethod
    def checked_mine(monkeypatch, db, support, miner=None, **options):
        import repro.core.pincer as pincer_module

        real = pincer_module._count_recovered
        seen = []

        def checked(level_frequents, next_candidates):
            got = real(level_frequents, next_candidates)
            seen.append(
                (got, join_based_recovered(level_frequents, next_candidates))
            )
            return got

        monkeypatch.setattr(pincer_module, "_count_recovered", checked)
        miner = miner if miner is not None else PincerSearch()
        result = miner.mine(db, support, **options)
        assert [got for got, _ in seen] == [want for _, want in seen]
        recorded = [p.recovered_candidates for p in result.stats.passes]
        assert sum(recorded) <= sum(got for got, _ in seen)
        return seen

    @pytest.mark.parametrize("kernel", ["tuple", "bitmask"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_databases(self, monkeypatch, kernel, seed):
        db = planted_db(seed)
        seen = []
        for support in (0.3, 0.2, 0.12):
            seen += self.checked_mine(
                monkeypatch, db, support,
                PincerSearch(kernel=kernel, policy=AlwaysMaintain()),
            )
        assert seen

    @pytest.mark.parametrize("kernel", ["tuple", "bitmask"])
    @pytest.mark.parametrize("seed", range(6))
    def test_warm_seeds_recover_at_pass_one(self, monkeypatch, kernel, seed):
        # a seed member found maximal in pass 1 leaves L1, and the k = 1
        # recovery pairs its items with L1's (a pair level on bitmasks)
        db = planted_db(seed)
        for low, high in ((0.12, 0.2), (0.2, 0.3), (0.12, 0.3)):
            family = sorted(PincerSearch(kernel=kernel).mine(db, low).mfs)
            self.checked_mine(
                monkeypatch, db, high,
                PincerSearch(kernel=kernel, policy=AlwaysMaintain()),
                initial_mfcs=family,
            )

    def test_recovery_is_exercised(self, monkeypatch):
        seen = []
        for seed in range(6):
            for support in (0.3, 0.2, 0.12):
                seen += self.checked_mine(
                    monkeypatch, planted_db(seed), support,
                    PincerSearch(policy=AlwaysMaintain()),
                )
        assert any(got for got, _ in seen)

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_levels(self, seed):
        import random

        from repro.core.pincer import _count_recovered
        from repro.db.base import PairLevel

        rng = random.Random(seed)
        items = sorted(rng.sample(range(40), rng.randint(2, 12)))
        frequent = [(item,) for item in items if rng.random() < 0.7]
        whole = PairLevel(items)
        dropped = [pair for pair in whole if rng.random() < 0.3]
        for level in (whole, whole.without(dropped)):
            assert _count_recovered(frequent, level) == (
                join_based_recovered(frequent, level)
            )

    @pytest.mark.parametrize(
        "pattern_size, supports",
        [(6, (18.0, 15.0, 12.0, 11.0)), (10, (12.0, 9.0, 6.0)),
         (15, (9.0, 8.0, 7.0))],
    )
    def test_figure4_cells(self, monkeypatch, pattern_size, supports):
        # the paper's Figure 4 shape (T20, |L| = 50, N = 1000) at 2,000 rows
        from repro.datagen.quest import QuestConfig, generate

        db = generate(
            QuestConfig(2000, 20, pattern_size, num_patterns=50,
                        num_items=1000),
            seed=1,
        )
        for support in supports:
            self.checked_mine(monkeypatch, db, support / 100.0)
