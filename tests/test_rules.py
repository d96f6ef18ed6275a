"""Tests for association-rule generation (repro.rules)."""

import pytest

from repro.algorithms.apriori import Apriori
from repro.core.pincer import pincer_search
from repro.db.transaction_db import TransactionDatabase
from repro.rules.from_mfs import (
    expand_mfs_supports,
    mfs_subsets_to_depth,
    rules_from_mfs,
)
from repro.rules.generation import (
    AssociationRule,
    generate_rules,
    interesting_rules,
)


def rule_db():
    # strong rule: {2} -> {1} (conf 1.0); weaker: {1} -> {2} (conf 0.75)
    return TransactionDatabase([[1, 2], [1, 2], [1, 2], [1], [3]])


class TestAssociationRule:
    def test_validates_non_empty_sides(self):
        with pytest.raises(ValueError):
            AssociationRule((), (1,), 0.5, 0.9)
        with pytest.raises(ValueError):
            AssociationRule((1,), (), 0.5, 0.9)

    def test_validates_disjoint_sides(self):
        with pytest.raises(ValueError):
            AssociationRule((1,), (1, 2), 0.5, 0.9)

    def test_itemset_property(self):
        rule = AssociationRule((2,), (1,), 0.6, 1.0)
        assert rule.itemset == (1, 2)

    def test_str_rendering(self):
        rule = AssociationRule((2,), (1,), 0.6, 1.0)
        assert str(rule) == "{2} -> {1}  (sup=0.6000, conf=1.0000)"


class TestGenerateRules:
    def test_confidence_threshold_filters(self):
        supports = {(1,): 4, (2,): 3, (1, 2): 3}
        rules = generate_rules(supports, 5, 0.9)
        assert [(r.antecedent, r.consequent) for r in rules] == [((2,), (1,))]

    def test_confidence_and_support_values(self):
        supports = {(1,): 4, (2,): 3, (1, 2): 3}
        (rule,) = generate_rules(supports, 5, 0.9)
        assert rule.confidence == pytest.approx(1.0)
        assert rule.support == pytest.approx(3 / 5)
        assert rule.lift == pytest.approx(1.0 / (4 / 5))

    def test_multi_item_consequents_are_grown(self):
        # perfect correlation: every rule from {1,2,3} has confidence 1
        supports = {
            (1,): 4, (2,): 4, (3,): 4,
            (1, 2): 4, (1, 3): 4, (2, 3): 4, (1, 2, 3): 4,
        }
        rules = generate_rules(supports, 4, 0.99)
        consequents = {
            rule.consequent for rule in rules if rule.itemset == (1, 2, 3)
        }
        assert consequents == {
            (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
        }

    def test_min_support_count_excludes_rare_itemsets(self):
        supports = {(1,): 4, (2,): 3, (1, 2): 1}
        assert generate_rules(supports, 5, 0.1, min_support_count=2) == []

    def test_missing_antecedent_support_skips_rule(self):
        supports = {(1, 2): 3, (1,): 4}  # (2,) unknown
        rules = generate_rules(supports, 5, 0.0)
        assert [(r.antecedent, r.consequent) for r in rules] == [((1,), (2,))]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_rules({}, 5, 1.5)
        with pytest.raises(ValueError):
            generate_rules({}, 0, 0.5)

    def test_agrees_with_exhaustive_enumeration(self):
        from itertools import combinations

        db = TransactionDatabase(
            [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3], [4]]
        )
        supports = Apriori().frequent_itemsets(db, min_count=2)
        minconf = 0.7
        got = {
            (rule.antecedent, rule.consequent)
            for rule in generate_rules(supports, len(db), minconf,
                                       min_support_count=2)
        }
        expected = set()
        for itemset_, count in supports.items():
            if len(itemset_) < 2:
                continue
            for size in range(1, len(itemset_)):
                for consequent in combinations(itemset_, size):
                    antecedent = tuple(
                        i for i in itemset_ if i not in consequent
                    )
                    conf = count / supports[antecedent]
                    if conf >= minconf:
                        expected.add((antecedent, consequent))
        assert got == expected


class TestInterestingRules:
    def test_sorted_by_confidence(self):
        rules = [
            AssociationRule((1,), (2,), 0.4, 0.8, lift=1.2),
            AssociationRule((2,), (1,), 0.4, 0.9, lift=1.5),
        ]
        ordered = interesting_rules(rules)
        assert ordered[0].confidence == 0.9

    def test_lift_filter(self):
        rules = [
            AssociationRule((1,), (2,), 0.4, 0.8, lift=0.7),
            AssociationRule((2,), (1,), 0.4, 0.9, lift=1.5),
        ]
        assert len(interesting_rules(rules, min_lift=1.0)) == 1

    def test_top_limits_output(self):
        rules = [
            AssociationRule((i,), (i + 100,), 0.4, 0.5 + i / 100, lift=2.0)
            for i in range(10)
        ]
        assert len(interesting_rules(rules, top=3)) == 3

    def test_unknown_lift_dropped_when_filtering(self):
        rules = [AssociationRule((1,), (2,), 0.4, 0.9, lift=None)]
        assert interesting_rules(rules, min_lift=1.0) == []
        assert interesting_rules(rules, min_lift=0.0) == rules


class TestMfsSubsets:
    def test_depth_zero_is_the_mfs(self):
        assert mfs_subsets_to_depth([(1, 2, 3)], 0) == {(1, 2, 3)}

    def test_depth_one_adds_immediate_subsets(self):
        subsets = mfs_subsets_to_depth([(1, 2, 3)], 1)
        assert subsets == {(1, 2, 3), (1, 2), (1, 3), (2, 3)}

    def test_depth_bounded_by_member_length(self):
        subsets = mfs_subsets_to_depth([(1, 2)], 99)
        assert subsets == {(1, 2), (1,), (2,)}

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            mfs_subsets_to_depth([(1, 2)], -1)

    def test_shared_subsets_deduplicated(self):
        subsets = mfs_subsets_to_depth([(1, 2), (2, 3)], 1)
        assert subsets == {(1, 2), (2, 3), (1,), (2,), (3,)}


class TestRulesFromMfs:
    def test_one_extra_pass_counts_missing_subsets(self):
        db = rule_db()
        result = pincer_search(db, 0.5)
        from repro.db.counting import get_counter

        counter = get_counter("bitmap")
        supports = expand_mfs_supports(db, result, depth=2, counter=counter)
        assert counter.passes <= 1  # "by reading the database once"
        assert supports[(1,)] == 4
        assert supports[(2,)] == 3

    def test_rules_match_apriori_based_generation(self):
        db = TransactionDatabase(
            [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3], [4]]
        )
        result = pincer_search(db, min_count=2)
        via_mfs = rules_from_mfs(db, result, 0.7, depth=None)
        supports = Apriori().frequent_itemsets(db, min_count=2)
        via_apriori = generate_rules(supports, len(db), 0.7,
                                     min_support_count=2)
        as_pairs = lambda rules: {
            (r.antecedent, r.consequent, r.confidence) for r in rules
        }
        assert as_pairs(via_mfs) == as_pairs(via_apriori)

    def test_depth_limits_rule_sources(self):
        db = TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]])
        result = pincer_search(db, 0.5)
        shallow = rules_from_mfs(db, result, 0.0, depth=1)
        deep = rules_from_mfs(db, result, 0.0, depth=None)
        assert len(shallow) <= len(deep)

    def test_empty_mfs_yields_no_rules(self):
        db = TransactionDatabase([[1], [2], [3]])
        result = pincer_search(db, 0.9)
        assert rules_from_mfs(db, result, 0.5) == []


class TestDepthHorizon:
    """The rules are a function of the MFS and the depth alone."""

    @staticmethod
    def quest_result(support=0.08):
        from repro.datagen.quest import QuestConfig, generate

        db = generate(
            QuestConfig(400, 10, 4, num_patterns=20, num_items=60), seed=3
        )
        return db, pincer_search(db, support)

    def test_supports_are_exactly_the_depth_expansion(self):
        db, result = self.quest_result()
        for depth in (0, 1, 2):
            supports = expand_mfs_supports(db, result, depth)
            assert set(supports) == mfs_subsets_to_depth(result.mfs, depth)
            for itemset, count in supports.items():
                assert count == db.support_count(itemset)

    def test_counts_only_what_the_mine_did_not(self):
        from repro.db.counting import get_counter

        db, result = self.quest_result()
        wanted = mfs_subsets_to_depth(result.mfs, 2)
        counted = []
        counter = get_counter("bitmap")
        count = counter.count

        def recording(database, batch):
            counted.extend(batch)
            return count(database, batch)

        counter.count = recording
        expand_mfs_supports(db, result, 2, counter=counter)
        assert sorted(counted) == sorted(wanted - set(result.supports))

    def test_extra_counted_supports_change_nothing(self):
        import dataclasses

        db, result = self.quest_result()
        members_only = dataclasses.replace(
            result,
            supports={member: result.supports[member] for member in result.mfs},
        )
        everything = dict(result.supports)
        everything.update(
            Apriori().frequent_itemsets(db, min_count=result.min_support_count)
        )
        counted_more = dataclasses.replace(result, supports=everything)
        as_set = lambda rules: {
            (r.antecedent, r.consequent, r.support, r.confidence, r.lift)
            for r in rules
        }
        answers = [
            as_set(rules_from_mfs(db, variant, 0.6, depth=2))
            for variant in (result, members_only, counted_more)
        ]
        assert answers[0]
        assert answers[0] == answers[1] == answers[2]
