"""End-to-end integration tests: generator -> miners -> rules -> borders.

These run the whole pipeline on miniature versions of the paper's
benchmark workloads (both distribution regimes) and cross-check every
component against every other.
"""

import pytest

from repro import (
    AdaptivePolicy,
    Apriori,
    PincerSearch,
    QuestConfig,
    QuestGenerator,
    top_down,
)
from repro.borders.borders import negative_border, positive_border
from repro.core.lattice import downward_closure
from repro.db import io
from repro.db.counting import get_counter
from repro.rules.from_mfs import rules_from_mfs
from repro.rules.generation import generate_rules

from tests.test_pincer import AbandonAfterPass


def concentrated_db():
    config = QuestConfig(
        num_transactions=600, avg_transaction_size=8, avg_pattern_size=5,
        num_patterns=8, num_items=40, seed=13,
    )
    return QuestGenerator(config).generate()


def scattered_db():
    config = QuestConfig(
        num_transactions=600, avg_transaction_size=6, avg_pattern_size=2,
        num_patterns=150, num_items=60, seed=14,
    )
    return QuestGenerator(config).generate()


@pytest.fixture(scope="module", params=["concentrated", "scattered"])
def workload(request):
    if request.param == "concentrated":
        return concentrated_db(), 0.05
    return scattered_db(), 0.02


class TestMinerAgreement:
    def test_all_miners_same_mfs(self, workload):
        db, minsup = workload
        pincer = PincerSearch().mine(db, minsup)
        pure = PincerSearch(adaptive=False).mine(db, minsup)
        baseline = Apriori().mine(db, minsup)
        assert pincer.mfs == pure.mfs == baseline.mfs

    def test_engines_interchangeable_end_to_end(self, workload):
        db, minsup = workload
        reference = PincerSearch(engine="bitmap").mine(db, minsup).mfs
        for engine in ("naive", "hashtree", "trie"):
            assert PincerSearch(engine=engine).mine(db, minsup).mfs == reference

    def test_hostile_adaptivity_end_to_end(self, workload):
        db, minsup = workload
        reference = Apriori().mine(db, minsup).mfs
        policies = [
            AdaptivePolicy(mfcs_work_cap=500, abandon_length_cap=3),
        ] + [AbandonAfterPass(k) for k in (1, 2, 3, 4)]
        for policy in policies:
            result = PincerSearch(policy=policy).mine(db, minsup)
            assert result.mfs == reference, policy


class TestFrequencySemantics:
    def test_mfs_closure_equals_apriori_frequents(self, workload):
        db, minsup = workload
        pincer = PincerSearch().mine(db, minsup)
        apriori_frequents = set(Apriori().frequent_itemsets(db, minsup))
        assert downward_closure(pincer.mfs) == apriori_frequents

    def test_borders_partition_the_lattice_boundary(self, workload):
        db, minsup = workload
        result = PincerSearch().mine(db, minsup)
        assert positive_border(result.frequent_itemsets()) == set(result.mfs)
        border = negative_border(result.mfs, db.occurring_items())
        for itemset_ in border:
            assert not result.is_frequent(itemset_)


class TestRulesEndToEnd:
    def test_mfs_rules_are_confident_and_frequent(self, workload):
        db, minsup = workload
        result = PincerSearch().mine(db, minsup)
        rules = rules_from_mfs(db, result, min_confidence=0.8, depth=2)
        for rule in rules:
            assert rule.confidence >= 0.8
            assert result.is_frequent(rule.itemset)
            direct = db.support_count(rule.itemset) / len(db)
            assert rule.support == pytest.approx(direct)

    def test_rule_generation_consistent_with_apriori_supports(self, workload):
        db, minsup = workload
        supports = Apriori().frequent_itemsets(db, minsup)
        rules = generate_rules(
            supports, len(db), 0.9,
            min_support_count=db.absolute_support(minsup),
        )
        for rule in rules:
            antecedent_support = supports[rule.antecedent]
            assert rule.confidence == pytest.approx(
                supports[rule.itemset] / antecedent_support
            )


class TestPersistenceRoundTrip:
    def test_save_mine_load_mine(self, tmp_path, workload):
        db, minsup = workload
        before = PincerSearch().mine(db, minsup).mfs
        path = tmp_path / "workload.dat"
        io.save(db, path)
        reloaded = io.load(path)
        after = PincerSearch().mine(reloaded, minsup).mfs
        assert before == after


class TestStatsConsistency:
    def test_counter_and_stats_agree_across_miners(self, workload):
        db, minsup = workload
        for miner in (PincerSearch(), PincerSearch(adaptive=False), Apriori()):
            counter = get_counter("bitmap")
            result = miner.mine(db, minsup, counter=counter)
            assert result.stats.num_passes == counter.passes
            assert result.stats.records_read == counter.records_read
            counted = sum(
                stats.total_candidates for stats in result.stats.passes
            )
            assert counted == counter.itemsets_counted

    def test_pincer_counts_no_more_than_apriori_on_concentrated(self):
        db = concentrated_db()
        pincer = PincerSearch(adaptive=False).mine(db, 0.05)
        baseline = Apriori().mine(db, 0.05)
        assert (
            pincer.stats.total_candidates
            <= baseline.stats.total_candidates + len(db.universe)
        )


class TestTopDownOnSmallUniverse:
    def test_topdown_agrees_on_projected_database(self):
        # project the concentrated workload onto its 12 hottest items so
        # the top-down frontier stays tractable
        db = concentrated_db()
        hot = [
            item for item, _ in sorted(
                db.item_support_counts().items(),
                key=lambda pair: -pair[1],
            )[:12]
        ]
        projected = db.restricted_to(hot)
        minsup = 0.05
        assert set(top_down(projected, minsup).mfs) == set(
            PincerSearch().mine(projected, minsup).mfs
        )
