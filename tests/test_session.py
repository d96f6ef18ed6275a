"""Resident sessions, the cross-threshold cache, and warm-start seeding.

The load-bearing property is *exact reuse*: a session answering from its
cache and a warm-started MFCS must produce byte-identical results to a
cold one-shot mine at the same threshold.  The randomized ladder here
drives that differentially on both the int-bitmap and packed engines.
"""

import random
from itertools import combinations

import pytest

import repro.core.supportcache as supportcache
import repro.db.vertical as vertical
from repro.algorithms.apriori import Apriori
from repro.algorithms.brute_force import brute_force_frequents, brute_force_mfs
from repro.core.candidates import (
    apriori_join,
    apriori_prune,
    first_level_candidates,
)
from repro.core.cover import CoverIndex, MaskCover
from repro.core.kernel import BitmaskKernel, TupleKernel, make_kernel
from repro.core.lattice import maximal_elements
from repro.core.pincer import PincerSearch, pincer_search
from repro.core.session import MiningSession, SessionClosedError
from repro.core.supportcache import CachedSupportCounter, SupportCache
from repro.db.base import EngineClosedError, SupportCounter
from repro.db.counting import get_counter
from repro.db.transaction_db import TransactionDatabase
from repro.obs import capture


def random_db(seed: int, num_items: int = 24, rows: int = 300):
    rng = random.Random(seed)
    items = list(range(1, num_items + 1))
    return TransactionDatabase(
        [
            rng.sample(items, rng.randint(2, max(3, num_items // 3)))
            for _ in range(rows)
        ]
    )


class TestSupportCache:
    def test_put_get_roundtrip(self):
        cache = SupportCache()
        cache.put((1, 2), 7)
        assert cache.get((1, 2)) == 7
        assert cache.get((1, 3)) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_partition_splits_and_dedups(self):
        cache = SupportCache()
        cache.put((1,), 5)
        hits, misses = cache.partition([(1,), (2,), (1,), (2,)])
        assert hits == {(1,): 5}
        assert misses == [(2,)]

    def test_rotation_never_corrupts(self, monkeypatch):
        monkeypatch.setattr(supportcache, "MAX_ENTRIES", 50)
        rng = random.Random(11)
        cache = SupportCache()
        reference = {}
        for _ in range(3000):
            key = tuple(sorted(rng.sample(range(40), rng.randint(1, 4))))
            value = rng.randint(0, 10_000)
            cache.put(key, value)
            reference[key] = value
            probe = rng.choice(list(reference))
            got = cache.get(probe)
            # bounded cache may have evicted, but must never be wrong
            assert got is None or got == reference[probe]
        assert cache.rotations > 0
        assert len(cache) <= supportcache.MAX_ENTRIES


class TestCachedCounter:
    def test_all_hit_batch_bills_no_pass(self):
        db = random_db(1)
        cache = SupportCache()
        counter = CachedSupportCounter(get_counter("bitmap"), cache)
        first = counter.count(db, [(1,), (2,)])
        passes = counter.passes
        second = counter.count(db, [(1,), (2,)])
        assert second == first
        assert counter.passes == passes  # no pass billed on the repeat

    def test_partial_hit_forwards_only_misses(self):
        db = random_db(2)
        cache = SupportCache()
        counter = CachedSupportCounter(get_counter("bitmap"), cache)
        counter.count(db, [(1,)])
        before = counter.inner.itemsets_counted
        merged = counter.count(db, [(1,), (2,)])
        assert set(merged) == {(1,), (2,)}
        assert counter.inner.itemsets_counted == before + 1

    def test_results_match_uncached_engine(self):
        db = random_db(3)
        cache = SupportCache()
        cached = CachedSupportCounter(get_counter("bitmap"), cache)
        plain = get_counter("bitmap")
        batch = [(i,) for i in db.universe] + [(1, 2), (2, 3)]
        assert cached.count(db, batch) == plain.count(db, batch)
        # and again, now fully from cache
        assert cached.count(db, batch) == plain.count(db, batch)

    def test_delegation_reads_and_writes_inner(self):
        inner = get_counter("bitmap")
        counter = CachedSupportCounter(inner, SupportCache())
        counter.deadline = 123.0
        assert inner.deadline == 123.0
        assert counter.name == inner.name
        counter.close()
        assert inner.closed

    def test_cache_metrics_emitted(self, tmp_path):
        db = random_db(4)
        obs = capture(metrics_path=str(tmp_path / "metrics.json"))
        cache = SupportCache()
        counter = CachedSupportCounter(get_counter("bitmap"), cache)
        counter.obs = obs
        counter.count(db, [(1,), (2,)])
        counter.count(db, [(1,), (2,)])
        counters = obs.metrics.to_dict()["counters"]
        assert counters["cache.hits"] == 2
        assert counters["cache.misses"] == 2
        obs.finish()


class TestEngineLifetime:
    @pytest.mark.parametrize("engine", ["bitmap", "packed"])
    def test_close_is_idempotent_and_seals(self, engine):
        db = random_db(5)
        counter = get_counter(engine)
        counter.count(db, [(1,)])
        counter.close()
        counter.close()  # idempotent
        with pytest.raises(EngineClosedError):
            counter.count(db, [(1,)])

    def test_base_close_guard(self):
        counter = SupportCounter()
        counter.close()
        counter.close()
        with pytest.raises(EngineClosedError):
            counter.count(random_db(6), [(1,)])

    def test_miner_closes_engines_it_creates(self, monkeypatch):
        closed = []
        original = SupportCounter.close

        def tracking_close(self):
            closed.append(self)
            original(self)

        monkeypatch.setattr(SupportCounter, "close", tracking_close)
        db = random_db(7)
        PincerSearch(engine="packed").mine(db, 0.05)
        assert [counter.name for counter in closed] == ["packed"]
        # a caller-supplied counter stays the caller's to close
        supplied = get_counter("bitmap")
        PincerSearch().mine(db, 0.05, counter=supplied)
        assert len(closed) == 1 and not supplied.closed


class TestMakeMfcsFrom:
    @pytest.mark.parametrize(
        "kernel", [TupleKernel(), BitmaskKernel(range(1, 8))]
    )
    def test_seed_keeps_only_maximal_members(self, kernel):
        mfcs = kernel.make_mfcs_from([(1, 2), (1, 2, 3), (4,)])
        assert sorted(mfcs) == [(1, 2, 3), (4,)]

    def test_empty_seed_is_empty(self):
        assert len(TupleKernel().make_mfcs_from([])) == 0

    @pytest.mark.parametrize("kernel_name", ["tuple", "bitmask"])
    def test_seed_probes_once_per_distinct_element(
        self, kernel_name, monkeypatch
    ):
        # an antichain plus some of its subsets, shuffled: seeding must
        # keep exactly the antichain in linear time, one cover probe per
        # distinct element and no scan over the members
        rng = random.Random(3)
        universe = range(1, 41)
        antichain = maximal_elements(
            tuple(sorted(rng.sample(universe, rng.randint(2, 10))))
            for _ in range(600)
        )
        family = list(antichain)
        for member in antichain:
            for _ in range(3):
                size = rng.randint(1, len(member))
                family.append(tuple(sorted(rng.sample(member, size))))
        rng.shuffle(family)
        assert len(family) > 1800
        cover_class, probe_name = (
            (CoverIndex, "covers")
            if kernel_name == "tuple"
            else (MaskCover, "covers_mask")
        )
        probe = getattr(cover_class, probe_name)
        probes = []

        def counted(cover, argument):
            probes.append(argument)
            return probe(cover, argument)

        def no_scan(cover):
            pytest.fail("seeding scanned the members")

        kernel = make_kernel(kernel_name, universe)
        with monkeypatch.context() as patch:
            patch.setattr(cover_class, probe_name, counted)
            patch.setattr(MaskCover, "member_masks", property(no_scan))
            patch.setattr(CoverIndex, "members", property(no_scan))
            mfcs = kernel.make_mfcs_from(family)
        assert sorted(mfcs) == sorted(maximal_elements(family))
        assert len(probes) == len(set(family))


class TestSeedValidation:
    def test_outside_item_rejected_by_name(self):
        db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [1, 3]])
        with pytest.raises(ValueError, match="99"):
            PincerSearch().mine(db, 0.5, initial_mfcs=[(1, 2, 3, 99)])

    @pytest.mark.parametrize("kernel", ["tuple", "bitmask"])
    def test_valid_seed_mines_like_a_cold_start(self, kernel):
        db = random_db(12)
        miner = PincerSearch(engine="bitmap", kernel=kernel)
        seed = sorted(miner.mine(db, 0.03).mfs)
        warm = miner.mine(db, 0.06, initial_mfcs=seed)
        cold = miner.mine(db, 0.06)
        assert repr(sorted(warm.mfs)) == repr(sorted(cold.mfs))
        assert [warm.supports[member] for member in sorted(warm.mfs)] == [
            cold.supports[member] for member in sorted(cold.mfs)
        ]


class TestMiningSession:
    def test_results_equal_cold_across_thresholds(self):
        db = random_db(8)
        with MiningSession(db, engine="bitmap") as session:
            for support in (0.02, 0.08, 0.04, 0.08, 0.02):
                warm = session.mine(support)
                cold = pincer_search(db, support)
                assert warm.mfs == cold.mfs
                assert warm.min_support_count == cold.min_support_count

    def test_repeat_query_is_mostly_cached(self):
        db = random_db(9)
        with MiningSession(db, engine="bitmap") as session:
            session.mine(0.05)
            passes = session.counter.passes
            result = session.mine(0.05)
            assert session.counter.passes <= passes + 1
            assert result.mfs == pincer_search(db, 0.05).mfs

    def test_close_is_idempotent_then_queries_raise(self):
        session = MiningSession(random_db(10), engine="bitmap")
        session.mine(0.1)
        session.close()
        session.close()
        with pytest.raises(SessionClosedError):
            session.mine(0.1)

    def test_estimate_cost_cheapens_after_warmup(self):
        db = random_db(11)
        with MiningSession(db, engine="bitmap") as session:
            cold = session.estimate_cost(0.05)
            assert not cold["warm"]
            session.mine(0.05)
            lookups = (session.cache.hits, session.cache.misses)
            warm = session.estimate_cost(0.05)
            # pricing reads the cached singletons without billing them
            assert (session.cache.hits, session.cache.misses) == lookups
            assert warm["warm"]
            assert warm["singletons_known"]
            higher = session.estimate_cost(0.2)
            assert higher["warm"]  # family at 0.05 seeds 0.2
            lower = session.estimate_cost(0.01)
            assert not lower["warm"]  # nothing mined at or below 0.01

    def test_stats_shape(self):
        with MiningSession(random_db(12), engine="bitmap") as session:
            session.mine(0.1)
            stats = session.stats()
            assert stats["queries"] == 1
            assert stats["cache"]["entries"] > 0
            assert stats["mined_thresholds"]

    def test_rules_reuse_session_counter(self):
        db = random_db(13)
        with MiningSession(db, engine="bitmap") as session:
            session.mine(0.05)
            passes = session.counter.inner.passes
            rules = session.rules(0.05, min_confidence=0.5)
            # warm re-mine + per-level expansion: a handful of passes at
            # most, far from a cold restart's full ladder
            assert session.counter.inner.passes <= passes + 4
            assert isinstance(rules, list)


ENGINES = ["bitmap", "packed"]


class TestRequestContext:
    def test_mine_fills_timings_and_span_sink(self, tmp_path):
        db = random_db(11)
        obs = capture(trace_path=str(tmp_path / "t.jsonl"))
        with MiningSession(db, engine="bitmap", obs=obs) as session:
            spans = []
            timings = {}
            session.mine(
                0.05, request_id="req-9", span_sink=spans, timings=timings
            )
            totals = session.cache.hits, session.cache.misses
        obs.finish()
        assert timings["queue_wait_s"] >= 0.0
        assert (timings["cache_hits"], timings["cache_misses"]) == totals
        assert spans, "bound sink must collect the query's closed spans"
        assert all(
            e["attrs"]["request_id"] == "req-9" for e in spans
        )
        assert "run" in {e["name"] for e in spans}

    def test_counting_rate_calibrates_from_cache_misses(self):
        db = random_db(13)
        with MiningSession(db, engine="bitmap") as session:
            assert session.rate.rate is None
            session.mine(0.05)  # cold: counted passes feed the EWMA
            calibrated = session.rate.rate
            assert calibrated is not None and calibrated > 0
            session.mine(0.05)  # all-cached repeat must not inflate it
            assert session.rate.rate == calibrated
            assert session.stats()["counting_rate"] is not None


class TestWarmStartRandomized:
    """For any dataset and s1 < s2, warm-started MFS at s2 is
    byte-identical to cold MFS at s2, on the int-bitmap and packed
    engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_warm_equals_cold_at_higher_threshold(self, engine, seed):
        rng = random.Random(seed)
        db = random_db(seed, num_items=rng.randint(10, 30), rows=400)
        s1 = rng.uniform(0.01, 0.06)
        s2 = s1 + rng.uniform(0.01, 0.1)
        cold = PincerSearch(engine=engine).mine(db, s2)
        with MiningSession(db, engine=engine) as session:
            session.mine(s1)  # warms cache + seeds the ledger
            warm = session.mine(s2)
        assert sorted(warm.mfs) == sorted(cold.mfs)
        assert warm.min_support_count == cold.min_support_count
        for member in warm.mfs:
            assert warm.supports[member] == cold.supports[member]

    @pytest.mark.parametrize("seed", [17, 29])
    def test_downward_query_reuses_classifications(self, seed):
        db = random_db(seed)
        with MiningSession(db, engine="bitmap") as session:
            session.mine(0.08)
            hits_before = session.cache.hits
            low = session.mine(0.02)
        assert session.cache.hits > hits_before
        assert sorted(low.mfs) == sorted(pincer_search(db, 0.02).mfs)

    def test_explicit_seed_matches_cold(self):
        db = random_db(31)
        low = pincer_search(db, 0.02)
        cold = pincer_search(db, 0.06)
        seeded = pincer_search(db, 0.06, initial_mfcs=sorted(low.mfs))
        assert sorted(seeded.mfs) == sorted(cold.mfs)


def pass_counts(result):
    return [
        {key: value for key, value in p.to_dict().items() if key != "seconds"}
        for p in result.stats.passes
    ]


def apriori_reference_passes(db, threshold):
    """(candidates, frequent) per Apriori pass, from brute force and the
    tuple join/prune."""
    frequents = brute_force_frequents(db, min_count=threshold)
    level, passes = first_level_candidates(db.universe), []
    while level:
        found = [c for c in level if c in frequents]
        passes.append((len(level), len(found)))
        level = sorted(apriori_prune(apriori_join(found), set(found)))
    return passes


#: engine variants of the ladder; "-no-numpy" counts with NumPy switched off
LADDER_ENGINES = [
    "naive", "bitmap", "packed", "roaring", "packed-no-numpy",
]


class TestPairLevelLadder:
    """Level 2 kept lazy end to end, on every engine and without NumPy:
    each configuration mines brute force's MFS, stores every pair it
    counted with its true support, and bills per pass exactly what the
    tuple kernel on ``bitmap`` bills."""

    CONFIGS = {
        "pure": dict(adaptive=False),
        "adaptive": dict(adaptive=True),
    }

    @staticmethod
    def engine(variant, monkeypatch):
        if variant.endswith("-no-numpy"):
            monkeypatch.setattr(vertical, "HAVE_NUMPY", False)
            return variant[: -len("-no-numpy")]
        return variant

    @staticmethod
    def check_pairs(db, result, reference):
        pairs = sorted(p for p in result.supports if len(p) == 2)
        assert pairs == sorted(p for p in reference.supports if len(p) == 2)
        truth = get_counter("naive").count(db, pairs)
        assert {p: result.supports[p] for p in pairs} == truth

    @pytest.mark.parametrize("variant", LADDER_ENGINES)
    @pytest.mark.parametrize("seed", [41, 42])
    def test_pincer_configurations(self, variant, seed, monkeypatch):
        db = random_db(seed, num_items=18, rows=300)
        engine = self.engine(variant, monkeypatch)
        warm_level_two = 0
        for support in (0.04, 0.08):
            threshold = db.absolute_support(support)
            truth = sorted(brute_force_mfs(db, min_count=threshold))
            seed_family = sorted(
                PincerSearch(engine="bitmap").mine(db, support / 2).mfs
            )
            for name, options in sorted(self.CONFIGS.items()) + [
                ("warm", dict(adaptive=False)),
            ]:
                initial = seed_family if name == "warm" else None
                reference = PincerSearch(
                    kernel="tuple", engine="bitmap", **options
                ).mine(db, support, initial_mfcs=initial)
                for kernel in ("tuple", "bitmask"):
                    result = PincerSearch(
                        engine=engine, kernel=kernel, **options
                    ).mine(db, support, initial_mfcs=initial)
                    label = (name, kernel, support)
                    assert sorted(result.mfs) == truth, label
                    assert pass_counts(result) == pass_counts(reference), label
                    self.check_pairs(db, result, reference)
                passes = reference.stats.passes
                if name == "warm" and len(passes) > 1:
                    warm_level_two += passes[0].maximal_found > 0
        # the warm seed's MFS covered singletons before level 2 (which is
        # then a strict subset of the pairs over its items)
        assert warm_level_two

    @pytest.mark.parametrize("variant", LADDER_ENGINES)
    def test_apriori(self, variant, monkeypatch):
        db = random_db(43, num_items=18, rows=300)
        engine = self.engine(variant, monkeypatch)
        for support in (0.04, 0.08):
            threshold = db.absolute_support(support)
            result = Apriori(engine=engine).mine(db, support)
            assert sorted(result.mfs) == sorted(
                brute_force_mfs(db, min_count=threshold)
            )
            assert [
                (p.bottom_up_candidates, p.frequent_found)
                for p in result.stats.passes
            ] == apriori_reference_passes(db, threshold)
            # every pair over L1 was counted, with its true support
            frequent_items = sorted(
                itemset_[0] for itemset_, count in result.supports.items()
                if len(itemset_) == 1 and count >= threshold
            )
            pairs = sorted(p for p in result.supports if len(p) == 2)
            assert pairs == list(combinations(frequent_items, 2))
            truth = get_counter("naive").count(db, pairs)
            assert {p: result.supports[p] for p in pairs} == truth

    @pytest.mark.parametrize("engine", ["packed", "roaring", "bitmap"])
    def test_listing_engine_mines_identically(self, engine):
        # the layer ledger's probe lists every batch that is not a list
        # before counting: pass 2 then takes the listed path, with the
        # same answer, supports and billing
        def listing(counter):
            count = counter.count

            def listed(db, candidates):
                if not isinstance(candidates, list):
                    candidates = list(candidates)
                return count(db, candidates)

            counter.count = listed
            return counter

        db = random_db(44, num_items=18, rows=300)
        seed_family = sorted(PincerSearch(engine="bitmap").mine(db, 0.02).mfs)
        for miner, initial in (
            (PincerSearch(adaptive=False), None),
            (PincerSearch(), None),
            (PincerSearch(adaptive=False), seed_family),
            (Apriori(), None),
        ):
            outcomes = []
            for wrap in (False, True):
                counter = get_counter(engine)
                if wrap:
                    listing(counter)
                options = {} if initial is None else {"initial_mfcs": initial}
                result = miner.mine(db, 0.04, counter=counter, **options)
                outcomes.append((
                    repr(sorted(result.mfs)),
                    repr(sorted(result.supports.items())),
                    pass_counts(result),
                    counter.passes,
                    counter.itemsets_counted,
                    counter.records_read,
                ))
            assert outcomes[0] == outcomes[1], miner.name


def quest_db(rows: int = 400):
    """A small concentrated Quest database (long maximal itemsets)."""
    from repro.datagen.quest import QuestConfig, generate

    return generate(
        QuestConfig(rows, 10, 4, num_patterns=20, num_items=60), seed=3
    )


def lookups(session):
    return session.cache.hits + session.cache.misses


def rule_set(rules):
    return {
        (rule.antecedent, rule.consequent, rule.support, rule.confidence)
        for rule in rules
    }


class TestStoredAnswers:
    """One stored answer per absolute threshold: a repeat returns it
    with no pass and no cache lookup, and equals a recomputation."""

    def test_repeat_returns_the_stored_answer(self):
        db = random_db(21)
        with MiningSession(db, engine="bitmap") as session:
            first = session.mine(0.05)
            passes, before = session.counter.passes, lookups(session)
            repeat = session.mine(0.05)
            assert session.counter.passes == passes
            assert lookups(session) == before
        cold = pincer_search(db, 0.05)
        assert first.stats.num_passes > 0
        assert repeat.stats.num_passes == 0
        assert repeat.mfs == first.mfs == cold.mfs
        assert repeat.supports == {
            member: cold.supports[member] for member in cold.mfs
        }
        assert repeat.min_support_count == cold.min_support_count
        assert repeat.num_transactions == cold.num_transactions

    def test_percentages_with_one_count_share_the_answer(self):
        db = random_db(22, rows=300)
        assert db.absolute_support(0.0440) == db.absolute_support(0.0441)
        with MiningSession(db, engine="bitmap") as session:
            first = session.mine(0.0440)
            before = lookups(session)
            second = session.mine(0.0441)
            assert lookups(session) == before
            assert session.stats()["mined_thresholds"] == [
                db.absolute_support(0.0440)
            ]
        assert second.stats.num_passes == 0
        assert second.mfs == first.mfs
        assert second.min_support_count == first.min_support_count

    def test_min_count_reaches_the_same_answer(self):
        db = random_db(23)
        with MiningSession(db, engine="bitmap") as session:
            by_fraction = session.mine(0.06)
            by_count = session.mine(min_count=by_fraction.min_support_count)
        assert by_count.stats.num_passes == 0
        assert by_count.mfs == by_fraction.mfs

    def test_cold_query_mines_again(self):
        db = random_db(24)
        with MiningSession(db, engine="bitmap") as session:
            first = session.mine(0.05)
            again = session.mine(0.05, warm_start=False)
            stored = session.mine(0.05)
        assert again.stats.num_passes > 0
        assert again.mfs == first.mfs == stored.mfs
        assert stored.stats.num_passes == 0

    def test_callers_cannot_change_the_store(self):
        db = random_db(25)
        with MiningSession(db, engine="bitmap") as session:
            first = session.mine(0.05)
            member = next(iter(first.mfs))
            support = first.supports[member]
            repeat = session.mine(0.05)
            repeat.supports[member] = -1
            repeat.stats.passes.append(None)
            again = session.mine(0.05)
        assert again.supports[member] == support
        assert again.stats.num_passes == 0

    def test_repeat_after_close_raises(self):
        session = MiningSession(random_db(26), engine="bitmap")
        session.mine(0.05)
        session.close()
        with pytest.raises(SessionClosedError):
            session.mine(0.05)

    def test_repeat_counts_and_bills_like_a_query(self):
        with MiningSession(random_db(27), engine="bitmap") as session:
            session.mine(0.05)
            timings = {}
            session.mine(0.05, timings=timings)
            stats = session.stats()
        assert stats["queries"] == 2 and stats["warm_queries"] == 1
        assert timings["queue_wait_s"] >= 0.0
        assert timings["cache_hits"] == timings["cache_misses"] == 0

    def test_repeat_emits_a_span_with_its_request_id(self, tmp_path):
        from repro.obs import load_trace_events

        trace = str(tmp_path / "t.jsonl")
        obs = capture(trace_path=trace)
        with MiningSession(random_db(28), engine="bitmap", obs=obs) as session:
            session.mine(0.05, request_id="req-1")
            spans = []
            session.mine(0.05, request_id="req-2", span_sink=spans)
        obs.finish()
        assert [span["name"] for span in spans] == ["stored"]
        assert spans[0]["attrs"]["request_id"] == "req-2"
        names = {
            event["name"]
            for event in load_trace_events(trace)
            if event.get("type") == "span"
            and event["attrs"].get("request_id") == "req-2"
        }
        assert names == {"stored"}

    def test_rules_equal_whatever_ran_before(self):
        db = quest_db()
        support, lower = 0.08, 0.05
        kwargs = dict(min_confidence=0.6, depth=2)
        with MiningSession(db, engine="bitmap") as fresh:
            fresh_rules = rule_set(fresh.rules(support, **kwargs))
        with MiningSession(db, engine="bitmap") as warmed:
            warmed.mine(lower)
            after_lower = rule_set(warmed.rules(support, **kwargs))
            repeated = rule_set(warmed.rules(support, **kwargs))
        from repro.rules.from_mfs import rules_from_mfs

        one_shot = rule_set(
            rules_from_mfs(db, pincer_search(db, support), **kwargs)
        )
        assert fresh_rules
        assert fresh_rules == after_lower == repeated == one_shot

    def test_threads_repeating_one_query_agree(self):
        import threading

        db = random_db(29)
        answers = []
        with MiningSession(db, engine="bitmap") as session:
            barrier = threading.Barrier(8)

            def ask():
                barrier.wait(timeout=30)
                result = session.mine(0.05)
                answers.append((sorted(result.mfs), result.supports))

            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert session.stats()["queries"] == 8
        cold = pincer_search(db, 0.05)
        expected = {member: cold.supports[member] for member in cold.mfs}
        assert len(answers) == 8
        assert all(mfs == sorted(cold.mfs) for mfs, _ in answers)
        # one thread mined (its supports hold every count it made), and
        # the other seven got the stored answer
        assert sum(supports == expected for _, supports in answers) == 7
