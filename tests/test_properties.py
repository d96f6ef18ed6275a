"""Property-based tests (hypothesis) for the core invariants.

The single most important property of the whole reproduction: **every
miner returns exactly the maximum frequent set**, verified against the
exhaustive brute-force oracle on arbitrary small databases.  Around it,
the structural invariants of the MFCS, the cover index, the candidate
generation and the borders.
"""

from hypothesis import given, settings, strategies as st

from repro.algorithms.apriori import apriori
from repro.algorithms.brute_force import brute_force_frequents, brute_force_mfs
from repro.algorithms.topdown import top_down
from repro.borders.borders import negative_border
from repro.core.adaptive import AdaptivePolicy
from repro.core.candidates import apriori_join
from repro.core.cover import CoverIndex
from repro.core.itemset import is_subset
from repro.core.lattice import downward_closure, is_antichain, maximal_elements
from repro.core.mfcs import MFCS
from repro.core.pincer import pincer_search
from repro.db.counting import available_engines, get_counter
from repro.db.transaction_db import TransactionDatabase

from tests.test_pincer import AbandonAfterPass

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

items = st.integers(min_value=1, max_value=8)
transaction = st.frozensets(items, max_size=8)
transactions = st.lists(transaction, min_size=1, max_size=16)
itemsets = st.builds(tuple, st.frozensets(items, min_size=1, max_size=5).map(sorted))
itemset_families = st.lists(itemsets, max_size=10)
min_counts = st.integers(min_value=1, max_value=6)


def build_db(raw):
    return TransactionDatabase(raw, universe=range(1, 9))


# ----------------------------------------------------------------------
# the headline property: miners == oracle
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(transactions, min_counts)
def test_pincer_pure_equals_brute_force(raw, min_count):
    db = build_db(raw)
    truth = brute_force_mfs(db, min_count=min_count)
    result = pincer_search(db, min_count=min_count, adaptive=False)
    assert set(result.mfs) == truth


@settings(max_examples=120, deadline=None)
@given(transactions, min_counts)
def test_pincer_adaptive_equals_brute_force(raw, min_count):
    db = build_db(raw)
    truth = brute_force_mfs(db, min_count=min_count)
    result = pincer_search(db, min_count=min_count, adaptive=True)
    assert set(result.mfs) == truth


@settings(max_examples=60, deadline=None)
@given(transactions, min_counts, st.integers(min_value=0, max_value=5))
def test_pincer_with_hostile_policies_equals_brute_force(raw, min_count, mode):
    # policies tuned to abandon the MFCS at awkward moments
    policy = [
        AdaptivePolicy(mfcs_work_cap=1, abandon_length_cap=1),
        AdaptivePolicy(frequent_ratio_floor=1.0, min_ratio_sample=1,
                       abandon_length_cap=1),
        AbandonAfterPass(1),
        AbandonAfterPass(2),
        AbandonAfterPass(3),
        AbandonAfterPass(4),
    ][mode]
    db = build_db(raw)
    truth = brute_force_mfs(db, min_count=min_count)
    assert set(pincer_search(db, min_count=min_count, policy=policy).mfs) == truth


@settings(max_examples=80, deadline=None)
@given(transactions, min_counts)
def test_apriori_equals_brute_force(raw, min_count):
    db = build_db(raw)
    result = apriori(db, min_count=min_count)
    assert set(result.mfs) == brute_force_mfs(db, min_count=min_count)


@settings(max_examples=60, deadline=None)
@given(transactions, min_counts)
def test_top_down_equals_brute_force(raw, min_count):
    db = build_db(raw)
    assert set(top_down(db, min_count=min_count).mfs) == brute_force_mfs(
        db, min_count=min_count
    )


@settings(max_examples=50, deadline=None)
@given(transactions, min_counts)
def test_apriori_discovers_every_frequent_itemset_with_exact_support(raw, min_count):
    db = build_db(raw)
    result = apriori(db, min_count=min_count)
    truth = brute_force_frequents(db, min_count=min_count)
    for itemset_, count in truth.items():
        assert result.supports[itemset_] == count


@settings(max_examples=50, deadline=None)
@given(transactions, min_counts)
def test_mfs_is_antichain_and_supports_are_correct(raw, min_count):
    db = build_db(raw)
    result = pincer_search(db, min_count=min_count)
    assert is_antichain(result.mfs)
    for member in result.mfs:
        assert result.supports[member] == db.support_count(member)
        assert result.supports[member] >= min_count


@settings(max_examples=40, deadline=None)
@given(transactions, min_counts)
def test_frequent_itemsets_materialisation_matches_oracle(raw, min_count):
    db = build_db(raw)
    result = pincer_search(db, min_count=min_count)
    assert result.frequent_itemsets() == set(
        brute_force_frequents(db, min_count=min_count)
    )


# ----------------------------------------------------------------------
# counting engines agree
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(transactions, st.lists(itemsets, min_size=1, max_size=12))
def test_all_engines_agree_with_direct_counting(raw, candidates):
    db = build_db(raw)
    expected = {
        candidate: db.support_count(candidate) for candidate in candidates
    }
    for engine in available_engines():
        assert get_counter(engine).count(db, candidates) == expected


# ----------------------------------------------------------------------
# MFCS invariants (Definition 1)
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(itemsets, max_size=12))
def test_mfcs_definition1_invariants(infrequents):
    universe = tuple(range(1, 9))
    mfcs = MFCS.for_universe(universe)
    for infrequent in infrequents:
        mfcs.exclude(infrequent)
    assert is_antichain(mfcs.elements)
    # (ii) no classified infrequent itemset is covered
    for infrequent in infrequents:
        assert not mfcs.covers(infrequent)
    # minimality on the lattice: removing any element loses coverage of
    # the element itself, which contains no excluded itemset
    for element in mfcs.elements:
        assert not any(
            is_subset(infrequent, element) for infrequent in infrequents
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(itemsets, max_size=10))
def test_mfcs_batched_update_equals_sequential(infrequents):
    sequential = MFCS.for_universe(range(1, 9))
    for infrequent in infrequents:
        sequential.exclude(infrequent)
    batched = MFCS.for_universe(range(1, 9))
    assert batched.update(infrequents)
    assert batched.elements == sequential.elements


# ----------------------------------------------------------------------
# cover index vs linear scan
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(itemset_families, itemsets)
def test_cover_index_matches_linear_scan(family, probe):
    index = CoverIndex(family)
    assert index.covers(probe) == any(
        is_subset(probe, member) for member in family
    )
    assert sorted(index.supersets_of(probe)) == sorted(
        {member for member in family if is_subset(probe, member)}
    )


# ----------------------------------------------------------------------
# lattice / candidates / borders
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(itemset_families)
def test_maximal_elements_form_antichain_covering_family(family):
    maximal = maximal_elements(family)
    assert is_antichain(maximal)
    for member in family:
        assert any(is_subset(member, top) for top in maximal)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(tuple, st.frozensets(items, min_size=2, max_size=2).map(sorted)), min_size=1, max_size=12))
def test_join_output_subsets_come_from_input(level):
    level = list(set(level))
    for candidate in apriori_join(level):
        assert len(candidate) == 3
        # the two generating subsets (drop last / drop second-to-last)
        assert candidate[:2] in level
        assert (candidate[0], candidate[2]) in level


@settings(max_examples=60, deadline=None)
@given(itemset_families)
def test_downward_closure_is_downward_closed(family):
    closure = downward_closure(family)
    for member in closure:
        for index in range(len(member)):
            subset = member[:index] + member[index + 1:]
            if subset:
                assert subset in closure


@settings(max_examples=40, deadline=None)
@given(transactions, min_counts)
def test_negative_border_members_are_minimal_infrequent(raw, min_count):
    db = build_db(raw)
    mfs = brute_force_mfs(db, min_count=min_count)
    frequents = set(brute_force_frequents(db, min_count=min_count))
    for candidate in negative_border(mfs, db.universe):
        assert candidate not in frequents
        for index in range(len(candidate)):
            subset = candidate[:index] + candidate[index + 1:]
            if subset:
                assert subset in frequents


# ----------------------------------------------------------------------
# pass/candidate accounting sanity
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(transactions, min_counts)
def test_pincer_never_needs_more_passes_than_apriori_plus_descent(raw, min_count):
    db = build_db(raw)
    pincer = pincer_search(db, min_count=min_count, adaptive=False)
    baseline = apriori(db, min_count=min_count)
    # the pure pincer may add top-down descent passes but is bounded by
    # the universe size on both sides
    assert pincer.stats.num_passes <= 2 * db.num_items + 4
    assert baseline.stats.num_passes <= db.num_items + 1
