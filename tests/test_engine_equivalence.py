"""Property test: every counting engine agrees with the naive scan.

The naive engine is the executable specification — a flat
transaction-by-candidate scan with no shared state, no caching, and no
vectorization.  Every other engine (and every forced engine variant:
``packed``/``roaring`` with NumPy switched off) must return
bit-identical counts on randomized databases, including the edge cases
the fast paths are most likely to get wrong: empty transactions, the
empty candidate ``()``, an empty candidate batch, candidates naming
items outside the universe, a dense pass-2-shaped pair batch (the
2-D array sweep of ``packed`` and ``roaring``), and pass 2 as the miners
send it, a lazy :class:`~repro.db.base.PairBatch`.
"""

import random
from itertools import combinations

import pytest

import repro.db.vertical as vertical
from repro.db.base import PairBatch, PairLevel
from repro.db.counting import available_engines, get_counter
from repro.db.transaction_db import TransactionDatabase

NUM_TRIALS = 12


def random_database(rng):
    num_items = rng.randint(1, 20)
    # up to three 64-row words, ragged tail included
    num_transactions = rng.randint(0, 150)
    transactions = []
    for _ in range(num_transactions):
        size = rng.randint(0, min(8, num_items))
        transactions.append(rng.sample(range(num_items), size))
    # a universe wider than the occurring items exercises zero-support rows
    universe = range(num_items + rng.randint(0, 3))
    return TransactionDatabase(transactions, universe=universe)


def random_candidates(rng, db):
    universe = list(db.universe) or [0]
    candidates = []
    for _ in range(rng.randint(0, 40)):
        size = rng.randint(0, min(5, len(universe)))
        candidates.append(tuple(sorted(rng.sample(universe, size))))
    # edge cases the fast paths special-case: the empty itemset, items
    # outside the universe, and a duplicate of an earlier candidate
    candidates.append(())
    candidates.append((max(universe) + 17,))
    candidates.append((universe[0], max(universe) + 17))
    if candidates[0]:
        candidates.append(candidates[0])
    # a dense pair batch, as pass 2 sends it: every pair over a random
    # subset of at least half the universe (the 2-D array sweep of
    # ``packed`` and ``roaring``), one of them twice
    size = rng.randint(len(universe) // 2, len(universe))
    pairs = list(combinations(rng.sample(universe, size), 2))
    candidates.extend(tuple(sorted(pair)) for pair in pairs)
    if pairs:
        candidates.append(tuple(sorted(pairs[0])))
    return candidates


#: variants that count with ``HAVE_NUMPY`` monkeypatched off
NO_NUMPY_SUFFIX = "-no-numpy"


def variant_counters():
    """Engine factories covering every code path, not just the registry."""
    variants = {name: lambda n=name: get_counter(n) for name in available_engines()}
    for name in ("packed", "roaring"):
        variants[name + NO_NUMPY_SUFFIX] = lambda n=name: get_counter(n)
    return variants


def make_counter(variant, monkeypatch):
    if variant.endswith(NO_NUMPY_SUFFIX):
        monkeypatch.setattr(vertical, "HAVE_NUMPY", False)
    return variant_counters()[variant]()


def lazy_pass_two_batch(rng, db):
    """Pass 2 as the miners send it: a pair level over a random item
    subset (one of its pairs already counted, in odd trials) plus one
    long MFCS element."""
    universe = list(db.universe) or [0]
    items = sorted(rng.sample(universe, rng.randint(0, len(universe))))
    level = PairLevel(items)
    if len(items) > 2 and rng.random() < 0.5:
        level = level.without([tuple(items[:2])])
    size = min(len(universe), 6)
    element = tuple(sorted(rng.sample(universe, size)))
    return PairBatch(level, [element] if size > 2 else [])


@pytest.mark.parametrize("variant", sorted(variant_counters()))
def test_randomised_equivalence_with_naive(variant, monkeypatch):
    rng = random.Random(2026)
    swept = 0
    for trial in range(NUM_TRIALS):
        db = random_database(rng)
        candidates = random_candidates(rng, db)
        # its own generator: the other inputs stay as they were drawn
        lazy = lazy_pass_two_batch(random.Random(7000 + trial), db)
        expected = get_counter("naive").count(db, candidates)
        lazy_expected = get_counter("naive").count(db, list(lazy))
        counter = make_counter(variant, monkeypatch)
        try:
            actual = counter.count(db, candidates)
            swept += getattr(counter, "last_pairs_swept", 0)
            lazy_actual = counter.count(db, lazy)
            lazy_swept = getattr(counter, "last_pairs_swept", 0)
        finally:
            close = getattr(counter, "close", None)
            if close is not None:
                close()
        assert actual == expected, "trial %d: %s diverged" % (trial, variant)
        assert lazy_actual == lazy_expected, (
            "trial %d: %s diverged on the lazy batch" % (trial, variant)
        )
        # packed and roaring answer the lazy level from the 2-D array (an
        # empty batch is free and counts nothing)
        sweeps = variant in ("packed", "roaring") and vertical.HAVE_NUMPY
        if len(lazy):
            assert lazy_swept == (len(lazy.level) if sweeps else 0), variant
    # the dense pair batch must reach the sweep wherever one exists
    if variant in ("packed", "roaring") and vertical.HAVE_NUMPY:
        assert swept > 0


@pytest.mark.parametrize("variant", sorted(variant_counters()))
def test_empty_database(variant, monkeypatch):
    db = TransactionDatabase([], universe=[1, 2, 3])
    counter = make_counter(variant, monkeypatch)
    try:
        counts = counter.count(db, [(), (1,), (1, 2), (9,)])
    finally:
        close = getattr(counter, "close", None)
        if close is not None:
            close()
    assert counts == {(): 0, (1,): 0, (1, 2): 0, (9,): 0}


@pytest.mark.parametrize("variant", sorted(variant_counters()))
def test_empty_batch_is_free(variant, monkeypatch):
    db = TransactionDatabase([[1, 2], [2]])
    counter = make_counter(variant, monkeypatch)
    try:
        assert counter.count(db, []) == {}
        assert counter.passes == 0
        assert counter.records_read == 0
    finally:
        close = getattr(counter, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("variant", sorted(variant_counters()))
def test_accounting_identical_across_engines(variant, monkeypatch):
    """passes / records_read / itemsets_counted must not depend on engine."""
    db = TransactionDatabase([[1, 2, 3], [1, 2], [3], []])
    batches = [[(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)], [(1, 2, 3)]]
    counter = make_counter(variant, monkeypatch)
    try:
        for batch in batches:
            counter.count(db, batch)
        assert counter.passes == 3
        assert counter.records_read == 3 * len(db)
        assert counter.itemsets_counted == 7
    finally:
        close = getattr(counter, "close", None)
        if close is not None:
            close()
