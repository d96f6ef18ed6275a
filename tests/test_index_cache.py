"""The per-database counting index and density count.

A database keeps one counting index per index class and one ``nnz``,
both built on first use and released with the database; counting never
changes an index, so fresh counters, later mines and other threads all
share it.
"""

import gc
import os
import pickle
import random
import sys
import threading
import weakref
from itertools import combinations

import pytest

import repro.db.transaction_db as transaction_db
import repro.db.vertical as vertical
from repro.algorithms.brute_force import brute_force_mfs
from repro.core.pincer import PincerSearch
from repro.db.base import PairBatch, PairLevel
from repro.db.counting import get_counter
from repro.db.roaring import RoaringIndex
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY, IntBitmapIndex, PackedBitmapIndex

INDEX_CLASSES = {
    "bitmap": IntBitmapIndex,
    "packed": PackedBitmapIndex,
    "roaring": RoaringIndex,
}
ENGINES = sorted(INDEX_CLASSES)


def random_rows(num_rows, num_items=16, seed=3):
    rng = random.Random(seed)
    return [
        rng.sample(range(num_items), rng.randint(0, num_items // 2))
        for _ in range(num_rows)
    ]


def built_class(engine):
    return INDEX_CLASSES[engine] if HAVE_NUMPY else IntBitmapIndex


def count_builds(monkeypatch, index_class):
    """Record every ``index_class.from_database`` call."""
    builds = []
    build = index_class.from_database

    def counted(db):
        builds.append(db)
        return build(db)

    monkeypatch.setattr(index_class, "from_database", counted)
    return builds


@pytest.mark.parametrize("engine", ENGINES)
def test_three_mines_build_the_index_once(engine, monkeypatch):
    db = TransactionDatabase(random_rows(200))
    builds = count_builds(monkeypatch, built_class(engine))
    answers = [
        sorted(PincerSearch(engine=engine).mine(db, support).mfs)
        for support in (0.05, 0.1, 0.2)
    ]
    assert builds == [db]
    assert answers[0] != answers[2]  # three different cells, one index


def test_three_auto_mines_compute_the_density_once(monkeypatch):
    db = TransactionDatabase(random_rows(600))
    popcounts = []

    def counted(value):
        popcounts.append(value)
        return vertical.popcount(value)

    monkeypatch.setattr(transaction_db, "popcount", counted)
    for support in (0.05, 0.1, 0.2):
        PincerSearch().mine(db, support)
    # with NumPy, auto measures the density of a 600-row database: one
    # popcount per item bitmap, once; without NumPy it never measures
    assert len(popcounts) == (db.num_items if HAVE_NUMPY else 0)


@pytest.mark.parametrize("engine", ENGINES)
def test_equal_databases_get_their_own_index(engine):
    rows = random_rows(50)
    first, second = TransactionDatabase(rows), TransactionDatabase(rows)
    assert first == second
    counter = get_counter(engine)
    counter.count(first, [(1, 2)])
    index = counter._index
    counter.count(second, [(1, 2)])
    assert counter._index is not index
    assert first.counting_index(built_class(engine)) is index
    assert second.counting_index(built_class(engine)) is counter._index


@pytest.mark.parametrize("engine", ENGINES)
def test_index_dies_with_its_database(engine):
    db = TransactionDatabase(random_rows(100))
    PincerSearch(engine=engine).mine(db, 0.1)
    index = weakref.ref(db.counting_index(built_class(engine)))
    assert index() is not None
    del db
    gc.collect()
    assert index() is None


def three_batches(num_items=16, seed=9):
    """A pass-2 pair batch, 64-255 3-itemsets (the packed kernel's
    in-place AND) and a deep batch (the shared-prefix plan, and long
    MFCS-sized candidates)."""
    rng = random.Random(seed)
    triples = sorted(combinations(range(num_items), 3))
    deep = sorted(combinations(range(num_items), 4))[:300]
    deep += [tuple(range(num_items)), tuple(range(1, num_items, 2))]
    return [
        PairBatch(PairLevel(range(num_items)), [tuple(range(num_items))]),
        rng.sample(triples, 150),
        deep,
    ]


def frozen(index):
    """Everything an index holds, deeply: equal iff nothing changed."""
    return pickle.dumps(vars(index))


@pytest.mark.parametrize("engine", ENGINES)
def test_counting_does_not_change_a_cached_index(engine):
    db = TransactionDatabase(random_rows(300))
    counter = get_counter(engine)
    index = counter.index_for(db)
    for batch in three_batches():
        before = frozen(index)
        counter.count(db, batch)
        assert counter._index is index
        assert frozen(index) == before


@pytest.mark.parametrize("engine", ENGINES)
def test_threads_with_their_own_counters_match_naive(engine):
    # more threads than cores, switching often, all on one shared index:
    # a buffer or tally kept on the index would give some thread a
    # wrong count (64-200 3-itemsets take the packed in-place AND)
    db = TransactionDatabase(random_rows(300, seed=21))
    rng = random.Random(22)
    triples = sorted(combinations(range(16), 3))
    batches = [rng.sample(triples, rng.randint(64, 200)) for _ in range(20)]
    expected = [get_counter("naive").count(db, batch) for batch in batches]
    wrong = []

    def run():
        counter = get_counter(engine)
        for _ in range(3):
            for batch, want in zip(batches, expected):
                if counter.count(db, batch) != want:
                    wrong.append(batch)

    threads = [
        threading.Thread(target=run)
        for _ in range(max(2, (os.cpu_count() or 1) + 1))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires a NumPy build first")
def test_numpy_switched_off_after_a_numpy_build(monkeypatch):
    db = TransactionDatabase(random_rows(100))
    batch = [(1,), (1, 2), (2, 3, 4)]
    expected = get_counter("naive").count(db, batch)
    counter = get_counter("packed")
    assert counter.count(db, batch) == expected
    assert type(counter._index) is PackedBitmapIndex
    monkeypatch.setattr(vertical, "HAVE_NUMPY", False)
    counter = get_counter("packed")
    assert counter.count(db, batch) == expected
    assert type(counter._index) is IntBitmapIndex


def test_engines_in_turn_on_one_database_match_brute_force():
    db = TransactionDatabase(random_rows(150, num_items=12, seed=5))
    expected = brute_force_mfs(db, 0.08)
    for engine in ("packed", "roaring", "bitmap", "packed"):
        result = PincerSearch(engine=engine).mine(db, 0.08)
        assert set(result.mfs) == expected, engine
