"""Differential suite for the compressed counting tier.

The roaring engine must return *byte-identical* counts to the naive
scan on dense and sparse data alike — which engine serves a database is
:func:`repro.db.counting.engine_decision`'s performance call, never a
correctness one.  These tests pin that: randomized databases shaped to
exercise both container kinds (sparse array columns, dense bitmap spans,
clustered columns), plus the degenerate shapes the container ops
special-case — empty columns, all-ones columns, single-row chunks,
duplicate candidates, and candidates naming items that occur nowhere.
Without NumPy the engine counts on ``IntBitmapIndex``, and the same
differential checks cover that platform fallback.
"""

import random

import pytest

from repro.db.roaring import CHUNK_SIZE, RoaringCounter, RoaringIndex
from repro.db.counting import get_counter
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY, IntBitmapIndex

NUM_TRIALS = 8


def random_database(rng):
    """Small random db with a universe wider than the occurring items."""
    num_items = rng.randint(1, 24)
    transactions = []
    for _ in range(rng.randint(0, 80)):
        size = rng.randint(0, min(10, num_items))
        transactions.append(rng.sample(range(num_items), size))
    return TransactionDatabase(
        transactions, universe=range(num_items + rng.randint(0, 3))
    )


def random_candidates(rng, db):
    universe = list(db.universe) or [0]
    candidates = []
    for _ in range(rng.randint(0, 50)):
        size = rng.randint(0, min(6, len(universe)))
        candidates.append(tuple(sorted(rng.sample(universe, size))))
    candidates.append(())
    candidates.append((max(universe) + 17,))
    candidates.append((universe[0], max(universe) + 17))
    if candidates and candidates[0]:
        candidates.append(candidates[0])  # duplicate of an earlier candidate
    return candidates


def test_randomised_equivalence_with_naive():
    rng = random.Random(7041)
    for trial in range(NUM_TRIALS):
        db = random_database(rng)
        candidates = random_candidates(rng, db)
        expected = get_counter("naive").count(db, candidates)
        actual = RoaringCounter().count(db, candidates)
        assert actual == expected, "trial %d diverged" % trial


def shaped_database(density, rows, num_items, seed):
    """Random db whose mean column density is roughly ``density``."""
    rng = random.Random(seed)
    baskets = [
        [item for item in range(num_items) if rng.random() < density]
        for _ in range(rows)
    ]
    return TransactionDatabase(baskets, universe=range(num_items))


@pytest.mark.parametrize(
    "density", [0.4, 0.01], ids=["dense", "sparse"]
)
def test_matches_naive_across_density(density):
    db = shaped_database(density, rows=3000, num_items=60, seed=29)
    rng = random.Random(31)
    candidates = [
        tuple(sorted(rng.sample(range(60), rng.randint(1, 4))))
        for _ in range(150)
    ]
    candidates += [(), (59,), (0, 59), (61,)]
    counter = RoaringCounter()
    assert counter.count(db, candidates) == get_counter("naive").count(
        db, candidates
    )
    # no density policy inside the engine: dense data still counts on
    # the container index whenever NumPy is present
    expected_index = RoaringIndex if HAVE_NUMPY else IntBitmapIndex
    assert type(counter._index) is expected_index


def multi_container_database():
    """A multi-chunk db whose columns hit both container kinds.

    Item 0 is dense, item 1 is one solid run, item 2 is all-ones (all
    three bitmap spans), items 3+ are a sparse tail; the row count
    crosses a chunk boundary so span arithmetic and absent-chunk
    skipping both fire.
    """
    rng = random.Random(11)
    num_rows = CHUNK_SIZE + 4096
    baskets = []
    for row in range(num_rows):
        basket = {2}  # all-ones column
        if rng.random() < 0.5:
            basket.add(0)
        if CHUNK_SIZE // 2 <= row < CHUNK_SIZE // 2 + 9000:
            basket.add(1)
        basket.add(rng.randint(3, 300))
        baskets.append(sorted(basket))
    return TransactionDatabase(baskets, universe=range(302))


def test_identical_on_multi_container_database():
    # the int-bitmap engine is the reference here: a naive scan of 70k
    # rows per candidate would dominate the suite's runtime
    db = multi_container_database()
    rng = random.Random(13)
    candidates = []
    for _ in range(400):
        size = rng.randint(1, 4)
        candidates.append(tuple(sorted(rng.sample(range(0, 40), size))))
    candidates += [(), (2,), (0, 1, 2), (300, 301), (301,)]
    candidates.append(candidates[0])
    counts = RoaringCounter().count(db, candidates)
    assert counts == get_counter("bitmap").count(db, candidates)
    # the all-ones column must count every row
    assert counts[(2,)] == len(db)


@pytest.mark.skipif(not HAVE_NUMPY, reason="roaring rung needs NumPy")
def test_container_kinds_match_column_shapes():
    db = multi_container_database()
    index = RoaringIndex.from_database(db)
    mix = index.container_counts()
    assert set(mix) == {"array", "bitmap"}
    # the dense item-0 column, the solid-run and the all-ones columns
    assert mix["bitmap"] >= 3
    assert mix["array"] >= 200  # the sparse tail
    # compression must beat the flat packed layout on this shape
    assert index.compressed_bytes() < index.dense_bytes()


@pytest.mark.skipif(not HAVE_NUMPY, reason="roaring rung needs NumPy")
def test_empty_and_all_ones_columns():
    num_rows = CHUNK_SIZE + 77  # cross a chunk boundary
    baskets = [[0] for _ in range(num_rows)]
    baskets[5] = [0, 2]
    db = TransactionDatabase(baskets, universe=range(4))
    index = RoaringIndex.from_database(db)
    candidates = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    counts = dict(zip(candidates, index.counts(candidates)))
    assert counts[(0,)] == num_rows
    assert counts[(1,)] == 0  # empty column: never stored
    assert counts[(2,)] == 1
    assert counts[(0, 1)] == 0
    assert counts[(0, 2)] == 1
    assert counts[(1, 2)] == 0
    assert counts[(0, 1, 2)] == 0


def test_steps_down_to_int_bitmap_index_without_numpy(monkeypatch):
    import repro.db.vertical as vertical

    monkeypatch.setattr(vertical, "HAVE_NUMPY", False)
    counter = RoaringCounter()
    db = TransactionDatabase([[0, 1], [1]], universe=range(3))
    counts = counter.count(db, [(0,), (1,), (0, 1), (2,)])
    assert counts == {(0,): 1, (1,): 2, (0, 1): 1, (2,): 0}
    assert type(counter._index) is IntBitmapIndex


@pytest.mark.skipif(not HAVE_NUMPY, reason="roaring rung needs NumPy")
def test_build_gauges_describe_the_index():
    from repro.obs.instrument import Instrumentation

    db = multi_container_database()
    counter = RoaringCounter()
    counter.obs = obs = Instrumentation()
    counter.count(db, [(0,), (0, 1)])
    for kind, value in counter._index.container_counts().items():
        gauge = obs.metrics.gauge("engine.roaring.containers.%s" % kind)
        assert gauge.value == value
    assert obs.metrics.gauge("engine.roaring.compressed_bytes").value == (
        counter._index.compressed_bytes()
    )
    assert obs.metrics.gauge("engine.roaring.dense_bytes").value == (
        counter._index.dense_bytes()
    )


def test_prefix_cache_accounting_and_reset():
    db = TransactionDatabase(
        [[0, 1, 2], [0, 1, 3], [1, 2], [0, 2]], universe=range(4)
    )
    counter = RoaringCounter()
    # two triples sharing the prefix (0, 1): the container walk reuses it
    # (a dense pair batch would go to the 2-D array sweep, no prefix memo)
    counter.count(db, [(0, 1, 2), (0, 1, 3)])
    assert counter.prefix_cache_hits > 0
    assert counter.prefix_cache_misses > 0
    counter.reset()
    assert counter.prefix_cache_hits == 0
    assert counter.prefix_cache_misses == 0
