"""Unit tests for the vertical-bitmap indexes and the engine body they
share (``repro.db.vertical``)."""

import random
import time
from itertools import combinations

import pytest

import repro.db.vertical as vertical
from repro.db.base import PairBatch, PairLevel
from repro.db.counting import CountingDeadline, get_counter
from repro.db.roaring import RoaringIndex
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import (
    HAVE_NUMPY,
    IntBitmapIndex,
    PackedBitmapIndex,
    PrefixIntersector,
    popcount,
    sweep_pairs,
)

TRANSACTIONS = [[1, 2, 3], [1, 2], [2, 3], [3], []]
GROUND_TRUTH = {
    (): 5,
    (1,): 2,
    (2,): 3,
    (3,): 3,
    (1, 2): 2,
    (1, 3): 1,
    (2, 3): 2,
    (1, 2, 3): 1,
    (9,): 0,
    (1, 9): 0,
}


def both_indexes():
    db = TransactionDatabase(TRANSACTIONS)
    indexes = [IntBitmapIndex.from_database(db)]
    if HAVE_NUMPY:
        indexes.append(PackedBitmapIndex.from_database(db))
    return indexes


@pytest.mark.parametrize("index", both_indexes(), ids=lambda i: type(i).__name__)
class TestIndexCounts:
    def test_ground_truth(self, index):
        candidates = list(GROUND_TRUTH)
        assert index.counts(candidates) == [GROUND_TRUTH[c] for c in candidates]

    def test_num_rows(self, index):
        assert index.num_rows == len(TRANSACTIONS)

    def test_tiny_chunks_agree(self, index):
        candidates = list(GROUND_TRUTH)
        expected = index.counts(candidates)
        assert index.counts(candidates, chunk_size=1) == expected
        assert index.counts(candidates, chunk_size=3) == expected

    def test_empty_candidate_list(self, index):
        assert index.counts([]) == []

    def test_deadline_check_is_invoked(self, index):
        calls = []
        index.counts(list(GROUND_TRUTH), deadline_check=lambda: calls.append(1))
        assert calls


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires NumPy")
class TestPackedIndex:
    def test_round_trip_matches_int_bitmap_index(self):
        db = TransactionDatabase(TRANSACTIONS)
        packed = PackedBitmapIndex.from_database(db)
        plain = IntBitmapIndex.from_database(db)
        candidates = list(GROUND_TRUTH)
        assert packed.counts(candidates) == plain.counts(candidates)

    def test_word_boundaries(self):
        # 64/65 rows straddle the packing word boundary
        for rows in (1, 63, 64, 65, 130):
            transactions = [[1] if t % 2 == 0 else [2] for t in range(rows)]
            index = PackedBitmapIndex.from_database(
                TransactionDatabase(transactions)
            )
            assert index.num_words == max(1, (rows + 63) // 64)
            assert index.counts([(1,), (2,), (1, 2), ()]) == [
                (rows + 1) // 2,
                rows // 2,
                0,
                rows,
            ]

    def test_from_database_reuses_item_bitmaps(self):
        db = TransactionDatabase(TRANSACTIONS)
        index = PackedBitmapIndex.from_database(db)
        assert index.counts([(2, 3)]) == [2]

    def test_long_candidate_from_mfcs(self):
        # pass-1 MFCS candidates can span the whole universe
        universe = list(range(200))
        index = PackedBitmapIndex.from_database(
            TransactionDatabase([universe, universe[:50]], universe)
        )
        assert index.counts([tuple(universe)]) == [1]

    def test_shared_prefix_path_matches_generic(self):
        # >=256 candidates of length 3 routes through the levelwise
        # prefix-dedup path; verify against the naive engine
        transactions = [[t % 7, t % 5 + 10, t % 3 + 20] for t in range(100)]
        db = TransactionDatabase(transactions)
        candidates = sorted(
            {
                (a, b + 10, c + 20)
                for a in range(7)
                for b in range(5)
                for c in range(3)
            }
        ) * 2
        expected = get_counter("naive").count(db, candidates)
        index = PackedBitmapIndex.from_database(db)
        actual = dict(zip(candidates, index.counts(candidates)))
        assert actual == expected

    def test_non_table_items_fall_back_to_dict_mapping(self):
        # huge item ids exceed MAX_TABLE_ITEM: the O(1) lookup table is
        # skipped but counting still works
        huge = PackedBitmapIndex.MAX_TABLE_ITEM + 5
        index = PackedBitmapIndex.from_database(
            TransactionDatabase([[1, huge], [huge]])
        )
        assert index._row_table is None
        assert index.counts([(1,), (huge,), (1, huge)]) == [1, 2, 1]


class TestPrefixIntersector:
    def lookup(self, item):
        return {1: 0b0111, 2: 0b0011, 3: 0b0101}.get(item)

    def test_intersections_and_reuse(self):
        cache = PrefixIntersector(self.lookup, lambda a, b: a & b, 0b1111)
        assert cache.intersection((1, 2)) == 0b0011
        assert cache.intersection((1, 2, 3)) == 0b0001
        # (1, 2) was reused from the stack; only item 3 was combined anew
        assert cache.hits == 2
        assert cache.misses == 3

    def test_unknown_item_poisons_candidate_only(self):
        cache = PrefixIntersector(self.lookup, lambda a, b: a & b, 0b1111)
        assert cache.intersection((1, 9)) is None
        assert cache.intersection((2,)) == 0b0011

    def test_empty_candidate_is_top(self):
        cache = PrefixIntersector(self.lookup, lambda a, b: a & b, 0b1111)
        assert cache.intersection(()) == 0b1111


INDEX_CLASSES = {
    "bitmap": IntBitmapIndex,
    "packed": PackedBitmapIndex,
    "roaring": RoaringIndex,
}


@pytest.mark.parametrize("engine", sorted(INDEX_CLASSES))
class TestIndexCounter:
    """The engine body ``bitmap``, ``packed`` and ``roaring`` share."""

    def test_index_cached_per_database(self, engine):
        counter = get_counter(engine)
        db = TransactionDatabase(TRANSACTIONS)
        counter.count(db, [(1,)])
        first = counter._index
        counter.count(db, [(2,)])
        assert counter._index is first
        other = TransactionDatabase([[5]])
        assert counter.count(other, [(5,), (1,)]) == {(5,): 1, (1,): 0}
        assert counter._index is not first

    def test_reset_clears_accounting(self, engine):
        counter = get_counter(engine)
        db = TransactionDatabase(TRANSACTIONS)
        counter.count(db, [(1, 2), (1, 2, 3), (2, 3)])
        assert counter.prefix_cache_misses > 0
        counter.reset()
        assert counter.prefix_cache_hits == 0
        assert counter.prefix_cache_misses == 0
        assert counter.count(db, list(GROUND_TRUTH)) == GROUND_TRUTH

    def test_prefix_cache_metrics_emitted(self, engine):
        from repro.obs.instrument import Instrumentation

        counter = get_counter(engine)
        counter.obs = obs = Instrumentation()
        counter.count(TransactionDatabase(TRANSACTIONS), [(1, 2), (1, 2, 3)])
        assert obs.metrics.counter("prefix_cache.hits").value == (
            counter.prefix_cache_hits
        )
        assert obs.metrics.counter("prefix_cache.misses").value == (
            counter.prefix_cache_misses
        )
        assert counter.prefix_cache_misses > 0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="requires NumPy")
    def test_builds_its_index_class(self, engine):
        counter = get_counter(engine)
        counter.count(TransactionDatabase(TRANSACTIONS), [(1,)])
        assert type(counter._index) is INDEX_CLASSES[engine]

    def test_falls_back_to_int_bitmap_index_without_numpy(
        self, engine, monkeypatch
    ):
        monkeypatch.setattr(vertical, "HAVE_NUMPY", False)
        counter = get_counter(engine)
        db = TransactionDatabase(TRANSACTIONS)
        counter.count(db, [(1,)])
        assert type(counter._index) is IntBitmapIndex
        # the index is the database's own vertical view, not a copy
        assert counter._index._bitmaps is db.item_bitmaps()

    def test_counts_match_without_numpy(self, engine, monkeypatch):
        monkeypatch.setattr(vertical, "HAVE_NUMPY", False)
        counter = get_counter(engine)
        db = TransactionDatabase(TRANSACTIONS)
        assert counter.count(db, list(GROUND_TRUTH)) == GROUND_TRUTH

    def test_expired_deadline_aborts(self, engine):
        counter = get_counter(engine)
        counter.deadline = time.perf_counter() - 1.0
        with pytest.raises(CountingDeadline):
            counter.count(TransactionDatabase(TRANSACTIONS), [(1,)])


def pair_database(rows, num_items=12, seed=5):
    rng = random.Random(seed)
    transactions = [
        rng.sample(range(num_items), rng.randint(0, num_items // 2))
        for _ in range(rows)
    ]
    return TransactionDatabase(transactions, universe=range(num_items))


#: a pass-2 batch over items 0..11: every pair, plus what else pass 2
#: sends (an MFCS element, a singleton, ``()``), and the pair shapes the
#: sweep canonicalises: unsorted, repeated item, outside the universe,
#: duplicate
DENSE_BATCH = list(combinations(range(12), 2)) + [
    tuple(range(12)),
    (3,),
    (),
    (7, 2),
    (4, 4),
    (5, 99),
    (0, 1),
]


@pytest.mark.parametrize("engine", sorted(INDEX_CLASSES))
class TestPairSweep:
    """Pass 2 as the paper's 2-D array: ``sweep_pairs`` inside the
    ``packed`` and ``roaring`` bodies; ``bitmap`` never sweeps."""

    def sweeps(self, engine):
        return engine != "bitmap" and HAVE_NUMPY

    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 200])
    def test_dense_batch_matches_naive(self, engine, rows):
        db = pair_database(rows)
        counter = get_counter(engine)
        assert counter.count(db, DENSE_BATCH) == get_counter("naive").count(
            db, DENSE_BATCH
        )
        # 66 pairs over 0..11, (7, 2), (4, 4) and (5, 99): one key each
        assert counter.last_pairs_swept == (69 if self.sweeps(engine) else 0)

    def test_sparse_batch_takes_the_index(self, engine):
        db = pair_database(100)
        batch = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2, 3)]
        counter = get_counter(engine)
        expected = get_counter("naive").count(db, batch)
        assert counter.count(db, batch) == expected
        assert counter.last_pairs_swept == 0

    def test_over_budget_block_takes_the_index(self, engine, monkeypatch):
        db = pair_database(200)  # 13 items x 4 words: one word over
        monkeypatch.setattr(vertical, "WORK_BUDGET_WORDS", 13 * 4 - 1)
        counter = get_counter(engine)
        assert counter.count(db, DENSE_BATCH) == get_counter("naive").count(
            db, DENSE_BATCH
        )
        assert counter.last_pairs_swept == 0

    def test_no_sweep_without_numpy(self, engine, monkeypatch):
        monkeypatch.setattr(vertical, "HAVE_NUMPY", False)
        db = pair_database(100)
        counter = get_counter(engine)
        assert counter.count(db, DENSE_BATCH) == get_counter("naive").count(
            db, DENSE_BATCH
        )
        assert counter.last_pairs_swept == 0

    def test_lazy_batch_matches_naive(self, engine):
        # pass 2 as the miners send it: the pair level kept lazy, one
        # pair already counted, plus an MFCS element
        db = pair_database(200)
        level = PairLevel(range(12)).without([(2, 7)])
        batch = PairBatch(level, [tuple(range(12))])
        expected = get_counter("naive").count(db, list(batch))
        counter = get_counter(engine)
        assert counter.count(db, batch) == expected
        assert counter.last_pairs_swept == (65 if self.sweeps(engine) else 0)
        assert counter.itemsets_counted == 66


def test_packed_pass_two_reads_its_own_matrix(monkeypatch):
    # once the index exists, pass 2 reads no int bitmap: packed gathers
    # the swept rows from its matrix (roaring, with no flat rows, packs)
    db = pair_database(200)
    batch = PairBatch(PairLevel(range(12)), [tuple(range(12))])
    naive = get_counter("naive")
    expected_listed = naive.count(db, DENSE_BATCH)
    expected_lazy = naive.count(db, list(batch))
    counter = get_counter("packed")
    counter.count(db, [(0,)])  # builds the index

    def no_bitmaps():
        raise AssertionError("pass 2 re-packed rows from item_bitmaps()")

    monkeypatch.setattr(db, "item_bitmaps", no_bitmaps)
    assert counter.count(db, DENSE_BATCH) == expected_listed
    assert counter.last_pairs_swept == (69 if HAVE_NUMPY else 0)
    assert counter.count(db, batch) == expected_lazy
    assert counter.last_pairs_swept == (66 if HAVE_NUMPY else 0)


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires NumPy")
class TestSweepDeadline:
    def test_one_check_per_work_budget(self):
        calls = []
        counts, rest = sweep_pairs(
            pair_database(200), DENSE_BATCH, lambda: calls.append(1)
        )
        assert len(counts) == 69 and len(rest) == 3
        assert len(calls) == 1  # 13 x 13 x 4 words: far below the budget

    def test_expired_deadline_raises_partway(self, monkeypatch):
        # one row per slab, and a budget one slab exhausts: every slab
        # checks, and the second check finds the deadline passed
        monkeypatch.setattr(PackedBitmapIndex, "TILE_TARGET_BYTES", 8)
        monkeypatch.setattr(vertical, "WORK_BUDGET_WORDS", 13 * 4)
        calls = []

        def deadline_check():
            calls.append(1)
            if len(calls) == 2:
                raise CountingDeadline("expired")

        with pytest.raises(CountingDeadline):
            sweep_pairs(pair_database(200), DENSE_BATCH, deadline_check)
        assert len(calls) == 2

    @pytest.mark.parametrize("engine", ["packed", "roaring"])
    def test_engine_deadline_aborts_the_sweep(self, engine, monkeypatch):
        monkeypatch.setattr(PackedBitmapIndex, "TILE_TARGET_BYTES", 8)
        monkeypatch.setattr(vertical, "WORK_BUDGET_WORDS", 13 * 4)
        counter = get_counter(engine)
        calls = []

        def check():  # the pass's check, the first slab's, then expired
            calls.append(1)
            if len(calls) == 3:
                raise CountingDeadline("expired")

        monkeypatch.setattr(counter, "_check_deadline", check)
        with pytest.raises(CountingDeadline):
            counter.count(pair_database(200), DENSE_BATCH)
        assert len(calls) == 3


def test_popcount():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert popcount((1 << 200) - 1) == 200


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires NumPy")
class TestFusedTiledKernel:
    """Cache-blocked fused AND+popcount vs the reference index.

    The fused path only engages on wide matrices (``num_words >=
    FUSED_MIN_WORDS``), so these tests lower the threshold on one
    *instance* and shrink ``TILE_WORDS`` below ``num_words`` to force
    multiple tiles — including a ragged final tile — then compare against
    ``IntBitmapIndex`` ground truth.
    """

    ROWS = 300  # 5 words: tile=3 gives one full tile + a ragged one

    def _db(self):
        transactions = [
            sorted({t % 7, t % 11 + 10, t % 3 + 30, (t * 13) % 5 + 40})
            for t in range(self.ROWS)
        ]
        return TransactionDatabase(transactions)

    def _fused_index(self, db):
        index = PackedBitmapIndex.from_database(db)
        assert index.num_words == (self.ROWS + 63) // 64
        index.FUSED_MIN_WORDS = 1
        index.TILE_WORDS = 3
        return index

    def test_matches_reference_without_prefix_plan(self):
        # a short candidate list stays below the plan threshold (256),
        # exercising the in-place column-AND branch of the fused loop
        db = self._db()
        index = self._fused_index(db)
        candidates = [
            (),
            (0,),
            (0, 10),
            (0, 10, 30),
            (1, 12, 31, 42),
            (99,),
            (0, 99),
        ]
        expected = IntBitmapIndex.from_database(db).counts(candidates)
        assert index.counts(candidates) == expected

    def test_matches_reference_with_prefix_plan(self):
        # >=256 same-length candidates route through the hoisted prefix
        # plan, replayed per word tile
        db = self._db()
        index = self._fused_index(db)
        candidates = sorted(
            {
                (a, b + 10, c + 30)
                for a in range(7)
                for b in range(11)
                for c in range(3)
            }
        ) * 2
        assert len(candidates) >= 256
        expected = IntBitmapIndex.from_database(db).counts(candidates)
        assert index.counts(candidates) == expected

    def test_prefix_accounting_still_reported(self):
        db = self._db()
        index = self._fused_index(db)
        candidates = sorted(
            {(a, b + 10, 30) for a in range(7) for b in range(11)}
        ) * 4
        counts = index.counts(candidates)
        assert counts.hits > 0
        assert counts.misses > 0

    def test_tile_larger_than_matrix_is_one_tile(self):
        db = self._db()
        index = self._fused_index(db)
        index.TILE_WORDS = 10 ** 6
        candidates = [(0,), (0, 10), (1, 12, 31)]
        expected = IntBitmapIndex.from_database(db).counts(candidates)
        assert index.counts(candidates) == expected
