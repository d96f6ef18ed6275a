"""Unit tests for the transaction database (repro.db.transaction_db)."""

import random

import pytest

from repro.db.transaction_db import TransactionDatabase, item_columns

#: row counts on both sides of the columns' byte and word edges
EDGE_ROW_COUNTS = (0, 1, 7, 8, 9, 63, 64, 65)


def random_rows(rng, num_rows, items):
    """``num_rows`` random baskets over ``items``, about a fifth empty."""
    items = list(items)
    return [
        rng.sample(items, rng.randint(1, 6)) if rng.random() > 0.2 else []
        for _ in range(num_rows)
    ]


def or_loop_bitmaps(transactions, universe):
    """The reference build: OR each occurrence's bit into the item's int."""
    bitmaps = {item: 0 for item in universe}
    for position, transaction in enumerate(transactions):
        for item in transaction:
            bitmaps[item] |= 1 << position
    return bitmaps


class TestConstruction:
    def test_universe_inferred_from_transactions(self):
        db = TransactionDatabase([[2, 1], [3]])
        assert db.universe == (1, 2, 3)

    def test_explicit_universe_preserved(self):
        db = TransactionDatabase([[1]], universe=range(1, 6))
        assert db.universe == (1, 2, 3, 4, 5)
        assert db.num_items == 5

    def test_explicit_universe_validates_items(self):
        with pytest.raises(ValueError):
            TransactionDatabase([[9]], universe=[1, 2])

    def test_transactions_are_frozensets(self):
        db = TransactionDatabase([[1, 1, 2]])
        assert db[0] == frozenset({1, 2})

    def test_empty_database(self):
        db = TransactionDatabase([])
        assert len(db) == 0
        assert db.universe == ()
        assert db.average_transaction_size() == 0.0

    def test_empty_transactions_are_kept(self):
        db = TransactionDatabase([[], [1]])
        assert len(db) == 2

    def test_equality(self):
        assert TransactionDatabase([[1]]) == TransactionDatabase([[1]])
        assert TransactionDatabase([[1]]) != TransactionDatabase([[2]])

    def test_repr(self):
        assert repr(TransactionDatabase([[1, 2]])) == (
            "TransactionDatabase(|D|=1, |I|=2)"
        )


class TestSupport:
    def test_support_count(self):
        db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3]])
        assert db.support_count([1, 2]) == 2
        assert db.support_count([1, 3]) == 1
        assert db.support_count([4]) == 0

    def test_support_of_empty_itemset(self):
        db = TransactionDatabase([[1], [2]])
        assert db.support_count([]) == 2

    def test_fractional_support(self):
        db = TransactionDatabase([[1, 2], [1], [2]])
        assert db.support([1]) == pytest.approx(2 / 3)

    def test_fractional_support_of_empty_db(self):
        assert TransactionDatabase([]).support([1]) == 0.0

    def test_absolute_support_rounds_up(self):
        db = TransactionDatabase([[1]] * 10)
        assert db.absolute_support(0.25) == 3
        assert db.absolute_support(0.3) == 3
        assert db.absolute_support(1.0) == 10

    def test_absolute_support_is_at_least_one(self):
        db = TransactionDatabase([[1]] * 10)
        assert db.absolute_support(0.0) == 1

    def test_absolute_support_validates_fraction(self):
        with pytest.raises(ValueError):
            TransactionDatabase([[1]]).absolute_support(1.5)

    def test_item_support_counts_cover_zero_items(self):
        db = TransactionDatabase([[1], [1, 2]], universe=[1, 2, 3])
        assert db.item_support_counts() == {1: 2, 2: 1, 3: 0}


class TestBitmaps:
    def test_bitmaps_encode_transaction_positions(self):
        db = TransactionDatabase([[1], [1, 2], [2]])
        bitmaps = db.item_bitmaps()
        assert bitmaps[1] == 0b011
        assert bitmaps[2] == 0b110

    def test_bitmaps_are_cached(self):
        db = TransactionDatabase([[1]])
        assert db.item_bitmaps() is db.item_bitmaps()

    def test_zero_support_items_have_empty_bitmaps(self):
        db = TransactionDatabase([[1]], universe=[1, 2])
        assert db.item_bitmaps()[2] == 0


class TestLinearBuilder:
    """The linear vertical build, against the OR loop as an oracle."""

    @pytest.mark.parametrize("num_rows", EDGE_ROW_COUNTS)
    def test_matches_the_or_loop(self, num_rows):
        rng = random.Random(num_rows)
        for _ in range(5):
            rows = random_rows(rng, num_rows, range(300, 320))
            db = TransactionDatabase(rows)
            assert db.item_bitmaps() == or_loop_bitmaps(db, db.universe)

    @pytest.mark.parametrize("num_rows", EDGE_ROW_COUNTS)
    def test_items_that_never_occur_keep_bitmap_zero(self, num_rows):
        rng = random.Random(100 + num_rows)
        rows = random_rows(rng, num_rows, range(300, 310))
        db = TransactionDatabase(rows, universe=range(300, 330))
        bitmaps = db.item_bitmaps()
        assert list(bitmaps) == list(range(300, 330))
        assert bitmaps == or_loop_bitmaps(db, db.universe)
        assert not any(bitmaps[item] for item in range(310, 330))

    def test_columns_hold_row_bits_little_endian(self):
        # row t is bit t % 8 of byte t // 8; extra bytes stay zero, and
        # only items that occur get a column
        columns = item_columns([[5], [], [5, 6], [6], [], [], [], [], [6]], 3)
        assert columns == {
            5: bytearray(b"\x05\x00\x00"),
            6: bytearray(b"\x0c\x01\x00"),
        }


class TestHelpers:
    def test_restricted_to(self):
        db = TransactionDatabase([[1, 2, 3], [2, 4]])
        projected = db.restricted_to([2, 3])
        assert projected.universe == (2, 3)
        assert projected[0] == frozenset({2, 3})
        assert projected[1] == frozenset({2})

    def test_sample(self):
        db = TransactionDatabase([[1], [2], [3]])
        picked = db.sample([0, 2])
        assert len(picked) == 2
        assert picked[1] == frozenset({3})
        assert picked.universe == db.universe

    def test_occurring_items_excludes_zero_support(self):
        db = TransactionDatabase([[1], [3]], universe=[1, 2, 3])
        assert db.occurring_items() == (1, 3)

    def test_average_transaction_size(self):
        db = TransactionDatabase([[1, 2], [1, 2, 3, 4]])
        assert db.average_transaction_size() == 3.0
