"""Tests for database file I/O (repro.db.io)."""

import gc
import random
import re

import pytest

from repro.db import io
from repro.db.disk import DiskTransactionDatabase
from repro.db.transaction_db import TransactionDatabase


def sample_db():
    return TransactionDatabase([[3, 1], [2], [1, 2, 3]])


class TestBasketFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "db.dat"
        io.save_basket(sample_db(), path)
        assert io.load_basket(path) == sample_db()

    def test_items_written_sorted(self, tmp_path):
        path = tmp_path / "db.dat"
        io.save_basket(sample_db(), path)
        assert path.read_text().splitlines()[0] == "1 3"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "db.dat"
        path.write_text("1 2\n\n3\n")
        db = io.load_basket(path)
        assert len(db) == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "db.dat"
        path.write_text("1 2\nfoo bar\n")
        with pytest.raises(ValueError, match=":2:"):
            io.load_basket(path)


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "db.csv"
        io.save_csv(sample_db(), path)
        assert io.load_csv(path) == sample_db()

    def test_malformed_cell(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError, match=":1:"):
            io.load_csv(path)

    def test_trailing_commas_tolerated(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("1,2,\n")
        assert io.load_csv(path)[0] == frozenset({1, 2})


class TestLineParser:
    """The one line parser behind ``.dat``, ``.csv`` and the disk stream."""

    def test_blank_and_whitespace_only_lines_skipped(self, tmp_path):
        basket = tmp_path / "db.dat"
        basket.write_text("1 2\n   \n\t\n\n3\n \t \n")
        assert list(io.load(basket)) == [frozenset({1, 2}), frozenset({3})]
        assert list(DiskTransactionDatabase(basket)) == list(io.load(basket))
        csv = tmp_path / "db.csv"
        csv.write_text("1,2\n  \n\n3\n")
        assert list(io.load(csv)) == [frozenset({1, 2}), frozenset({3})]

    def test_csv_line_of_blank_cells_is_an_empty_row(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("1\n, ,\n2\n")
        assert list(io.load(path)) == [
            frozenset({1}), frozenset(), frozenset({2}),
        ]

    def test_csv_cells_with_spaces(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text(" 1 , 2,3 \n\t4\t,  5\n")
        assert list(io.load(path)) == [frozenset({1, 2, 3}), frozenset({4, 5})]
        path.write_text("1,2 3\n")
        with pytest.raises(ValueError, match=":1:"):
            io.load(path)

    def test_unicode_digits_and_spaces_parse_as_int_does(self, tmp_path):
        path = tmp_path / "db.dat"
        path.write_text("\uff11\uff12 3\u30004\n", encoding="utf-8")
        assert list(io.load(path)) == [frozenset({12, 3, 4})]

    @pytest.mark.parametrize(
        "name, text",
        [("db.dat", "1 2\n\n3 x\n"), ("db.csv", "1,2\n\n3,x\n")],
    )
    def test_bad_token_names_path_and_line(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        # the blank line still counts toward the line number
        with pytest.raises(ValueError, match=re.escape("%s:3:" % path)):
            io.load(path)

    def test_bad_token_in_a_later_disk_pass_names_path_and_line(
        self, tmp_path
    ):
        path = tmp_path / "db.dat"
        path.write_text("1 2\n3\n")
        disk = DiskTransactionDatabase(path)
        path.write_text("1 2\n\n3 4.5\n")
        with pytest.raises(ValueError, match=re.escape("%s:3:" % path)):
            list(disk)

    @pytest.mark.parametrize("name", ["db.dat", "db.csv"])
    def test_every_occurrence_of_an_item_shares_one_int(self, tmp_path, name):
        # items above CPython's small-int cache, some spelled two ways
        rng = random.Random(7)
        rows = [rng.sample(range(1000, 1040), 8) for _ in range(200)]
        path = tmp_path / name
        io.save(TransactionDatabase(rows), path)
        text = path.read_text()
        path.write_text(text.replace("1001", "01001").replace("1002", "+1002"))
        db = io.load(path)
        assert db == TransactionDatabase(rows)
        assert len({id(item) for row in db for item in row}) == db.num_items


@pytest.mark.parametrize(
    "name, good, bad",
    [("db.dat", "1 2\n3\n", "1 2\n3 x\n"), ("db.csv", "1,2\n3\n", "1,2\n3,x\n")],
)
class TestCollectorPausedWhileLoading:
    """The basket and CSV loads build their rows with the cyclic garbage
    collector off and hand the caller back its own collector state."""

    def test_rows_are_built_with_the_collector_off(
        self, tmp_path, monkeypatch, name, good, bad
    ):
        path = tmp_path / name
        path.write_text(good)
        seen = []

        def recording(rows):
            seen.append(gc.isenabled())
            return TransactionDatabase(rows)

        monkeypatch.setattr(io, "TransactionDatabase", recording)
        assert gc.isenabled()
        assert list(io.load(path)) == [frozenset({1, 2}), frozenset({3})]
        assert seen == [False]
        assert gc.isenabled()

    def test_a_bad_line_restores_the_collector(self, tmp_path, name, good, bad):
        path = tmp_path / name
        path.write_text(bad)
        assert gc.isenabled()
        with pytest.raises(ValueError, match=re.escape("%s:2:" % path)):
            io.load(path)
        assert gc.isenabled()

    def test_a_collector_the_caller_switched_off_stays_off(
        self, tmp_path, name, good, bad
    ):
        good_path, bad_path = tmp_path / ("good" + name), tmp_path / name
        good_path.write_text(good)
        bad_path.write_text(bad)
        gc.disable()
        try:
            assert len(io.load(good_path)) == 2
            assert not gc.isenabled()
            with pytest.raises(ValueError):
                io.load(bad_path)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestJsonFormat:
    def test_round_trip_preserves_universe(self, tmp_path):
        path = tmp_path / "db.json"
        db = TransactionDatabase([[1]], universe=range(1, 5))
        io.save_json(db, path)
        loaded = io.load_json(path)
        assert loaded == db
        assert loaded.universe == (1, 2, 3, 4)

    def test_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="transactions"):
            io.load_json(path)


class TestDispatch:
    @pytest.mark.parametrize("name", ["db.dat", "db.basket", "db.txt",
                                      "db.csv", "db.json"])
    def test_save_load_by_extension(self, tmp_path, name):
        path = tmp_path / name
        io.save(sample_db(), path)
        loaded = io.load(path)
        assert list(loaded) == list(sample_db())

    def test_unknown_extension_raises_on_load(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            io.load(tmp_path / "db.parquet")

    def test_unknown_extension_raises_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            io.save(sample_db(), tmp_path / "db.parquet")

    def test_extension_dispatch_is_case_insensitive(self, tmp_path):
        path = tmp_path / "DB.DAT"
        io.save(sample_db(), path)
        assert len(io.load(path)) == 3
