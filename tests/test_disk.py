"""Tests for the file-backed streaming database (repro.db.disk)."""

import random

import pytest

from repro.algorithms.apriori import Apriori
from repro.core.pincer import PincerSearch
from repro.db import io
from repro.db.counting import get_counter
from repro.db.disk import DiskTransactionDatabase
from repro.db.transaction_db import TransactionDatabase


@pytest.fixture()
def on_disk(tmp_path):
    db = TransactionDatabase(
        [[1, 2, 3], [1, 2, 3], [1, 2], [3, 4], [1, 2, 3]]
    )
    path = tmp_path / "db.dat"
    io.save(db, path)
    return DiskTransactionDatabase(path), db


class TestMetadata:
    def test_len_and_universe_from_one_scan(self, on_disk):
        disk, memory = on_disk
        assert len(disk) == len(memory)
        assert disk.universe == memory.universe
        assert disk.file_reads == 1  # the metadata pass

    def test_malformed_file_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1 2\nnope\n")
        with pytest.raises(ValueError, match=":2:"):
            DiskTransactionDatabase(path)

    def test_repr_mentions_reads(self, on_disk):
        disk, _ = on_disk
        assert "reads=1" in repr(disk)


class TestStreaming:
    def test_each_iteration_is_a_file_read(self, on_disk):
        disk, memory = on_disk
        before = disk.file_reads
        assert sorted(map(sorted, disk)) == sorted(map(sorted, memory))
        assert sorted(map(sorted, disk.transactions)) == sorted(
            map(sorted, memory)
        )
        assert disk.file_reads == before + 2

    def test_records_streamed_accumulates(self, on_disk):
        disk, memory = on_disk
        list(disk)
        assert disk.records_streamed == 2 * len(memory)  # metadata + this

    def test_support_interface_matches_memory(self, on_disk):
        disk, memory = on_disk
        for probe in ([1], [1, 2], [3, 4], [9]):
            assert disk.support_count(probe) == memory.support_count(probe)
        assert disk.absolute_support(0.5) == memory.absolute_support(0.5)
        assert disk.item_support_counts() == memory.item_support_counts()
        assert disk.average_transaction_size() == pytest.approx(
            memory.average_transaction_size()
        )

    def test_bitmaps_match_memory_and_are_cached(self, on_disk):
        disk, memory = on_disk
        assert disk.item_bitmaps() == memory.item_bitmaps()
        reads = disk.file_reads
        disk.item_bitmaps()
        assert disk.file_reads == reads  # cached

    @pytest.mark.parametrize("num_rows", [1, 7, 8, 9, 63, 64, 65, 300])
    def test_streamed_bitmaps_equal_the_loaded_ones(self, tmp_path, num_rows):
        rng = random.Random(num_rows)
        rows = [rng.sample(range(300, 340), rng.randint(1, 6))
                for _ in range(num_rows)]
        path = tmp_path / "db.dat"
        io.save(TransactionDatabase(rows), path)
        disk = DiskTransactionDatabase(path)
        assert disk.item_bitmaps() == io.load(path).item_bitmaps()
        assert disk.file_reads == 2  # the metadata pass and the build

    def test_load_into_memory_round_trip(self, on_disk):
        disk, memory = on_disk
        assert disk.load_into_memory() == memory


class TestMiningFromDisk:
    @pytest.mark.parametrize("engine", ["naive", "bitmap", "hashtree", "trie"])
    def test_all_engines_mine_from_disk(self, on_disk, engine):
        disk, memory = on_disk
        from_disk = PincerSearch(engine=engine).mine(disk, 0.5)
        from_memory = PincerSearch(engine=engine).mine(memory, 0.5)
        assert from_disk.mfs == from_memory.mfs

    def test_streaming_engine_reads_file_once_per_pass(self, on_disk):
        disk, _ = on_disk
        counter = get_counter("naive")
        reads_before = disk.file_reads
        result = Apriori().mine(disk, 0.5, counter=counter)
        physical_reads = disk.file_reads - reads_before
        assert physical_reads == result.stats.num_passes

    def test_io_model_matches_paper_accounting(self, on_disk):
        disk, _ = on_disk
        counter = get_counter("trie")
        result = PincerSearch(adaptive=False).mine(
            disk, 0.5, counter=counter
        )
        # records billed by the engine == passes * |D|
        assert counter.records_read == result.stats.num_passes * len(disk)
