"""Tests for the benchmark harness (repro.bench)."""

import pytest

from repro.algorithms.apriori import Apriori
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    FIGURE3,
    FIGURE4,
    ExperimentSpec,
    bench_scale,
    build_database,
    clear_database_cache,
)
from repro.bench.harness import (
    CellResult,
    bench_budget,
    format_rows,
    relative_time,
    run_cell,
    run_sweep,
)
from repro.core.pincer import PincerSearch
from repro.db.transaction_db import TransactionDatabase


def tiny_spec():
    return ExperimentSpec("tiny", "T5.I2.D100K", 20, (5.0,), "test spec")


class TestExperimentGrid:
    def test_grid_covers_both_figures(self):
        assert set(FIGURE3) == {"fig3-t5-i2", "fig3-t10-i4", "fig3-t20-i6"}
        assert set(FIGURE4) == {"fig4-t20-i6", "fig4-t20-i10", "fig4-t20-i15"}
        assert set(ALL_EXPERIMENTS) == set(FIGURE3) | set(FIGURE4)

    def test_figure3_is_scattered_figure4_concentrated(self):
        assert all(spec.num_patterns == 2000 for spec in FIGURE3.values())
        assert all(spec.num_patterns == 50 for spec in FIGURE4.values())

    def test_build_database_is_memoised(self):
        clear_database_cache()
        first = build_database(tiny_spec(), num_transactions=50)
        second = build_database(tiny_spec(), num_transactions=50)
        assert first is second
        clear_database_cache()
        third = build_database(tiny_spec(), num_transactions=50)
        assert third is not first

    def test_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "123")
        assert bench_scale() == 123

    def test_scale_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0")
        with pytest.raises(ValueError):
            bench_scale()

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BUDGET", "7.5")
        assert bench_budget() == 7.5


class TestRunCell:
    def test_paper_miners_produce_two_rows(self):
        db = build_database(tiny_spec(), num_transactions=120)
        rows = run_cell(db, "tiny", 10.0)
        assert [row.algorithm for row in rows] == [
            "pincer-search", "apriori",
        ]
        assert all(row.database == "tiny" for row in rows)
        assert rows[0].mfs_size == rows[1].mfs_size

    def test_disagreement_raises(self):
        class LyingMiner(PincerSearch):
            def mine(self, db, min_support=None, **kwargs):
                result = super().mine(db, min_support, **kwargs)
                result.mfs = frozenset({(999,)})
                result.supports[(999,)] = 1
                return result

        db = TransactionDatabase([[1, 2]] * 5)
        miners = {
            "pincer-search": PincerSearch,
            "liar": LyingMiner,
        }
        with pytest.raises(AssertionError, match="disagrees"):
            run_cell(db, "x", 50.0, miners)

    def test_timeout_produces_dnf_row(self):
        db = TransactionDatabase([[1, 2, 3, 4, 5, 6]] * 6)
        miners = {"apriori": Apriori}
        rows = run_cell(db, "x", 50.0, miners, time_budget=0.0)
        assert len(rows) == 1
        assert rows[0].dnf
        assert rows[0].mfs_size == 0

    def test_sweep_covers_all_supports(self):
        db = build_database(tiny_spec(), num_transactions=120)
        rows = run_sweep(db, "tiny", (20.0, 10.0))
        assert {row.min_support_percent for row in rows} == {20.0, 10.0}
        assert len(rows) == 4

    @pytest.mark.parametrize("num_transactions", [120, 600])
    def test_timed_cells_build_no_index(self, monkeypatch, num_transactions):
        # the sweep builds the auto engine's index before its first cell,
        # so no timed miner pays for it
        import repro.bench.harness as harness
        from repro.db.roaring import RoaringIndex
        from repro.db.vertical import IntBitmapIndex, PackedBitmapIndex

        spec = tiny_spec()
        db = TransactionDatabase(list(build_database(spec, num_transactions)))
        builds = []
        for index_class in (IntBitmapIndex, PackedBitmapIndex, RoaringIndex):
            def counted(db, _build=index_class.from_database):
                builds.append(db)
                return _build(db)

            monkeypatch.setattr(index_class, "from_database", counted)
        cells = []
        run_cell = harness.run_cell

        def timed_cell(*args, **kwargs):
            before = len(builds)
            rows = run_cell(*args, **kwargs)
            cells.append(len(builds) - before)
            return rows

        monkeypatch.setattr(harness, "run_cell", timed_cell)
        run_sweep(db, "tiny", (20.0, 10.0))
        assert builds == [db]
        assert cells == [0, 0]


class TestReporting:
    def make_rows(self):
        shared = dict(database="db", total_candidates=10, mfs_size=3,
                      longest_maximal=2, maximal_found_in_mfcs=1)
        return [
            CellResult(min_support_percent=1.0, algorithm="pincer-search",
                       seconds=0.5, passes=3, candidates=5, **shared),
            CellResult(min_support_percent=1.0, algorithm="apriori",
                       seconds=2.0, passes=6, candidates=9, **shared),
        ]

    def test_relative_time(self):
        ratios = relative_time(self.make_rows())
        assert ratios == {1.0: pytest.approx(4.0)}

    def test_format_rows_contains_panels(self):
        text = format_rows(self.make_rows(), title="demo")
        assert "demo" in text
        assert "pincer-search" in text
        assert "apriori" in text
        assert "relative time" in text
        assert "4.00x" in text

    def test_format_rows_marks_dnf(self):
        rows = self.make_rows()
        rows[1] = CellResult(
            database="db", min_support_percent=1.0, algorithm="apriori",
            seconds=60.0, passes=9, candidates=100, total_candidates=100,
            mfs_size=0, longest_maximal=0, maximal_found_in_mfcs=0, dnf=True,
        )
        text = format_rows(rows)
        assert ">60.0" in text
        assert "DNF" in text
        assert ">120.00x" in text


class TestEndToEndSmallScale:
    def test_concentrated_panel_shape(self):
        # miniature fig4-style run: pincer must use fewer or equal passes
        spec = ExperimentSpec("mini", "T10.I6.D100K", 10, (8.0,), "")
        db = build_database(spec, num_transactions=400)
        rows = run_cell(db, "mini", 8.0)
        by_algo = {row.algorithm: row for row in rows}
        assert (
            by_algo["pincer-search"].passes <= by_algo["apriori"].passes + 1
        )
        assert by_algo["pincer-search"].mfs_size == by_algo["apriori"].mfs_size


class TestLatticeBench:
    def test_record_and_replay_agree_across_kernels(self):
        from repro.bench.lattice import record_events, replay_events
        from repro.core.kernel import make_kernel

        db = build_database(tiny_spec(), num_transactions=60)
        events = record_events(db, 10.0)
        assert events, "journal must not be empty"
        universe = sorted(db.universe)
        outputs = [
            replay_events(events, make_kernel(name, universe))
            for name in ("tuple", "bitmask")
        ]
        assert outputs[0] == outputs[1]

    def test_run_lattice_benchmark_smoke(self):
        from repro.bench.lattice import run_lattice_benchmark

        record = run_lattice_benchmark(
            database="T5.I2.D100K",
            supports_percent=(10.0,),
            scale=60,
            repeats=1,
        )
        assert record["benchmark"] == "lattice-kernels"
        assert set(record["totals"]) == {"tuple", "bitmask"}
        assert "speedup_lattice_total" in record
        cell = record["cells"][0]
        assert cell["min_support_percent"] == 10.0
        assert cell["events"] > 0
