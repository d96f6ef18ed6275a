"""End-to-end observability tests: miners, engines, CLI, and bench.

The acceptance contract of the observability layer: a traced run emits a
schema-valid JSONL span tree covering every pass, with per-pass candidate
totals exactly matching the run's :class:`~repro.core.stats.MiningStats`;
a run counted partition by partition reports the serial engine's
``records_read``.
"""

import json
import logging
import os
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.adaptive import AdaptivePolicy
from repro.core.pincer import PincerSearch
from repro.datagen.configs import parse_name
from repro.datagen.quest import QuestGenerator
from repro.db import io
from repro.db.counting import get_counter
from repro.db.outofcore import PartitionedCounter
from repro.db.transaction_db import TransactionDatabase
from repro.db.vertical import HAVE_NUMPY
from repro.obs import (
    capture,
    configure_logging,
    validate_metrics_file,
    validate_trace_file,
)
from repro.obs.progress import ProgressReporter

TRANSACTIONS = [
    [1, 2, 3, 4], [1, 2, 3], [1, 2, 3], [1, 2], [2, 3], [1, 3],
    [3, 4], [4, 5], [1, 2, 3, 5],
] * 5


def read_trace(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def spans_named(events, *names):
    return [
        event for event in events
        if event["type"] == "span" and event["name"] in names
    ]


class TestTraceMatchesStats:
    @pytest.mark.parametrize("adaptive", [True, False])
    def test_pass_spans_cover_every_pass(self, tmp_path, adaptive):
        db = TransactionDatabase(TRANSACTIONS)
        trace_path = str(tmp_path / "run.jsonl")
        obs = capture(trace_path=trace_path)
        result = PincerSearch(adaptive=adaptive).mine(db, 0.25, obs=obs)
        obs.finish()

        assert validate_trace_file(trace_path) > 0
        events = read_trace(trace_path)

        # exactly one root run span, carrying the run totals
        (run,) = spans_named(events, "run")
        assert run["parent"] is None
        assert run["attrs"]["passes"] == result.stats.num_passes
        assert run["attrs"]["total_candidates"] == result.stats.total_candidates
        assert run["attrs"]["records_read"] == result.stats.records_read
        assert run["attrs"]["mfs_size"] == len(result.mfs)

        # pass/sweep spans that counted anything match MiningStats exactly
        counted = [
            (event["attrs"]["pass_number"], event["attrs"]["total_candidates"])
            for event in spans_named(events, "pass", "sweep")
            if event["attrs"].get("total_candidates", 0) > 0
        ]
        expected = [
            (stats.pass_number, stats.total_candidates)
            for stats in result.stats.passes
        ]
        assert sorted(counted) == sorted(expected)
        assert len(counted) == result.stats.num_passes

        # every pass/sweep span hangs off the run span
        for event in spans_named(events, "pass", "sweep"):
            assert event["parent"] == run["span"]

    def test_an_iteration_that_counts_nothing_is_no_pass(self, tmp_path):
        # the Figure 4 cell T20.I6, |L| = 50 (2,000 rows, 1,000 items) at
        # 11%: its last iteration only classifies MFCS elements counted
        # before, so it reads nothing and must not be reported as a pass
        config = parse_name(
            "T20.I6.D100K", num_patterns=50, num_items=1000, seed=1
        )
        db = QuestGenerator(replace(config, num_transactions=2000)).generate()
        trace_path = str(tmp_path / "run.jsonl")
        reporter = ProgressReporter(stream=None)
        obs = capture(trace_path=trace_path, progress=reporter)
        result = PincerSearch().mine(db, 0.11, obs=obs)
        obs.finish()
        events = read_trace(trace_path)
        progress_passes = [
            event for event in reporter.events if event["phase"] == "pass"
        ]
        assert result.stats.num_passes == 5
        assert (
            len(spans_named(events, "pass"))
            == len(spans_named(events, "count"))
            == len(progress_passes)
            == result.stats.num_passes
        )

    def test_engine_count_spans_nest_under_passes(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS)
        trace_path = str(tmp_path / "run.jsonl")
        obs = capture(trace_path=trace_path)
        PincerSearch(adaptive=True).mine(db, 0.25, obs=obs)
        obs.finish()
        events = read_trace(trace_path)
        by_id = {
            event["span"]: event
            for event in events if event["type"] == "span"
        }
        counts = spans_named(events, "count")
        assert counts
        for event in counts:
            assert by_id[event["parent"]]["name"] in ("pass", "sweep")
            assert event["attrs"]["batch_size"] > 0

    def test_metrics_agree_with_stats(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS)
        metrics_path = str(tmp_path / "m.json")
        obs = capture(metrics_path=metrics_path)
        result = PincerSearch(adaptive=True).mine(db, 0.25, obs=obs)
        obs.finish()
        validate_metrics_file(metrics_path)
        with open(metrics_path) as handle:
            document = json.load(handle)
        counters = document["counters"]
        assert counters["miner.runs"] == 1
        assert (
            counters["miner.candidates.bottom_up"]
            + counters["miner.candidates.mfcs"]
            == result.stats.total_candidates
        )
        assert counters["engine.records_read"] == result.stats.records_read
        assert document["gauges"]["miner.mfs_size"] == len(result.mfs)

    def test_mfcs_cover_query_counters_emitted(self, tmp_path):
        """The MFCS sub-linearity signal must survive to the metrics doc.

        ``mfcs.cover_node_visits / mfcs.cover_queries`` is the regression
        guard for the cover-index early exits: a full scan would pay
        roughly one visit per member item bitmap, so the mean visits per
        query must stay a small constant.
        """
        db = TransactionDatabase(TRANSACTIONS)
        metrics_path = str(tmp_path / "m.json")
        obs = capture(metrics_path=metrics_path)
        # pin the bitmask kernel: only the mask-native cover tracks the
        # query/visit counters this test guards
        PincerSearch(adaptive=True, kernel="bitmask").mine(db, 0.25, obs=obs)
        obs.finish()
        with open(metrics_path) as handle:
            document = json.load(handle)
        counters = document["counters"]
        assert counters["mfcs.cover_queries"] > 0
        assert counters["mfcs.cover_node_visits"] > 0
        mean_visits = (
            counters["mfcs.cover_node_visits"] / counters["mfcs.cover_queries"]
        )
        assert mean_visits <= 24

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the pair sweep needs NumPy")
    def test_pass_two_reports_pairs_swept(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS)
        trace_path = str(tmp_path / "run.jsonl")
        obs = capture(trace_path=trace_path)
        PincerSearch(adaptive=True).mine(
            db, 0.25, counter=get_counter("packed"), obs=obs
        )
        obs.finish()
        assert validate_trace_file(trace_path) > 0
        events = read_trace(trace_path)
        passes = {
            event["span"]: event["attrs"].get("pass_number")
            for event in spans_named(events, "pass", "sweep")
        }
        swept = {
            passes[event["parent"]]: event["attrs"]["pairs_swept"]
            for event in spans_named(events, "count")
        }
        assert swept[1] == 0
        assert swept[2] > 0

    def test_prefix_cache_metrics_emitted(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS)
        metrics_path = str(tmp_path / "m.json")
        obs = capture(metrics_path=metrics_path)
        PincerSearch(adaptive=True).mine(
            db, 0.25, counter=get_counter("bitmap"), obs=obs
        )
        obs.finish()
        with open(metrics_path) as handle:
            document = json.load(handle)
        assert document["counters"]["prefix_cache.hits"] > 0
        assert document["counters"]["prefix_cache.misses"] > 0


class TestSweepProgress:
    def test_fallback_reports_sweep_phase(self, tmp_path):
        # a warm seed and a policy that abandons after pass 2: the sweep
        # rebuilds from level 1 and counts level 3 as pass 3
        db = TransactionDatabase(
            [[1, 2, 3, 4]] * 4 + [[5, 6, 7, 8, 9]] * 2 + [[5, 6, 7]]
            + [[1, 5], [2, 6], [3, 7], [4, 8]]
        )
        seed = sorted(PincerSearch().mine(db, min_count=2).mfs)
        reporter = ProgressReporter(stream=None)
        trace_path = str(tmp_path / "run.jsonl")
        obs = capture(trace_path=trace_path, progress=reporter)
        policy = AdaptivePolicy(frequent_ratio_floor=1.0, min_ratio_sample=1)
        result = PincerSearch(policy=policy).mine(
            db, min_count=3, obs=obs, initial_mfcs=seed
        )
        obs.finish()

        phases = [event["phase"] for event in reporter.events]
        assert phases == ["start", "pass", "pass", "abandon", "sweep", "finish"]
        (sweep,) = [e for e in reporter.events if e["phase"] == "sweep"]
        last = result.stats.passes[-1]
        assert last.pass_number == 3
        assert sweep["k"] == 3  # the level the sweep counted
        assert sweep["candidates"] == last.total_candidates == 1
        assert sweep["mfcs_size"] == 0

        assert validate_trace_file(trace_path) > 0
        events = read_trace(trace_path)
        (span,) = spans_named(events, "sweep")
        assert span["attrs"]["pass_number"] == 3
        mirrored = [
            event for event in events
            if event["type"] == "progress" and event["phase"] == "sweep"
        ]
        assert [event["k"] for event in mirrored] == [3]


class TestShardedObservability:
    def test_records_read_matches_serial_engine(self, tmp_path):
        db = TransactionDatabase(TRANSACTIONS * 5)
        serial = PincerSearch(adaptive=True).mine(
            db, 0.25, counter=get_counter("bitmap")
        )
        metrics_path = str(tmp_path / "m.json")
        obs = capture(metrics_path=metrics_path)
        counter = PartitionedCounter(num_partitions=3)
        try:
            sharded = PincerSearch(adaptive=True).mine(
                db, 0.25, counter=counter, obs=obs
            )
            partitions = counter.num_partitions
        finally:
            counter.close()
        obs.finish()

        assert sharded.mfs == serial.mfs
        assert partitions > 1
        # a pass sweeps every partition yet bills one logical read, so
        # the sum is the serial figure (len(db) records per pass)
        assert sharded.stats.records_read == serial.stats.records_read
        assert (
            sharded.stats.records_read
            == len(db) * sharded.stats.num_passes
        )

        validate_metrics_file(metrics_path)
        with open(metrics_path) as handle:
            document = json.load(handle)
        assert (
            document["counters"]["engine.records_read"]
            == sharded.stats.records_read
        )
        assert document["gauges"]["partition.mapped_partitions"] == partitions
        assert document["gauges"]["partition.mapped_bytes"] > 0


class TestCliObservability:
    @pytest.fixture()
    def basket_file(self, tmp_path):
        path = tmp_path / "toy.dat"
        io.save(TransactionDatabase(TRANSACTIONS), path)
        return str(path)

    def test_mine_writes_schema_valid_trace_and_metrics(
        self, basket_file, tmp_path, capsys
    ):
        trace_path = str(tmp_path / "run.jsonl")
        metrics_path = str(tmp_path / "m.json")
        code = main([
            "mine", basket_file, "--min-support", "25",
            "--trace", trace_path, "--metrics-out", metrics_path,
        ])
        assert code == 0
        assert "maximum frequent set" in capsys.readouterr().out
        assert validate_trace_file(trace_path) > 0
        validate_metrics_file(metrics_path)
        events = read_trace(trace_path)
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"command", "run", "pass", "count"} <= names
        # the CLI's command span is the root of everything
        (command,) = spans_named(events, "command")
        assert command["parent"] is None
        (run,) = spans_named(events, "run")
        assert run["parent"] == command["span"]

    def test_mine_log_level_prints_run_summary(self, basket_file, capsys):
        try:
            code = main([
                "mine", basket_file, "--min-support", "25",
                "--log-level", "debug",
            ])
        finally:
            # --log-level configures the process-wide 'repro' logger;
            # quiet it again so later tests are unaffected
            configure_logging(logging.WARNING)
            logging.getLogger("repro").setLevel(logging.WARNING)
        assert code == 0
        assert "repro.core.pincer" in capsys.readouterr().err

    def test_bench_trace_has_sweep_and_cell_spans(self, tmp_path, capsys):
        trace_path = str(tmp_path / "bench.jsonl")
        code = main([
            "bench", "fig3-t5-i2", "--scale", "150",
            "--min-support", "8", "--trace", trace_path,
        ])
        assert code == 0
        assert "relative time" in capsys.readouterr().out
        assert validate_trace_file(trace_path) > 0
        events = read_trace(trace_path)
        (sweep,) = spans_named(events, "sweep")
        cells = spans_named(events, "cell")
        assert len(cells) == 2  # pincer-search and apriori
        for cell in cells:
            assert cell["parent"] == sweep["span"]
        miners = {cell["attrs"]["miner"] for cell in cells}
        assert miners == {"pincer-search", "apriori"}


class TestOverheadBenchmark:
    def test_run_overhead_benchmark_smoke(self, tmp_path):
        from repro.bench.obs_overhead import (
            run_overhead_benchmark,
            write_overhead_benchmark,
        )

        record = run_overhead_benchmark(
            database="T5.I2.D100K", min_support_percent=8.0,
            scale=300, repeats=1,
        )
        for key in (
            "count_seconds_raw", "count_seconds_guarded",
            "overhead_disabled_pct", "mine_seconds_disabled",
            "mine_seconds_enabled", "overhead_enabled_pct",
            "trace_events_per_run",
        ):
            assert key in record
        assert record["trace_events_per_run"] > 0
        out = tmp_path / "BENCH_obs.json"
        write_overhead_benchmark(str(out), record)
        assert json.loads(out.read_text())["benchmark"] == "obs-overhead"

    def test_committed_record_meets_disabled_budget(self):
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "BENCH_obs.json",
        )
        with open(path) as handle:
            record = json.load(handle)
        assert record["overhead_disabled_pct"] < 2.0
