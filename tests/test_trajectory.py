"""Tests for the bench trajectory and the regression sentinel."""

import json
import os

import pytest

from repro.bench.regress import check_trajectory, main as regress_main
from repro.bench.trajectory import (
    append_entry,
    extract_seconds_metrics,
    git_sha,
    load_trajectory,
    make_entry,
    record_run,
)


def _record(seconds=1.0, benchmark="counting-engines"):
    return {
        "benchmark": benchmark,
        "database": "T10.I4.D100K",
        "num_transactions": 2000,
        "min_support_percent": 1.5,
        "engines": {
            "bitmap": {"seconds": seconds, "passes": 4},
            "packed": {"seconds": seconds / 2, "passes": 4},
        },
        "cpu_count": 8,
    }


def _entry(seconds=1.0, host=None, sha="abc", **overrides):
    entry = make_entry(_record(seconds), sha=sha, timestamp=123.0)
    if host is not None:
        entry["host"] = host
    entry.update(overrides)
    return entry


class TestExtractSecondsMetrics:
    def test_flattens_nested_seconds_leaves(self):
        metrics = extract_seconds_metrics(_record(2.0))
        assert metrics == {
            "engines.bitmap.seconds": 2.0,
            "engines.packed.seconds": 1.0,
        }

    def test_obs_overhead_record_kind(self):
        record = {
            "benchmark": "obs-overhead",
            "mine_seconds_disabled": 0.5,
            "mine_seconds_enabled": 0.6,
            "count_seconds_raw": 0.1,
            "overhead_disabled_pct": 1.2,
        }
        metrics = extract_seconds_metrics(record)
        assert set(metrics) == {
            "mine_seconds_disabled",
            "mine_seconds_enabled",
            "count_seconds_raw",
        }

    def test_seconds_named_dict_marks_its_leaves(self):
        record = {
            "benchmark": "lattice-kernels",
            "replay_seconds": {"tuple": 0.4, "bitmask": 0.1},
            "totals": {"tuple": {"candidate_generation": 0.2}},
        }
        metrics = extract_seconds_metrics(record)
        assert metrics == {
            "replay_seconds.tuple": 0.4,
            "replay_seconds.bitmask": 0.1,
        }

    def test_skips_lists_bools_and_negatives(self):
        record = {
            "last_shard_seconds": [0.1, 0.2],
            "seconds": -1.0,
            "seconds_flag": True,
            "inner": {"seconds": 3.0},
            # a rate names "second" but is not a duration
            "warm_repeat_queries_per_second": 350.0,
        }
        assert extract_seconds_metrics(record) == {"inner.seconds": 3.0}


class TestTrajectoryFile:
    def test_record_run_appends_and_loads(self, tmp_path):
        path = str(tmp_path / "nested" / "trajectory.jsonl")
        first = record_run(_record(1.0), path, sha="sha-1")
        second = record_run(_record(1.1), path, sha="sha-2")
        assert first["type"] == "bench_entry"
        entries = load_trajectory(path)
        assert [e["git_sha"] for e in entries] == ["sha-1", "sha-2"]
        assert entries[0]["key"] == entries[1]["key"]
        assert "metrics" in entries[0] and "host" in entries[0]

    def test_record_run_skips_without_path(self):
        assert record_run(_record(), None) is None
        assert record_run(_record(), "") is None

    def test_load_rejects_non_entries(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n')
        with pytest.raises(ValueError):
            load_trajectory(str(path))
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            load_trajectory(str(path))

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        assert git_sha() == "deadbeef"


class TestCheckTrajectory:
    def test_fresh_baseline_passes(self):
        report = check_trajectory([_entry(1.0)])
        assert report.ok
        assert report.fresh_keys and not report.comparisons

    def test_steady_history_passes(self):
        entries = [_entry(1.0, sha="a"), _entry(1.02, sha="b"), _entry(0.98, sha="c")]
        report = check_trajectory(entries)
        assert report.ok
        assert report.comparisons

    def test_injected_2x_slowdown_fails(self):
        entries = [_entry(1.0, sha="a"), _entry(1.0, sha="b"), _entry(2.0, sha="slow")]
        report = check_trajectory(entries, threshold=1.5)
        assert not report.ok
        assert all(r["latest_git_sha"] == "slow" for r in report.regressions)

    def test_baseline_is_median_of_window(self):
        # one lucky 0.1s run must not flag a normal 1.0s run
        entries = [
            _entry(1.0, sha="a"),
            _entry(0.1, sha="lucky"),
            _entry(1.0, sha="c"),
            _entry(1.05, sha="d"),
        ]
        report = check_trajectory(entries, threshold=1.5, window=3)
        assert report.ok

    def test_noise_floor_suppresses_tiny_metrics(self):
        entries = [_entry(0.001, sha="a"), _entry(0.004, sha="b")]
        report = check_trajectory(entries, threshold=1.5)
        assert report.ok and not report.regressions

    def test_cross_host_baseline_skipped_by_default(self):
        other = {"cpu_count": 1, "platform": "other-box", "python": "3.9.0"}
        entries = [_entry(1.0, host=other, sha="a"), _entry(3.0, sha="b")]
        report = check_trajectory(entries)
        assert report.ok
        assert report.skipped_keys
        report = check_trajectory(entries, allow_cross_host=True)
        assert not report.ok

    def test_benchmark_filter(self):
        entries = [
            _entry(1.0, sha="a"),
            _entry(3.0, sha="b"),
        ]
        report = check_trajectory(entries, benchmark="lattice-kernels")
        assert report.ok and not report.comparisons

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            check_trajectory([], threshold=1.0)
        with pytest.raises(ValueError):
            check_trajectory([], window=0)


class TestRegressCli:
    def _write(self, tmp_path, entries):
        path = str(tmp_path / "trajectory.jsonl")
        for entry in entries:
            append_entry(path, entry)
        return path

    def test_exit_zero_on_fresh_baseline(self, tmp_path, capsys):
        path = self._write(tmp_path, [_entry(1.0)])
        assert regress_main(["--trajectory", path]) == 0
        assert "fresh" in capsys.readouterr().out

    def test_exit_one_on_regression_with_json_report(self, tmp_path, capsys):
        path = self._write(
            tmp_path, [_entry(1.0, sha="a"), _entry(2.5, sha="slow")]
        )
        out = tmp_path / "report.json"
        assert regress_main(["--trajectory", path, "--json", str(out)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["ok"] is False and report["regressions"]

    def test_exit_two_on_unreadable_trajectory(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert regress_main(["--trajectory", missing]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_env_default_path(self, tmp_path, monkeypatch, capsys):
        path = self._write(tmp_path, [_entry(1.0)])
        monkeypatch.setenv("REPRO_BENCH_TRAJECTORY", path)
        assert regress_main([]) == 0
        capsys.readouterr()
