"""Smoke-scale checks of the layer ledger.

Run from the repository root with ``python -m pytest ledger/``; the
tier-1 suite does not collect this directory.  Every test drives
``run.py`` as a user would, at ``--scale smoke``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
ONESHOT = ("fig4-concentrated", "fig3-scattered", "zipf-sparse")


def ledger(*args, cwd=ROOT, timeout=600):
    """Run the ledger at smoke scale; returns (process, last stdout line)."""
    process = subprocess.run(
        [sys.executable, str(Path(cwd) / "ledger" / "run.py"),
         "--scale", "smoke", "--seconds", "1", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=timeout,
    )
    lines = process.stdout.strip().splitlines()
    return process, (json.loads(lines[-1]) if lines else None)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Every workload, untraced then traced, with its full record."""
    out = tmp_path_factory.mktemp("ledger") / "record.json"
    process, summary = ledger("--out", str(out))
    assert process.returncode == 0, process.stdout + process.stderr
    return summary, json.loads(out.read_text())


def test_every_benchmark_metric_is_emitted_with_its_unit(full_run):
    summary, record = full_run
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    for workload in record["workloads"]:
        for spec in BENCH["end_to_end"] + BENCH["per_layer"]:
            emitted = summary["metrics"]["%s/%s" % (workload, spec["name"])]
            assert emitted["unit"] == spec["unit"]
            assert isinstance(emitted["value"], (int, float))
    for spec in BENCH["end_to_end"]:
        assert all(
            summary["metrics"]["%s/%s" % (w, spec["name"])]["value"] > 0
            for w in record["workloads"]
        ), spec["name"]


def test_single_workload_reports_exactly_one_metric_set():
    for trace, names in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        process, summary = ledger("--workload", "fig4-concentrated",
                                  "--trace", str(trace), "--seed", "3")
        assert process.returncode == 0, process.stderr
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert set(summary["metrics"]) == {spec["name"] for spec in names}


def test_traced_and_untraced_runs_find_the_same_mfs(full_run):
    _, record = full_run
    for workload in ONESHOT:
        digests = record["workloads"][workload]["results"]["1"]["digests"]
        assert digests["traced"] == digests["untraced"]
    serve = record["workloads"]["serve-mixed"]["results"]["1"]
    assert serve["correct"] and serve["traced_rounds"] >= 1


def test_layer_self_times_sum_to_the_traced_run(full_run):
    _, record = full_run
    for workload in ONESHOT:
        for entry in record["workloads"][workload]["results"]["1"]["sums"]:
            assert entry["attributed_s"] == pytest.approx(
                entry["wall_s"], rel=0.02
            ), workload


def test_layer_counts_repeat_across_traced_rounds(full_run):
    _, record = full_run
    for workload in ONESHOT:
        assert record["workloads"][workload]["results"]["1"]["counts_repeat"]


def test_a_corrupted_reference_digest_fails_the_run(tmp_path):
    table = json.loads((LEDGER / "reference.json").read_text())
    answers = table["smoke"]["fig4-concentrated"]["answers"]
    key = sorted(answers)[0]
    answers[key] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(table))
    process, summary = ledger("--workload", "fig4-concentrated", "--trace", "0",
                              "--reference", str(corrupted))
    assert process.returncode != 0
    assert summary["correct"] is False and summary["failed"] >= 1
    assert key in process.stdout


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process, _ = ledger(cwd=tmp_path, timeout=60)
    assert process.returncode != 0
    assert process.stdout.strip() == ""
