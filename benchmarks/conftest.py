"""Shared machinery for the figure-reproduction benchmarks.

Every benchmark prints the three-panel table of its figure (time /
candidates / passes per support level) and appends it to
``benchmarks/results.txt`` so the numbers survive pytest's output
capturing; EXPERIMENTS.md is written from those tables.  Only a session
that runs the whole grid writes there (moving the previous grid to
``results.prev.txt``); one that selects tests (``-k``, ``-m``,
``--deselect``, files or node ids) writes ``results.partial.txt``.

Environment knobs:

* ``REPRO_BENCH_SCALE``  — |D| of the generated databases (default 2000;
  the paper uses 100000).
* ``REPRO_BENCH_BUDGET`` — per-miner time budget per cell in seconds
  (default 45).  Apriori cells that exceed it are reported as DNF lower
  bounds, like the paper's ">2 orders of magnitude" Figure 4c points.
"""

from pathlib import Path

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS, bench_scale, build_database
from repro.bench.harness import bench_budget, format_rows, run_sweep

RESULTS_PATH = Path(__file__).parent / "results.txt"
PARTIAL_RESULTS_PATH = Path(__file__).parent / "results.partial.txt"

#: the file this session's tables go to (see _fresh_results_file)
_session_results = RESULTS_PATH


def _runs_full_grid(config) -> bool:
    """No test selection, and every path argument a whole directory."""
    if config.getoption("keyword") or config.getoption("markexpr"):
        return False
    if config.getoption("deselect", None):
        return False
    return all(Path(arg).is_dir() for arg in config.args)


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file(request):
    # a full grid keeps the previous grid as .prev; a partial run (one
    # panel, a -k selection) never touches either
    global _session_results
    if _runs_full_grid(request.config):
        _session_results = RESULTS_PATH
        if RESULTS_PATH.exists():
            RESULTS_PATH.replace(RESULTS_PATH.with_suffix(".prev.txt"))
    else:
        _session_results = PARTIAL_RESULTS_PATH
        PARTIAL_RESULTS_PATH.unlink(missing_ok=True)
    yield


def run_experiment(experiment_id, capsys=None):
    """Run one figure panel end-to-end and return its rows."""
    spec = ALL_EXPERIMENTS[experiment_id]
    db = build_database(spec)
    rows = run_sweep(
        db, spec.database, spec.supports_percent,
        time_budget=bench_budget(),
    )
    title = "%s: %s (|L|=%d, |D|=%d)\npaper: %s" % (
        experiment_id, spec.database, spec.num_patterns, len(db),
        spec.paper_expectation,
    )
    report(format_rows(rows, title), capsys)
    return rows


def report(text, capsys=None):
    """Print a table past pytest's capture and append it to this
    session's results file."""
    with open(_session_results, "a", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n\n")
    if capsys is not None:
        with capsys.disabled():
            print("\n" + text)
    else:
        print("\n" + text)


def rows_by_algorithm(rows, support):
    """Index a sweep's rows: algorithm -> CellResult at one support."""
    return {
        row.algorithm: row
        for row in rows
        if row.min_support_percent == support
    }


def scale_note():
    return "|D|=%d, budget=%.0fs" % (bench_scale(), bench_budget())
