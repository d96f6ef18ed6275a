"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's figures; these isolate the contribution of each
mechanism:

* **MFCS on/off** — the same bottom-up machinery with the top-down search
  disabled (``Apriori``, whose levelwise loop Pincer-Search falls back
  to) vs the pure pincer, on a concentrated database: how much do
  Observation-2 pruning and early maximal discovery actually save?
* **adaptive vs pure** — what the Section 3.5 adaptivity buys on a
  scattered database (where the pure MFCS maintenance is the known
  pathology), and what it costs on a concentrated one.
* **counting engines** — naive scan vs hash tree vs trie vs vertical
  bitmaps, same algorithm, same answers.
"""

import time

import pytest

from conftest import report

from repro.algorithms.apriori import Apriori
from repro.bench.experiments import ExperimentSpec, build_database
from repro.core.pincer import PincerSearch
from repro.db.counting import available_engines

CONCENTRATED = ExperimentSpec(
    "ablation-concentrated", "T20.I10.D100K", 50, (9.0,), ""
)
SCATTERED = ExperimentSpec(
    "ablation-scattered", "T10.I4.D100K", 2000, (1.0,), ""
)


def _run(miner, spec, support):
    db = build_database(spec)
    started = time.perf_counter()
    result = miner.mine(db, support / 100.0)
    return result, time.perf_counter() - started


def _line(tag, result, seconds):
    return "%-28s %8.3fs  passes=%2d  candidates=%6d  |MFS|=%d" % (
        tag, seconds, result.stats.num_passes,
        result.stats.total_candidates, len(result.mfs),
    )


@pytest.mark.benchmark(group="ablation")
def test_mfcs_ablation(benchmark, capsys):
    support = CONCENTRATED.supports_percent[0]
    with_mfcs, seconds_on = _run(
        PincerSearch(adaptive=False), CONCENTRATED, support
    )
    without_mfcs, seconds_off = _run(Apriori(), CONCENTRATED, support)
    assert with_mfcs.mfs == without_mfcs.mfs
    # the whole point of the MFCS: fewer passes and fewer candidates on
    # concentrated data
    assert with_mfcs.stats.num_passes < without_mfcs.stats.num_passes
    assert (
        with_mfcs.stats.total_candidates
        < without_mfcs.stats.total_candidates
    )
    report(
        "MFCS ablation on %s at %g%%:\n%s\n%s"
        % (
            CONCENTRATED.database, support,
            _line("pincer (MFCS on)", with_mfcs, seconds_on),
            _line("apriori (MFCS off)", without_mfcs, seconds_off),
        ),
        capsys,
    )
    db = build_database(CONCENTRATED)
    benchmark.pedantic(
        lambda: PincerSearch(adaptive=False).mine(db, support / 100.0),
        rounds=1, iterations=1,
    )


@pytest.mark.benchmark(group="ablation")
def test_adaptive_vs_pure(benchmark, capsys):
    lines = []
    for spec, support in ((SCATTERED, SCATTERED.supports_percent[0]),
                          (CONCENTRATED, CONCENTRATED.supports_percent[0])):
        pure, pure_seconds = _run(
            PincerSearch(adaptive=False), spec, support
        )
        adaptive, adaptive_seconds = _run(
            PincerSearch(adaptive=True), spec, support
        )
        assert pure.mfs == adaptive.mfs
        lines.append("%s at %g%%:" % (spec.database, support))
        lines.append("  " + _line("pure", pure, pure_seconds))
        lines.append("  " + _line("adaptive", adaptive, adaptive_seconds))
        if spec is SCATTERED:
            # Section 3.5's motivation: on scattered data the adaptive
            # version must not be slower than the pure one
            assert adaptive_seconds <= pure_seconds * 1.5
    report("adaptive vs pure:\n" + "\n".join(lines), capsys)
    db = build_database(SCATTERED)
    benchmark.pedantic(
        lambda: PincerSearch(adaptive=True).mine(
            db, SCATTERED.supports_percent[0] / 100.0
        ),
        rounds=1, iterations=1,
    )


@pytest.mark.benchmark(group="ablation")
def test_counting_engines(benchmark, capsys):
    spec, support = SCATTERED, 1.5
    db = build_database(spec)
    lines, reference = [], None
    for engine in available_engines():
        started = time.perf_counter()
        result = PincerSearch(engine=engine).mine(db, support / 100.0)
        seconds = time.perf_counter() - started
        if reference is None:
            reference = result.mfs
        assert result.mfs == reference
        lines.append("  %-10s %8.3fs" % (engine, seconds))
    report(
        "counting engines on %s at %g%%:\n%s"
        % (spec.database, support, "\n".join(lines)),
        capsys,
    )
    benchmark.pedantic(
        lambda: PincerSearch(engine="bitmap").mine(db, support / 100.0),
        rounds=1, iterations=1,
    )
