"""Out-of-core partitioned-mining benchmark: phase-I I/O structure.

The cell is a beyond-budget row-scale database: ~10M Zipf-skewed retail
baskets over a 128-item universe with two planted 8–9-item patterns in
the popularity tail, snapshotted in the partitioned v2 layout.  The
dense packed matrix is ~160 MB; the memory budget is a quarter of that,
so the matrix never fits and every configuration mines out of core.
The support threshold keeps the frequent-item universe compact (the
Zipf head plus the planted tail), which is both the regime the paper's
MFCS descent targets and what makes phase I I/O-bound rather than
dominated by symmetric candidate arithmetic — see
:func:`planted_patterns`.

Two configurations mine the identical row stream under the identical
byte budget:

``p1``
    A single-partition snapshot.  The one partition exceeds the budget,
    so **every** counting pass of every phase re-streams the matrix
    through budget-sized word-column windows (attach window, count,
    detach + ``posix_fadvise(DONTNEED)``) — per-pass I/O proportional to
    the matrix size, and no index state survives between passes.

``p4``
    A four-partition snapshot whose partitions each fit the budget
    exactly.  Phase I attaches a partition once, mines its local MFS
    entirely resident (prefix-intersection caches and all), and
    detaches — the matrix is faulted once per phase, not once per pass.

The headline ``speedup_phase1_partitioned_vs_single`` isolates that
structural difference.  On a single-core host no parallelism is
involved (and the benchmark records ``cpu_count`` so readers can tell):
the win measured here is purely the Partition-scheme I/O shape the
miner's docstring promises.  Every timed mine starts with the
snapshot's page cache dropped and the best of ``--repeats`` cold runs
is recorded, so the number does not depend on run order or residual
warmth.  Both configurations must produce the byte-identical MFS, and
every planted pattern must be covered by it — the run aborts otherwise.

Regenerate the committed record (takes a few minutes at full scale)::

    python -m repro.bench.partition --out benchmarks/BENCH_partition.json

CI smoke-scales the same cell down (``--rows 19968 --items 64``) and
keeps only the answer checks: the reduced cell's timings say nothing
about the full-scale ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import time
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from ..algorithms.partitioned import PartitionedPincerMiner
from ..db.snapshot import Snapshot, load_snapshot, write_partitioned_snapshot
from ..db.vertical import HAVE_NUMPY

__all__ = [
    "SnapshotOnlyDatabase",
    "build_snapshot",
    "pattern_zipf_stream",
    "planted_patterns",
    "run_partition_benchmark",
]

#: Default row count: the smallest multiple of ``64 * 4`` above ten
#: million, so a four-way split lands on exact 64-row boundaries and the
#: per-partition matrix is exactly a quarter of the dense matrix — which
#: lets ``budget = matrix_bytes // 4`` hold one partition resident while
#: staying at (not above) the advertised quarter-budget.
DEFAULT_ROWS = 10_000_384

DEFAULT_ITEMS = 128
DEFAULT_SEED = 29

#: Probability that a basket carries one planted pattern overlay.  High
#: enough that both patterns sit comfortably above the default support
#: threshold (0.35 * 0.4 = 14% for the weaker one vs the 8% default).
DEFAULT_PATTERN_PROB = 0.35

#: Default minimum support, percent.  Chosen so only the Zipf head (a
#: dozen or so noise items) plus the 17 planted-pattern items clear the
#: bar: a compact frequent set keeps candidate counting cheap relative
#: to the per-pass matrix I/O that the two configurations differ in.
DEFAULT_MIN_SUPPORT = 8.0


def planted_patterns(
    num_items: int,
) -> Tuple[Tuple[Tuple[int, ...], float], ...]:
    """Two 8–9-item patterns in the Zipf tail, with draw weights.

    Tail items' noise support is negligible under the default skew, so
    each pattern's global support is essentially ``pattern_prob`` times
    its weight — planted ground truth the benchmark can assert on.  Long
    patterns over a small frequent-item universe are Pincer-Search's
    motivating regime (the MFS is deep, so the MFCS descent does the
    work), and they keep the cell I/O-bound: candidate volume grows with
    the *square* of the frequent-item count while per-pass matrix I/O
    grows linearly, so a compact frequent set is what lets the benchmark
    measure the phase-I I/O structure instead of symmetric AND/popcount
    arithmetic.
    """
    if num_items < 64:
        raise ValueError("planted patterns need a universe of >= 64 items")
    return (
        (tuple(range(num_items - 56, num_items - 47)), 0.6),  # 9 items
        (tuple(range(num_items - 40, num_items - 32)), 0.4),  # 8 items
    )


def pattern_zipf_stream(
    num_rows: int,
    num_items: int = DEFAULT_ITEMS,
    seed: int = DEFAULT_SEED,
    pattern_prob: float = DEFAULT_PATTERN_PROB,
    skew: float = 1.3,
    avg_basket_size: int = 8,
) -> Iterator[List[int]]:
    """Stream Zipf baskets with planted tail patterns, one row at a time.

    Deterministic in ``seed`` and O(1) memory — the generator is what
    lets the benchmark build beyond-RAM snapshots without ever holding
    the database: :func:`repro.db.snapshot.write_partitioned_snapshot`
    consumes it directly.  Re-invoking with the same arguments replays
    the identical stream, which is how the ``p1`` and ``p4`` snapshots
    are guaranteed to serialise the same database.

    Each basket draws a geometric number (mean ``avg_basket_size``) of
    Zipf(``skew``) noise items; with ``pattern_prob`` one planted
    pattern (weighted per :func:`planted_patterns`) is overlaid.
    """
    rng = random.Random(seed)
    weights = [1.0 / (rank ** skew) for rank in range(1, num_items + 1)]
    cumulative: List[float] = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    stop_prob = 1.0 / max(1, avg_basket_size)
    patterns = planted_patterns(num_items)
    pattern_cum: List[float] = []
    pattern_total = 0.0
    for _, weight in patterns:
        pattern_total += weight
        pattern_cum.append(pattern_total)
    for _ in range(num_rows):
        basket = set()
        while True:
            basket.add(bisect_left(cumulative, rng.random() * total))
            if rng.random() < stop_prob:
                break
        if rng.random() < pattern_prob:
            point = rng.random() * pattern_total
            basket.update(patterns[bisect_left(pattern_cum, point)][0])
        yield sorted(basket)


class SnapshotOnlyDatabase:
    """Header-only database surface over a partitioned snapshot.

    The partitioned miner reads transactions exclusively through
    partition handles, so a beyond-RAM benchmark needs only the row
    count, the universe, and the snapshot path — never the rows
    themselves.  This is deliberately *not* iterable: anything trying to
    stream rows out of it at this scale is a bug, and fails loudly.
    """

    def __init__(self, snapshot) -> None:
        self._snapshot = (
            snapshot
            if isinstance(snapshot, Snapshot)
            else load_snapshot(snapshot)
        )
        self.snapshot_path = self._snapshot.path

    def __len__(self) -> int:
        return self._snapshot.num_rows

    @property
    def universe(self) -> Tuple[int, ...]:
        return self._snapshot.universe

    @property
    def num_items(self) -> int:
        return len(self._snapshot.universe)


def build_snapshot(
    path,
    num_rows: int,
    num_items: int,
    num_partitions: int,
    seed: int = DEFAULT_SEED,
) -> float:
    """Stream the benchmark cell into a v2 snapshot; returns seconds."""
    started = time.perf_counter()
    write_partitioned_snapshot(
        path,
        range(num_items),
        num_rows,
        pattern_zipf_stream(num_rows, num_items, seed),
        num_partitions=num_partitions,
    )
    return time.perf_counter() - started


def _drop_page_cache(path) -> None:
    """Evict a snapshot's pages so every timed mine starts cold.

    Residual page-cache warmth from a previous run (or from writing the
    snapshot) favours whichever configuration re-faults most, so the
    measured I/O asymmetry would depend on run order.  ``sync`` first so
    freshly written pages are clean enough for the kernel to drop.
    Best-effort: platforms without ``posix_fadvise`` simply run warm.
    """
    if not hasattr(os, "posix_fadvise"):  # pragma: no cover - non-POSIX
        return
    os.sync()
    fd = os.open(path, os.O_RDONLY)
    try:
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


def _mine_config(
    snapshot_path, budget: Optional[int], min_count: int
) -> Tuple[object, Dict]:
    """One full cold-start partitioned mine; returns (result, summary)."""
    _drop_page_cache(snapshot_path)
    db = SnapshotOnlyDatabase(snapshot_path)
    miner = PartitionedPincerMiner(memory_budget=budget)
    started = time.perf_counter()
    result = miner.mine(db, min_count=min_count)
    mine_seconds = time.perf_counter() - started
    evidence = result.stats.engine_evidence
    summary = {
        "partitions": evidence.get("partitions"),
        "phase1_seconds": round(result.stats.passes[0].seconds, 6),
        "phase2_seconds": round(result.stats.passes[1].seconds, 6),
        "mine_seconds": round(mine_seconds, 6),
        "passes": result.stats.num_passes,
        "records_read": result.stats.records_read,
        "local_mfs_total": evidence.get("local_mfs_total"),
        "attaches": evidence.get("attaches"),
        "max_mapped_bytes": evidence.get("max_mapped_bytes"),
        "max_mapped_partitions": evidence.get("max_mapped_partitions"),
    }
    return result, summary


def run_partition_benchmark(
    num_rows: int = DEFAULT_ROWS,
    num_items: int = DEFAULT_ITEMS,
    num_partitions: int = 4,
    budget_fraction: float = 0.25,
    min_support_percent: float = DEFAULT_MIN_SUPPORT,
    seed: int = DEFAULT_SEED,
    workdir: str = os.path.join("scratch", "partition-bench"),
    keep: bool = False,
    repeats: int = 2,
) -> Dict:
    """Build both snapshots, mine both configurations, return the record.

    Each configuration is mined ``repeats`` times, cold-started each
    time (see :func:`_drop_page_cache`), and the best wall-clock run is
    recorded — the same best-of convention as ``repro.bench.engines``.
    Raises ``AssertionError`` if any two runs disagree on the MFS or if
    any planted pattern is not covered by it — a wrong answer must
    never become a committed benchmark number.
    """
    num_words = max(1, (num_rows + 63) // 64)
    matrix_bytes = 8 * num_items * num_words
    budget = max(1, int(matrix_bytes * budget_fraction))
    min_count = max(1, int(num_rows * min_support_percent / 100.0))
    os.makedirs(workdir, exist_ok=True)
    configs: Dict[str, Dict] = {}
    results = {}
    try:
        for partitions in (1, num_partitions):
            label = "p%d" % partitions
            snap_path = os.path.join(
                workdir, "zipfpat_%s_%d.snap" % (label, num_rows)
            )
            build_seconds = build_snapshot(
                snap_path, num_rows, num_items, partitions, seed
            )
            result = summary = None
            for _ in range(max(1, repeats)):
                rep_result, rep_summary = _mine_config(
                    snap_path, budget, min_count
                )
                if result is not None and rep_result.mfs != result.mfs:
                    raise AssertionError(
                        "repeated %s mines disagree on the MFS" % label
                    )
                if (
                    summary is None
                    or rep_summary["mine_seconds"] < summary["mine_seconds"]
                ):
                    result, summary = rep_result, rep_summary
            summary["snapshot_build_seconds"] = round(build_seconds, 6)
            summary["repeats"] = max(1, repeats)
            configs[label] = summary
            results[label] = result
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)

    baseline = results["p1"]
    partitioned = results["p%d" % num_partitions]
    if baseline.mfs != partitioned.mfs:
        raise AssertionError(
            "p1 and p%d configurations disagree on the MFS (%d vs %d "
            "members); refusing to record a benchmark over a wrong answer"
            % (num_partitions, len(baseline.mfs), len(partitioned.mfs))
        )
    patterns = [pattern for pattern, _ in planted_patterns(num_items)]
    uncovered = [
        pattern for pattern in patterns
        if not any(set(pattern) <= set(member) for member in partitioned.mfs)
    ]
    if uncovered:
        raise AssertionError(
            "planted patterns %r are not covered by the mined MFS; the "
            "benchmark cell no longer measures what it claims" % uncovered
        )

    record: Dict = {
        "benchmark": "partition-outofcore",
        "database": "ZIPFPAT.N%d.S29" % num_items,
        "num_transactions": num_rows,
        "num_items": num_items,
        "min_support_percent": min_support_percent,
        "min_support_count": min_count,
        "matrix_bytes": matrix_bytes,
        "memory_budget": budget,
        "budget_fraction": budget_fraction,
        "num_partitions": num_partitions,
        "cpu_count": os.cpu_count() or 1,
        "numpy": HAVE_NUMPY,
        "seed": seed,
        "mfs_identical": True,
        "mfs_size": len(partitioned.mfs),
        "planted_patterns": [list(pattern) for pattern in patterns],
        "patterns_covered": True,
        "configs": configs,
    }
    p1 = configs["p1"]["phase1_seconds"]
    pn = configs["p%d" % num_partitions]["phase1_seconds"]
    if p1 and pn:
        record["speedup_phase1_partitioned_vs_single"] = round(p1 / pn, 3)
    total1 = configs["p1"]["mine_seconds"]
    totaln = configs["p%d" % num_partitions]["mine_seconds"]
    if total1 and totaln:
        record["speedup_total_partitioned_vs_single"] = round(
            total1 / totaln, 3
        )
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.partition",
        description="out-of-core partitioned mining benchmark "
        "(phase-I I/O structure, quarter-matrix budget)",
    )
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--items", type=int, default=DEFAULT_ITEMS)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument(
        "--budget-fraction", type=float, default=0.25,
        help="memory budget as a fraction of the dense matrix "
        "(default 0.25)",
    )
    parser.add_argument(
        "--min-support", type=float, default=DEFAULT_MIN_SUPPORT,
        metavar="PCT",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--workdir", default=os.path.join("scratch", "partition-bench"),
        help="scratch directory for the generated snapshots "
        "(removed afterwards unless --keep)",
    )
    parser.add_argument("--keep", action="store_true")
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="cold-start mines per configuration; best run is recorded",
    )
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    record = run_partition_benchmark(
        num_rows=args.rows,
        num_items=args.items,
        num_partitions=args.partitions,
        budget_fraction=args.budget_fraction,
        min_support_percent=args.min_support,
        seed=args.seed,
        workdir=args.workdir,
        keep=args.keep,
        repeats=args.repeats,
    )
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
