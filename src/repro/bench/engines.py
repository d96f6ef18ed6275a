"""Counting-engine micro-benchmark: isolate ``engine.count`` wall-clock.

The figure benchmarks time whole mining runs, where candidate generation
and MFCS maintenance dilute the counting signal.  This module measures
the counting subsystem alone: it replays the exact candidate batches a
Pincer-Search run issues (one batch per pass) against every registered
engine and reports per-engine seconds, verifying along the way that all
engines return identical counts.

Run as a module to (re)generate the machine-readable record the CI
benchmark smoke job tracks across PRs::

    python -m repro.bench.engines --out benchmarks/BENCH_counting.json

The JSON carries the benchmark cell (T10.I4.D100K at 1.5% by default),
the host's core count, and the headline ratio
``speedup_packed_vs_bitmap``.

``--density-sweep`` instead runs the compressed-tier cells — a sparse
Zipf long-tail basket set and a dense Quest workload — reporting
``speedup_roaring_vs_packed`` per cell plus the ``auto`` engine decision,
the roaring container mix, and the compression ratio::

    python -m repro.bench.engines --density-sweep \
        --out benchmarks/BENCH_density.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..core.pincer import PincerSearch
from ..datagen import generate, parse_name, zipf_baskets
from ..db.base import SupportCounter
from ..db.counting import available_engines, engine_decision, get_counter
from ..db.roaring import RoaringIndex
from ..db.transaction_db import TransactionDatabase
from ..db.vertical import HAVE_NUMPY
from .experiments import DEFAULT_SCALE, ExperimentSpec, build_database

__all__ = [
    "RecordingCounter",
    "record_batches",
    "run_counting_benchmark",
    "run_density_sweep",
    "time_engine",
    "write_counting_benchmark",
]


class RecordingCounter(SupportCounter):
    """Delegating engine that records every candidate batch it serves."""

    def __init__(self, inner: SupportCounter) -> None:
        super().__init__()
        self.name = "recording(%s)" % inner.name
        self._inner = inner
        self.batches: List[List] = []

    def _count(self, db, candidates):
        self.batches.append(list(candidates))
        return self._inner._count(db, candidates)


def record_batches(
    db: TransactionDatabase, min_support_percent: float
) -> List[List]:
    """The candidate batches (one per pass) of a Pincer-Search run.

    The batches are a property of the mining trajectory, not of the
    engine serving it (the engines are proven count-identical), so the
    recording run rides the fastest single-process engine available.
    """
    recorder = RecordingCounter(
        get_counter("packed" if HAVE_NUMPY else "bitmap")
    )
    PincerSearch(adaptive=True).mine(
        db, min_support_percent / 100.0, counter=recorder
    )
    return recorder.batches


def time_engine(
    db: TransactionDatabase,
    batches: Sequence[Sequence],
    counter: SupportCounter,
    repeats: int = 3,
) -> float:
    """Best-of-``repeats`` seconds to serve all ``batches``.

    A warm-up run is not separated out: per-database state an engine
    builds once and reuses (the vertical index) is part
    of what a mining run pays, so the first repeat carries it and
    best-of keeps the steady-state figure.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        counter.reset()
        started = time.perf_counter()
        for batch in batches:
            counter.count(db, batch)
        best = min(best, time.perf_counter() - started)
    return best


def run_counting_benchmark(
    database: str = "T10.I4.D100K",
    min_support_percent: float = 1.5,
    scale: Optional[int] = None,
    engines: Optional[Sequence[str]] = None,
    repeats: int = 3,
) -> Dict:
    """Benchmark every engine on one cell; returns the JSON-ready record."""
    spec = ExperimentSpec("bench-counting", database, 2000, (), "")
    db = build_database(spec, num_transactions=scale)
    batches = record_batches(db, min_support_percent)
    names = list(engines) if engines is not None else available_engines()

    reference: Optional[List[Dict]] = None
    measured: Dict[str, Dict] = {}
    for name in names:
        counter = get_counter(name)
        try:
            per_batch = [dict(counter.count(db, batch)) for batch in batches]
            if reference is None:
                reference = per_batch
            elif per_batch != reference:
                raise AssertionError(
                    "engine %r disagrees with %r" % (name, names[0])
                )
            seconds = time_engine(db, batches, counter, repeats)
            measured[name] = {
                "seconds": round(seconds, 6),
                "passes": len(batches),
                "itemsets_counted": counter.itemsets_counted,
            }
            # prefix-sharing accounting (bitmap/packed/roaring engines;
            # values cover the last timed repeat — reset() zeroes them)
            hits = getattr(counter, "prefix_cache_hits", None)
            if hits is not None:
                measured[name]["prefix_cache_hits"] = hits
                measured[name]["prefix_cache_misses"] = (
                    counter.prefix_cache_misses
                )
        finally:
            close = getattr(counter, "close", None)
            if close is not None:
                close()

    record: Dict = {
        "benchmark": "counting-engines",
        "database": database,
        "min_support_percent": min_support_percent,
        "num_transactions": len(db),
        "passes": len(batches),
        "candidates_total": sum(len(batch) for batch in batches),
        "cpu_count": os.cpu_count() or 1,
        "numpy": HAVE_NUMPY,
        "repeats": repeats,
        "engines": measured,
    }
    bitmap = measured.get("bitmap", {}).get("seconds")
    packed = measured.get("packed", {}).get("seconds")
    if bitmap and packed:
        record["speedup_packed_vs_bitmap"] = round(bitmap / packed, 3)
    return record


#: Transactions in the sparse density-sweep cell.  The compressed tier's
#: per-candidate cost is near-constant while packed's grows with the row
#: dimension, so the sweep sits where the crossover is decisive.
SPARSE_SWEEP_ROWS = 1000000

#: The dense density-sweep cell: a concentrated Quest workload over a
#: 60-item universe (mean column density ~0.17, above
#: AUTO_ROARING_MAX_DENSITY), where ``auto`` picks ``packed``.
DENSE_SWEEP_NAME = "T10.I4.D20K"


def _density_cells(scale: Optional[int] = None):
    """Yield ``(database_name, db, min_support_percent)`` sweep cells."""
    sparse = zipf_baskets(
        num_transactions=scale or SPARSE_SWEEP_ROWS,
        num_items=2000,
        skew=1.5,
        avg_basket_size=10,
        seed=17,
    )
    yield "ZIPF.T10.N2000.S1.5", sparse, 0.5
    dense_config = parse_name(
        DENSE_SWEEP_NAME, num_patterns=50, num_items=60, seed=7
    )
    yield DENSE_SWEEP_NAME + ".N60", generate(dense_config), 5.0


def run_density_sweep(
    engines: Sequence[str] = ("packed", "roaring"),
    repeats: int = 3,
    scale: Optional[int] = None,
) -> List[Dict]:
    """Benchmark the compressed tier across the density axis.

    Returns one counting-benchmark-shaped record per cell: a sparse Zipf
    long-tail cell where the roaring containers should win outright, and
    a dense Quest cell where ``auto`` resolves to ``packed``.  Each cell
    records the ``engine_decision(db, "auto")`` choice with its evidence.
    Every engine is verified count-identical on every cell before it is
    timed.
    """
    cells: List[Dict] = []
    for database, db, pct in _density_cells(scale):
        batches = record_batches(db, pct)
        decision = engine_decision(db, "auto")
        measured: Dict[str, Dict] = {}
        reference: Optional[List[Dict]] = None
        for name in engines:
            counter = get_counter(name)
            per_batch = [dict(counter.count(db, batch)) for batch in batches]
            if reference is None:
                reference = per_batch
            elif per_batch != reference:
                raise AssertionError(
                    "engine %r disagrees with %r on %s"
                    % (name, engines[0], database)
                )
            seconds = time_engine(db, batches, counter, repeats)
            entry: Dict = {
                "seconds": round(seconds, 6),
                "passes": len(batches),
                "itemsets_counted": counter.itemsets_counted,
            }
            index = getattr(counter, "_index", None)
            if isinstance(index, RoaringIndex):
                entry["containers"] = index.container_counts()
                compressed = index.compressed_bytes()
                dense_bytes = index.dense_bytes()
                entry["compressed_bytes"] = compressed
                entry["dense_bytes"] = dense_bytes
                if compressed:
                    entry["compression_ratio"] = round(
                        dense_bytes / compressed, 3
                    )
            measured[name] = entry
        record: Dict = {
            "benchmark": "density-sweep",
            "database": database,
            "min_support_percent": pct,
            "num_transactions": len(db),
            "passes": len(batches),
            "candidates_total": sum(len(batch) for batch in batches),
            "cpu_count": os.cpu_count() or 1,
            "numpy": HAVE_NUMPY,
            "repeats": repeats,
            "engine_decision": {
                "engine": decision.engine,
                "evidence": decision.evidence,
            },
            "engines": measured,
        }
        packed = measured.get("packed", {}).get("seconds")
        roaring = measured.get("roaring", {}).get("seconds")
        if packed and roaring:
            record["speedup_roaring_vs_packed"] = round(packed / roaring, 3)
        cells.append(record)
    return cells


def write_counting_benchmark(path: str, record: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.engines",
        description="benchmark the support-counting engines on one cell",
    )
    parser.add_argument("--database", default="T10.I4.D100K")
    parser.add_argument("--min-support", type=float, default=1.5, metavar="PCT")
    parser.add_argument(
        "--scale", type=int, default=None,
        help="|D| override (default: REPRO_BENCH_SCALE or %d)" % DEFAULT_SCALE,
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--engine", action="append", default=None, metavar="NAME",
        help="engine subset (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON record here (default: stdout only)",
    )
    parser.add_argument(
        "--density-sweep", action="store_true",
        help="run the sparse/dense density-sweep cells (roaring vs "
        "packed) instead of the single counting cell",
    )
    args = parser.parse_args(argv)
    if args.density_sweep:
        cells = run_density_sweep(
            engines=tuple(args.engine) if args.engine else ("packed", "roaring"),
            repeats=args.repeats,
            scale=args.scale,
        )
        document = {"benchmark": "density-sweep", "cells": cells}
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        if args.out:
            write_counting_benchmark(args.out, document)
        return 0
    record = run_counting_benchmark(
        database=args.database,
        min_support_percent=args.min_support,
        scale=args.scale,
        engines=args.engine,
        repeats=args.repeats,
    )
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if args.out:
        write_counting_benchmark(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
