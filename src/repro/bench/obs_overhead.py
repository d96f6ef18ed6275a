"""Instrumentation-overhead benchmark for the ``repro.obs`` subsystem.

The observability layer promises to be near-zero-cost when disabled and
cheap when enabled.  This module measures both claims on a real mining
cell and records them in the machine-readable file the CI smoke job
tracks across PRs::

    python -m repro.bench.obs_overhead --out benchmarks/BENCH_obs.json

Two comparisons are made:

* **disabled overhead** — the per-pass cost the instrumentation hooks add
  to the counting hot path when observability is off.  The same recorded
  candidate batches are replayed twice: once through the engine's raw
  ``_count`` with hand-rolled pass accounting (the pre-instrumentation
  ``count()`` body), and once through the real ``count()`` with the
  default no-op instrumentation.  The difference is exactly the guard
  (`one attribute read and one truthiness check per pass`) the hooks
  cost, and must stay under a couple of percent.
* **enabled overhead** — a full Pincer-Search run with tracing and
  metrics written to files versus the same run with observability off.
  Enabled runs pay for JSON serialisation of every span, so this number
  is honest rather than tiny; it bounds what ``--trace`` costs a user.

Both sides use best-of-``repeats`` wall-clock, the same convention as
:mod:`repro.bench.engines`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from ..core.pincer import PincerSearch
from ..db.base import SupportCounter
from ..db.counting import engine_decision, get_counter
from ..obs.instrument import capture
from .engines import record_batches
from .experiments import DEFAULT_SCALE, ExperimentSpec, build_database

__all__ = [
    "run_overhead_benchmark",
    "write_overhead_benchmark",
]


def _time_mine_disabled(db, fraction: float, repeats: int) -> float:
    """Best-of seconds for a full run with the default no-op obs."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        PincerSearch(adaptive=True).mine(db, fraction)
        best = min(best, time.perf_counter() - started)
    return best


def _time_mine_enabled(db, fraction: float, repeats: int) -> Dict[str, float]:
    """Best-of seconds for a full run tracing + metering to real files.

    ``finish()`` (metrics flush + trace close) is inside the timed
    region: it is part of what ``--trace``/``--metrics-out`` cost.
    """
    best = float("inf")
    events = 0
    for _ in range(max(1, repeats)):
        handle, trace_path = tempfile.mkstemp(suffix=".jsonl")
        os.close(handle)
        handle, metrics_path = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        try:
            started = time.perf_counter()
            obs = capture(
                trace_path=trace_path,
                metrics_path=metrics_path,
                producer="bench-obs",
            )
            PincerSearch(adaptive=True).mine(db, fraction, obs=obs)
            obs.finish()
            best = min(best, time.perf_counter() - started)
            events = obs.tracer.events_emitted
        finally:
            os.remove(trace_path)
            os.remove(metrics_path)
    return {"seconds": best, "trace_events": events}


def _replay_raw(db, batches: Sequence[Sequence], counter: SupportCounter) -> float:
    """Replay batches through the pre-instrumentation ``count()`` body."""
    counter.reset()
    started = time.perf_counter()
    for batch in batches:
        batch = list(batch)
        if not batch:
            continue
        counter.passes += 1
        counter.records_read += len(db)
        counter._check_deadline()
        result = counter._count(db, batch)
        counter.itemsets_counted += len(result)
    return time.perf_counter() - started


def _replay_guarded(
    db, batches: Sequence[Sequence], counter: SupportCounter
) -> float:
    """Replay the same batches through the real (guarded) ``count()``."""
    counter.reset()
    started = time.perf_counter()
    for batch in batches:
        counter.count(db, batch)
    return time.perf_counter() - started


def run_overhead_benchmark(
    database: str = "T10.I4.D100K",
    min_support_percent: float = 1.5,
    scale: Optional[int] = None,
    repeats: int = 5,
) -> Dict:
    """Measure disabled and enabled overhead; returns the JSON record."""
    spec = ExperimentSpec("bench-obs", database, 2000, (), "")
    db = build_database(spec, num_transactions=scale)
    fraction = min_support_percent / 100.0
    engine_name = engine_decision(db).engine
    batches = record_batches(db, min_support_percent)

    counter = get_counter(engine_name)
    # interleave the raw/guarded pairs so clock drift on a busy host
    # biases neither side of the best-of comparison
    raw = guarded = float("inf")
    for _ in range(max(1, repeats)):
        raw = min(raw, _replay_raw(db, batches, counter))
        guarded = min(guarded, _replay_guarded(db, batches, counter))
    disabled = _time_mine_disabled(db, fraction, repeats)
    enabled = _time_mine_enabled(db, fraction, repeats)

    record: Dict = {
        "benchmark": "obs-overhead",
        "database": database,
        "min_support_percent": min_support_percent,
        "num_transactions": len(db),
        "engine": engine_name,
        "passes": len(batches),
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "count_seconds_raw": round(raw, 6),
        "count_seconds_guarded": round(guarded, 6),
        "overhead_disabled_pct": round(100.0 * (guarded - raw) / raw, 3),
        "mine_seconds_disabled": round(disabled, 6),
        "mine_seconds_enabled": round(enabled["seconds"], 6),
        "overhead_enabled_pct": round(
            100.0 * (enabled["seconds"] - disabled) / disabled, 3
        ),
        "trace_events_per_run": enabled["trace_events"],
    }
    return record


def write_overhead_benchmark(path: str, record: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.obs_overhead",
        description="measure the observability layer's overhead on one cell",
    )
    parser.add_argument("--database", default="T10.I4.D100K")
    parser.add_argument("--min-support", type=float, default=1.5, metavar="PCT")
    parser.add_argument(
        "--scale", type=int, default=None,
        help="|D| override (default: REPRO_BENCH_SCALE or %d)" % DEFAULT_SCALE,
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON record here (default: stdout only)",
    )
    args = parser.parse_args(argv)
    record = run_overhead_benchmark(
        database=args.database,
        min_support_percent=args.min_support,
        scale=args.scale,
        repeats=args.repeats,
    )
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if args.out:
        write_overhead_benchmark(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
