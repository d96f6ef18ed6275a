"""Lattice-kernel micro-benchmark: isolate the pure-Python lattice side.

PR 1's counting engines left candidate generation and MFS/MFCS
maintenance as the per-pass bottleneck; the bitmask kernel
(:mod:`repro.core.kernel`) attacks exactly that.  This module measures it
in isolation: a real Pincer-Search run executes once behind a *recording*
kernel that journals every lattice operation — joins, prunes, full
candidate generations, MFS-cover adds and queries, MFCS updates (with
their ``size_cap``/``work_cap``), removals, and cover probes — and the
journal is then replayed, in order, against each kernel under test with
per-operation-group wall-clock accumulated.

Because the journal is replayed *in order* against live cover/MFCS
structures, every kernel sees exactly the states the original run
produced, and the replays double as a differential test: every operation's
output is compared across kernels and a mismatch aborts the benchmark.

Run as a module to (re)generate the machine-readable record the CI
benchmark smoke job gates on::

    python -m repro.bench.lattice --out benchmarks/BENCH_lattice.json

``BENCH_lattice.json`` carries per-kernel seconds for the two headline
groups (``candidate_generation``, ``mfcs_maintenance``) plus the MFS-cover
group, and the ratios ``speedup_candidate_generation`` /
``speedup_mfcs_maintenance``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.itemset import Itemset
from ..core.kernel import KERNEL_NAMES, LatticeKernel, TupleKernel, make_kernel
from ..core.pincer import PincerSearch
from ..db.counting import get_counter
from ..db.transaction_db import TransactionDatabase
from ..db.vertical import HAVE_NUMPY
from .experiments import DEFAULT_SCALE, ExperimentSpec, build_database

__all__ = [
    "RecordingKernel",
    "record_events",
    "replay_events",
    "run_lattice_benchmark",
    "write_benchmark",
]

#: operation -> timing group; the first two are the headline groups
GROUP_OF = {
    "generate": "candidate_generation",
    "join": "candidate_generation",
    "prune": "candidate_generation",
    "mfcs_update": "mfcs_maintenance",
    "mfcs_remove": "mfcs_maintenance",
    "mfcs_covers": "mfcs_maintenance",
    "cover_add": "mfs_cover",
    "cover_covers": "mfs_cover",
}

GROUPS = ("candidate_generation", "mfcs_maintenance", "mfs_cover")


class _RecordingCover:
    """MFS-cover proxy journaling mutations and queries.

    Only the operations the miners issue directly are journaled; probes a
    kernel makes *internally* (recovery, pincer-prune, MFCS-gen's
    ``protected`` checks) go straight to the wrapped cover, because the
    replay re-executes those parent operations whole.
    """

    def __init__(self, inner, events: List) -> None:
        self._inner = inner
        self._events = events

    def add(self, member: Itemset):
        self._events.append(("cover_add", (member,)))
        return self._inner.add(member)

    def covers(self, probe: Itemset) -> bool:
        self._events.append(("cover_covers", (probe,)))
        return self._inner.covers(probe)

    def supersets_of(self, probe: Itemset):
        return self._inner.supersets_of(probe)

    @property
    def members(self):
        return self._inner.members

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        return iter(self._inner)

    def __contains__(self, member: Itemset) -> bool:
        return member in self._inner

    def __bool__(self) -> bool:
        return bool(self._inner)


class _RecordingMFCS:
    """MFCS proxy journaling updates (with caps), removals, and probes."""

    def __init__(self, inner, events: List) -> None:
        self._inner = inner
        self._events = events

    def update(
        self,
        infrequent_sets: Iterable[Itemset],
        protected=None,
        size_cap: Optional[int] = None,
        work_cap: Optional[int] = None,
    ) -> bool:
        infrequents = list(infrequent_sets)
        self._events.append(("mfcs_update", (infrequents, size_cap, work_cap)))
        # unwrap a recording cover so its internal probes are not journaled
        inner_protected = getattr(protected, "_inner", protected)
        return self._inner.update(
            infrequents,
            protected=inner_protected,
            size_cap=size_cap,
            work_cap=work_cap,
        )

    def remove(self, element: Itemset) -> None:
        self._events.append(("mfcs_remove", (element,)))
        self._inner.remove(element)

    def covers(self, probe: Itemset) -> bool:
        self._events.append(("mfcs_covers", (probe,)))
        return self._inner.covers(probe)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        return iter(self._inner)

    def __contains__(self, element: Itemset) -> bool:
        return element in self._inner

    def __bool__(self) -> bool:
        return bool(self._inner)


class RecordingKernel(LatticeKernel):
    """Tuple kernel that journals every lattice operation it serves.

    Inject into a miner via its ``kernel`` parameter (a kernel *instance*
    passes straight through :func:`~repro.core.kernel.make_kernel`); the
    journal lands in ``self.events`` ready for :func:`replay_events`.
    """

    name = "recording"

    def __init__(self) -> None:
        self._inner = TupleKernel()
        self.events: List[Tuple[str, tuple]] = []

    def make_cover(self, members: Iterable[Itemset] = ()):
        cover = _RecordingCover(self._inner.make_cover(), self.events)
        for member in members:
            cover.add(member)
        return cover

    def make_mfcs(self, universe: Iterable[int]):
        items = tuple(sorted(set(universe)))
        self.events.append(("mfcs_init", (items,)))
        return _RecordingMFCS(self._inner.make_mfcs(items), self.events)

    def apriori_join(self, level_frequents, deadline=None):
        frequents = sorted(level_frequents)
        self.events.append(("join", (frequents,)))
        return self._inner.apriori_join(frequents, deadline=deadline)

    def apriori_prune(self, candidates, level_frequents):
        pending = sorted(candidates)
        frequents = sorted(level_frequents)
        self.events.append(("prune", (pending, frequents)))
        return self._inner.apriori_prune(pending, frequents)

    def recovery(self, level_frequents, mfs, k):
        frequents = sorted(level_frequents)
        mfs = getattr(mfs, "_inner", mfs)
        self.events.append(("recovery", (frequents, sorted(mfs.members), k)))
        return self._inner.recovery(frequents, mfs, k)

    def pincer_prune(self, candidates, level_frequents, mfs):
        pending = sorted(candidates)
        frequents = sorted(level_frequents)
        mfs = getattr(mfs, "_inner", mfs)
        self.events.append(
            ("pincer_prune", (pending, frequents, sorted(mfs.members)))
        )
        return self._inner.pincer_prune(pending, frequents, mfs)

    def generate_candidates(self, level_frequents, mfs, k):
        frequents = sorted(level_frequents)
        self.events.append(("generate", (frequents, k)))
        # the live (unwrapped) cover: internal probes belong to this event
        return self._inner.generate_candidates(
            frequents, getattr(mfs, "_inner", mfs), k
        )


def record_events(
    db: TransactionDatabase, min_support_percent: float
) -> List[Tuple[str, tuple]]:
    """Journal the lattice operations of one pure Pincer-Search run.

    Recording runs with ``adaptive=False``: the adaptive policy abandons
    the MFCS on exactly the workloads where its maintenance is expensive,
    which would leave the journal's ``mfcs_maintenance`` group measuring
    setup noise instead of MFCS-gen.  The pure run keeps the full
    top-down workload in the journal.
    """
    recorder = RecordingKernel()
    PincerSearch(adaptive=False, kernel=recorder).mine(
        db, min_support_percent / 100.0, counter=get_counter("bitmap")
    )
    return recorder.events


def replay_events(
    events: Sequence[Tuple[str, tuple]],
    kernel: LatticeKernel,
    timings: Optional[Dict[str, float]] = None,
) -> List:
    """Re-execute a journal against ``kernel``; returns per-event outputs.

    The live cover/MFCS state threads through the replay exactly as it did
    through the recorded run, so outputs are directly comparable across
    kernels.  When ``timings`` is given, wall-clock per
    :data:`GROUP_OF` group is accumulated into it.
    """
    cover = kernel.make_cover()
    mfcs = None
    outputs: List = []
    clock = time.perf_counter
    for op, payload in events:
        if op == "mfcs_init":
            mfcs = kernel.make_mfcs(payload[0])
            outputs.append(None)
            continue
        started = clock()
        if op == "generate":
            frequents, k = payload
            result = sorted(kernel.generate_candidates(frequents, cover, k))
        elif op == "join":
            result = sorted(kernel.apriori_join(payload[0]))
        elif op == "prune":
            result = sorted(kernel.apriori_prune(*payload))
        elif op == "recovery":
            frequents, mfs_members, k = payload
            result = sorted(
                kernel.recovery(frequents, kernel.make_cover(mfs_members), k)
            )
        elif op == "pincer_prune":
            pending, frequents, mfs_members = payload
            result = sorted(
                kernel.pincer_prune(
                    pending, frequents, kernel.make_cover(mfs_members)
                )
            )
        elif op == "mfcs_update":
            infrequents, size_cap, work_cap = payload
            completed = mfcs.update(
                infrequents,
                protected=cover,
                size_cap=size_cap,
                work_cap=work_cap,
            )
            # a capped (abandoned) update leaves formally meaningless
            # contents whose exact shape depends on kernel-internal
            # element order — only the abandon signal must agree
            result = (completed, sorted(mfcs) if completed else None)
        elif op == "mfcs_remove":
            mfcs.remove(payload[0])
            result = None
        elif op == "mfcs_covers":
            result = mfcs.covers(payload[0])
        elif op == "cover_add":
            cover.add(payload[0])
            result = None
        elif op == "cover_covers":
            result = cover.covers(payload[0])
        else:  # pragma: no cover - journal and replay ship together
            raise ValueError("unknown journal operation %r" % op)
        if timings is not None:
            timings[GROUP_OF[op]] += clock() - started
        outputs.append(result)
    return outputs


def _time_replay(
    events: Sequence[Tuple[str, tuple]],
    kernel_name: str,
    universe: Sequence[int],
    repeats: int,
) -> Dict[str, float]:
    """Best-of-``repeats`` per-group seconds for one kernel.

    The kernel instance is shared across repeats — per-universe state it
    builds once and reuses (the bitmask kernel's intern caches) is part of
    what a mining run pays once and amortises over its passes, so the
    first repeat carries the warm-up and best-of keeps the steady-state
    figure — the same convention as
    :func:`repro.bench.engines.time_engine`.  Replay *state* (cover,
    MFCS) is rebuilt fresh inside every repeat.
    """
    kernel = make_kernel(kernel_name, universe)
    best = {group: float("inf") for group in GROUPS}
    for _ in range(max(1, repeats)):
        timings = {group: 0.0 for group in GROUPS}
        replay_events(events, kernel, timings)
        for group in GROUPS:
            best[group] = min(best[group], timings[group])
    return best


def run_lattice_benchmark(
    database: str = "T10.I4.D100K",
    supports_percent: Sequence[float] = (1.5, 1.0, 0.5),
    scale: Optional[int] = None,
    repeats: int = 3,
    kernels: Sequence[str] = KERNEL_NAMES,
) -> Dict:
    """Replay-benchmark the kernels over a support sweep; JSON-ready record.

    Every cell's journal is replayed against every kernel; outputs are
    cross-checked (an output mismatch raises) and per-group seconds are
    summed across cells into the headline speedups.
    """
    spec = ExperimentSpec("bench-lattice", database, 2000, (), "")
    db = build_database(spec, num_transactions=scale)
    universe = sorted(db.universe)

    cells: List[Dict] = []
    totals: Dict[str, Dict[str, float]] = {
        name: {group: 0.0 for group in GROUPS} for name in kernels
    }
    events_total = 0
    for support in supports_percent:
        events = record_events(db, support)
        events_total += len(events)
        reference = None
        cell: Dict = {
            "min_support_percent": support,
            "events": len(events),
            "operations": {
                op: sum(1 for kind, _ in events if kind == op)
                for op in sorted({kind for kind, _ in events})
            },
            "kernels": {},
        }
        for name in kernels:
            outputs = replay_events(events, make_kernel(name, universe))
            if reference is None:
                reference = outputs
            elif outputs != reference:
                raise AssertionError(
                    "kernel %r disagrees with %r at %.2f%% support"
                    % (name, kernels[0], support)
                )
            seconds = _time_replay(events, name, universe, repeats)
            cell["kernels"][name] = {
                group: round(seconds[group], 6) for group in GROUPS
            }
            for group in GROUPS:
                totals[name][group] += seconds[group]
        cells.append(cell)

    record: Dict = {
        "benchmark": "lattice-kernels",
        "database": database,
        "num_transactions": len(db),
        "num_items": len(universe),
        "supports_percent": list(supports_percent),
        "events_total": events_total,
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "numpy": HAVE_NUMPY,
        "cells": cells,
        "totals": {
            name: {group: round(value, 6) for group, value in groups.items()}
            for name, groups in totals.items()
        },
    }
    if "tuple" in totals and "bitmask" in totals:
        for group, key in (
            ("candidate_generation", "speedup_candidate_generation"),
            ("mfcs_maintenance", "speedup_mfcs_maintenance"),
            ("mfs_cover", "speedup_mfs_cover"),
        ):
            fast = totals["bitmask"][group]
            if fast > 0:
                record[key] = round(totals["tuple"][group] / fast, 3)
        # the CI smoke gate: total replayed lattice seconds, all groups
        fast_total = sum(totals["bitmask"].values())
        if fast_total > 0:
            record["speedup_lattice_total"] = round(
                sum(totals["tuple"].values()) / fast_total, 3
            )
    return record


def write_benchmark(path: str, record: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.lattice",
        description="benchmark the lattice kernels by journal replay",
    )
    parser.add_argument("--database", default="T10.I4.D100K")
    parser.add_argument(
        "--min-support", type=float, action="append", default=None,
        metavar="PCT", help="support sweep (repeatable; default 1.5 1.0 0.5)",
    )
    parser.add_argument(
        "--scale", type=int, default=None,
        help="|D| override (default: REPRO_BENCH_SCALE or %d)" % DEFAULT_SCALE,
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the lattice-replay JSON record here",
    )
    args = parser.parse_args(argv)
    supports = tuple(args.min_support) if args.min_support else (1.5, 1.0, 0.5)
    record = run_lattice_benchmark(
        database=args.database,
        supports_percent=supports,
        scale=args.scale,
        repeats=args.repeats,
    )
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if args.out:
        write_benchmark(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
