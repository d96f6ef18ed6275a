"""Command-line interface: ``pincer <subcommand>``.

Subcommands cover the end-to-end workflow:

* ``generate`` — synthesise a Quest benchmark database to a file;
* ``snapshot`` — serialise a database's packed vertical index to a
  memory-mappable ``.snap`` file (see :mod:`repro.db.snapshot`); later
  ``mine --snapshot`` runs skip the basket re-parse;
* ``mine``     — discover the maximum frequent set of a database file;
* ``rules``    — mine and then emit association rules (MFS-first);
* ``serve``    — hold one database resident (engine attached, support
  cache warm) and answer line-delimited JSON mining queries on a unix
  socket with admission control, request-scoped tracing (``--trace``),
  a schema-v4 JSONL access log with a slow-query snapshot ring
  (``--access-log``), rolling SLO metrics behind the ``metrics`` wire
  op, and per-query ``eta_seconds`` on every reply;
* ``bench``    — run one of the paper's experiments and print its rows;
* ``obs``      — work with recorded traces and live runs: ``obs validate``
  checks trace, metrics and access-log files against the schema, ``obs
  export`` converts a trace or metrics file for Perfetto/Prometheus, ``obs
  report`` prints a span-tree profile with wall/CPU/memory columns
  (``--request ID`` isolates one serve query, ``--requests`` lists the
  ids), and ``obs top`` attaches a live console to a serve daemon's
  query plane with ``--serve SOCKET``.

Run ``pincer <subcommand> --help`` for the full flag list.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .algorithms.apriori import Apriori
from .algorithms.partition import PartitionMiner
from .algorithms.partitioned import PartitionedPincerMiner
from .algorithms.sampling import SamplingMiner
from .algorithms.topdown import TopDown
from .bench.experiments import ALL_EXPERIMENTS, build_database
from .bench.harness import bench_budget, format_rows, run_sweep
from .core.itemset import format_itemset
from .core.pincer import PincerSearch
from .datagen.configs import parse_name
from .datagen.quest import QuestGenerator
from .db import io
from .db.counting import available_engines
from .obs import capture, configure_logging
from .rules.from_mfs import rules_from_mfs
from .rules.generation import interesting_rules


def _parse_bytes(text: str) -> int:
    """``"80M"``/``"2G"``/plain integers → bytes (for --memory-budget)."""
    value = text.strip().upper()
    multiplier = 1
    for suffix, scale in (("K", 1024), ("M", 1024 ** 2), ("G", 1024 ** 3)):
        if value.endswith(suffix):
            multiplier = scale
            value = value[: -1]
            break
    try:
        return int(float(value) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r is not a byte size (use e.g. 104857600, 100M, 2G)" % text
        ) from None


def _make_miner(
    name: str,
    engine: str,
    args: "argparse.Namespace | None" = None,
):
    def flag(key, default=None):
        return getattr(args, key, default) if args is not None else default

    if name == "pincer":
        return PincerSearch(engine=engine, adaptive=True)
    if name == "pincer-pure":
        return PincerSearch(engine=engine, adaptive=False)
    if name == "apriori":
        return Apriori(engine=engine)
    if name == "topdown":
        return TopDown(engine=engine)
    if name == "sampling":
        return SamplingMiner(
            sample_fraction=flag("sample_fraction") or 0.2,
            seed=flag("sample_seed") or 0,
            engine=engine,
        )
    if name == "partition":
        return PartitionMiner(
            num_partitions=flag("partitions") or 4, engine=engine
        )
    if name == "partitioned":
        return PartitionedPincerMiner(
            num_partitions=flag("partitions"),
            memory_budget=flag("memory_budget"),
            parallelism=flag("partition_parallelism") or 1,
            engine=engine,
            sample_fraction=flag("sample_fraction") or 0.0,
            sample_seed=flag("sample_seed") or 0,
        )
    raise ValueError("unknown algorithm %r" % name)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL span trace of the run "
        "(validate it: pincer obs validate PATH)",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry as a JSON document",
    )
    group.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable stderr logging for the 'repro' logger hierarchy",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="attach per-span CPU seconds and tracemalloc peak-memory "
        "deltas to the trace (requires --trace)",
    )
    group.add_argument(
        "--profile-stacks", default=None, metavar="PATH",
        help="also run a sampling profiler and write folded stacks "
        "(flamegraph.pl input) to PATH",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="print a live per-pass progress/ETA line to stderr (also "
        "mirrored into the trace when --trace is given)",
    )
    group.add_argument(
        "--trace-max-events", type=int, default=None, metavar="N",
        help="cap the trace at N events; excess events are dropped and "
        "a single 'truncated' marker records how many",
    )


def _add_mine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="database file (.dat/.basket/.csv/.json)")
    parser.add_argument(
        "--min-support", type=float, required=True, metavar="PCT",
        help="minimum support as a percentage, e.g. 1.5",
    )
    parser.add_argument(
        "--algorithm", default="pincer",
        choices=(
            "pincer", "pincer-pure", "apriori", "topdown",
            "sampling", "partition", "partitioned",
        ),
    )
    parser.add_argument(
        "--engine", default="auto",
        choices=("auto",) + tuple(available_engines()),
        help="support-counting engine (auto resolves from measured "
        "density: roaring for large sparse databases, packed for large "
        "dense ones when NumPy is available, else bitmap)",
    )
    parser.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="packed-bitmap snapshot of the input (written by 'pincer "
        "snapshot'): skips the basket parse",
    )
    outofcore = parser.add_argument_group(
        "out-of-core (--algorithm/--engine partitioned)"
    )
    outofcore.add_argument(
        "--memory-budget", type=_parse_bytes, default=None, metavar="BYTES",
        help="cap on concurrently mapped partition-matrix bytes, e.g. "
        "80M (partitions beyond it are counted in windows)",
    )
    outofcore.add_argument(
        "--partitions", type=int, default=None, metavar="K",
        help="partition count for self-partitioned inputs (snapshot-"
        "backed inputs use the snapshot's own directory); also the "
        "partition count for --algorithm partition",
    )
    outofcore.add_argument(
        "--partition-parallelism", type=int, default=1, metavar="N",
        help="phase-I worker processes (needs a --snapshot input; the "
        "memory budget is split between workers)",
    )
    outofcore.add_argument(
        "--sample-fraction", type=float, default=None, metavar="F",
        help="Toivonen sample fraction in [0,1]: seeds the local MFCS "
        "descents for --algorithm partitioned, or the sample draw for "
        "--algorithm sampling",
    )
    outofcore.add_argument(
        "--sample-seed", type=int, default=0, metavar="SEED",
        help="RNG seed of the sample draw (recorded in the run's stats "
        "for reproducibility)",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    config = parse_name(
        args.name, num_patterns=args.patterns, num_items=args.items,
        seed=args.seed,
    )
    if args.transactions is not None:
        from dataclasses import replace

        config = replace(config, num_transactions=args.transactions)
    db = QuestGenerator(config).generate()
    io.save(db, args.out)
    print(
        "wrote %s: %d transactions, %d items, avg size %.2f"
        % (args.out, len(db), db.num_items, db.average_transaction_size())
    )
    return 0


def _load_db(args: argparse.Namespace):
    if getattr(args, "snapshot", None):
        from .db.disk import DiskTransactionDatabase

        return DiskTransactionDatabase(args.input, snapshot=args.snapshot)
    return io.load(args.input)


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    from .db.disk import DiskTransactionDatabase
    from .db.snapshot import (
        default_snapshot_path,
        load_snapshot,
        snapshot_database,
    )

    partition_kwargs = dict(
        num_partitions=args.partitions, partition_rows=args.partition_rows
    )
    suffix = Path(args.input).suffix.lower()
    if suffix in ("", ".dat", ".basket", ".txt"):
        # FIMI baskets stream straight from disk: one read, no residency
        written = DiskTransactionDatabase(args.input).snapshot(
            args.out, **partition_kwargs
        )
    else:
        db = io.load(args.input)
        written = snapshot_database(
            db, args.out or default_snapshot_path(args.input),
            **partition_kwargs
        )
    snap = load_snapshot(written)
    print(
        "wrote %s (format v%d): %d transactions, %d items, "
        "%d partition(s), %d bytes"
        % (
            written, snap.version, snap.num_rows, snap.num_items,
            snap.num_partitions, os.path.getsize(written),
        )
    )
    return 0


def _make_cli_counter(args: argparse.Namespace):
    """An explicit PartitionedCounter when the flags configure one.

    ``--engine partitioned`` with ``--memory-budget``/``--partitions``
    needs the configuration passed into the counter instance; the plain
    engine registry can only build it with defaults.  The partitioned
    *algorithm* configures its own engine, so this only applies to the
    other miners.
    """
    if args.algorithm == "partitioned" or args.engine != "partitioned":
        return None
    if args.memory_budget is None and args.partitions is None:
        return None
    from .db.outofcore import PartitionedCounter

    return PartitionedCounter(
        memory_budget=args.memory_budget, num_partitions=args.partitions
    )


def _cmd_mine(args: argparse.Namespace) -> int:
    db = _load_db(args)
    miner = _make_miner(args.algorithm, args.engine, args)
    result = miner.mine(
        db, args.min_support / 100.0, obs=args.obs,
        counter=_make_cli_counter(args),
    )
    print(result.stats.summary())
    print("maximum frequent set (%d itemsets):" % len(result.mfs))
    for member in result.sorted_mfs():
        support = result.support(member)
        print(
            "  %s  support=%.4f" % (format_itemset(member), support or 0.0)
        )
    if args.show_passes:
        for stats in result.stats.passes:
            print(
                "  pass %d: %d candidates (%d MFCS), %d maximal found"
                % (
                    stats.pass_number,
                    stats.total_candidates,
                    stats.mfcs_candidates,
                    stats.maximal_found,
                )
            )
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    db = _load_db(args)
    miner = _make_miner(args.algorithm, args.engine, args)
    result = miner.mine(db, args.min_support / 100.0, obs=args.obs)
    rules = rules_from_mfs(
        db, result, min_confidence=args.min_confidence / 100.0,
        depth=args.depth, engine=args.engine,
    )
    rules = interesting_rules(rules, min_lift=args.min_lift, top=args.top)
    print("%d rules (minconf %g%%):" % (len(rules), args.min_confidence))
    for rule in rules:
        print("  %s" % rule)
    return 0


def _cmd_keys(args: argparse.Namespace) -> int:
    import csv as csv_module

    from .apps.keys import Relation, candidate_key_report

    with open(args.input, "r", encoding="utf-8", newline="") as handle:
        reader = csv_module.reader(handle)
        rows = [tuple(row) for row in reader if row]
    if not rows:
        print("%s: empty relation" % args.input, file=sys.stderr)
        return 2
    if args.no_header:
        header: list = []
    else:
        header, rows = list(rows[0]), rows[1:]
    relation = Relation(rows, column_names=header)
    print(candidate_key_report(relation))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = ALL_EXPERIMENTS.get(args.experiment)
    if spec is None:
        print(
            "unknown experiment %r; choose from: %s"
            % (args.experiment, ", ".join(sorted(ALL_EXPERIMENTS))),
            file=sys.stderr,
        )
        return 2
    db = build_database(spec, num_transactions=args.scale)
    supports = (
        tuple(args.min_support) if args.min_support else spec.supports_percent
    )
    budget = args.budget if args.budget is not None else bench_budget()
    rows = run_sweep(
        db, spec.database, supports, time_budget=budget, obs=args.obs
    )
    title = "%s (|L|=%d, |D|=%d)\npaper: %s" % (
        spec.database, spec.num_patterns, len(db), spec.paper_expectation,
    )
    print(format_rows(rows, title))
    if args.chart:
        from .bench.analysis import figure_report

        print()
        print(figure_report(rows))
    if args.csv:
        from .bench.analysis import write_csv

        write_csv(rows, args.csv)
        print("wrote %s" % args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pincer",
        description="Pincer-Search (Lin & Kedem, EDBT 1998) reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="synthesise a Quest database")
    gen.add_argument("name", help="database name, e.g. T10.I4.D100K")
    gen.add_argument("--out", required=True, help="output file")
    gen.add_argument("--patterns", type=int, default=2000, help="|L|")
    gen.add_argument("--items", type=int, default=1000, help="N")
    gen.add_argument(
        "--transactions", type=int, default=None,
        help="override |D| from the name",
    )
    gen.add_argument("--seed", type=int, default=0)
    _add_obs_flags(gen)
    gen.set_defaults(handler=_cmd_generate)

    snap = commands.add_parser(
        "snapshot",
        help="serialise a database's packed vertical index to a "
        "memory-mappable .snap file",
    )
    snap.add_argument("input", help="database file (.dat/.basket/.csv/.json)")
    snap.add_argument(
        "--out", default=None, metavar="PATH",
        help="snapshot path (default: the input file plus .snap)",
    )
    snap.add_argument(
        "--partitions", type=int, default=None, metavar="K",
        help="split the snapshot into K row partitions (default: one; "
        "each independently memory-mappable for out-of-core mining)",
    )
    snap.add_argument(
        "--partition-rows", type=int, default=None, metavar="N",
        help="split the snapshot into partitions of ~N rows "
        "(rounded up to a multiple of 64)",
    )
    _add_obs_flags(snap)
    snap.set_defaults(handler=_cmd_snapshot)

    mine = commands.add_parser("mine", help="discover the maximum frequent set")
    _add_mine_flags(mine)
    mine.add_argument(
        "--show-passes", action="store_true", help="print per-pass stats"
    )
    _add_obs_flags(mine)
    mine.set_defaults(handler=_cmd_mine)

    rules = commands.add_parser("rules", help="mine and emit association rules")
    _add_mine_flags(rules)
    rules.add_argument(
        "--min-confidence", type=float, default=80.0, metavar="PCT"
    )
    rules.add_argument(
        "--depth", type=int, default=2,
        help="how far below the maximal itemsets to expand",
    )
    rules.add_argument("--min-lift", type=float, default=0.0)
    rules.add_argument("--top", type=int, default=None)
    _add_obs_flags(rules)
    rules.set_defaults(handler=_cmd_rules)

    keys = commands.add_parser(
        "keys", help="discover the minimal keys of a CSV relation"
    )
    keys.add_argument("input", help="CSV file; first row is the header")
    keys.add_argument(
        "--no-header", action="store_true",
        help="treat the first row as data (columns get default names)",
    )
    _add_obs_flags(keys)
    keys.set_defaults(handler=_cmd_keys)

    bench = commands.add_parser("bench", help="run a paper experiment")
    bench.add_argument(
        "experiment",
        help="experiment id, e.g. fig4-t20-i15 (see DESIGN.md)",
    )
    bench.add_argument(
        "--scale", type=int, default=None, help="|D| override (default 10000)"
    )
    bench.add_argument(
        "--min-support", type=float, action="append", metavar="PCT",
        help="override the support sweep (repeatable)",
    )
    bench.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="per-miner time budget for a cell (Apriori may DNF)",
    )
    bench.add_argument(
        "--chart", action="store_true",
        help="also render the figure's panels as text bar charts",
    )
    bench.add_argument(
        "--csv", default=None, metavar="PATH",
        help="export the cells as CSV",
    )
    _add_obs_flags(bench)
    bench.set_defaults(handler=_cmd_bench)

    # serve and the obs subcommands are listed for --help only: main()
    # hands their arguments to each module's own main before parsing
    serve = commands.add_parser(
        "serve",
        help="answer mining queries over a unix socket from one "
        "resident session (line-delimited JSON protocol)",
        add_help=False,
    )
    serve.add_argument("rest", nargs=argparse.REMAINDER)

    obs_cmd = commands.add_parser(
        "obs", help="validate, export or report a recorded trace/metrics file"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_validate = obs_sub.add_parser(
        "validate",
        help="check trace, metrics and access-log files against the schema",
        add_help=False,
    )
    obs_validate.add_argument("rest", nargs=argparse.REMAINDER)
    obs_export = obs_sub.add_parser(
        "export",
        help="convert a trace to Perfetto JSON or metrics to Prometheus text",
        add_help=False,
    )
    obs_export.add_argument("rest", nargs=argparse.REMAINDER)
    obs_report = obs_sub.add_parser(
        "report",
        help="print a span-tree profile of a recorded trace",
        add_help=False,
    )
    obs_report.add_argument("rest", nargs=argparse.REMAINDER)
    obs_top = obs_sub.add_parser(
        "top",
        help="live console over a serve daemon's query plane "
        "(--serve SOCKET)",
        add_help=False,
    )
    obs_top.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # delegated subcommands keep their own argparse flag surface; hand
    # everything past the two-word prefix to the module's main()
    if argv[:1] == ["serve"]:
        from .serve import main as serve_main

        return serve_main(argv[1:])
    if argv[:2] == ["obs", "validate"]:
        from .obs.schema import main as validate_main

        return validate_main(argv[2:])
    if argv[:2] == ["obs", "export"]:
        from .obs.export import main as export_main

        return export_main(argv[2:])
    if argv[:2] == ["obs", "report"]:
        from .obs.report import main as report_main

        return report_main(argv[2:])
    if argv[:2] == ["obs", "top"]:
        from .obs.top import main as top_main

        return top_main(argv[2:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level)
    if args.profile and not args.trace:
        parser.error("--profile requires --trace (profiles land on spans)")
    obs = capture(
        trace_path=args.trace,
        metrics_path=args.metrics_out,
        producer="pincer-cli",
        profile=args.profile,
        progress=args.progress,
        trace_max_events=args.trace_max_events,
    )
    args.obs = obs
    sampler = None
    if args.profile_stacks:
        from .obs.resources import SamplingProfiler

        sampler = SamplingProfiler()
        sampler.start()
    try:
        with obs.span("command", command=args.command):
            return args.handler(args)
    finally:
        obs.finish()
        if sampler is not None:
            sampler.stop()
            sampler.write(args.profile_stacks)


if __name__ == "__main__":
    sys.exit(main())
