"""Compare two ledger records metric by metric against the benchmark's bounds.

    python3 ledger/compare.py A.json B.json

``A`` is the base (the parent commit, or the first set of runs) and ``B``
the candidate; both are ``run.py --out`` records.  For every workload in
both and every end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and spread (interquartile range over median), the change,
and a verdict:

``ok``
    B's median is no worse than A's by more than the bound;
``regressed``
    B's median is worse than A's by more than the bound;
``unresolved``
    either side's spread exceeds the bound, so the runs cannot tell —
    unless every B sample beats every A sample, which reads ``better``.

Per-layer counts are compared for exact equality (``same``/``differs``);
per-layer times are listed with their change, without a verdict.  The
exit code is 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def spread(entry: Dict) -> float:
    """Interquartile range of the per-round values over the reported value."""
    return (entry["q3"] - entry["q1"]) / entry["value"]


def verdict(base: Dict, new: Dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new["value"] - base["value"]) / base["value"]
    if all(sign * (b - a) < 0 for a in base["values"] for b in new["values"]):
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(base: Dict, new: Dict, bench: Dict) -> List[str]:
    """Report lines; a line with a ``regressed`` verdict marks a failure."""
    lines = []
    header = "%-18s %-28s %12s %7s %12s %7s %8s  %s" % (
        "workload", "metric", "A value", "A iqr", "B value", "B iqr",
        "change", "verdict")
    lines.append(header)
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        runs_a = base["workloads"][workload]["results"]
        runs_b = new["workloads"][workload]["results"]
        if "0" in runs_a and "0" in runs_b:
            for spec in bench["end_to_end"]:
                a = runs_a["0"]["metrics"][spec["name"]]
                b = runs_b["0"]["metrics"][spec["name"]]
                lines.append("%-18s %-28s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%%  %s" % (
                    workload, spec["name"], a["value"], 100 * spread(a),
                    b["value"], 100 * spread(b),
                    100 * (b["value"] - a["value"]) / a["value"],
                    verdict(a, b, spec["bound"], spec["better"])))
        if "1" in runs_a and "1" in runs_b:
            for spec in bench["per_layer"]:
                a = runs_a["1"]["layers"][spec["name"]]
                b = runs_b["1"]["layers"][spec["name"]]
                if spec["unit"] == "count":
                    state = "same" if a == b else "differs"
                else:
                    state = ""
                change = 100 * (b - a) / a if a else 0.0
                lines.append("%-18s %-28s %12.6g %7s %12.6g %7s %+7.1f%%  %s" % (
                    workload, spec["name"], a, "", b, "", change, state))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="record of the base runs (A)")
    parser.add_argument("new", help="record of the candidate runs (B)")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    records = []
    for path in (args.base, args.new, args.bench):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    lines = compare(*records)
    print("\n".join(lines))
    return 1 if any(line.endswith("regressed") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
