"""The layer ledger: Pincer-Search's end-to-end and per-layer cost.

Run from the repository root::

    python3 ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                          [--trace 0|1] [--scale full|smoke] [--out FILE]

Without ``--workload`` every workload runs; without ``--trace`` each
runs twice, untraced for the end-to-end metrics and traced for the
per-layer ones.  Each measurement runs in a fresh ``measure.py`` process
with one thread per numeric library.  Every answer is checked against
the reference digests (``reference.json`` for the default seed, computed
untimed for any other), and the run exits non-zero on a wrong answer.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out`` writes the full record: medians, quartiles and
sample counts, per-cell digests, the candidate-bound calibration, and
the path of the traced run's spans.

``--write-reference`` regenerates ``reference.json`` for the default
seed at both scales.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
SRC = ROOT / "src"
#: inputs, computed references, results and spans, relative to ROOT
CACHE = Path(".ledger_cache")
REFERENCE = LEDGER / "reference.json"

#: a run must end within this many seconds of its start
RUN_LIMIT_S = 175.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(spec: Dict, deadline: float) -> Dict:
    """Run ``measure.py`` on ``spec``; kill its whole group on timeout."""
    spec_path = Path(spec["work"]) / ("spec-%d.json" % spec["trace"])
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    process = subprocess.Popen(
        [sys.executable, str(LEDGER / "measure.py"), str(spec_path)],
        cwd=str(ROOT), env=_child_env(), start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError("%s ran past the time limit" % spec["workload"])
    if code != 0:
        raise RuntimeError("measure.py failed on %s (exit %d)"
                           % (spec["workload"], code))
    with open(spec["result"], encoding="utf-8") as handle:
        return json.load(handle)


def _reference(wl, workload, scale: str, seed: int, inputs, table, work: Path):
    """Reference digests for this run and where they came from."""
    answers = wl.reference_for(table, workload, scale, seed, inputs)
    if answers is not None:
        return answers, "committed"
    digests = {name: wl.file_digest(path) for name, path in inputs.items()}
    cached = work / "reference.json"
    if cached.exists():
        with open(cached, encoding="utf-8") as handle:
            entry = json.load(handle)
        if entry["inputs"] == digests:
            return entry["answers"], "computed"
    answers = wl.compute_reference(workload, inputs)
    with open(cached, "w", encoding="utf-8") as handle:
        json.dump({"inputs": digests, "answers": answers}, handle)
    return answers, "computed"


def run_workload(wl, workload, args, table, modes, deadline) -> Dict:
    work = CACHE / args.scale / workload.name / ("seed-%d" % args.seed)
    inputs = wl.prepare_inputs(workload, args.seed, work)
    reference, source = _reference(
        wl, workload, args.scale, args.seed, inputs, table, work
    )
    record = {"reference": source, "results": {}}
    for trace in modes:
        spec = {
            "workload": workload.name,
            "scale": args.scale,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": trace,
            "inputs": inputs,
            "reference": reference,
            "work": str(work),
            "result": str(work / ("result-%d.json" % trace)),
            "spans": str(work / "spans.jsonl"),
        }
        record["results"][trace] = _run_child(spec, deadline)
    return record


def write_reference(wl) -> None:
    table = {"seed": wl.DEFAULT_SEED,
             "configuration": "PincerSearch(kernel='tuple', engine='bitmap')"}
    for scale in ("full", "smoke"):
        table[scale] = {}
        for workload in wl.workloads(scale).values():
            work = CACHE / scale / workload.name / ("seed-%d" % wl.DEFAULT_SEED)
            inputs = wl.prepare_inputs(workload, wl.DEFAULT_SEED, work)
            table[scale][workload.name] = {
                "inputs": {name: wl.file_digest(path)
                           for name, path in inputs.items()},
                "answers": wl.compute_reference(workload, inputs),
            }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _fmt(value: float) -> str:
    return "%.6g" % value


def main(argv: Optional[List[str]] = None) -> int:
    started = perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write("ledger: no program source at %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description="Pincer-Search layer ledger")
    parser.add_argument("--workload", choices=sorted(wl.workloads()))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the full results record here")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="committed reference digests (default: %(default)s)")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the committed reference digests")
    args = parser.parse_args(argv)

    out = Path(args.out).resolve() if args.out else None
    reference = Path(args.reference).resolve()
    # every path the record keeps is relative to the checkout root
    os.chdir(ROOT)
    if args.write_reference:
        write_reference(wl)
        return 0
    with open(reference, encoding="utf-8") as handle:
        table = json.load(handle)
    names = [args.workload] if args.workload else list(wl.workloads(args.scale))
    modes = [args.trace] if args.trace is not None else [0, 1]
    deadline = started + RUN_LIMIT_S if args.workload else float("inf")
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}

    record = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = wl.workloads(args.scale)[name]
        entry = run_workload(wl, workload, args, table, modes, deadline)
        record["workloads"][name] = entry
        for trace, result in entry["results"].items():
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for failure in result["failures"]:
                print("%s FAILED %s" % (name, failure))
            values = result["metrics"] if trace == 0 else result["layers"]
            for spec in wanted[trace]:
                value, note = values[spec["name"]], ""
                if isinstance(value, dict):  # end-to-end: value and spread
                    note = "  (q1 %s, q3 %s, n %d)" % (
                        _fmt(value["q1"]), _fmt(value["q3"]), value["n"])
                    value = value["value"]
                print("%-18s %-28s %12s %s%s" % (
                    name, spec["name"], _fmt(value), spec["unit"], note))
                key = spec["name"] if len(names) == 1 else name + "/" + spec["name"]
                summary["metrics"][key] = {"value": value, "unit": spec["unit"]}
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
