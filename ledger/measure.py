"""One workload, measured in a fresh process.

``run.py`` starts ``python ledger/measure.py SPEC.json`` with ``src`` on
the path and one thread per numeric library, and reads back the result
file the spec names.  Plain mode sets the workload up several times and
then repeats untraced rounds for the given seconds; trace mode sets up
once, traced, then alternates untraced and traced rounds, so tracing
overhead is measured on the same data in the same process.

A one-shot round mines every cell once with a fresh default
``PincerSearch()`` (the CLI path).  A serve round starts ``pincer serve``
(or, traced, ``host.py``), waits for its first ``ping`` and answers the
seeded query plan over closed-loop client connections.

End-to-end times are reported in reference-host seconds (see
:class:`HostClock`); the record keeps the raw wall times beside them.
Per-layer times are raw.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import probe
import workloads as wl
from probe import TIME_LAYERS, TracedKernel, Tracer, trace_engine

LEDGER = Path(__file__).resolve().parent

#: a plain run sets up at least SETUP_MIN times and until SETUP_BUDGET_S
#: seconds are spent, at most SETUP_MAX times; ``setup_s`` is the median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.0

#: seconds a serve process may take to answer its first ping / to exit
SERVER_START_TIMEOUT = 60.0
SERVER_EXIT_TIMEOUT = 30.0

#: a serve round's queries run in this many closed-loop segments, with a
#: host probe between segments, when the clients and server are idle
SERVE_SEGMENTS = 8

#: per-layer metrics that only the serve path produces
SERVE_LAYERS = (
    "core.supportcache.self_s", "core.supportcache.hit_rate",
    "serve.overhead_ms", "serve.eta_over_actual", "serve.rejected",
)

#: the host-speed probe: PROBE_REPEATS runs of a PROBE_LOOPS-iteration
#: loop, and its time on the reference host (2 vCPU Xeon at 2.1 GHz,
#: CPython 3.11, when quiet)
PROBE_LOOPS, PROBE_REPEATS = 40_000, 5
PROBE_REFERENCE_S = 0.0105


def probe_host() -> float:
    """Seconds the fixed probe takes right now.

    The median of short runs, scaled to all of them: it follows the
    host's slow spells but not a millisecond hiccup during one run.
    """
    runs = []
    for _ in range(PROBE_REPEATS):
        started = perf_counter()
        total = 0
        for value in range(PROBE_LOOPS):
            total += value * value
        runs.append(perf_counter() - started)
    return PROBE_REPEATS * statistics.median(runs)


class HostClock:
    """Wall time rescaled to the reference host's speed.

    A shared host's speed wanders: on the reference machine the median
    time of a fixed loop moved by up to 80% over tens of seconds, in
    spells that outlast a whole run, so no number of rounds averages
    them out.  Mine time
    follows the loop's (correlation 0.93 over 90 s of alternating
    samples), so :func:`probe_host` runs between measured calls and each
    call's time is scaled by :data:`PROBE_REFERENCE_S` over the mean of
    the probes on either side.  The measuring process is pinned to one
    CPU, because the host slows its CPUs independently.
    """

    def __init__(self) -> None:
        self._probe = probe_host()

    def measure(self, function, *args):
        """``(result, raw seconds, reference seconds)`` of one call."""
        before = self._probe
        started = perf_counter()
        result = function(*args)
        raw = perf_counter() - started
        self._probe = probe_host()
        return result, raw, raw * self.scale(before, self._probe)

    @staticmethod
    def scale(before: float, after: float) -> float:
        return 2 * PROBE_REFERENCE_S / (before + after)


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def metric(values: List[float], unit: str, value: Optional[float] = None,
           **extra) -> Dict:
    """A reported metric: ``value`` (default: the median of ``values``)
    with the per-round ``values`` and their quartiles beside it."""
    entry = quartiles(values)
    entry.update(
        value=entry["median"] if value is None else value,
        unit=unit, values=values, **extra,
    )
    return entry


def _enough_setups(setups: List[float]) -> bool:
    return len(setups) >= SETUP_MAX or (
        len(setups) >= SETUP_MIN and sum(setups) >= SETUP_BUDGET_S
    )


def _step(tracer: Optional[Tracer], name: str, function, *args):
    """``function(*args)``, recorded as span ``name`` when tracing."""
    if tracer is None:
        return function(*args)
    return tracer.wrap(name, function)(*args)


# ----------------------------------------------------------------------
# one-shot workloads
# ----------------------------------------------------------------------


def setup(workload: wl.Workload, inputs: Dict[str, str], tracer=None) -> Dict:
    """Load every dataset, build its item bitmaps and decide its engine."""
    from repro.db import io as db_io
    from repro.db.counting import engine_decision

    dbs = {}
    for dataset in workload.datasets:
        db = _step(tracer, "db.load", db_io.load, inputs[dataset.name])
        _step(tracer, "db.bitmaps", db.item_bitmaps)
        _step(tracer, "db.decide", engine_decision, db, "auto")
        dbs[dataset.name] = db
    return dbs


def plain_sweep(workload: wl.Workload, dbs: Dict, clock: HostClock):
    """Mine every cell once, untraced.

    Returns (reference seconds, raw seconds, digests, passes) per cell.
    """
    from repro.core.pincer import PincerSearch

    seconds, raw, digests, passes = [], [], {}, 0
    for dataset in workload.datasets:
        db = dbs[dataset.name]
        for support in dataset.cells:
            result, wall, scaled = clock.measure(
                PincerSearch().mine, db, support / 100.0
            )
            seconds.append(scaled)
            raw.append(wall)
            digests[wl.cell_key(dataset.name, support)] = wl.mfs_digest(result.mfs)
            passes += result.stats.num_passes
    return seconds, raw, digests, passes


def traced_mine(db, support: float, tracer: Tracer, key: str):
    """One cell mined with traced kernel and engine instances injected.

    Resolving the engine here, with ``engine_decision`` and
    ``get_counter``, is what ``PincerSearch().mine`` does inside; doing
    it outside lets the ledger wrap the engine instance it mines with.
    """
    from repro.core.pincer import PincerSearch
    from repro.db.counting import engine_decision, get_counter

    root = tracer.begin("pincer.mine", cell=key)
    tracer.pass_ordinal = 0
    try:
        decision = _step(tracer, "db.decide", engine_decision, db, "auto")
        counter = get_counter(decision.engine)
        trace_engine(counter, tracer)
        try:
            return PincerSearch(kernel=TracedKernel(db.universe, tracer)).mine(
                db, support / 100.0, counter=counter
            )
        finally:
            counter.close()
    finally:
        tracer.end(root)


def traced_sweep(workload: wl.Workload, dbs: Dict, clock: HostClock):
    """The same sweep, traced: (reference seconds, raw seconds, digests,
    one tracer per cell)."""
    seconds, raw, digests, tracers = [], [], {}, {}
    for dataset in workload.datasets:
        db = dbs[dataset.name]
        for support in dataset.cells:
            key = wl.cell_key(dataset.name, support)
            tracers[key] = Tracer()
            result, wall, scaled = clock.measure(
                traced_mine, db, support, tracers[key], key
            )
            seconds.append(scaled)
            raw.append(wall)
            digests[key] = wl.mfs_digest(result.mfs)
    return seconds, raw, digests, tracers


def run_oneshot(workload: wl.Workload, spec: Dict) -> Dict:
    inputs, reference = spec["inputs"], spec["reference"]
    trace = spec["trace"]
    failures: List[str] = []
    attempted = 0

    def check(digests: Dict[str, str], label: str) -> None:
        nonlocal attempted
        for key, digest in digests.items():
            attempted += 1
            if reference.get(key) != digest:
                failures.append("%s %s: MFS digest %s != reference %s"
                                % (label, key, digest[:12],
                                   str(reference.get(key))[:12]))

    clock = HostClock()
    setups: List[float] = []
    setups_raw: List[float] = []
    setup_tracer = Tracer() if trace else None
    dbs = None
    while not setups or not (trace or _enough_setups(setups_raw)):
        dbs = None  # drop the previous set-up before timing the next
        gc.collect()
        dbs, wall, scaled = clock.measure(setup, workload, inputs, setup_tracer)
        setups.append(scaled)
        setups_raw.append(wall)

    plain_rounds: List[List[float]] = []
    plain_raw: List[List[float]] = []
    passes: List[int] = []
    traced_rounds: List[Dict] = []
    digests: Dict[str, Dict[str, str]] = {}

    def plain() -> None:
        seconds, raw, digests["untraced"], round_passes = plain_sweep(
            workload, dbs, clock
        )
        plain_rounds.append(seconds)
        plain_raw.append(raw)
        passes.append(round_passes)
        check(digests["untraced"], "untraced")

    def traced() -> None:
        seconds, raw, digests["traced"], tracers = traced_sweep(workload, dbs, clock)
        check(digests["traced"], "traced")
        layers = probe.layers(list(tracers.values()))
        traced_rounds.append({
            "reference_s": sum(seconds),
            "wall_s": sum(raw),
            "attributed_s": sum(layers[name] for name in TIME_LAYERS),
            "layers": layers,
            "cells": {key: tracer.layers() for key, tracer in tracers.items()},
            "calibration": [dict(entry, cell=key) for key, tracer in tracers.items()
                            for entry in tracer.calibration],
        })
        if len(traced_rounds) == 1:
            with open(spec["spans"], "w", encoding="utf-8") as handle:
                for key, tracer in tracers.items():
                    tracer.write_jsonl(handle, cell=key)

    deadline = perf_counter() + spec["seconds"]
    while True:
        # traced and untraced rounds come in pairs, each side first in turn
        order = (plain, traced) if len(plain_rounds) % 2 == 0 else (traced, plain)
        for step in order if trace else (plain,):
            step()
        if perf_counter() >= deadline:
            break

    sweeps = [sum(seconds) for seconds in plain_rounds]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "rounds": len(plain_rounds),
        "cell_seconds": plain_rounds,
        "cell_raw_seconds": plain_raw,
        "setup_raw_seconds": setups_raw,
        "passes": passes,
        "digests": digests,
    }
    if not trace:
        # each cell's median over the rounds: a slow spell on a shared
        # host then spoils one sample of one cell, not a whole round
        cells = [statistics.median(column) for column in zip(*plain_rounds)]
        sweep = sum(cells)
        samples = sum(len(s) for s in plain_rounds)
        result["metrics"] = {
            "sweep_s": metric(sweeps, "s", value=sweep),
            "query_p50_ms": metric(
                [1000 * percentile(s, 0.5) for s in plain_rounds], "ms",
                value=1000 * percentile(cells, 0.5), samples=samples,
            ),
            "query_p95_ms": metric(
                [1000 * percentile(s, 0.95) for s in plain_rounds], "ms",
                value=1000 * percentile(cells, 0.95), samples=samples,
            ),
            "qps": metric([len(s) / sum(s) for s in plain_rounds], "1/s",
                          value=len(cells) / sweep),
            "setup_s": metric(setups, "s"),
            # VmHWM, not ru_maxrss: the latter survives exec, so it would
            # report the parent's memory when that is the larger
            "peak_rss_mb": metric([_peak_rss_mb(os.getpid())], "MB"),
        }
        return result

    layers = _median_layers([entry["layers"] for entry in traced_rounds])
    for name in ("db.load_s", "db.bitmaps_s", "db.decide_s"):
        layers[name] += setup_tracer.layers()[name]
    layers.update(dict.fromkeys(SERVE_LAYERS, 0.0))
    layers["db.passes"] = statistics.median_low(passes)
    layers["trace.overhead_pct"] = _overhead_pct(
        [entry["reference_s"] for entry in traced_rounds], sweeps
    )
    cell_seconds = list(zip(*plain_raw))
    result.update(
        layers=layers,
        cells={
            key: dict(
                _median_layers([entry["cells"][key] for entry in traced_rounds]),
                untraced_s=statistics.median(cell_seconds[index]),
            )
            for index, key in enumerate(traced_rounds[0]["cells"])
        },
        sums=[{key: entry[key] for key in ("wall_s", "attributed_s")}
              for entry in traced_rounds],
        counts_repeat=_counts_repeat([entry["layers"] for entry in traced_rounds])
        and len(set(passes)) == 1,
        calibration=traced_rounds[0]["calibration"],
        traced_rounds=len(traced_rounds),
        spans=spec["spans"],
    )
    return result


def _overhead_pct(traced: List[float], plain: List[float]) -> float:
    """Median over paired rounds of the traced round's extra time, in %."""
    return statistics.median(
        100.0 * (with_trace - without) / without
        for with_trace, without in zip(traced, plain)
    )


def _median_layers(rounds: List[Dict]) -> Dict[str, float]:
    """Per-metric median over rounds; counts stay whole numbers."""
    return {
        name: (statistics.median_low if isinstance(value, int) else statistics.median)(
            entry[name] for entry in rounds
        )
        for name, value in rounds[0].items()
    }


def _counts_repeat(rounds: List[Dict]) -> bool:
    counts = [
        {name: value for name, value in entry.items() if isinstance(value, int)}
        for entry in rounds
    ]
    return all(entry == counts[0] for entry in counts)


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------


class Connection:
    """One persistent line-JSON client connection to ``pincer serve``."""

    def __init__(self, path: str) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(120.0)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def call(self, message: Dict) -> Dict:
        self._sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def _await_ping(path: str, process: subprocess.Popen) -> None:
    from repro.serve import request

    deadline = perf_counter() + SERVER_START_TIMEOUT
    while True:
        if process.poll() is not None:
            raise RuntimeError("server exited with %s before answering"
                               % process.returncode)
        try:
            if request(path, {"op": "ping"}, timeout=5.0).get("ok"):
                return
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        if perf_counter() > deadline:
            raise TimeoutError("server did not answer ping")
        threading.Event().wait(0.002)


def _peak_rss_mb(pid: int) -> float:
    """The process's resident high-water mark (Linux ``VmHWM``)."""
    with open("/proc/%d/status" % pid, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def _closed_loop(connections: List[Connection], plan: List[Dict]):
    """Answer ``plan`` over ``connections``, each client waiting for its
    reply before sending its next query.  Returns (seconds, samples)."""
    pending = iter(enumerate(plan))
    take = threading.Lock()
    samples: List = [None] * len(plan)

    def client(connection: Connection) -> None:
        while True:
            with take:
                item = next(pending, None)
            if item is None:
                return
            index, query = item
            started = perf_counter()
            try:
                reply = connection.call(query)
            except (OSError, ValueError) as exc:
                reply = {"ok": False, "error": repr(exc)}
            samples[index] = (perf_counter() - started, reply)

    threads = [threading.Thread(target=client, args=(connection,))
               for connection in connections]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    seconds = perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("serve clients did not finish")
    return seconds, samples


def _answer(path: str, plan: List[Dict], clients: int, probe_before: float):
    """The plan in :data:`SERVE_SEGMENTS` closed-loop segments, the host
    probed between them while clients and server are idle.

    Returns (raw seconds, reference seconds, samples); a sample is
    ``(latency, reference latency, reply)``, or None if never answered.
    """
    connections = [Connection(path) for _ in range(clients)]
    try:
        raw = scaled = 0.0
        answered: List = []
        size = -(-len(plan) // SERVE_SEGMENTS)
        before = probe_before
        for start in range(0, len(plan), size):
            seconds, samples = _closed_loop(connections, plan[start:start + size])
            after = probe_host()
            scale = HostClock.scale(before, after)
            raw += seconds
            scaled += seconds * scale
            answered.extend(
                None if sample is None
                else (sample[0], sample[0] * scale, sample[1])
                for sample in samples
            )
            before = after
        return raw, scaled, answered
    finally:
        for connection in connections:
            connection.close()


def serve_round(workload, spec, plan, traced: bool, index: int) -> Dict:
    from repro.serve import request

    basket = spec["inputs"][workload.datasets[0].name]
    work = Path(spec["work"])
    sock = os.path.relpath(work / ("serve-%d.sock" % os.getpid()))
    if traced:
        layers_path = work / "host-layers.json"
        command = [
            sys.executable, str(LEDGER / "host.py"), basket, "--socket", sock,
            "--out", str(layers_path), "--spans", spec["spans"],
        ]
    else:
        command = [sys.executable, "-m", "repro.cli", "serve", basket,
                   "--socket", sock]
    probe_before = probe_host()
    with open(work / "server.log", "ab") as log:
        started = perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=log)
        try:
            _await_ping(sock, process)
            setup_s = perf_counter() - started
            probe_ready = probe_host()
            loop_s, scaled_loop_s, samples = _answer(
                sock, plan, workload.clients, probe_ready
            )
            stats = request(sock, {"op": "stats"})
            rss = _peak_rss_mb(process.pid)
            request(sock, {"op": "shutdown"})
            process.wait(timeout=SERVER_EXIT_TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    if process.returncode != 0:
        raise RuntimeError("server exited with %s" % process.returncode)

    reference = spec["reference"]
    failures = []
    latencies, overheads, eta_ratios = [], [], []
    rejected = 0
    answered = []
    for query, sample in zip(plan, samples):
        if sample is None:
            failures.append("query never answered: %s" % query)
            continue
        latency, scaled_latency, reply = sample
        latencies.append(scaled_latency)
        if not reply.get("ok"):
            rejected += reply.get("error") == "busy"
            failures.append("%s@%g: %s" % (query["op"], query["min_support"],
                                           reply.get("error")))
            continue
        overheads.append(latency - reply["seconds"])
        if reply.get("eta_seconds") is not None:
            eta_ratios.append(reply["eta_seconds"] / latency)
        answered.append((query, reply))

    # mine answers first: a checked MFS is what a rules answer is read against
    verified_mfs = {}
    for query, reply in sorted(answered, key=lambda pair: pair[0]["op"] != "mine"):
        key = "%s@%g" % (query["op"], query["min_support"])
        if query["op"] == "mine":
            digest = wl.mfs_digest(reply["mfs"])
            if digest == reference.get(key):
                verified_mfs[query["min_support"]] = reply["mfs"]
        elif query["min_support"] not in verified_mfs:
            failures.append("round %d %s: no checked MFS to read it against"
                            % (index, key))
            continue
        else:
            digest = wl.rules_digest(
                ((rule["antecedent"], rule["consequent"], rule["support"],
                  rule["confidence"]) for rule in reply["rules"]),
                verified_mfs[query["min_support"]],
            )
        if reference.get(key) != digest:
            failures.append("round %d %s: digest %s != reference %s"
                            % (index, key, digest[:12], str(reference.get(key))[:12]))
    entry = {
        "traced": traced,
        "setup_s": setup_s * HostClock.scale(probe_before, probe_ready),
        "loop_s": scaled_loop_s,
        "raw_setup_s": setup_s,
        "raw_loop_s": loop_s,
        "latencies": latencies,
        "p50_ms": 1000 * percentile(latencies, 0.5),
        "p95_ms": 1000 * percentile(latencies, 0.95),
        "qps": len(latencies) / scaled_loop_s,
        "rss_mb": rss,
        "overhead_ms": 1000 * statistics.median(overheads) if overheads else 0.0,
        "eta_over_actual": statistics.median(eta_ratios) if eta_ratios else 0.0,
        "rejected": rejected,
        "passes": stats["session"]["passes"],
        "attempted": len(plan),
        "failures": failures,
    }
    if traced:
        with open(layers_path, encoding="utf-8") as handle:
            entry["host"] = json.load(handle)
    return entry


def run_serve(workload: wl.Workload, spec: Dict) -> Dict:
    trace = spec["trace"]
    plan = wl.serve_plan(workload, spec["seed"])
    rounds: List[Dict] = []
    deadline = perf_counter() + spec["seconds"]
    while True:
        # traced rounds pair with untraced ones, each side first in turn:
        # untraced, traced, traced, untraced, ...
        tracing = trace and len(rounds) % 4 in (1, 2)
        rounds.append(serve_round(workload, spec, plan, tracing, len(rounds)))
        if perf_counter() >= deadline and (not trace or len(rounds) % 2 == 0):
            break
    failures = [failure for entry in rounds for failure in entry["failures"]]
    plain = [entry for entry in rounds if not entry["traced"]]
    result = {
        "correct": not failures,
        "attempted": sum(entry["attempted"] for entry in rounds),
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": len(rounds),
        "passes": [entry["passes"] for entry in plain],
        "raw_loop_seconds": [entry["raw_loop_s"] for entry in plain],
        "raw_setup_seconds": [entry["raw_setup_s"] for entry in plain],
    }
    if not trace:
        # percentiles over every query of every round
        pooled = [latency for e in plain for latency in e["latencies"]]
        result["metrics"] = {
            "sweep_s": metric([e["loop_s"] for e in plain], "s"),
            "query_p50_ms": metric([e["p50_ms"] for e in plain], "ms",
                                   value=1000 * percentile(pooled, 0.5),
                                   samples=len(pooled)),
            "query_p95_ms": metric([e["p95_ms"] for e in plain], "ms",
                                   value=1000 * percentile(pooled, 0.95),
                                   samples=len(pooled)),
            "qps": metric([e["qps"] for e in plain], "1/s"),
            "setup_s": metric([e["setup_s"] for e in plain], "s"),
            "peak_rss_mb": metric([e["rss_mb"] for e in plain], "MB"),
        }
        return result

    traced = [entry for entry in rounds if entry["traced"]]
    layers = _median_layers([entry["host"]["layers"] for entry in traced])
    layers.update({
        "db.passes": statistics.median_low(e["passes"] for e in plain),
        "serve.overhead_ms": statistics.median(e["overhead_ms"] for e in plain),
        "serve.eta_over_actual": statistics.median(
            e["eta_over_actual"] for e in plain
        ),
        "serve.rejected": sum(e["rejected"] for e in rounds),
        "trace.overhead_pct": _overhead_pct(
            [e["loop_s"] for e in traced], [e["loop_s"] for e in plain]
        ),
    })
    result.update(
        layers=layers,
        calibration=traced[0]["host"]["calibration"],
        traced_rounds=len(traced),
        spans=spec["spans"],
    )
    return result


def main(argv: List[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = wl.workloads(spec["scale"])[spec["workload"]]
    # one CPU for the measuring process and the server it starts: a
    # shared host slows its CPUs independently, and a probe describes
    # only the CPU it ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if workload.kind == "serve":
        result = run_serve(workload, spec)
    else:
        result = run_oneshot(workload, spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
