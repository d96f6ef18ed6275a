"""Spans recorded from outside the program, around its public calls.

The ledger never edits ``src/``.  It injects instances the miners accept
(a lattice kernel, a counting engine, a session's cached counter) whose
public methods it has wrapped, keeps every span in memory, and reduces
them to per-layer self times when the run ends.

Two kinds of wrapper:

* a **span** wraps a coarse call (one counting pass, one candidate
  generation, one MFCS-gen update) and is kept as a record with its
  name, start, end and parent;
* a **leaf** wraps a hot call (one cover probe, up to ~10^5 per mine) and
  only adds to a per-name call count and time, which cost one clock pair
  per call instead of a record.

A span's self time is its duration minus its child spans' durations and
minus the leaf time spent inside it but outside those children.  Calls
are assumed to be serialized: the one-shot child is single-threaded,
and the serve host holds a lock around each query.

Only public methods can be wrapped.  MFCS-gen's pair-split fast path
queries its cover index through a private method, so those probes are
neither counted nor timed as probes: their time stays in the
``core.mfcs.update`` self time.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.bitset import candidate_upper_bound
from repro.core.kernel import BitmaskKernel

#: span name -> per-layer metric that sums the spans' self times
SPAN_LAYERS = {
    "db.load": "db.load_s",
    "db.bitmaps": "db.bitmaps_s",
    "db.decide": "db.decide_s",
    "core.supportcache": "core.supportcache.self_s",
    "core.kernel.join": "core.kernel.join_s",
    "core.kernel.prune": "core.kernel.prune_s",
    "core.kernel.recovery": "core.kernel.recovery_s",
    "core.kernel.generate": "core.kernel.generate_s",
    "core.mfcs.update": "core.mfcs.update_s",
    "pincer.mine": "core.pincer.self_s",
    "session.mine": "core.pincer.self_s",
    "session.rules": "core.pincer.self_s",
}

#: leaf name -> per-layer metric of its total time
LEAF_LAYERS = {
    "core.mfcs.probe": "core.mfcs.probe_s",
    "core.cover.probe": "core.cover.probe_s",
    "core.cover.add": "core.cover.add_s",
}

#: counting passes by ordinal within one query: 1, 2, then every later one
PASS_LAYERS = ("db.count.pass1_s", "db.count.pass2_s", "db.count.passk_s")

#: every time metric a traced round attributes; their sum is the round
TIME_LAYERS = tuple(
    sorted(set(SPAN_LAYERS.values()) | set(LEAF_LAYERS.values()) | set(PASS_LAYERS))
)

#: work counts gathered at the same boundaries
COUNT_LAYERS = (
    "db.count.calls", "db.count.candidates", "db.count.records",
    "core.mfcs.updates", "core.mfcs.splits", "core.mfcs.probes",
    "core.cover.probes", "core.kernel.candidates_out",
)


class Tracer:
    """In-memory span recorder with per-name leaf accumulators."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        #: [calls, seconds] per leaf name, and all leaf seconds so far
        self.leaves: Dict[str, List[float]] = {}
        self._leaf_total = [0.0]
        #: counting passes since the current query began
        self.pass_ordinal = 0
        #: per-pass predicted candidate bound against generated candidates
        self.calibration: List[dict] = []
        self.counts: Dict[str, int] = {}
        self.request_id: Optional[str] = None

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, **attrs) -> dict:
        record = {
            "name": name,
            "start": perf_counter(),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "id": len(self.spans),
            "child_s": 0.0,
            "child_leaf_s": 0.0,
            "leaf0": self._leaf_total[0],
        }
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if attrs:
            record.update(attrs)
        self.spans.append(record)
        self._stack.append(record)
        return record

    def end(self, record: dict) -> None:
        record["end"] = end = perf_counter()
        record["leaf_s"] = self._leaf_total[0] - record.pop("leaf0")
        popped = self._stack.pop()
        if popped is not record:
            raise RuntimeError("span %s closed out of order" % record["name"])
        if self._stack:
            parent = self._stack[-1]
            parent["child_s"] += end - record["start"]
            parent["child_leaf_s"] += record["leaf_s"]

    def wrap(self, name: str, function):
        """``function`` recorded as a span per call."""
        def traced(*args, **kwargs):
            record = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(record)

        return traced

    def leaf(self, name: str, function):
        """``function`` timed into the ``name`` accumulator per call."""
        slot = self.leaves.setdefault(name, [0, 0.0])
        total = self._leaf_total
        clock = perf_counter

        def timed(*args):
            started = clock()
            result = function(*args)
            elapsed = clock() - started
            slot[0] += 1
            slot[1] += elapsed
            total[0] += elapsed
            return result

        return timed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- reduction -----------------------------------------------------

    @staticmethod
    def self_time(record: dict) -> float:
        return (
            record["end"] - record["start"] - record["child_s"]
            - (record["leaf_s"] - record["child_leaf_s"])
        )

    def layers(self) -> Dict[str, float]:
        return layers([self])

    def write_jsonl(self, handle, **extra) -> None:
        """Append every span to ``handle`` as one JSON line, plus ``extra``."""
        for record in self.spans:
            out = {key: record[key] for key in ("id", "name", "start", "end", "parent")}
            out["self_s"] = self.self_time(record)
            for key, value in record.items():
                if key not in out and key not in ("child_s", "child_leaf_s", "leaf_s"):
                    out[key] = value
            out.update(extra)
            handle.write(json.dumps(out) + "\n")


def layers(tracers: List[Tracer]) -> Dict[str, float]:
    """Per-layer metrics of ``tracers`` together: self times, leaf times,
    work counts and the candidate-bound calibration ratio."""
    values: Dict[str, float] = dict.fromkeys(TIME_LAYERS, 0.0)
    values.update(dict.fromkeys(COUNT_LAYERS, 0))
    predicted = actual = 0
    for tracer in tracers:
        for record in tracer.spans:
            if record["name"] == "db.count":
                metric = PASS_LAYERS[min(record["ordinal"], 3) - 1]
            else:
                metric = SPAN_LAYERS.get(record["name"])
            if metric is not None:
                values[metric] += Tracer.self_time(record)
        for name, (calls, seconds) in tracer.leaves.items():
            values[LEAF_LAYERS[name]] += seconds
        values["core.cover.probes"] += tracer.leaves.get("core.cover.probe", [0])[0]
        values["core.mfcs.probes"] += tracer.leaves.get("core.mfcs.probe", [0])[0]
        for name, count in tracer.counts.items():
            values[name] += count
        predicted += sum(entry["predicted"] for entry in tracer.calibration)
        actual += sum(entry["actual"] for entry in tracer.calibration)
    values["core.kernel.bound_ratio"] = actual / predicted if predicted else 0.0
    return values


# ----------------------------------------------------------------------
# instrumented instances
# ----------------------------------------------------------------------


class TracedKernel(BitmaskKernel):
    """The default bitmask kernel with its public calls traced.

    Passed to ``PincerSearch(kernel=...)`` or ``MiningSession(kernel=...)``
    as an instance, which ``make_kernel`` hands through unchanged.  The
    MFCS it builds has ``update`` traced and its cover index's probes
    timed as MFCS probes; every other cover it builds (the MFS) has its
    probes and inserts timed as cover operations.
    """

    def __init__(self, universe, tracer: Tracer) -> None:
        super().__init__(universe)
        self.tracer = tracer
        self._building_mfcs = False

    def make_cover(self, members=()):
        cover = super().make_cover(members)
        tracer = self.tracer
        probe = "core.mfcs.probe" if self._building_mfcs else "core.cover.probe"
        cover.covers_mask = tracer.leaf(probe, cover.covers_mask)
        cover.supersets_masks = tracer.leaf(probe, cover.supersets_masks)
        if not self._building_mfcs:
            cover.add = tracer.leaf("core.cover.add", cover.add)
        return cover

    def make_mfcs(self, universe):
        return self._traced_mfcs(super().make_mfcs, universe)

    def make_mfcs_from(self, elements):
        return self._traced_mfcs(super().make_mfcs_from, elements)

    def _traced_mfcs(self, build, argument):
        self._building_mfcs = True
        try:
            mfcs = build(argument)
        finally:
            self._building_mfcs = False
        tracer = self.tracer
        update = mfcs.update

        def traced_update(*args, **kwargs):
            splits_before = mfcs.splits
            try:
                return update(*args, **kwargs)
            finally:
                tracer.count("core.mfcs.updates")
                tracer.count("core.mfcs.splits", mfcs.splits - splits_before)

        mfcs.update = tracer.wrap("core.mfcs.update", traced_update)
        return mfcs

    def apriori_join(self, level_frequents, deadline=None):
        join = self.tracer.wrap("core.kernel.join", super().apriori_join)
        return join(level_frequents, deadline)

    def apriori_prune(self, candidates, level_frequents):
        prune = self.tracer.wrap("core.kernel.prune", super().apriori_prune)
        return prune(candidates, level_frequents)

    def pincer_prune(self, candidates, level_frequents, mfs):
        prune = self.tracer.wrap("core.kernel.prune", super().pincer_prune)
        return prune(candidates, level_frequents, mfs)

    def recovery(self, level_frequents, mfs, k):
        recovery = self.tracer.wrap("core.kernel.recovery", super().recovery)
        return recovery(level_frequents, mfs, k)

    def generate_candidates(self, level_frequents, mfs, k):
        """Traced generation, logged against the Geerts–Goethals–Van den
        Bussche bound the miner predicts from the same frequent level."""
        frequents = list(level_frequents)
        tracer = self.tracer
        generate = tracer.wrap("core.kernel.generate", super().generate_candidates)
        found = generate(frequents, mfs, k)
        tracer.calibration.append({
            "k": k, "frequents": len(frequents),
            "predicted": candidate_upper_bound(len(frequents), k),
            "actual": len(found),
        })
        tracer.count("core.kernel.candidates_out", len(found))
        return found


def trace_engine(engine, tracer: Tracer) -> None:
    """Record every billed counting pass of ``engine`` as a ``db.count`` span."""
    count = engine.count

    def traced_count(db, candidates):
        batch = candidates if isinstance(candidates, list) else list(candidates)
        if not batch:
            return count(db, batch)
        tracer.pass_ordinal += 1
        records_before = engine.records_read
        record = tracer.begin(
            "db.count", ordinal=tracer.pass_ordinal, candidates=len(batch)
        )
        try:
            return count(db, batch)
        finally:
            tracer.end(record)
            tracer.count("db.count.calls")
            tracer.count("db.count.candidates", len(batch))
            tracer.count("db.count.records", engine.records_read - records_before)

    engine.count = traced_count


def trace_session(session, tracer: Tracer, lock: "threading.RLock") -> None:
    """Trace a :class:`MiningSession`'s queries, cache facade and engine.

    ``lock`` serializes whole queries so spans of concurrent requests
    never interleave; the session's own lock already serializes mining.
    """
    cached = session.counter
    trace_engine(cached.inner, tracer)
    # the facade forwards attribute writes to the engine it wraps, so the
    # traced ``count`` goes into its own instance dict directly
    object.__setattr__(
        cached, "count", tracer.wrap("core.supportcache", cached.count)
    )
    for name in ("mine", "rules"):
        method = getattr(session, name)

        def traced(*args, _method=method, _name="session." + name, **kwargs):
            with lock:
                outer = tracer.request_id
                tracer.request_id = kwargs.get("request_id", outer)
                if _name == "session.mine":
                    tracer.pass_ordinal = 0
                record = tracer.begin(_name)
                try:
                    return _method(*args, **kwargs)
                finally:
                    tracer.end(record)
                    tracer.request_id = outer

        setattr(session, name, traced)
