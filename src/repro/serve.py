"""``pincer serve``: a resident mining session behind a unix socket.

One :class:`~repro.core.session.MiningSession` holds the hot database —
engine attached, support cache warm — and a small threaded front-end
answers line-delimited JSON queries against it.  The wire protocol is
one JSON object per line, both directions:

    {"op": "mine",  "min_support": 1.5}            -> MFS + query stats
    {"op": "rules", "min_support": 1.5,
     "min_confidence": 80, "depth": 2}             -> association rules
    {"op": "stats"}                                -> session/daemon stats
    {"op": "metrics"}                              -> Prometheus text
    {"op": "ping"}                                 -> {"ok": true}
    {"op": "shutdown"}                             -> stops the server

``min_support`` is a percentage, matching the CLI flags.  Responses
always carry ``"ok"``; failures carry ``"error"`` and never kill the
connection (malformed JSON gets an error line back).

Admission control: the engine serializes passes, so concurrency is a
queue — what needs bounding is how much *provable work* may pile up
behind the lock.  Each query is priced before it runs using the
session's :meth:`~repro.core.session.MiningSession.estimate_cost`
(Geerts–Goethals–Van den Bussche candidate bound over the frequent
singletons; warm queries price near zero because their passes resolve
from cache).  A query whose price would push the in-flight total over
the budget is rejected with ``{"ok": false, "error": "busy"}`` and a
``retry`` hint — except when nothing is in flight, where rejection
would be a livelock, so the queue always drains.

Query-plane observability: every ``mine``/``rules`` query gets a wire
``request_id`` that is stamped onto all of its spans (one trace file,
many interleaved queries — ``pincer obs report --request ID`` isolates
one), one schema-v4 record in the JSONL access log
(:class:`~repro.obs.requestlog.RequestLog`, ``--access-log``), and an
observation in the rolling SLO window
(:class:`~repro.obs.slo.SloWindow`) that powers the windowed
p50/p95/p99 the ``metrics`` op exports.  Replies — including ``busy``
rejections — carry ``eta_seconds``: the in-flight candidate-bound
backlog divided by the session's EWMA data-plane counting rate, i.e.
the admission price finally talking back to the client (null until the
first counted pass calibrates the rate).

Repeats pay only for what is new.  The session returns its stored
answer for a ``mine`` at a threshold it has answered (see
:meth:`~repro.core.session.MiningSession.mine`), and the server keeps
each successful ``rules`` payload encoded once, per absolute threshold,
confidence and depth, within :data:`RULES_STORE_BYTES`.  A later reply
builds its envelope (``request_id``, ``seconds``, ``cost``, ``warm``,
``eta_seconds``) as usual and splices the stored bytes in; the line is
the one a fresh answer would encode.  A stored reply is still priced,
admitted, logged and observed, and asks the session for its stored
answer, so it fails after the session closes and leaves a ``stored``
span with its ``request_id``.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import socketserver
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from .core.session import MiningSession
from .obs.export import metrics_to_prometheus
from .obs.instrument import NOOP, Instrumentation
from .obs.logsetup import get_logger
from .obs.metrics import MetricsRegistry
from .obs.requestlog import RequestLog
from .obs.slo import SloWindow

__all__ = ["MiningServer", "request", "DEFAULT_COST_BUDGET"]

logger = get_logger("serve")

#: Default in-flight cost budget, in candidate-bound units.  A cold
#: query on an all-unknown database prices at the full singleton bound;
#: the default admits a couple of cold queries' worth of backlog before
#: shedding load.
DEFAULT_COST_BUDGET = 2_000_000

#: A warm query's passes resolve from cache; its queue price is a token
#: constant so even thousands of them cannot starve admission entirely.
WARM_COST = 1

#: Prefix for the Prometheus exposition the ``metrics`` op returns.
METRICS_PREFIX = "pincer_"

#: Bytes of encoded ``rules`` payloads a server keeps; past it the
#: oldest are dropped first.  Sixteen thresholds of the ledger's
#: serve-mixed workload take about 1.8 MB.
RULES_STORE_BYTES = 4 * 1024 * 1024


class _Spliced(dict):
    """A reply envelope whose payload was encoded earlier.

    ``fragment`` is the payload's ``"key": value, ...`` JSON text;
    :func:`_encode_reply` writes it after the envelope's keys.
    """

    __slots__ = ("fragment",)


def _encode_reply(reply: Dict) -> bytes:
    """One reply line, byte-identical to ``json.dumps`` of the whole
    reply with any spliced payload merged in."""
    text = json.dumps(reply)
    if not isinstance(reply, _Spliced):
        return (text + "\n").encode("utf-8")
    return b"".join((text[:-1].encode("utf-8"), b", ", reply.fragment, b"}\n"))


class MiningServer:
    """Threaded line-JSON server over one resident session.

    Parameters
    ----------
    session:
        The warm :class:`MiningSession` to answer from.  The server
        borrows it — :meth:`close` shuts the server down but leaves the
        session to its owner.
    socket_path:
        Unix socket path; an existing stale socket file is replaced.
    cost_budget:
        Admission budget in candidate-bound units (see module docs).
    obs:
        Per-query instrumentation (``serve.*`` metrics, request-scoped
        spans); defaults to the session's instrumentation.
    request_log:
        Optional :class:`RequestLog`; the server borrows it (the owner
        closes it) and writes one record per ``mine``/``rules`` query.
    slo:
        Rolling SLO window; None builds a default five-minute
        :class:`SloWindow` unless ``enable_slo`` is False.
    enable_slo:
        Set False to run without windowed metrics (benchmark baselines).
    """

    def __init__(
        self,
        session: MiningSession,
        socket_path: str,
        cost_budget: int = DEFAULT_COST_BUDGET,
        obs: Optional[Instrumentation] = None,
        request_log: Optional[RequestLog] = None,
        slo: Optional[SloWindow] = None,
        enable_slo: bool = True,
    ) -> None:
        self.session = session
        self.socket_path = socket_path
        self.cost_budget = cost_budget
        self.obs = obs if obs is not None else session.obs
        self.request_log = request_log
        self.slo = slo if slo is not None else (SloWindow() if enable_slo else None)
        # the ``metrics`` wire op must work without --metrics-out, so a
        # disabled obs bundle still gets a real registry of its own
        self.metrics = self.obs.metrics if self.obs.enabled else MetricsRegistry()
        self._inflight_cost = 0
        self._inflight_queries = 0
        self._admission = threading.Lock()
        self._shutdown = threading.Event()
        self._close_lock = threading.Lock()
        self._closed = False
        self.queries_answered = 0
        self.queries_rejected = 0
        self.started_ts = time.time()
        self._started_mono = time.monotonic()
        self._request_ids = itertools.count(1)
        #: (threshold, min_confidence, depth) -> (rule count, encoded
        #: payload); oldest first, at most RULES_STORE_BYTES of payload
        self._rules_store: "OrderedDict[Tuple, Tuple[int, bytes]]" = (
            OrderedDict()
        )
        self._rules_store_bytes = 0
        self._store_lock = threading.Lock()
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        server = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                for raw in self.rfile:
                    line = raw.strip()
                    if not line:
                        continue
                    reply = server._handle_line(line)
                    try:
                        self.wfile.write(_encode_reply(reply))
                        self.wfile.flush()
                    except (BrokenPipeError, OSError):
                        return
                    if server._shutdown.is_set():
                        # the reply (possibly to the shutdown request
                        # itself) is flushed; now the listener can die.
                        # close() is serialized and idempotent, so every
                        # draining connection may safely kick it.
                        threading.Thread(
                            target=server.close, daemon=True
                        ).start()
                        return

        class _Server(socketserver.ThreadingUnixStreamServer):
            daemon_threads = True
            allow_reuse_address = True
            # a unix-socket connect against a full backlog fails with
            # EAGAIN rather than queueing like TCP, so the default
            # backlog of 5 bounces concurrent clients before admission
            # control ever sees them
            request_queue_size = 128

        self._server = _Server(socket_path, _Handler)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until :meth:`close` or a ``shutdown`` request."""
        logger.info("serving %s on %s", self.session.key, self.socket_path)
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "MiningServer":
        """Serve on a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="pincer-serve", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, close the listener, remove the socket file.

        Serialized on a lock so a concurrent caller (the ``finally`` in
        :func:`main` racing the handler-spawned close after a
        ``shutdown`` request) blocks until cleanup has actually
        finished rather than returning while the socket file is still
        being removed.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._shutdown.set()
            self._server.shutdown()
            self._server.server_close()
            thread = self._thread
            if thread is not None and thread is not threading.current_thread():
                thread.join(timeout=5.0)
            self._thread = None
            if os.path.exists(self.socket_path):
                try:
                    os.unlink(self.socket_path)
                except OSError:  # pragma: no cover - races with rm
                    pass

    def __enter__(self) -> "MiningServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def _handle_line(self, line: bytes) -> Dict:
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return {"ok": False, "error": "malformed json"}
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be a json object"}
        op = message.get("op")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "stats":
                return self._handle_stats()
            if op == "metrics":
                return self._handle_metrics()
            if op == "shutdown":
                # only mark it: the handler loop flushes this reply
                # first and *then* kicks close(), so the requester
                # always hears back before the listener dies
                self._shutdown.set()
                return {"ok": True, "op": "shutdown"}
            if op == "mine":
                return self._serve_query("mine", message, self._run_mine)
            if op == "rules":
                return self._serve_query("rules", message, self._run_rules)
            return {"ok": False, "error": "unknown op %r" % (op,)}
        except Exception as exc:
            logger.exception("query failed: %s", message)
            return {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}

    def _parse_support(self, message: Dict) -> float:
        min_support = message.get("min_support")
        if not isinstance(min_support, (int, float)) or not (
            0 < min_support <= 100
        ):
            raise ValueError("min_support must be a percentage in (0, 100]")
        return float(min_support) / 100.0

    def _price(self, fraction: float) -> Tuple[int, Dict[str, Any]]:
        """The admission price plus the estimate it came from."""
        estimate = self.session.estimate_cost(fraction)
        if estimate["warm"]:
            return WARM_COST, estimate
        return max(WARM_COST, int(estimate["candidate_bound"])), estimate

    def _admit(self, cost: int) -> Tuple[bool, int]:
        """Reserve ``cost`` units, or refuse.  An idle server always
        admits — rejecting with nothing in flight would livelock.
        Returns ``(admitted, in-flight cost after the decision)``; the
        rejection counter moves under the same lock, so ``stats``
        replies are exact under concurrent handler threads."""
        with self._admission:
            if (
                self._inflight_queries > 0
                and self._inflight_cost + cost > self.cost_budget
            ):
                self.queries_rejected += 1
                return False, self._inflight_cost
            self._inflight_cost += cost
            self._inflight_queries += 1
            return True, self._inflight_cost

    def _release(self, cost: int) -> None:
        with self._admission:
            self._inflight_cost -= cost
            self._inflight_queries -= 1

    def _mint_request_id(self) -> str:
        return "req-%d-%06d" % (os.getpid(), next(self._request_ids))

    def _eta_seconds(self, backlog_cost: int) -> Optional[float]:
        """Candidate-bound backlog over the observed counting rate.

        The bound is provable and the rate is the session's data-plane
        EWMA, so this errs long rather than short; it is null until the
        first counted pass calibrates the estimator.
        """
        rate = self.session.rate.rate
        if rate is None or rate <= 0:
            return None
        return round(backlog_cost / rate, 6)

    def _log_request(
        self,
        record: Dict[str, Any],
        spans: Optional[List[Dict[str, Any]]] = None,
        **fields: Any,
    ) -> None:
        # schema v4 admits null only for eta_s; a runner that has no
        # value for an optional field (rules has no pass count) omits
        # the key rather than writing null
        record.update(
            (key, value)
            for key, value in fields.items()
            if value is not None or key == "eta_s"
        )
        if self.request_log is not None:
            self.request_log.log(record, spans=spans)

    # ------------------------------------------------------------------
    # the one instrumented admission/measure wrapper (mine and rules)
    # ------------------------------------------------------------------

    def _serve_query(self, op: str, message: Dict, runner) -> Dict:
        """Price, admit, run, and account one wire query.

        Both query ops flow through here, so the access log, the
        ``serve.*`` instruments, and the SLO window see rules traffic
        exactly as they see mine traffic.
        """
        request_id = self._mint_request_id()
        record: Dict[str, Any] = {"id": request_id, "op": op}
        arrived = time.perf_counter()
        try:
            fraction = self._parse_support(message)
        except ValueError as exc:
            self._log_request(
                record,
                ok=False,
                admitted=False,
                error=str(exc),
                seconds=time.perf_counter() - arrived,
            )
            return {
                "ok": False, "op": op, "request_id": request_id,
                "error": str(exc),
            }
        record["min_support"] = float(message["min_support"])
        cost, estimate = self._price(fraction)
        warm = cost == WARM_COST
        threshold = int(estimate["threshold"])
        record.update(threshold=threshold, cost=cost, warm=warm)
        admitted, inflight_cost = self._admit(cost)
        if not admitted:
            # quote how long the present backlog plus this query would
            # take — the retry hint a client should sleep on
            eta = self._eta_seconds(inflight_cost + cost)
            self.metrics.counter("serve.rejected").inc()
            if self.slo is not None:
                self.slo.observe(rejected=True)
            self._log_request(
                record,
                ok=False,
                admitted=False,
                error="busy",
                eta_s=eta,
                seconds=time.perf_counter() - arrived,
            )
            return {
                "ok": False, "error": "busy", "op": op,
                "request_id": request_id, "cost": cost,
                "budget": self.cost_budget, "retry": True,
                "eta_seconds": eta,
            }
        # admitted: the quoted ETA covers everything now in flight,
        # including this query's own bound
        eta = self._eta_seconds(inflight_cost)
        timings: Dict[str, float] = {}
        spans: List[Dict[str, Any]] = []
        started = time.perf_counter()
        try:
            payload, result_size, passes = runner(
                message, fraction, threshold, request_id, spans, timings
            )
        except Exception as exc:
            seconds = time.perf_counter() - started
            self.metrics.counter("serve.errors").inc()
            if self.slo is not None:
                self.slo.observe(seconds=seconds, error=True)
            self._log_request(
                record,
                ok=False,
                admitted=True,
                error="%s: %s" % (type(exc).__name__, exc),
                queue_wait_s=round(timings.get("queue_wait_s", 0.0), 6),
                seconds=seconds,
                eta_s=eta,
            )
            raise
        finally:
            self._release(cost)
        seconds = time.perf_counter() - started
        # the session counts these under its lock: this query's own
        # lookups, whatever ran beside it
        cache_hits = timings["cache_hits"]
        cache_misses = timings["cache_misses"]
        with self._admission:
            self.queries_answered += 1
        self.metrics.counter("serve.queries").inc()
        self.metrics.histogram("serve.seconds").observe(seconds)
        if self.slo is not None:
            self.slo.observe(
                seconds=seconds,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
            )
        self._log_request(
            record,
            spans=spans,
            ok=True,
            admitted=True,
            queue_wait_s=round(timings.get("queue_wait_s", 0.0), 6),
            seconds=seconds,
            passes=passes,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            result_size=result_size,
            eta_s=eta,
        )
        envelope = {
            "ok": True, "op": op, "request_id": request_id,
            "seconds": seconds, "cost": cost, "warm": warm,
            "eta_seconds": eta,
        }
        if isinstance(payload, bytes):
            reply = _Spliced(envelope)
            reply.fragment = payload
            return reply
        envelope.update(payload)
        return envelope

    def _run_mine(
        self,
        message: Dict,
        fraction: float,
        threshold: int,
        request_id: str,
        spans: List[Dict[str, Any]],
        timings: Dict[str, float],
    ) -> Tuple[Dict[str, Any], int, int]:
        warm_start = bool(message.get("warm", True))
        result = self.session.mine(
            fraction,
            warm_start=warm_start,
            request_id=request_id,
            span_sink=spans,
            timings=timings,
        )
        mfs = [list(member) for member in result.sorted_mfs()]
        payload = {
            "min_support": message["min_support"],
            "min_support_count": result.min_support_count,
            "mfs": mfs,
            "supports": [
                result.support_count(tuple(member)) for member in mfs
            ],
            "passes": result.stats.num_passes,
            "cache": self.session.cache.stats(),
        }
        return payload, len(mfs), result.stats.num_passes

    def _run_rules(
        self,
        message: Dict,
        fraction: float,
        threshold: int,
        request_id: str,
        spans: List[Dict[str, Any]],
        timings: Dict[str, float],
    ) -> Tuple[bytes, int, Optional[int]]:
        """The rules payload, encoded once per (threshold, confidence,
        depth) and spliced into every later reply."""
        min_confidence = float(message.get("min_confidence", 80.0)) / 100.0
        depth = message.get("depth", 2)
        # the store is keyed on an integer or null depth: any other
        # depth (2.0 equals 2 as a key) goes to the session every time
        key = None
        if depth is None or type(depth) is int:
            key = (threshold, min_confidence, depth)
            with self._store_lock:
                stored = self._rules_store.get(key)
            if stored is not None:
                # the session's stored answer at this threshold: closed
                # sessions refuse it, and it traces a span for this id
                self.session.mine(
                    fraction,
                    request_id=request_id,
                    span_sink=spans,
                    timings=timings,
                )
                count, fragment = stored
                return fragment, count, None
        rules = self.session.rules(
            fraction,
            min_confidence=min_confidence,
            depth=depth,
            request_id=request_id,
            span_sink=spans,
            timings=timings,
        )
        payload = {
            "count": len(rules),
            "rules": [
                {
                    "antecedent": list(rule.antecedent),
                    "consequent": list(rule.consequent),
                    "confidence": rule.confidence,
                    "support": rule.support,
                }
                for rule in rules
            ],
        }
        fragment = json.dumps(payload)[1:-1].encode("utf-8")
        if key is not None:
            self._store_rules(key, len(rules), fragment)
        return fragment, len(rules), None

    def _store_rules(self, key: Tuple, count: int, fragment: bytes) -> None:
        """Keep one encoded payload, dropping the oldest past the budget."""
        if len(fragment) > RULES_STORE_BYTES:
            return
        with self._store_lock:
            if key in self._rules_store:
                return
            self._rules_store[key] = (count, fragment)
            self._rules_store_bytes += len(fragment)
            while self._rules_store_bytes > RULES_STORE_BYTES:
                _, (_, dropped) = self._rules_store.popitem(last=False)
                self._rules_store_bytes -= len(dropped)

    # ------------------------------------------------------------------
    # introspection ops
    # ------------------------------------------------------------------

    def _vitals(self) -> Dict[str, Any]:
        with self._admission:
            inflight_cost = self._inflight_cost
            inflight_queries = self._inflight_queries
        return {
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
            "started_ts": self.started_ts,
            "engine": self.session.decision.engine,
            "snapshot": self.session.key,
            "socket": self.socket_path,
            "inflight_cost": inflight_cost,
            "inflight_queries": inflight_queries,
            "cost_budget": self.cost_budget,
            "counting_rate": (
                round(self.session.rate.rate, 3)
                if self.session.rate.rate is not None
                else None
            ),
        }

    def _handle_stats(self) -> Dict:
        with self._admission:
            served = self.queries_answered
            rejected = self.queries_rejected
        reply = {
            "ok": True, "op": "stats",
            "session": self.session.stats(),
            "served": served,
            "rejected": rejected,
            "vitals": self._vitals(),
        }
        if self.slo is not None:
            reply["slo"] = self.slo.snapshot()
        return reply

    def _handle_metrics(self) -> Dict:
        """Prometheus text exposition of the daemon's instruments.

        The cumulative registry (``serve.*`` counters and latency, plus
        whatever the miners recorded into a shared obs bundle) is
        decorated with daemon gauges and the rolling SLO window —
        windowed p50/p95/p99 land as the ``serve.window.latency``
        summary, rates as gauges — then rendered through the existing
        exporter.
        """
        document = self.metrics.to_dict()
        vitals = self._vitals()
        gauges = document.setdefault("gauges", {})
        gauges["serve.uptime_seconds"] = vitals["uptime_seconds"]
        gauges["serve.inflight_cost"] = vitals["inflight_cost"]
        gauges["serve.inflight_queries"] = vitals["inflight_queries"]
        gauges["serve.cost_budget"] = vitals["cost_budget"]
        if vitals["counting_rate"] is not None:
            gauges["serve.counting_rate"] = vitals["counting_rate"]
        if self.slo is not None:
            snapshot = self.slo.snapshot()
            gauges["serve.window.qps"] = snapshot["qps"]
            gauges["serve.window.rejection_rate"] = snapshot["rejection_rate"]
            gauges["serve.window.cache_hit_rate"] = snapshot["cache_hit_rate"]
            gauges["serve.window.covered_seconds"] = snapshot["covered_seconds"]
            document.setdefault("histograms", {})["serve.window.latency"] = (
                snapshot["latency"]
            )
        return {
            "ok": True, "op": "metrics",
            "content_type": "text/plain; version=0.0.4",
            "exposition": metrics_to_prometheus(
                document, prefix=METRICS_PREFIX
            ),
        }


# ----------------------------------------------------------------------
# client helper
# ----------------------------------------------------------------------


def _connect(socket_path: str, timeout: float) -> socket.socket:
    """Connect with retry: a momentarily full listen backlog surfaces
    as ``EAGAIN``/``ECONNREFUSED`` on unix sockets, which a client
    stampede (exactly what admission control exists for) provokes."""
    deadline = time.monotonic() + timeout
    delay = 0.01
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(socket_path)
            return sock
        except (BlockingIOError, ConnectionRefusedError):
            sock.close()
            if time.monotonic() >= deadline:
                raise
            time.sleep(delay)
            delay = min(0.2, delay * 2)


def request(
    socket_path: str, message: Dict, timeout: float = 60.0
) -> Dict:
    """Send one request to a running server; returns the reply object."""
    with _connect(socket_path, timeout) as sock:
        sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
        chunks: List[bytes] = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    raw = b"".join(chunks)
    if not raw:
        raise ConnectionError("server closed the connection without a reply")
    return json.loads(raw.decode("utf-8").splitlines()[0])


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``pincer serve`` (see :mod:`repro.cli`)."""
    import argparse

    from .db import io as db_io

    parser = argparse.ArgumentParser(
        prog="pincer serve",
        description="answer mining queries over a unix socket",
    )
    parser.add_argument("input", help="database file (.dat/.basket/.csv/.json)")
    parser.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path to listen on",
    )
    parser.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="packed-bitmap snapshot of the input (written by "
        "'pincer snapshot')",
    )
    parser.add_argument("--engine", default="auto")
    parser.add_argument(
        "--cost-budget", type=int, default=DEFAULT_COST_BUDGET,
        help="admission-control budget in candidate-bound units",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="JSONL span trace of every served query (spans carry the "
        "wire request_id; group with 'pincer obs report --request')",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the server's metrics registry as JSON on exit",
    )
    parser.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="JSONL access log, one schema-v4 record per query",
    )
    parser.add_argument(
        "--slow-dir", default=None, metavar="DIR",
        help="slow-query snapshot ring directory (default: "
        "ACCESS_LOG.slow next to the access log)",
    )
    parser.add_argument(
        "--slow-capacity", type=int, default=32, metavar="N",
        help="slow-query ring size in snapshots (default: 32)",
    )
    parser.add_argument(
        "--slo-window", type=float, default=300.0, metavar="SECONDS",
        help="rolling SLO window for the metrics op (0 disables; "
        "default: 300)",
    )
    args = parser.parse_args(argv)

    from .obs import capture

    obs = capture(
        trace_path=args.trace,
        metrics_path=args.metrics_out,
        producer="pincer-serve",
    )
    request_log = None
    if args.access_log:
        slow_dir = args.slow_dir
        if slow_dir is None:
            slow_dir = args.access_log + ".slow"
        request_log = RequestLog(
            args.access_log, slow_dir=slow_dir, slow_capacity=args.slow_capacity
        )
    slo = SloWindow(window_seconds=args.slo_window) if args.slo_window > 0 else None
    if args.snapshot:
        from .db.disk import DiskTransactionDatabase

        db = DiskTransactionDatabase(args.input, snapshot=args.snapshot)
        key = args.snapshot
    else:
        db = db_io.load(args.input)
        key = args.input
    try:
        with MiningSession(
            db, engine=args.engine, obs=obs, key=key
        ) as session:
            server = MiningServer(
                session, args.socket, cost_budget=args.cost_budget, obs=obs,
                request_log=request_log, slo=slo, enable_slo=slo is not None,
            )
            sys.stdout.write(
                "serving %s on %s (engine %s)\n"
                % (key, args.socket, session.decision.engine)
            )
            sys.stdout.flush()
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.close()
            sys.stdout.write(
                "served %d queries (%d rejected); cache %s\n"
                % (
                    server.queries_answered,
                    server.queries_rejected,
                    session.cache.stats(),
                )
            )
            sys.stdout.flush()
    finally:
        if request_log is not None:
            request_log.close()
        obs.finish()
    return 0
