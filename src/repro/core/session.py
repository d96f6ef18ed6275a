"""Resident mining sessions: one hot database, many cheap queries.

A :class:`MiningSession` owns what a one-shot ``mine()`` call rebuilds
from scratch every time: the resolved counting engine (with its index
built once), a cross-threshold
:class:`~repro.core.supportcache.SupportCache`, and one stored answer
per already-answered absolute threshold.  A query is then answered from
what the session holds wherever it can:

* **An answer is a function of the threshold** — the MFS at an absolute
  support count is fixed by the database, so a repeat (or another
  percentage that rounds to the same count) returns the stored answer:
  the MFS, its members' supports and the count, with no pass and no
  cache lookup.
* **Supports are threshold-independent** — every count stored while
  answering one query classifies the same itemset at any later
  threshold, so repeated and nearby thresholds resolve most passes
  without touching the data plane.
* **Maximal families order by threshold** — the MFS mined at ``s_lo``
  satisfies both MFCS invariants at any ``s_hi >= s_lo`` (it covers
  every itemset frequent at ``s_hi``, and every strict superset of a
  member is infrequent), so an upward query seeds its top-down front
  from the best mined family at or below its threshold instead of the
  full universe.  Downward queries get no seed — new maximal itemsets
  can sit strictly above the old family — but inherit every cached
  classification, which is where their savings live.

Queries are serialized on an internal lock: one engine cannot run two
counting passes at once.  Admission control and concurrency live one
layer up, in :mod:`repro.serve`.
"""

from __future__ import annotations

import copy
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from ..db.counting import resolve_counter
from ..db.transaction_db import TransactionDatabase
from ..obs.instrument import NOOP, Instrumentation
from ..rules.from_mfs import expand_mfs_supports
from ..rules.generation import AssociationRule, generate_rules
from .adaptive import PassRateEstimator
from .bitset import candidate_upper_bound
from .itemset import Itemset
from .pincer import PincerSearch, resolve_threshold
from .result import MiningResult
from .stats import MiningStats
from .supportcache import CachedSupportCounter, SupportCache

__all__ = ["MiningSession", "SessionClosedError"]


class SessionClosedError(RuntimeError):
    """A query reached a session after its :meth:`MiningSession.close`."""


class MiningSession:
    """A resident query plane over one :class:`TransactionDatabase`.

    Parameters
    ----------
    db:
        The hot database.  The session attaches one engine to it and
        keeps that attachment (the built index, mapped partitions)
        alive across queries.
    engine:
        Engine name as accepted by the one-shot miners (default
        ``"auto"``).
    kernel:
        Forwarded to :class:`~repro.core.pincer.PincerSearch`, which
        mines every query with its adaptive default policy.
    obs:
        Session-wide instrumentation; each query's spans and the
        ``cache.*`` metrics land here.
    key:
        Snapshot identity string (e.g. the snapshot path), reported by
        :meth:`stats`.  Purely descriptive for in-memory databases.
    """

    def __init__(
        self,
        db: TransactionDatabase,
        *,
        engine: str = "auto",
        kernel: Optional[str] = None,
        obs: Optional[Instrumentation] = None,
        key: Optional[str] = None,
    ) -> None:
        self.db = db
        self.obs = obs if obs is not None else NOOP
        self.key = key if key is not None else "mem-%x" % id(db)
        engine_obj, decision = resolve_counter(db, engine, None)
        self.decision = decision
        self.cache = SupportCache()
        #: the cached facade every query counts through; the session owns
        #: the wrapped engine's lifetime
        self.counter = CachedSupportCounter(engine_obj, self.cache)
        self._miner = PincerSearch(engine=engine, kernel=kernel)
        #: absolute threshold -> the answer mined there, lean: the MFS,
        #: its members' supports and the count, no passes (see
        #: :func:`_lean`); a repeat returns a copy, warm seeds read its MFS
        self._mined: Dict[int, MiningResult] = {}
        self._lock = threading.Lock()
        self.closed = False
        self.queries = 0
        self.warm_queries = 0
        #: EWMA of the *data-plane* counting throughput across queries
        #: (candidates actually counted by the engine per wall-clock
        #: second of mining).  Fed only when a query's passes reached the
        #: engine — all-cache warm queries resolve at memory speed and
        #: would otherwise inflate the rate the serve front-end divides
        #: candidate bounds by for its ETAs.
        self.rate = PassRateEstimator(alpha=0.3)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def mine(
        self,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        warm_start: bool = True,
        request_id: Optional[str] = None,
        span_sink: Optional[List[Dict[str, Any]]] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> MiningResult:
        """Answer one max-frequent-set query against the warm session.

        Identical results to a cold :meth:`PincerSearch.mine` at the
        same threshold — the cache substitutes counts it already proved,
        and the warm seed only replaces the full-universe MFCS with a
        family satisfying the same invariants (see
        :meth:`PincerSearch.mine` on ``initial_mfcs``).

        At an absolute threshold the session has answered before, a
        ``warm_start`` query returns the stored answer instead: the same
        MFS, member supports and ``min_support_count``, with
        ``supports`` holding the members only and ``stats`` no passes.
        It reads nothing and looks nothing up, so its ``timings`` bill
        zero cache hits and misses; it emits one ``stored`` span.  With
        ``warm_start=False`` the query always mines.

        ``request_id`` stamps every span of this query (via the
        tracer's ambient binding — applied *inside* the query lock, so
        concurrent callers can never contaminate each other's spans);
        ``span_sink`` collects the query's closed span events for the
        caller (the serve slow-query recorder); ``timings`` receives
        ``queue_wait_s``, the time spent waiting for the session lock —
        the honest queue-wait a serve access log should report — and
        ``cache_hits`` / ``cache_misses``, this query's own cache
        lookups, which concurrent queries never touch.
        """
        threshold, _ = resolve_threshold(self.db, min_support, min_count)
        with self._query_lock(timings):
            stored = self._mined.get(threshold) if warm_start else None
            if stored is not None:
                with self.obs.bind(sink=span_sink, request_id=request_id):
                    with self.obs.span(
                        "stored", threshold=threshold, mfs=len(stored.mfs)
                    ):
                        result = _lean(stored)
                self.queries += 1
                self.warm_queries += 1
                return result
            seed = self._warm_seed(threshold) if warm_start else None
            misses_before = self.cache.misses
            mine_started = time.perf_counter()
            with self.obs.bind(sink=span_sink, request_id=request_id):
                result = self._miner.mine(
                    self.db,
                    min_count=threshold,
                    counter=self.counter,
                    obs=self.obs,
                    initial_mfcs=seed,
                )
            counted = self.cache.misses - misses_before
            if counted > 0:
                # data-plane throughput only (see ``self.rate``); the
                # whole mine's wall clock makes this a conservative rate,
                # so ETAs derived from it err long, never short
                self.rate.observe(
                    counted, time.perf_counter() - mine_started
                )
            self._mined[threshold] = _lean(result)
            self.queries += 1
            if seed is not None:
                self.warm_queries += 1
        return result

    def rules(
        self,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        min_confidence: float = 0.8,
        depth: Optional[int] = 2,
        request_id: Optional[str] = None,
        span_sink: Optional[List[Dict[str, Any]]] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> List[AssociationRule]:
        """Stage-2 rules at a threshold, reusing the session's cache.

        Mines (warm, so a stored answer where there is one) first, then
        expands the supports of exactly the MFS subsets within ``depth``
        of a member through the cached counter (see
        :func:`~repro.rules.from_mfs.expand_mfs_supports`).  The answer
        is :func:`~repro.rules.from_mfs.rules_from_mfs`'s at the same
        threshold, whatever the session ran before, and a repeat
        re-counts almost nothing.  ``request_id`` / ``span_sink`` /
        ``timings`` behave as in :meth:`mine` and cover both phases.
        """
        result = self.mine(
            min_support,
            min_count=min_count,
            request_id=request_id,
            span_sink=span_sink,
            timings=timings,
        )
        if depth is None:
            depth = max((len(member) for member in result.mfs), default=0)
        with self._query_lock(timings):
            with self.obs.bind(sink=span_sink, request_id=request_id):
                supports = expand_mfs_supports(
                    self.db, result, depth, counter=self.counter
                )
        return generate_rules(
            supports,
            num_transactions=result.num_transactions,
            min_confidence=min_confidence,
            min_support_count=result.min_support_count,
        )

    # ------------------------------------------------------------------
    # admission-control support
    # ------------------------------------------------------------------

    def estimate_cost(
        self,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
    ) -> Dict[str, object]:
        """Cheap upper-bound cost estimate for a query at a threshold.

        Uses the Geerts–Goethals–Van den Bussche candidate bound over
        the frequent singletons — read from the cache when their counts
        are already known, else pessimistically all items.  Warm
        evidence (a mined threshold at or below the query's) marks the
        query cheap regardless of the bound, because its passes resolve
        from cache.  Never touches the data plane, and bills no cache
        hit or miss: pricing is not a query.
        """
        threshold, _ = resolve_threshold(self.db, min_support, min_count)
        known = 0
        frequent_singletons = 0
        for item in self.db.universe:
            cached = self.cache.peek((item,))
            if cached is None:
                continue
            known += 1
            if cached >= threshold:
                frequent_singletons += 1
        if known == len(self.db.universe):
            bound = candidate_upper_bound(frequent_singletons, 1)
        else:  # singletons not yet counted: assume the worst
            bound = candidate_upper_bound(len(self.db.universe), 1)
        warm = self._best_seed_threshold(threshold) is not None
        return {
            "threshold": threshold,
            "candidate_bound": bound,
            "singletons_known": known == len(self.db.universe),
            "warm": warm,
            "records": len(self.db),
        }

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "engine": self.decision.engine,
            "queries": self.queries,
            "warm_queries": self.warm_queries,
            "mined_thresholds": sorted(self._mined),
            "cache": self.cache.stats(),
            "passes": self.counter.passes,
            "records_read": self.counter.records_read,
            "counting_rate": (
                round(self.rate.rate, 3) if self.rate.rate is not None else None
            ),
        }

    def close(self) -> None:
        """Release the engine; idempotent.  Later queries raise."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self.counter.close()

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self.closed:
            raise SessionClosedError("session %s is closed" % self.key)

    @contextmanager
    def _query_lock(self, timings: Optional[Dict[str, float]]):
        """Hold the session lock for one query phase on an open session.

        Adds to ``timings`` (when given) the wait for the lock and the
        cache hits and misses the phase billed.  Both are read inside
        the lock, so a concurrent query's lookups never land here.
        """
        wait_started = time.perf_counter()
        with self._lock:
            if timings is not None:
                _add(timings, "queue_wait_s", time.perf_counter() - wait_started)
            self._ensure_open()
            cache = self.cache
            hits, misses = cache.hits, cache.misses
            try:
                yield
            finally:
                if timings is not None:
                    _add(timings, "cache_hits", cache.hits - hits)
                    _add(timings, "cache_misses", cache.misses - misses)

    def _best_seed_threshold(self, threshold: int) -> Optional[int]:
        """Largest mined threshold at or below ``threshold``, or None."""
        eligible = [t for t in self._mined if t <= threshold]
        return max(eligible) if eligible else None

    def _warm_seed(self, threshold: int) -> Optional[List[Itemset]]:
        """The MFCS seed for a query at ``threshold``, if one is sound.

        Only a family mined at a threshold ``<=`` the query's satisfies
        the superset-infrequency invariant (see
        :meth:`PincerSearch.mine`); among those the *largest* such
        threshold is the tightest family — fewest elements to classify
        top-down.
        """
        best = self._best_seed_threshold(threshold)
        if best is None:
            return None
        return sorted(self._mined[best].mfs)


def _lean(result: MiningResult) -> MiningResult:
    """A copy of ``result`` holding only a stored answer: the MFS, its
    members' supports and the threshold, with no passes.  Mining fills
    the store with one; a repeat gets its own, so callers never share
    mutable state with the store."""
    lean = copy.copy(result)
    lean.supports = {member: result.supports[member] for member in result.mfs}
    lean.stats = MiningStats(
        algorithm=result.stats.algorithm, engine=result.stats.engine
    )
    return lean


def _add(timings: Dict[str, float], key: str, amount: float) -> None:
    timings[key] = timings.get(key, 0) + amount
