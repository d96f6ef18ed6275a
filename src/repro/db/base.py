"""Base class shared by all support-counting engines.

Lives below :mod:`repro.db.counting` so that engine modules
(:mod:`repro.db.vertical`, :mod:`repro.db.shm`) can subclass
:class:`SupportCounter` without importing the engine registry — the
registry imports *them*, and a shared basement module breaks the cycle.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from .._types import CountingDeadline, Itemset
from ..obs.instrument import NOOP, Instrumentation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transaction_db import TransactionDatabase


class EngineClosedError(RuntimeError):
    """A counting request reached an engine after its :meth:`close`.

    Closing is the *external* lifecycle boundary — a session or miner
    declaring the engine's resources (worker pools, shared segments)
    released.  Engines detach and re-attach internally all the time
    (fallback-ladder steps, stall recovery), which never trips this;
    only a caller-visible ``close()`` makes later ``count()`` calls an
    error instead of a silent use-after-free of a dead worker pool.
    """


class SupportCounter:
    """Base class for counting engines; also the pass/IO accountant.

    ``deadline`` (a :func:`time.perf_counter` timestamp, or None) is
    checked periodically by engines that can: exceeding it aborts the
    pass with :class:`CountingDeadline`.

    ``obs`` is the engine's :class:`~repro.obs.instrument.Instrumentation`
    handle; miners attach theirs before mining so counting emits ``count``
    spans (nested under the miner's pass span) and engine metrics.  It
    defaults to the shared disabled bundle, whose cost in :meth:`count` is
    one attribute read and one truthiness check per pass.

    Miners drive an engine through :meth:`count`,
    :meth:`note_candidate_bound` and :meth:`close` alone; how an engine
    splits a pass (the ``shm`` plane's work-stealing) is its own policy,
    with no hook for a miner to steer it.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.passes = 0
        self.records_read = 0
        self.itemsets_counted = 0
        self.deadline: Optional[float] = None
        self.obs: Instrumentation = NOOP
        #: True once :meth:`close` has run; further counting raises
        #: :class:`EngineClosedError`
        self.closed = False

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise CountingDeadline(
                "%s engine passed its deadline mid-pass" % self.name
            )

    def _bill_records(self, db: "TransactionDatabase") -> None:
        """Account the records one pass reads.

        Every engine reads each transaction exactly once per logical
        pass, however it splits the pass; an engine bound to a slice of
        the database (the partitioned plane's per-partition counters)
        bills that slice's rows instead.
        """
        self.records_read += len(db)

    def count(
        self, db: "TransactionDatabase", candidates: Iterable[Itemset]
    ) -> Dict[Itemset, int]:
        """Count supports of ``candidates``; bills exactly one pass.

        An empty candidate collection is free: no pass is billed and an
        empty mapping is returned.
        """
        if self.closed:
            raise EngineClosedError(
                "%s engine was closed; counting on it would run against "
                "released worker pools / shared segments" % self.name
            )
        batch = candidates if isinstance(candidates, list) else list(candidates)
        if not batch:
            return {}
        self.passes += 1
        records_before = self.records_read
        self._bill_records(db)
        self._check_deadline()
        obs = self.obs
        if obs.enabled:
            with obs.span("count", engine=self.name, batch_size=len(batch)) as span:
                result = self._count(db, batch)
                span.set(
                    records_read=self.records_read - records_before,
                    **self._span_attrs(),
                )
            obs.counter("engine.passes").inc()
            obs.counter("engine.records_read").inc(
                self.records_read - records_before
            )
            obs.histogram("engine.batch_size").observe(len(batch))
        else:
            result = self._count(db, batch)
        # engines key their result by itemset, so duplicate candidates
        # collapse in the output; billing the result size keeps
        # ``itemsets_counted`` a count of *unique* itemsets without an
        # upfront dedup scan of every batch
        self.itemsets_counted += len(result)
        return result

    def _count(
        self, db: "TransactionDatabase", candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        raise NotImplementedError

    def _span_attrs(self) -> Dict[str, Any]:
        """Engine-specific attributes of the pass's ``count`` span, read
        after :meth:`_count` returns.  Default: none."""
        return {}

    def note_candidate_bound(self, bound: Optional[int]) -> None:
        """Provable upper bound on the next pass's candidate count.

        Miners feed the Geerts–Goethals–Van den Bussche bound after each
        pass; engines with a live telemetry plane publish it so an
        attached ``pincer obs top`` can show an honest in-flight ETA.
        Default: ignored.
        """

    def close(self) -> None:
        """Release engine-held resources (worker pools, shared segments).

        Idempotent: the first call releases, later calls are free.  A
        closed engine refuses further :meth:`count` calls with
        :class:`EngineClosedError` — catching use-after-close at the
        API boundary instead of hanging on a dead worker pipe.
        Subclasses releasing real resources override :meth:`_detach`
        (also used for internal re-attach cycles), not this.
        """
        if self.closed:
            return
        self._detach()
        self.closed = True

    def _detach(self) -> None:
        """Release attached resources without sealing the engine.

        Internal lifecycle step: engines detach when they re-attach to a
        new database, step down the fallback ladder, or recover from a
        stalled pool — and must keep serving ``count()`` afterwards.
        No-op for in-process engines.
        """

    def reset(self) -> None:
        """Zero the pass/IO accounting."""
        self.passes = 0
        self.records_read = 0
        self.itemsets_counted = 0
