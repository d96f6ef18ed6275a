"""The Apriori algorithm (Agrawal & Srikant, VLDB 1994).

This is the baseline the paper compares against: a pure bottom-up
breadth-first search that explicitly counts *every* frequent itemset.
Pass ``k+1`` candidates come from joining frequent ``k``-itemsets sharing a
``(k-1)``-prefix and pruning those with an infrequent ``k``-subset
(Observation 1 — the only observation Apriori can use).

The miner runs on the same substrate as Pincer-Search (same database
class, counting engines, stats, and result type), which is the paper's own
fairness argument for its evaluation: "since both Apriori and
Pincer-Search algorithms are using the same data structure, the comparison
is fair" (Section 4.1.1).  It runs the same loop, too:
:func:`repro.core.pincer.levelwise` is Apriori from level 0 with nothing
known, and Pincer-Search's fallback once it abandons the MFCS.  That
includes pass 2's 2-D array: level 2 is the lazy
:class:`~repro.db.base.PairLevel`, counted through the same batch and
adapter (:mod:`repro.db.vertical`) as Pincer-Search's own pass 2.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Set

from ..core.itemset import Itemset
from ..core.kernel import BitmaskKernel
from ..core.lattice import maximal_elements
from ..core.pincer import levelwise, resolve_threshold
from ..core.result import MiningResult, MiningTimeout
from ..core.stats import MiningStats
from ..db.counting import (
    CountingDeadline,
    SupportCounter,
    resolve_counter,
)
from ..db.transaction_db import TransactionDatabase
from ..obs.instrument import NOOP, Instrumentation


class Apriori:
    """Classic levelwise frequent-itemset miner.

    Its loop is :func:`repro.core.pincer.levelwise`, the one Pincer-Search
    completes with after abandoning the MFCS; candidate generation runs
    on the bitmask lattice kernel (see :mod:`repro.core.kernel`).
    """

    name = "apriori"

    def __init__(self, engine: str = "auto") -> None:
        self._engine = engine

    def mine(
        self,
        db: TransactionDatabase,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        counter: Optional[SupportCounter] = None,
        time_budget: Optional[float] = None,
        obs: Optional[Instrumentation] = None,
    ) -> MiningResult:
        """Mine the maximum frequent set (by first mining *all* frequents).

        The returned :class:`MiningResult` carries the MFS like
        Pincer-Search's, but ``supports`` contains every frequent itemset —
        Apriori cannot avoid discovering them all.  With long maximal
        itemsets that blow-up makes the run effectively unbounded (the
        phenomenon the paper's Figure 4 measures), so ``time_budget``
        (seconds, checked before each pass, inside each pass and inside
        the join) raises :class:`~repro.core.result.MiningTimeout` instead
        of thrashing.  The engine's deadline is cleared on every exit.
        """
        threshold, fraction = resolve_threshold(db, min_support, min_count)
        engine, decision = resolve_counter(db, self._engine, counter)
        obs = obs if obs is not None else NOOP
        engine.obs = obs
        progress = obs.progress
        if progress.enabled:
            progress.start_run(
                algorithm=self.name,
                num_transactions=len(db),
                min_support_count=threshold,
            )
        started = time.perf_counter()

        stats = MiningStats(
            algorithm=self.name,
            engine=decision.engine,
            engine_evidence=decision.evidence,
        )
        supports: Dict[Itemset, int] = {}
        all_frequents: Set[Itemset] = set()
        if time_budget is not None:
            engine.deadline = started + time_budget

        run_span = obs.span(
            "run",
            algorithm=self.name,
            engine=engine.name,
            num_transactions=len(db),
            min_support_count=threshold,
        )
        try:
            with run_span:
                levelwise(
                    db, engine, threshold, BitmaskKernel(db.universe), stats,
                    supports, all_frequents, obs=obs,
                )
                mfs = frozenset(maximal_elements(all_frequents))
                stats.seconds = time.perf_counter() - started
                stats.records_read = engine.records_read
                if obs.enabled:
                    run_span.set(
                        passes=stats.num_passes,
                        total_candidates=stats.total_candidates,
                        mfs_size=len(mfs),
                        records_read=stats.records_read,
                    )
                    obs.counter("miner.runs").inc()
        except CountingDeadline:
            stats.seconds = time.perf_counter() - started
            raise MiningTimeout(self.name, stats.seconds, stats) from None
        finally:
            engine.deadline = None
        if progress.enabled:
            progress.on_finish(
                mfs_size=len(mfs),
                passes=stats.num_passes,
                seconds=stats.seconds,
            )
        return MiningResult(
            mfs=mfs,
            supports=supports,
            num_transactions=len(db),
            min_support_count=threshold,
            min_support=fraction,
            algorithm=self.name,
            stats=stats,
        )

    def frequent_itemsets(
        self,
        db: TransactionDatabase,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
    ) -> Dict[Itemset, int]:
        """All frequent itemsets with their absolute supports.

        Convenience wrapper for rule generation and tests.
        """
        result = self.mine(db, min_support, min_count=min_count)
        return {
            itemset_: count
            for itemset_, count in result.supports.items()
            if count >= result.min_support_count
        }


def apriori(
    db: TransactionDatabase,
    min_support: Optional[float] = None,
    *,
    min_count: Optional[int] = None,
    engine: str = "auto",
) -> MiningResult:
    """Functional one-shot entry point; see :class:`Apriori`.

    >>> from repro.db.transaction_db import TransactionDatabase
    >>> db = TransactionDatabase([[1, 2, 3], [1, 2, 3], [1, 2], [3]])
    >>> sorted(apriori(db, 0.5).mfs)
    [(1, 2, 3)]
    """
    return Apriori(engine=engine).mine(db, min_support, min_count=min_count)
