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
is fair" (Section 4.1.1).  That includes pass 2's 2-D array: both miners
hold level 2 as the same lazy :class:`~repro.db.base.PairLevel`, count it
through the same batch and adapter (:mod:`repro.db.vertical`), and take
the frequent pairs from the same count array.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from ..core.candidates import first_level_candidates
from ..core.itemset import Itemset
from ..core.kernel import BitmaskKernel
from ..core.lattice import maximal_elements
from ..core.pincer import resolve_threshold
from ..core.result import MiningResult, MiningTimeout
from ..core.stats import MiningStats
from ..db.counting import (
    CountingDeadline,
    SupportCounter,
    resolve_counter,
)
from ..db.transaction_db import TransactionDatabase
from ..db.vertical import level_counts, pass_batch
from ..obs.instrument import NOOP, Instrumentation


class Apriori:
    """Classic levelwise frequent-itemset miner.

    Candidate generation runs on the bitmask lattice kernel (see
    :mod:`repro.core.kernel`), as Pincer-Search's does.
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
        (seconds, checked at pass boundaries) raises
        :class:`~repro.core.result.MiningTimeout` instead of thrashing.
        """
        threshold, fraction = resolve_threshold(db, min_support, min_count)
        engine, decision = resolve_counter(db, self._engine, counter)
        obs = obs if obs is not None else NOOP
        engine.obs = obs
        lattice = BitmaskKernel(db.universe)
        started = time.perf_counter()

        stats = MiningStats(
            algorithm=self.name,
            engine=decision.engine,
            engine_evidence=decision.evidence,
        )
        supports: Dict[Itemset, int] = {}
        all_frequents: Set[Itemset] = set()
        candidates: List[Itemset] = first_level_candidates(db.universe)
        k = 0

        if time_budget is not None:
            engine.deadline = started + time_budget

        run_span = obs.span(
            "run",
            algorithm=self.name,
            engine=engine.name,
            num_transactions=len(db),
            min_support_count=threshold,
        )
        with run_span:
            while candidates:
                k += 1
                elapsed = time.perf_counter() - started
                if time_budget is not None and elapsed > time_budget:
                    stats.seconds = elapsed
                    raise MiningTimeout(self.name, elapsed, stats)
                pass_stats = stats.new_pass(k)
                pass_started = time.perf_counter()

                with obs.span("pass", k=k) as pass_span:
                    batch, _ = pass_batch(candidates, (), supports)
                    try:
                        answer = engine.count(db, batch)
                    except CountingDeadline:
                        stats.passes.pop()  # the aborted pass never finished
                        elapsed = time.perf_counter() - started
                        stats.seconds = elapsed
                        raise MiningTimeout(self.name, elapsed, stats) from None
                    counted = level_counts(candidates, answer, supports)
                    pass_stats.bottom_up_candidates = len(candidates)

                    level_frequents = counted.frequent(threshold)
                    pass_stats.frequent_found = len(level_frequents)
                    pass_stats.infrequent_found = len(candidates) - len(
                        level_frequents
                    )
                    all_frequents.update(level_frequents)

                    elapsed = time.perf_counter() - started
                    if time_budget is not None and elapsed > time_budget:
                        pass_stats.seconds = time.perf_counter() - pass_started
                        stats.seconds = elapsed
                        raise MiningTimeout(self.name, elapsed, stats)
                    with obs.span("generate"):
                        if k == 1:
                            # pass 2 counts every pair over L1, the 2-D
                            # array Pincer-Search counts it in (§4.1.1)
                            candidates = lattice.generate_candidates(
                                level_frequents, (), k
                            )
                        else:
                            try:
                                joined = lattice.apriori_join(
                                    level_frequents, deadline=engine.deadline
                                )
                            except CountingDeadline:
                                elapsed = time.perf_counter() - started
                                stats.seconds = elapsed
                                raise MiningTimeout(
                                    self.name, elapsed, stats
                                ) from None
                            candidates = sorted(
                                lattice.apriori_prune(joined, level_frequents)
                            )
                    pass_stats.seconds = time.perf_counter() - pass_started
                    if obs.enabled:
                        pass_span.set(**pass_stats.to_dict())
                        obs.counter("miner.candidates.bottom_up").inc(
                            pass_stats.bottom_up_candidates
                        )
                        obs.counter("miner.frequent_found").inc(
                            pass_stats.frequent_found
                        )

            engine.deadline = None
            stats.seconds = time.perf_counter() - started
            stats.records_read = engine.records_read
            if obs.enabled:
                run_span.set(
                    passes=stats.num_passes,
                    total_candidates=stats.total_candidates,
                    mfs_size=len(maximal_elements(all_frequents)),
                    records_read=stats.records_read,
                )
                obs.counter("miner.runs").inc()
        return MiningResult(
            mfs=frozenset(maximal_elements(all_frequents)),
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
