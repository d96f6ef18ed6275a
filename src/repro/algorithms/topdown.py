"""A "pure" top-down maximal-itemset miner (paper Section 3.1).

Searches from the ``n``-itemset downward using only Observation 2 ("if an
itemset is frequent, all its subsets must be frequent, and they do not
need to be examined").  The frontier is maintained with the very same MFCS
structure Pincer-Search uses: each pass counts the unclassified frontier
elements; frequent ones are maximal (everything above them is already
known infrequent) and move to the MFS; infrequent ones are split into
their immediate subsets via MFCS-gen.

This is the degenerate case of Pincer-Search with an empty bottom-up
stream, provided here both as an instructive baseline and because the
paper's Section 3.1 frames the design space as bottom-up vs top-down vs
the combined pincer.  It is efficient only when the maximal frequent
itemsets sit near the top of the lattice; with long transactions and low
supports the frontier explodes — which is exactly why the paper *combines*
the directions instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core.itemset import Itemset
from ..core.kernel import BitmaskKernel
from ..core.pincer import resolve_threshold
from ..core.result import MiningResult
from ..core.stats import MiningStats
from ..db.counting import SupportCounter, resolve_counter
from ..db.transaction_db import TransactionDatabase
from ..obs.instrument import NOOP, Instrumentation


class TopDown:
    """Pure top-down miner over the MFCS frontier.

    ``max_frontier`` guards against the combinatorial explosion this
    direction suffers on real data; exceeding it raises RuntimeError
    rather than thrashing for hours.
    """

    name = "top-down"

    def __init__(
        self,
        engine: str = "auto",
        max_frontier: int = 200_000,
    ) -> None:
        self._engine = engine
        self._max_frontier = max_frontier

    def mine(
        self,
        db: TransactionDatabase,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        counter: Optional[SupportCounter] = None,
        obs: Optional[Instrumentation] = None,
    ) -> MiningResult:
        """Discover the maximum frequent set top-down."""
        threshold, fraction = resolve_threshold(db, min_support, min_count)
        engine, decision = resolve_counter(db, self._engine, counter)
        obs = obs if obs is not None else NOOP
        engine.obs = obs
        started = time.perf_counter()

        stats = MiningStats(
            algorithm=self.name,
            engine=decision.engine,
            engine_evidence=decision.evidence,
        )
        supports: Dict[Itemset, int] = {}
        lattice = BitmaskKernel(db.universe)
        # the kernel's own cover, so MFCS-gen probes it without re-indexing
        mfs = lattice.make_cover()
        frontier = lattice.make_mfcs(db.universe)
        pass_number = 0

        run_span = obs.span(
            "run",
            algorithm=self.name,
            engine=engine.name,
            num_transactions=len(db),
            min_support_count=threshold,
        )
        with run_span:
            while len(frontier) > 0:
                pass_number += 1
                if len(frontier) > self._max_frontier:
                    raise RuntimeError(
                        "top-down frontier exploded to %d elements; this "
                        "search direction is infeasible for this database"
                        % len(frontier)
                    )
                pass_stats = stats.new_pass(pass_number)
                pass_started = time.perf_counter()

                with obs.span("pass", k=pass_number) as pass_span:
                    elements: List[Itemset] = sorted(frontier)
                    uncounted = [
                        element
                        for element in elements
                        if element not in supports
                    ]
                    supports.update(engine.count(db, uncounted))
                    pass_stats.mfcs_candidates = len(uncounted)

                    with obs.span("prune"):
                        infrequent: List[Itemset] = []
                        for element in elements:
                            if supports[element] >= threshold:
                                mfs.add(element)
                                frontier.remove(element)
                                pass_stats.maximal_found += 1
                            else:
                                infrequent.append(element)
                    with obs.span("mfcs_gen"):
                        frontier.update(infrequent, protected=mfs)
                    pass_stats.mfcs_size_after = len(frontier)
                    pass_stats.seconds = time.perf_counter() - pass_started
                    if pass_stats.total_candidates == 0:
                        # cache-only iteration: no database read
                        stats.passes.pop()
                    if obs.enabled:
                        pass_span.set(**pass_stats.to_dict())
                        obs.counter("miner.candidates.mfcs").inc(
                            pass_stats.mfcs_candidates
                        )
                        obs.counter("miner.maximal_found").inc(
                            pass_stats.maximal_found
                        )
                        obs.gauge("mfcs.size").set(pass_stats.mfcs_size_after)

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
        return MiningResult(
            mfs=frozenset(mfs),
            supports=supports,
            num_transactions=len(db),
            min_support_count=threshold,
            min_support=fraction,
            algorithm=self.name,
            stats=stats,
        )


def top_down(
    db: TransactionDatabase,
    min_support: Optional[float] = None,
    *,
    min_count: Optional[int] = None,
    engine: str = "auto",
) -> MiningResult:
    """Functional one-shot entry point; see :class:`TopDown`.

    >>> from repro.db.transaction_db import TransactionDatabase
    >>> db = TransactionDatabase([[1, 2, 3], [1, 2, 3], [1, 2], [3]])
    >>> sorted(top_down(db, 0.5).mfs)
    [(1, 2, 3)]
    """
    return TopDown(engine=engine).mine(db, min_support, min_count=min_count)
