"""Toivonen's sampling algorithm (the paper's reference [18]).

Related-work baseline: "Others, like Partition [16] and Sampling [18],
proposed effective ways to reduce the I/O time.  However, they are still
inefficient when the maximal frequent itemsets are long" (paper,
Section 5).  This module implements the Sampling algorithm so that claim
can be measured:

1. draw a random sample of the database and mine it *in memory* at a
   lowered threshold (the lowering makes missing a truly frequent itemset
   unlikely);
2. in one pass over the full database, count the sample's frequent
   itemsets **and their negative border**;
3. if nothing in the negative border turns out frequent, the counts are
   exact and complete — one full-database pass total.  Otherwise there
   was a *miss*; the guarantee is restored by falling back to a full
   mining run seeded with what is already known (the textbook remedy;
   Toivonen's paper offers fancier recovery, with the same worst case).

Step 2 is exactly where long maximal itemsets hurt: the sample's frequent
collection is the full downward closure, which is exponential in the
maximal length — the inefficiency Pincer-Search sidesteps.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Set

from ..borders.borders import negative_border
from ..core.itemset import Itemset
from ..core.lattice import maximal_elements
from ..core.pincer import resolve_threshold
from ..core.result import MiningResult
from ..core.stats import MiningStats
from ..db.counting import (
    SupportCounter,
    engine_decision,
    get_counter,
    resolve_counter,
)
from ..db.transaction_db import TransactionDatabase
from ..obs.instrument import NOOP, Instrumentation
from ..obs.logsetup import get_logger
from .apriori import Apriori

logger = get_logger("algorithms.sampling")


class SamplingMiner:
    """Toivonen-style sampling miner.

    Parameters
    ----------
    sample_fraction:
        Fraction of transactions drawn (without replacement).
    lowering:
        Multiplier < 1 applied to the minimum support when mining the
        sample; smaller values make misses rarer but inflate the sample's
        frequent collection.
    seed:
        RNG seed for the sample draw.  Every :meth:`mine` call draws
        with a fresh ``random.Random(seed)``, so repeated runs of the
        same miner see the same sample; the seed is recorded in
        ``MiningStats.sample_seed``, making any run reproducible from
        its stats alone.
    rng:
        Explicit ``random.Random`` instance overriding ``seed`` (for
        callers sequencing draws from one generator).  With an external
        rng the draw is the caller's to reproduce, so
        ``sample_seed`` is recorded as None.
    """

    name = "sampling"

    def __init__(
        self,
        sample_fraction: float = 0.2,
        lowering: float = 0.8,
        seed: int = 0,
        engine: str = "auto",
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if not 0.0 < lowering <= 1.0:
            raise ValueError("lowering must be in (0, 1]")
        self._sample_fraction = sample_fraction
        self._lowering = lowering
        self._seed = seed
        self._rng = rng
        self._engine = engine

    def mine(
        self,
        db: TransactionDatabase,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        counter: Optional[SupportCounter] = None,
        obs: Optional[Instrumentation] = None,
    ) -> MiningResult:
        """Mine the maximum frequent set via a sample plus verification."""
        threshold, fraction = resolve_threshold(db, min_support, min_count)
        engine, decision = resolve_counter(db, self._engine, counter)
        obs = obs if obs is not None else NOOP
        engine.obs = obs
        started = time.perf_counter()
        stats = MiningStats(
            algorithm=self.name,
            engine=decision.engine,
            engine_evidence=decision.evidence,
            sample_seed=None if self._rng is not None else self._seed,
        )

        run_span = obs.span(
            "run",
            algorithm=self.name,
            engine=engine.name,
            num_transactions=len(db),
            min_support_count=threshold,
        )
        with run_span:
            sample = self._draw_sample(db)
            # the in-memory sample phase is free in the paper's I/O model;
            # mine it with Apriori at the lowered threshold
            sample_counter = get_counter(
                engine_decision(sample, self._engine).engine
            )
            sample_threshold = max(
                1, int(self._lowering * fraction * max(1, len(sample)))
            )
            with obs.span("generate", sample_size=len(sample)):
                sample_result = Apriori(engine=self._engine).mine(
                    sample, min_count=sample_threshold, counter=sample_counter
                )
                sample_frequents: Set[Itemset] = {
                    itemset_
                    for itemset_, count in sample_result.supports.items()
                    if count >= sample_threshold
                }

            # one full-database pass: sample frequents + negative border
            border = negative_border(
                maximal_elements(sample_frequents) if sample_frequents else [],
                db.universe,
            )
            to_verify = sorted(sample_frequents | border)
            pass_stats = stats.new_pass(1)
            pass_started = time.perf_counter()
            with obs.span("pass", k=1) as pass_span:
                supports = dict(engine.count(db, to_verify))
                pass_stats.bottom_up_candidates = len(to_verify)
                pass_stats.seconds = time.perf_counter() - pass_started
                if obs.enabled:
                    pass_span.set(**pass_stats.to_dict())

            frequents = {
                itemset_
                for itemset_, count in supports.items()
                if count >= threshold
            }
            missed_border = frequents & border
            if missed_border:
                # a border itemset is frequent: the sample missed part of
                # the lattice; fall back to an exact run (counts already
                # known are reused through the shared engine)
                logger.info(
                    "sample missed %d border itemsets; falling back to a "
                    "full Apriori run", len(missed_border),
                )
                with obs.span("recover", missed=len(missed_border)):
                    fallback = Apriori(engine=self._engine).mine(
                        db, min_count=threshold, counter=engine
                    )
                fallback.stats.algorithm = self.name
                for pass_done in fallback.stats.passes:
                    stats.passes.append(pass_done)
                supports.update(fallback.supports)
                frequents = {
                    itemset_
                    for itemset_, count in supports.items()
                    if count >= threshold
                }

            stats.seconds = time.perf_counter() - started
            stats.records_read = engine.records_read
            if obs.enabled:
                run_span.set(
                    passes=stats.num_passes,
                    total_candidates=stats.total_candidates,
                    mfs_size=len(maximal_elements(frequents)),
                    records_read=stats.records_read,
                    missed_border=len(missed_border),
                )
                obs.counter("miner.runs").inc()
        return MiningResult(
            mfs=frozenset(maximal_elements(frequents)),
            supports=supports,
            num_transactions=len(db),
            min_support_count=threshold,
            min_support=fraction,
            algorithm=self.name,
            stats=stats,
        )

    def _draw_sample(self, db: TransactionDatabase) -> TransactionDatabase:
        rng = (
            self._rng
            if self._rng is not None
            else random.Random(self._seed)
        )
        size = max(1, round(self._sample_fraction * len(db)))
        if size >= len(db):
            return db
        indices = rng.sample(range(len(db)), size)
        return db.sample(sorted(indices))


def sampling_mine(
    db: TransactionDatabase,
    min_support: Optional[float] = None,
    *,
    min_count: Optional[int] = None,
    sample_fraction: float = 0.2,
    lowering: float = 0.8,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> MiningResult:
    """Functional one-shot entry point; see :class:`SamplingMiner`.

    >>> from repro.db.transaction_db import TransactionDatabase
    >>> db = TransactionDatabase([[1, 2, 3]] * 8 + [[4]] * 2)
    >>> sorted(sampling_mine(db, 0.5, sample_fraction=0.5).mfs)
    [(1, 2, 3)]
    """
    miner = SamplingMiner(
        sample_fraction=sample_fraction, lowering=lowering, seed=seed, rng=rng
    )
    return miner.mine(db, min_support, min_count=min_count)
