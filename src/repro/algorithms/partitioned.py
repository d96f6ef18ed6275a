"""Out-of-core partitioned Pincer-Search over ``.snap`` v2 snapshots.

The paper dismisses Partition [16] and Sampling [18] because both
materialise full downward-closed frequent collections — but their *I/O
structure* (two scans; support additive over row partitions) composes
cleanly with Pincer's maximal-first search, which is the segmentation
idea of Rajalakshmi et al. (PAPERS.md).  This module is that
composition:

**Phase I — local maximal mining.**  Each row partition of the snapshot
is attached (within the byte budget of
:class:`~repro.db.outofcore.BudgetScheduler`), mined to its complete
*local* MFS by the ordinary :class:`~repro.core.pincer.PincerSearch`
stack through a :class:`~repro.db.outofcore.HandleCounter`, and
detached — so at most ``memory_budget`` bytes of matrix are resident no
matter how large the database.  The local threshold is the proportional
ceiling ``ceil(threshold * |p| / |D|)``, which preserves the Partition
lemma: *every globally frequent itemset is locally frequent in at least
one partition* (if it missed the scaled threshold everywhere, summing
the local counts would leave it below the global threshold).

**Phase II — one-pass global verification.**  Let ``U`` be the union of
the local MFS families and ``seed = maximal(U)``.  ``seed`` is a valid
global MFCS: (a) every globally frequent itemset is locally frequent
somewhere, hence a subset of some member of ``U``, hence covered by
``seed``; (b) any strict superset of a ``seed`` member is globally
infrequent — were it frequent it would be covered by ``seed`` (by (a)),
contradicting that member's maximality in ``U``.  One partition-sweeping
pass of the ``partitioned`` engine batch-counts
``U ∪ negative_border(seed)`` — the additive-support identity makes the
per-partition sums exact global counts — and the same lemma proves every
border member globally *infrequent*, so the border counts double as a
free end-to-end verification of the counting machinery.  The counts
pre-warm a :class:`~repro.core.supportcache.SupportCache`, and the
final classification runs :class:`PincerSearch` in its top-down-only
mode (``bottom_up=False``) seeded with ``seed``: the first
classification is served entirely from cache, and further database
passes happen only where a local maximal itemset turns out globally
infrequent and the MFCS must descend.

**Optional sample seeding.**  With ``sample_fraction > 0`` a Toivonen
sample (drawn with ``sample_seed``, recorded in the stats) is mined in
memory at a lowered threshold, yielding a candidate maximal family
``F = maximal(sample frequents)``.  Before a partition's mine, the
members of ``negative_border(F)`` are counted locally; if *all* are
locally infrequent, ``F`` is a valid local MFCS seed — any locally
frequent itemset outside F's closure would contain a border member
(take a minimal uncovered subset: its immediate subsets are all
covered, so it *is* a border member), all infrequent; and a frequent
strict superset of a member would be covered, contradicting
maximality — so the partition is mined top-down-only from the sample
seed.  Any border hit voids the guarantee for that partition and it
falls back to the cold full-universe MFCS.  Exactness is therefore
unconditional; the sample only buys speed.

Phase I partitions are dispatched through a process pool when
``parallelism > 1`` (each worker re-opens the snapshot and receives an
equal slice of the memory budget); on single-core hosts the win of
partitioning is I/O-structural rather than parallel — each partition is
faulted once and mined resident, instead of the whole matrix being
re-streamed every pass.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..borders.borders import negative_border
from ..core.itemset import Itemset
from ..core.lattice import maximal_elements
from ..core.pincer import PincerSearch, resolve_threshold
from ..core.result import MiningResult
from ..core.stats import MiningStats
from ..core.supportcache import CachedSupportCounter, SupportCache
from ..db.counting import SupportCounter
from ..db.outofcore import (
    BudgetScheduler,
    HandleCounter,
    PartitionedCounter,
    SnapshotPartitionHandle,
)
from ..db.snapshot import load_snapshot
from ..db.transaction_db import TransactionDatabase, UniverseView
from ..obs.instrument import NOOP, Instrumentation
from ..obs.logsetup import get_logger
from .apriori import Apriori

logger = get_logger("algorithms.partitioned")

__all__ = ["MAX_WORKERS_ENV", "PartitionedPincerMiner", "partitioned_mine"]

#: Environment override capping the phase-I worker count (operators can
#: pin CI boxes or shared hosts without touching call sites).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def _local_threshold(threshold: int, partition_rows: int, total_rows: int) -> int:
    """Proportional ceiling scaling — the Partition lemma's threshold."""
    return max(1, -(-threshold * partition_rows // max(1, total_rows)))


def _mine_one_partition(
    handle,
    universe: Tuple[int, ...],
    local_threshold: int,
    engine: str,
    adaptive: bool,
    seed_family: Optional[List[Itemset]],
    seed_border: Optional[List[Itemset]],
) -> Dict[str, object]:
    """Attach, mine the local MFS, detach.  Returns a plain-data summary.

    Plain dicts (not result objects) so the exact same function serves
    the in-process path and the process-pool worker, whose return value
    must pickle cheaply.
    """
    started = time.perf_counter()
    counter = HandleCounter(handle)
    view = UniverseView(handle.num_rows, universe)
    seeded = False
    if seed_family:
        # Toivonen validity gate: the sample family seeds this partition
        # only if its whole negative border is locally infrequent (the
        # proof obligation in the module docstring)
        border_counts = counter.count(view, seed_border or [])
        seeded = all(
            count < local_threshold for count in border_counts.values()
        )
    miner = PincerSearch(engine=engine, adaptive=adaptive)
    if seeded:
        result = miner.mine(
            view, min_count=local_threshold, counter=counter,
            initial_mfcs=seed_family, bottom_up=False,
        )
    else:
        result = miner.mine(view, min_count=local_threshold, counter=counter)
    counter.close()  # detaches the handle (and evicts its pages)
    return {
        "mfs": sorted(result.mfs),
        "rows": handle.num_rows,
        "row_start": handle.row_start,
        "local_threshold": local_threshold,
        "passes": counter.passes,
        "records_read": counter.records_read,
        "candidates": result.stats.total_candidates,
        "seeded": seeded,
        "seconds": time.perf_counter() - started,
    }


def _mine_partition_task(spec: Dict[str, object]) -> Dict[str, object]:
    """Process-pool worker: one partition, from a pickled spec.

    Re-opens the snapshot in the worker (mmap attach, no matrix data
    shipped between processes) and runs the same
    :func:`_mine_one_partition` the serial path uses, under a private
    scheduler holding this worker's slice of the memory budget.
    """
    snap = load_snapshot(spec["snapshot_path"])
    partition = snap.partitions[spec["ordinal"]]
    scheduler = BudgetScheduler(spec["budget"])
    handle = SnapshotPartitionHandle(partition, scheduler)
    summary = _mine_one_partition(
        handle,
        snap.universe,
        spec["local_threshold"],
        spec["engine"],
        spec["adaptive"],
        spec["seed_family"],
        spec["seed_border"],
    )
    summary["accounting"] = scheduler.accounting()
    return summary


class PartitionedPincerMiner:
    """Two-scan out-of-core Pincer miner over a partitioned snapshot.

    Parameters
    ----------
    num_partitions:
        Self-partitioning width for databases *without* a partitioned
        snapshot (snapshot-backed databases use the snapshot's own
        partition directory).
    memory_budget:
        Upper bound, in bytes, on concurrently mapped partition-matrix
        data (None = unlimited).  Enforced by the shared
        :class:`~repro.db.outofcore.BudgetScheduler`; snapshot
        partitions larger than the budget are counted through
        word-column windows.
    parallelism:
        Phase I partition dispatch width.  Defaults to 1 (serial) —
        honest on single-core hosts, where the partitioned win is I/O
        structure, not cores.  Values > 1 need a snapshot-backed
        database (workers re-open the snapshot) and split the budget
        evenly between workers.  Capped by ``REPRO_MAX_WORKERS``.
    sample_fraction:
        > 0 enables Toivonen sample seeding of the local mines (drawn
        with ``sample_seed``, threshold lowered by ``lowering``).
    adaptive / engine:
        Forwarded to the per-partition :class:`PincerSearch` miners.
    """

    name = "partitioned-pincer"

    def __init__(
        self,
        num_partitions: Optional[int] = None,
        memory_budget: Optional[int] = None,
        parallelism: int = 1,
        engine: str = "auto",
        sample_fraction: float = 0.0,
        lowering: float = 0.8,
        sample_seed: int = 0,
        adaptive: bool = True,
    ) -> None:
        if num_partitions is not None and num_partitions < 1:
            raise ValueError("need at least one partition")
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if not 0.0 <= sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in [0, 1]")
        if not 0.0 < lowering <= 1.0:
            raise ValueError("lowering must be in (0, 1]")
        self._num_partitions = num_partitions
        self._memory_budget = memory_budget
        self._parallelism = parallelism
        self._engine = engine
        self._sample_fraction = sample_fraction
        self._lowering = lowering
        self._sample_seed = sample_seed
        self._adaptive = adaptive

    # ------------------------------------------------------------------

    def mine(
        self,
        db,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        counter: Optional[SupportCounter] = None,
        obs: Optional[Instrumentation] = None,
    ) -> MiningResult:
        """Discover the maximum frequent set with two logical scans.

        ``counter``, if given, must be a
        :class:`~repro.db.outofcore.PartitionedCounter` (the engine this
        miner is built around); otherwise one is created from the
        miner's budget/partition configuration and closed on exit.
        """
        threshold, fraction = resolve_threshold(db, min_support, min_count)
        obs = obs if obs is not None else NOOP
        if counter is None:
            engine = PartitionedCounter(
                memory_budget=self._memory_budget,
                num_partitions=self._num_partitions,
            )
            owned = True
        else:
            if not isinstance(counter, PartitionedCounter):
                raise ValueError(
                    "PartitionedPincerMiner counts through a "
                    "PartitionedCounter; got %r"
                    % getattr(counter, "name", counter)
                )
            engine = counter
            owned = False
        engine.obs = obs
        started = time.perf_counter()
        stats = MiningStats(
            algorithm=self.name,
            engine=engine.name,
            sample_seed=(
                self._sample_seed if self._sample_fraction > 0 else None
            ),
        )
        universe = tuple(db.universe)

        run_span = obs.span(
            "run",
            algorithm=self.name,
            engine=engine.name,
            num_transactions=len(db),
            min_support_count=threshold,
        )
        try:
            with run_span:
                handles = engine.handles_for(db)
                seed_family, seed_border = self._sample_seed_family(
                    db, threshold, fraction, obs
                )

                # ---- phase I: local MFS per partition, within budget
                phase1 = stats.new_pass(1)
                phase1_started = time.perf_counter()
                with obs.span(
                    "pass", k=1, phase="local-mfs", partitions=len(handles)
                ) as phase1_span:
                    summaries = self._mine_partitions(
                        db, engine, handles, universe, threshold,
                        seed_family, seed_border, obs,
                    )
                    local_union: Set[Itemset] = set()
                    for summary in summaries:
                        local_union.update(summary["mfs"])
                    phase1.bottom_up_candidates = sum(
                        summary["candidates"] for summary in summaries
                    )
                    phase1.seconds = time.perf_counter() - phase1_started
                    # the Partition convention: phase I is one logical
                    # read of the database, whatever the partition count
                    stats.records_read += len(db)
                    engine.records_read += len(db)
                    if obs.enabled:
                        phase1_span.set(
                            local_mfs_union=len(local_union),
                            **phase1.to_dict()
                        )

                # ---- phase II: one global pass over U + its border,
                # then cache-served top-down classification
                result = self._global_verify(
                    db, engine, universe, threshold, fraction,
                    local_union, stats, obs,
                )

                stats.seconds = time.perf_counter() - started
                evidence = engine.evidence()
                evidence.update(
                    parallelism=self._effective_parallelism(
                        db, len(handles)
                    ),
                    seeded_partitions=sum(
                        1 for s in summaries if s["seeded"]
                    ),
                    sample_fraction=self._sample_fraction,
                    local_mfs_total=sum(len(s["mfs"]) for s in summaries),
                )
                worker_accounting = [
                    s["accounting"] for s in summaries if "accounting" in s
                ]
                if worker_accounting:
                    evidence["worker_accounting"] = worker_accounting
                stats.engine_evidence = evidence
                if obs.enabled:
                    run_span.set(
                        passes=stats.num_passes,
                        total_candidates=stats.total_candidates,
                        mfs_size=len(result.mfs),
                        records_read=stats.records_read,
                    )
                    obs.gauge("miner.mfs_size").set(len(result.mfs))
                    obs.counter("miner.runs").inc()
        finally:
            if owned:
                engine.close()
        logger.debug("%s", stats.summary())
        return MiningResult(
            mfs=result.mfs,
            supports=result.supports,
            num_transactions=len(db),
            min_support_count=threshold,
            min_support=fraction,
            algorithm=self.name,
            stats=stats,
        )

    # ------------------------------------------------------------------

    def _sample_seed_family(
        self, db, threshold: int, fraction: float, obs: Instrumentation
    ) -> Tuple[Optional[List[Itemset]], Optional[List[Itemset]]]:
        """Toivonen candidate family + its negative border, or (None, None).

        The sample is drawn in one streaming pass over the database
        (index membership against a seeded draw), so disk-backed
        databases are never materialised in full.
        """
        if self._sample_fraction <= 0 or len(db) == 0:
            return None, None
        with obs.span("generate", phase="sample-seed") as span:
            size = max(1, int(self._sample_fraction * len(db)))
            rng = random.Random(self._sample_seed)
            wanted = frozenset(rng.sample(range(len(db)), size))
            sample = TransactionDatabase(
                row for position, row in enumerate(db) if position in wanted
            )
            sample_threshold = max(
                1, int(self._lowering * fraction * len(sample))
            )
            sample_result = Apriori(engine=self._engine).mine(
                sample, min_count=sample_threshold
            )
            family = sorted(
                maximal_elements(
                    itemset
                    for itemset, count in sample_result.supports.items()
                    if count >= sample_threshold
                )
            )
            if not family:
                return None, None
            border = sorted(negative_border(family, db.universe))
            if obs.enabled:
                span.set(family=len(family), border=len(border))
        return family, border

    def _mine_partitions(
        self,
        db,
        engine: PartitionedCounter,
        handles: Sequence,
        universe: Tuple[int, ...],
        threshold: int,
        seed_family: Optional[List[Itemset]],
        seed_border: Optional[List[Itemset]],
        obs: Instrumentation,
    ) -> List[Dict[str, object]]:
        """Phase I dispatch: serial in-process, or a worker pool."""
        parallelism = self._effective_parallelism(db, len(handles))
        if parallelism > 1:
            summaries = self._mine_partitions_pooled(
                db, handles, threshold, parallelism,
                seed_family, seed_border,
            )
            for summary in summaries:
                self._emit_partition_obs(obs, summary)
            return summaries
        summaries = []
        for handle in handles:
            engine._make_room(handle, handles)
            summaries.append(
                _mine_one_partition(
                    handle, universe,
                    _local_threshold(threshold, handle.num_rows, len(db)),
                    self._engine, self._adaptive,
                    seed_family, seed_border,
                )
            )
            self._emit_partition_obs(obs, summaries[-1])
        return summaries

    def _mine_partitions_pooled(
        self, db, handles, threshold: int, parallelism: int,
        seed_family, seed_border,
    ) -> List[Dict[str, object]]:
        """Snapshot-backed partitions through a fork pool, budget split."""
        budget = self._memory_budget
        specs = [
            {
                "snapshot_path": str(db.snapshot_path),
                "ordinal": handle.ordinal,
                "local_threshold": _local_threshold(
                    threshold, handle.num_rows, len(db)
                ),
                "engine": self._engine,
                "adaptive": self._adaptive,
                "seed_family": seed_family,
                "seed_border": seed_border,
                "budget": budget // parallelism if budget else None,
            }
            for handle in handles
        ]
        try:
            with ProcessPoolExecutor(max_workers=parallelism) as pool:
                return list(pool.map(_mine_partition_task, specs))
        except (OSError, RuntimeError) as exc:
            logger.warning(
                "partition worker pool failed (%s); mining serially", exc
            )
            return [_mine_partition_task(spec) for spec in specs]

    def _effective_parallelism(self, db, num_partitions: int) -> int:
        """Requested width, capped by partitions, env, and snapshot-ness."""
        wanted = min(self._parallelism, max(1, num_partitions))
        env_cap = os.environ.get(MAX_WORKERS_ENV)
        if env_cap:
            try:
                wanted = min(wanted, max(1, int(env_cap)))
            except ValueError:
                pass
        if wanted > 1 and getattr(db, "snapshot_path", None) is None:
            logger.info(
                "parallel phase I needs a snapshot-backed database; "
                "mining partitions serially"
            )
            return 1
        return wanted

    @staticmethod
    def _emit_partition_obs(
        obs: Instrumentation, summary: Dict[str, object]
    ) -> None:
        """One ``partition`` span (+ metrics) per completed local mine."""
        if not obs.enabled:
            return
        with obs.span(
            "partition",
            row_start=summary["row_start"],
            rows=summary["rows"],
            local_threshold=summary["local_threshold"],
            mfs_size=len(summary["mfs"]),
            passes=summary["passes"],
            records_read=summary["records_read"],
            seeded=summary["seeded"],
            seconds=round(summary["seconds"], 6),
        ):
            pass
        obs.counter("partition.mined").inc()
        obs.counter("partition.local_passes").inc(summary["passes"])
        obs.counter("partition.local_mfs").inc(len(summary["mfs"]))
        if summary["seeded"]:
            obs.counter("partition.sample_seeded").inc()

    # ------------------------------------------------------------------

    def _global_verify(
        self,
        db,
        engine: PartitionedCounter,
        universe: Tuple[int, ...],
        threshold: int,
        fraction: float,
        local_union: Set[Itemset],
        stats: MiningStats,
        obs: Instrumentation,
    ) -> MiningResult:
        """Phase II: batch-count U + border, then top-down classify."""
        seed = sorted(maximal_elements(local_union))
        border = negative_border(seed, universe)
        to_count = sorted(set(local_union) | border)
        phase2 = stats.new_pass(2)
        phase2_started = time.perf_counter()
        with obs.span(
            "pass", k=2, phase="global-verify", candidates=len(to_count)
        ) as phase2_span:
            supports = dict(engine.count(db, to_count)) if to_count else {}
            phase2.bottom_up_candidates = len(to_count)
            phase2.infrequent_found = sum(
                1 for value in supports.values() if value < threshold
            )
            phase2.frequent_found = len(supports) - phase2.infrequent_found
            phase2.seconds = time.perf_counter() - phase2_started
            if obs.enabled:
                phase2_span.set(**phase2.to_dict())
        frequent_border = [
            member for member in border
            if supports.get(member, 0) >= threshold
        ]
        if frequent_border:
            # the Partition lemma proves these infrequent; a hit means a
            # broken invariant (bad snapshot, non-additive counts), not
            # a data property — refuse to return a silently wrong MFS
            raise AssertionError(
                "%d negative-border itemsets counted globally frequent "
                "(e.g. %r); partitioned counting violated the "
                "additive-support invariant"
                % (len(frequent_border), frequent_border[0])
            )
        if not seed:
            # nothing locally frequent anywhere ⇒ (by the lemma) nothing
            # globally frequent; the border pass above verified exactly
            # that for every singleton
            return MiningResult(
                mfs=frozenset(),
                supports=supports,
                num_transactions=len(db),
                min_support_count=threshold,
                min_support=fraction,
                algorithm=self.name,
                stats=stats,
            )

        # pre-warm the cache with the verified counts: the final miner's
        # first classification is then served entirely from cache, and
        # real partition sweeps happen only where the MFCS descends
        cache = SupportCache()
        cache.store_batch(supports)
        cached = CachedSupportCounter(engine, cache)
        passes_before = engine.passes
        final = PincerSearch(engine=self._engine, adaptive=False).mine(
            db, min_count=threshold, counter=cached,
            initial_mfcs=seed, bottom_up=False,
        )
        descent_passes = engine.passes - passes_before
        if descent_passes:
            # only descents that really swept the partitions are logical
            # reads (cache-served classifications are free); the billed
            # passes are the later ones — renumber them after phase II
            for pass_stats in final.stats.passes[-descent_passes:]:
                pass_stats.pass_number = stats.num_passes + 1
                stats.passes.append(pass_stats)
        stats.records_read = engine.records_read
        if obs.enabled:
            obs.counter("partition.descent_passes").inc(descent_passes)
        supports.update(final.supports)
        return MiningResult(
            mfs=final.mfs,
            supports=supports,
            num_transactions=len(db),
            min_support_count=threshold,
            min_support=fraction,
            algorithm=self.name,
            stats=stats,
        )


def partitioned_mine(
    db,
    min_support: Optional[float] = None,
    *,
    min_count: Optional[int] = None,
    num_partitions: Optional[int] = None,
    memory_budget: Optional[int] = None,
    parallelism: int = 1,
    sample_fraction: float = 0.0,
    sample_seed: int = 0,
) -> MiningResult:
    """Functional one-shot entry point; see :class:`PartitionedPincerMiner`.

    >>> from repro.db.transaction_db import TransactionDatabase
    >>> db = TransactionDatabase([[1, 2, 3]] * 6 + [[4]] * 2)
    >>> sorted(partitioned_mine(db, 0.5, num_partitions=2).mfs)
    [(1, 2, 3)]
    """
    miner = PartitionedPincerMiner(
        num_partitions=num_partitions,
        memory_budget=memory_budget,
        parallelism=parallelism,
        sample_fraction=sample_fraction,
        sample_seed=sample_seed,
    )
    return miner.mine(db, min_support, min_count=min_count)
