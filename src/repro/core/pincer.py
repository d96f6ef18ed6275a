"""The Pincer-Search algorithm (paper Section 3.5).

Pincer-Search runs the Apriori-style bottom-up breadth-first search while
simultaneously maintaining the MFCS top-down.  Each pass reads the database
once, counting both the bottom-up candidates ``C_k`` and the unclassified
MFCS elements.  MFCS elements found frequent are maximal frequent itemsets
(their supersets were excluded by earlier infrequent discoveries) and move
to the MFS; their subsets disappear from the bottom-up search
(Observation 2).  Infrequent itemsets found bottom-up split the MFCS via
MFCS-gen (Observation 1), letting the top-down front descend many levels
per pass.

The implementation follows the paper's pseudocode with the documented
amendments (DESIGN.md):

* **A1** — the loop continues while the MFCS still holds *unclassified*
  elements, even when ``C_k`` is empty; the paper's ``C_k ≠ ∅`` guard can
  terminate with maximal frequent itemsets still uncounted inside MFCS.
* **A2** — MFCS elements counted infrequent are fed back into MFCS-gen
  (they are classified-infrequent itemsets, and Definition 1 forbids the
  MFCS from keeping them covered).  A1+A2 also make the top-down half a
  complete maximal-itemset miner on its own, which guarantees overall
  completeness even in corner cases where the join+recovery bottom-up
  chain stalls (see the A6 discussion in DESIGN.md).
* **A3/A4/A6** — see :mod:`repro.core.candidates` and
  :mod:`repro.core.mfcs`.

Pass 2 (Section 4.1.1): level 2 is every pair of frequent items, which
the paper counts in a 2-D array.  The kernel hands it over as a lazy
:class:`~repro.db.base.PairLevel`, the pass counts it as one
:class:`~repro.db.base.PairBatch` beside the uncounted MFCS elements,
and the shared adapter (:func:`~repro.db.vertical.level_counts`) turns
whatever the engine answers into the level's count array.  The frequent
pairs come out of it with one ``np.nonzero``, the infrequent ones are
built only when MFCS-gen runs, and ``supports`` takes every counted pair
in one bulk update; the miner never sorts, batches or classifies the
``C(|L1|, 2)`` pair tuples.  Pass 1 proves that no other item than L1's
can be in a frequent itemset, so a bottom-up mine whose pass 1 found no
maximal itemset re-encodes the MFCS and the MFS cover through
:meth:`~repro.core.kernel.LatticeKernel.restricted`, and every later
mask, probe and cover table is ``|L1|`` bits wide.

Adaptivity (Section 3.5): a pluggable
:class:`~repro.core.adaptive.AdaptivePolicy` may abandon the MFCS mid-run,
at the pass-2 frequent-ratio cue or when an MFCS-gen update blows its
work cap; :class:`~repro.core.stats.MiningStats` records which, and when.
The algorithm then completes the remaining levels with :func:`levelwise`,
the loop :class:`~repro.algorithms.apriori.Apriori` runs.  To stay
complete — and to keep the Observation-2 savings — the discovered maximal
itemsets are its oracle: their subsets rejoin the Apriori join as
known-frequent itemsets and are never counted (amendment A6).

This module holds the two pass loops of the package.  Every other miner
runs one of them: ``Apriori`` the levelwise loop from level 0,
:class:`~repro.algorithms.topdown.TopDown` the pincer loop's top-down half
(``bottom_up=False``) from the full universe, and
:class:`~repro.core.predicate.PredicatePincer` the pure pincer loop over a
counter that asks a predicate.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from ..db.base import PairBatch, PairLevel
from ..db.counting import CountingDeadline, SupportCounter, resolve_counter
from ..db.transaction_db import TransactionDatabase
from ..db.vertical import as_level, level_counts, pass_batch
from ..obs.instrument import NOOP, Instrumentation
from ..obs.logsetup import get_logger
from ..obs.tracing import NOOP_SPAN
from .adaptive import AdaptivePolicy, AlwaysMaintain
from .bitset import candidate_upper_bound
from .candidates import first_level_candidates
from .itemset import Itemset
from .kernel import LatticeKernel, make_kernel
from .lattice import maximal_elements
from .result import MiningResult
from .stats import MiningStats, PassStats

logger = get_logger("core.pincer")


@contextmanager
def _engine_scope(engine: SupportCounter, owned: bool):
    """Close ``engine`` on exit when the miner created it itself.

    Caller-supplied counters are the caller's to manage (the bench
    harness reuses one across runs); miner-created ones would otherwise
    keep their mapped partitions until GC.
    """
    try:
        yield engine
    finally:
        if owned:
            engine.close()


class PincerSearch:
    """Configurable Pincer-Search miner.

    Parameters
    ----------
    engine:
        Counting-engine name (see :func:`repro.db.counting.get_counter`).
        The default ``"auto"`` resolves per database at :meth:`mine` time:
        ``packed`` (vectorized NumPy) on large databases when NumPy is
        installed, else ``bitmap``.
    adaptive:
        When True (the paper's evaluated configuration) an
        :class:`AdaptivePolicy` may abandon the MFCS; when False the pure
        algorithm maintains it to the end.
    policy:
        Explicit policy instance, overriding ``adaptive``.  Policies keep
        no per-mine state, so one instance serves every mine alike; each
        result's ``stats.abandon_reason`` says whether it abandoned.
    kernel:
        Lattice-kernel name (see :mod:`repro.core.kernel`): ``"bitmask"``
        (interned masks; None selects it) or ``"tuple"`` (the seed
        reference), or a kernel instance.  Both kernels produce identical
        results; the differential tests and the ledger's reference
        answers rely on it.
    """

    def __init__(
        self,
        engine: str = "auto",
        adaptive: bool = True,
        policy: Optional[AdaptivePolicy] = None,
        kernel: Optional[str] = None,
    ) -> None:
        self._engine = engine
        self._adaptive = adaptive
        self._policy = policy
        self._kernel = kernel

    @property
    def name(self) -> str:
        return "pincer-search" if self._adaptive else "pincer-search-pure"

    # ------------------------------------------------------------------

    def mine(
        self,
        db: TransactionDatabase,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        counter: Optional[SupportCounter] = None,
        obs: Optional[Instrumentation] = None,
        initial_mfcs: Optional[List[Itemset]] = None,
        bottom_up: bool = True,
    ) -> MiningResult:
        """Discover the maximum frequent set of ``db``.

        Exactly one of ``min_support`` (fraction of ``|D|``) and
        ``min_count`` (absolute transactions) must be given.  ``obs``
        (see :func:`repro.obs.capture`) enables span tracing and metrics
        for the run; the default no-op instrumentation costs nothing.

        ``initial_mfcs`` seeds the top-down front in place of the
        full-universe MFCS.  The seed must satisfy *both* MFCS
        invariants at this threshold: (a) it covers every frequent
        itemset, and (b) every strict superset of a member is
        infrequent — (b) is what licenses declaring a frequent MFCS
        element maximal.  The maximal frequent family previously mined
        on the *same database* at a threshold ``<=`` this one satisfies
        both (any itemset frequent now was frequent then, hence under
        some old maximal member; any strict superset of an old maximal
        member was infrequent then, hence infrequent now).  Sessions,
        not end callers, supply this.  An element naming an item outside
        ``db.universe`` raises :class:`ValueError`.

        ``bottom_up=False`` runs the top-down half alone: no Apriori
        candidates, only MFCS classification and descent, from
        ``initial_mfcs`` or else the full universe (Section 3.1's pure
        top-down search, :class:`~repro.algorithms.topdown.TopDown`).
        Amendments A1/A2 make that a complete maximal miner by itself,
        and with a tight ``initial_mfcs`` (e.g. the maximal union of
        per-partition mines, which already covers every frequent
        itemset) it touches the database only where classifications
        flip.  The adaptive default does not apply in this mode: the
        MFCS is maintained to the end unless an explicit ``policy``
        caps it.
        """
        if initial_mfcs is not None:
            outside = set(chain.from_iterable(initial_mfcs)).difference(
                db.universe
            )
            if outside:
                raise ValueError(
                    "initial_mfcs names item %r, which is not in the "
                    "database's universe" % min(outside)
                )
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
        policy = self._policy
        if policy is None:
            policy = (
                AdaptivePolicy()
                if self._adaptive and bottom_up
                else AlwaysMaintain()
            )
        lattice = make_kernel(self._kernel, db.universe)
        started = time.perf_counter()

        stats = MiningStats(
            algorithm=self.name,
            engine=decision.engine,
            engine_evidence=decision.evidence,
        )
        supports: Dict[Itemset, int] = {}
        mfs: Set[Itemset] = set()
        mfs_cover = lattice.make_cover()
        if initial_mfcs is None:
            mfcs = lattice.make_mfcs(db.universe)
        else:
            mfcs = lattice.make_mfcs_from(initial_mfcs)
        candidates: List[Itemset] = (
            first_level_candidates(db.universe) if bottom_up else []
        )
        # every itemset known frequent, counted or virtual (MFS-implied)
        frequents_seen: Set[Itemset] = set()
        longest_maximal = 0
        k = 0

        run_span = obs.span(
            "run",
            algorithm=self.name,
            engine=engine.name,
            kernel=lattice.name,
            num_transactions=len(db),
            min_support_count=threshold,
        )
        with _engine_scope(engine, counter is None), run_span:
            while stats.abandon_reason is None and (
                candidates or len(mfcs) > 0
            ):
                k += 1
                if k > 2 * db.num_items + 4:
                    # bottom-up needs ≤ n levels; the pure top-down descent
                    # of A1/A2 at most n more (one level per free pass)
                    raise AssertionError("pincer-search failed to terminate")
                pass_stats = PassStats(pass_number=k)
                pass_started = time.perf_counter()
                splits_before = mfcs.splits
                exclusions_before = mfcs.exclusions
                cover_queries_before = mfcs.cover_queries
                cover_visits_before = mfcs.cover_node_visits
                # ----- one database read: C_k plus unclassified MFCS
                # elements (the engine emits the nested "count" span);
                # level 2 stays the lazy pair level throughout.  An
                # iteration with nothing left to count is no pass, so
                # MiningStats, the trace and the progress events skip it
                mfcs_elements = sorted(mfcs)
                batch, num_bottom_up = pass_batch(
                    candidates, mfcs_elements, supports
                )
                pass_scope = obs.span("pass", k=k) if len(batch) else NOOP_SPAN
                with pass_scope as pass_span:
                    counted = level_counts(
                        candidates, engine.count(db, batch), supports
                    )
                    pass_stats.bottom_up_candidates = num_bottom_up
                    # MFCS elements counted this pass (an element that
                    # doubles as a bottom-up candidate is billed once, as
                    # the bottom-up side)
                    pass_stats.mfcs_candidates = len(batch) - num_bottom_up

                    with obs.span("prune"):
                        # ----- classify the MFCS elements (paper line 7
                        # + amendment A2)
                        infrequent_mfcs: List[Itemset] = []
                        for element in mfcs_elements:
                            if supports[element] >= threshold:
                                mfs.add(element)
                                mfs_cover.add(element)
                                mfcs.remove(element)
                                pass_stats.maximal_found += 1
                                longest_maximal = max(
                                    longest_maximal, len(element)
                                )
                            else:
                                infrequent_mfcs.append(element)

                        # ----- classify the bottom-up candidates (paper
                        # lines 8-9); the infrequent ones are built only
                        # if MFCS-gen runs
                        frequent_in_ck = counted.frequent(threshold)
                        level_frequents = [
                            c for c in frequent_in_ck if not mfs_cover.covers(c)
                        ]
                        pass_stats.frequent_found = len(frequent_in_ck)
                        pass_stats.infrequent_found = len(candidates) - len(
                            frequent_in_ck
                        )
                        pass_stats.pruned_as_mfs_subsets = len(
                            frequent_in_ck
                        ) - len(level_frequents)
                        frequents_seen.update(level_frequents)

                    bound = candidate_upper_bound(len(level_frequents), k)
                    if obs.enabled:
                        pass_span.set(candidate_bound=bound)
                        obs.gauge("miner.candidate_bound").set(bound)
                    # ----- pre-update adaptivity (Section 3.5's "many
                    # 2-itemsets, few frequent" cue): a scattered pass 2
                    # abandons the MFCS before MFCS-gen even starts
                    if not policy.keep_after_classification(
                        k, len(frequent_in_ck), len(candidates), longest_maximal
                    ):
                        stats.abandon_reason = "frequent-ratio"
                        pass_stats.mfcs_size_after = 0
                        pass_stats.seconds = time.perf_counter() - pass_started
                        if pass_stats.total_candidates:
                            stats.passes.append(pass_stats)
                        self._finish_pass_obs(
                            obs, pass_span, pass_stats,
                            mfcs.splits - splits_before,
                            mfcs.exclusions - exclusions_before,
                            mfcs.cover_queries - cover_queries_before,
                            mfcs.cover_node_visits - cover_visits_before,
                            candidate_bound=bound,
                            mfs_size=len(mfs),
                        )
                        break

                    # ----- update MFCS (paper line 14, with A2/A4)
                    with obs.span("mfcs_gen") as mfcs_span:
                        size_cap, work_cap = policy.update_caps(longest_maximal)
                        completed = mfcs.update(
                            counted.infrequent(threshold),
                            protected=mfs_cover,
                            size_cap=size_cap,
                            work_cap=work_cap,
                        )
                        if completed:
                            completed = mfcs.update(
                                infrequent_mfcs,
                                protected=mfs_cover,
                                size_cap=size_cap,
                                work_cap=work_cap,
                            )
                        if not completed:
                            # mid-update blow-up (scattered distributions):
                            # the MFCS contents are no longer meaningful
                            policy.abandon()
                            stats.abandon_reason = "mfcs-update-cap"
                        pass_stats.mfcs_size_after = (
                            len(mfcs) if completed else 0
                        )
                        mfcs_span.set(
                            completed=completed,
                            mfcs_size=pass_stats.mfcs_size_after,
                        )

                    # ----- candidate generation (paper lines 10-13)
                    if completed:
                        with obs.span("generate"):
                            next_candidates = lattice.generate_candidates(
                                level_frequents, mfs_cover, k
                            )
                            if mfs:
                                with obs.span("recover"):
                                    pass_stats.recovered_candidates = (
                                        _count_recovered(
                                            level_frequents, next_candidates
                                        )
                                    )
                        candidates = as_level(next_candidates)

                    pass_stats.seconds = time.perf_counter() - pass_started
                    if pass_stats.total_candidates:
                        stats.passes.append(pass_stats)
                    self._finish_pass_obs(
                        obs, pass_span, pass_stats,
                        mfcs.splits - splits_before,
                        mfcs.exclusions - exclusions_before,
                        mfcs.cover_queries - cover_queries_before,
                        mfcs.cover_node_visits - cover_visits_before,
                        candidate_bound=bound,
                        mfs_size=len(mfs),
                    )

                if (
                    k == 1 and bottom_up and not mfs
                    and stats.abandon_reason is None
                ):
                    # Pass 1 proved that only L1's items can be in a
                    # frequent itemset: MFCS-gen stripped every other item
                    # from the MFCS, and level 2 pairs L1's items.  So the
                    # later passes run on masks |L1| bits wide.  A warm
                    # seed whose members pass 1 counted frequent is left
                    # as it is: re-encoding a populated MFS costs more
                    # than the narrower masks save.
                    narrowed = lattice.restricted(
                        itemset_[0] for itemset_ in level_frequents
                    )
                    if narrowed is not lattice:
                        lattice = narrowed
                        mfcs = lattice.make_mfcs_from(mfcs)
                        mfs_cover = lattice.make_cover()

            if stats.abandon_reason is not None:
                # The MFCS was abandoned (Section 3.5's adaptive fallback):
                # finish with Apriori's own loop, the counts so far as its
                # cache and the MFS as its known-frequent oracle.  If no
                # maximal itemset was discovered before abandonment, no
                # pruning ever removed a frequent itemset and the levels
                # classified bottom-up so far are complete — the sweep
                # resumes right at the current level.  Otherwise it
                # rebuilds every level from the bottom, because the
                # maintained phase's candidate generation only guarantees
                # completeness jointly with the MFCS (the recovery
                # procedure misses candidates both of whose join parents
                # are subsets of two *different* MFS members — see
                # DESIGN.md A6).  Either way only genuinely unknown
                # itemsets reach the engine.
                stats.abandoned_at_pass = k
                logger.info(
                    "MFCS abandoned (%s) after pass %d; completing bottom-up",
                    stats.abandon_reason, k,
                )
                if progress.enabled:
                    progress.on_abandon(k=k, reason=stats.abandon_reason)
                levelwise(
                    db, engine, threshold, lattice, stats, supports,
                    frequents_seen, known=mfs_cover,
                    level=k if bottom_up and not mfs else 0,
                    pass_number=k, phase="sweep", obs=obs,
                )

            final_mfs = maximal_elements(mfs | frequents_seen)
            stats.seconds = time.perf_counter() - started
            stats.records_read = engine.records_read
            if obs.enabled:
                run_span.set(
                    passes=stats.num_passes,
                    total_candidates=stats.total_candidates,
                    mfs_size=len(final_mfs),
                    records_read=stats.records_read,
                    abandoned=stats.abandon_reason is not None,
                )
                obs.gauge("miner.mfs_size").set(len(final_mfs))
                obs.counter("miner.runs").inc()
        if progress.enabled:
            progress.on_finish(
                mfs_size=len(final_mfs),
                passes=stats.num_passes,
                seconds=stats.seconds,
            )
        logger.debug("%s", stats.summary())
        return MiningResult(
            mfs=frozenset(final_mfs),
            supports=supports,
            num_transactions=len(db),
            min_support_count=threshold,
            min_support=fraction,
            algorithm=self.name,
            stats=stats,
        )

    @staticmethod
    def _finish_pass_obs(
        obs: Instrumentation,
        pass_span,
        pass_stats: PassStats,
        splits: int,
        exclusions: int,
        cover_queries: int = 0,
        cover_node_visits: int = 0,
        candidate_bound: int = 0,
        mfs_size: int = 0,
    ) -> None:
        """Record one finished iteration on its span and in the registry.

        Only an iteration that counted something is a pass and sends a
        progress event.
        """
        logger.debug(
            "pass %d: %d bottom-up + %d MFCS candidates, %d frequent, "
            "%d maximal, |MFCS|=%d",
            pass_stats.pass_number, pass_stats.bottom_up_candidates,
            pass_stats.mfcs_candidates, pass_stats.frequent_found,
            pass_stats.maximal_found, pass_stats.mfcs_size_after,
        )
        progress = obs.progress
        if progress.enabled and pass_stats.total_candidates:
            progress.on_pass(
                k=pass_stats.pass_number,
                candidates=pass_stats.total_candidates,
                mfcs_size=pass_stats.mfcs_size_after,
                candidate_bound=candidate_bound,
                maximal_found=pass_stats.maximal_found,
                mfs_size=mfs_size,
            )
        if not obs.enabled:
            return
        pass_span.set(
            mfcs_splits=splits,
            mfcs_exclusions=exclusions,
            **pass_stats.to_dict(),
        )
        obs.counter("miner.candidates.bottom_up").inc(
            pass_stats.bottom_up_candidates
        )
        obs.counter("miner.candidates.mfcs").inc(pass_stats.mfcs_candidates)
        obs.counter("miner.frequent_found").inc(pass_stats.frequent_found)
        obs.counter("miner.maximal_found").inc(pass_stats.maximal_found)
        obs.counter("miner.recovered_candidates").inc(
            pass_stats.recovered_candidates
        )
        obs.counter("miner.pruned_as_mfs_subsets").inc(
            pass_stats.pruned_as_mfs_subsets
        )
        obs.counter("mfcs.splits").inc(splits)
        obs.counter("mfcs.exclusions").inc(exclusions)
        obs.counter("mfcs.cover_queries").inc(cover_queries)
        obs.counter("mfcs.cover_node_visits").inc(cover_node_visits)
        obs.gauge("mfcs.size").set(pass_stats.mfcs_size_after)


def _count_recovered(
    level_frequents: List[Itemset],
    next_candidates: "Set[Itemset] | PairLevel",
) -> int:
    """How many surviving candidates the plain join alone missed.

    A (k+1)-candidate ``c`` is in the join of L_k exactly when both
    ``c[:-1]`` and ``c[:-2] + c[-1:]`` are in L_k, so no join is rebuilt.
    """
    if isinstance(next_candidates, PairLevel):
        return _recovered_pairs(
            next_candidates, {itemset_[0] for itemset_ in level_frequents}
        )
    frequent = set(level_frequents)
    return sum(
        1
        for candidate in next_candidates
        if candidate[:-1] not in frequent
        or candidate[:-2] + candidate[-1:] not in frequent
    )


def _recovered_pairs(level: PairLevel, frequent_items: Set[int]) -> int:
    """The pairs of ``level`` with an item outside L1, which the k = 1
    join (every pair over L1's items) cannot make.  Only pairs on an
    outside item are probed; the level's other pairs are never built."""
    outside = sorted(set(level.items) - frequent_items)
    return sum(
        (min(x, y), max(x, y)) in level
        for x in outside
        for y in level.items
        if y in frequent_items or y > x
    )


def levelwise(
    db: TransactionDatabase,
    engine: SupportCounter,
    threshold: int,
    lattice: LatticeKernel,
    stats: MiningStats,
    supports: Dict[Itemset, int],
    frequents: Set[Itemset],
    *,
    known=None,
    level: int = 0,
    pass_number: int = 0,
    phase: str = "pass",
    obs: Instrumentation = NOOP,
) -> None:
    """Apriori's levelwise loop, with a count cache and a frequency oracle.

    Level ``k + 1`` joins the frequent ``k``-itemsets and prunes the
    joins with an infrequent ``k``-subset (Observation 1); level 2 is the
    lazy :class:`~repro.db.base.PairLevel` over the frequent items.  A
    candidate is classified without the database when ``supports``
    already holds its count, or when it is uncounted and ``known`` (a
    cover of itemsets known frequent) covers it; the rest are counted in
    one pass per level that has any.  Every count lands in ``supports``
    and every frequent itemset in ``frequents``; the passes are appended
    to ``stats`` as ``pass_number + 1``, ``+ 2``, ..., each under a
    ``phase`` span and progress event.

    :class:`~repro.algorithms.apriori.Apriori` runs it from level 0 with
    nothing known.  :class:`PincerSearch` runs it once it stops
    maintaining the MFCS, with its counts and its MFS as the oracle,
    resuming after ``level`` (whose frequent itemsets must all be in
    ``frequents``) or, at 0, rebuilding from level 1.  A set
    ``engine.deadline`` is checked before each level and inside the join;
    passing it raises :class:`~repro.db.counting.CountingDeadline`.
    """
    progress = obs.progress
    current = sorted(f for f in frequents if len(f) == level) if level else []
    while True:
        if level == 0:
            candidates = first_level_candidates(db.universe)
        else:
            with obs.span("generate"):
                if level == 1:
                    candidates = as_level(
                        lattice.generate_candidates(current, (), 1)
                    )
                else:
                    joined = lattice.apriori_join(
                        current, deadline=engine.deadline
                    )
                    candidates = sorted(lattice.apriori_prune(joined, current))
        if not candidates:
            return
        level += 1
        if engine.deadline is not None and time.perf_counter() > engine.deadline:
            raise CountingDeadline("levelwise search passed its deadline")
        # cached pairs are found from the dict side, as pass_batch does
        if isinstance(candidates, PairLevel):
            cached = [s for s in supports if len(s) == 2 and s in candidates]
            unknown = candidates.without(cached)
        else:
            cached = [c for c in candidates if c in supports]
            unknown = [c for c in candidates if c not in supports]
        frequent = [c for c in cached if supports[c] >= threshold]
        if known is not None:
            covered = [c for c in unknown if known.covers(c)]
            if covered:
                frequent += covered  # known frequent, never counted
                if isinstance(unknown, PairLevel):
                    unknown = unknown.without(covered)
                else:
                    covered = set(covered)
                    unknown = [c for c in unknown if c not in covered]
        if unknown:
            pass_number += 1
            pass_started = time.perf_counter()
            with obs.span(phase, k=level) as pass_span:
                batch = (
                    PairBatch(unknown)
                    if isinstance(unknown, PairLevel)
                    else unknown
                )
                counted = level_counts(
                    unknown, engine.count(db, batch), supports
                ).frequent(threshold)
                pass_stats = stats.new_pass(pass_number)
                pass_stats.bottom_up_candidates = len(unknown)
                pass_stats.frequent_found = len(counted)
                pass_stats.infrequent_found = len(unknown) - len(counted)
                pass_stats.seconds = time.perf_counter() - pass_started
                if obs.enabled:
                    pass_span.set(**pass_stats.to_dict())
                    obs.counter("miner.candidates.bottom_up").inc(
                        pass_stats.bottom_up_candidates
                    )
                    obs.counter("miner.frequent_found").inc(len(counted))
            frequent += counted
            if progress.enabled:
                progress.on_pass(
                    k=level,
                    candidates=len(unknown),
                    mfcs_size=0,
                    candidate_bound=candidate_upper_bound(len(frequent), level),
                    phase=phase,
                )
        current = sorted(frequent)
        frequents.update(current)
        if not current:
            return


def resolve_threshold(
    db: TransactionDatabase,
    min_support: Optional[float],
    min_count: Optional[int],
) -> Tuple[int, float]:
    """Normalise the (fractional, absolute) support threshold pair."""
    if (min_support is None) == (min_count is None):
        raise ValueError("give exactly one of min_support and min_count")
    if min_count is not None:
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        fraction = min_count / len(db) if len(db) else 1.0
        return min_count, fraction
    return db.absolute_support(min_support), float(min_support)


def pincer_search(
    db: TransactionDatabase,
    min_support: Optional[float] = None,
    *,
    min_count: Optional[int] = None,
    engine: str = "auto",
    adaptive: bool = True,
    policy: Optional[AdaptivePolicy] = None,
    obs: Optional[Instrumentation] = None,
    initial_mfcs: Optional[List[Itemset]] = None,
    bottom_up: bool = True,
) -> MiningResult:
    """Functional one-shot entry point; see :class:`PincerSearch`.

    >>> from repro.db.transaction_db import TransactionDatabase
    >>> db = TransactionDatabase([[1, 2, 3], [1, 2, 3], [1, 2], [3]])
    >>> sorted(pincer_search(db, 0.5).mfs)
    [(1, 2, 3)]
    """
    miner = PincerSearch(engine=engine, adaptive=adaptive, policy=policy)
    return miner.mine(
        db, min_support, min_count=min_count, obs=obs,
        initial_mfcs=initial_mfcs, bottom_up=bottom_up,
    )
