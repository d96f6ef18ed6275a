"""Pincer-Search over arbitrary anti-monotone predicates.

The paper frames frequent-itemset discovery as an instance of a more
general problem (Section 1 and the version-space discussion in Section 5):
given a finite universe and a predicate ``P`` over its subsets that is
**anti-monotone** (``P(X)`` and ``Y ⊆ X`` imply ``P(Y)``), find the
*maximal* sets satisfying ``P``.  Frequency above a threshold is one such
predicate; "attribute set is NOT a key of this relation" (minimal-keys
discovery, reference [11] of the paper) and "episode occurs in enough
windows" are others.

:class:`PredicatePincer` runs the same two-way search as the main miner —
levelwise candidates from the bottom, an MFCS frontier from the top — but
evaluates an oracle callback instead of counting a database.  The oracle
is consulted once per distinct set (answers are memoised), and the
*batch* in which sets are asked mirrors the passes of the main algorithm,
so oracle-call accounting matches the paper's candidate accounting.

For database frequency the main :class:`~repro.core.pincer.PincerSearch`
is faster (it counts whole batches per pass); this module is the right
tool when evaluating the predicate has nothing to do with transactions.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Iterable, List, Set, Tuple

from .candidates import first_level_candidates
from .cover import CoverIndex
from .itemset import Itemset
from .kernel import BitmaskKernel
from .lattice import maximal_elements

#: An anti-monotone predicate over canonical itemsets.
Predicate = Callable[[Itemset], bool]


class OracleStats:
    """Accounting for one predicate-mining run."""

    def __init__(self) -> None:
        self.oracle_calls = 0
        self.rounds = 0
        self.maximal_found_top_down = 0

    def __repr__(self) -> str:
        return (
            "OracleStats(calls=%d, rounds=%d, top_down=%d)"
            % (self.oracle_calls, self.rounds, self.maximal_found_top_down)
        )


class PredicatePincer:
    """Maximal-satisfying-set miner for anti-monotone predicates.

    Parameters
    ----------
    predicate:
        The anti-monotone oracle.  It is the caller's responsibility that
        anti-monotonicity actually holds; :meth:`mine` verifies it on the
        fly for every (subset, superset) pair it happens to evaluate and
        raises on a violation.
    check_antimonotone:
        Disable the on-the-fly verification for speed.
    """

    def __init__(
        self,
        predicate: Predicate,
        check_antimonotone: bool = True,
    ) -> None:
        self._predicate = predicate
        self._check = check_antimonotone

    # ------------------------------------------------------------------

    def mine(
        self, universe: Iterable[int]
    ) -> Tuple[Set[Itemset], OracleStats]:
        """All maximal subsets of ``universe`` satisfying the predicate.

        Returns ``(maximal_sets, stats)``.  An empty result means not even
        a single element satisfies the predicate.
        """
        universe_set = tuple(sorted(set(universe)))
        stats = OracleStats()
        cache: Dict[Itemset, bool] = {}

        def ask(candidate: Itemset) -> bool:
            if candidate not in cache:
                stats.oracle_calls += 1
                cache[candidate] = bool(self._predicate(candidate))
            return cache[candidate]

        satisfied: Set[Itemset] = set()
        maximal: Set[Itemset] = set()
        lattice = BitmaskKernel(universe_set)
        maximal_cover = lattice.make_cover()
        mfcs = lattice.make_mfcs(universe_set)
        candidates: List[Itemset] = first_level_candidates(universe_set)
        k = 0

        while candidates or len(mfcs) > 0:
            k += 1
            if k > 2 * len(universe_set) + 4:
                raise AssertionError("predicate search failed to terminate")
            stats.rounds += 1

            frontier = sorted(mfcs)
            failing_frontier: List[Itemset] = []
            for element in frontier:
                if ask(element):
                    maximal.add(element)
                    maximal_cover.add(element)
                    mfcs.remove(element)
                    stats.maximal_found_top_down += 1
                else:
                    failing_frontier.append(element)

            level_true = []
            failing: List[Itemset] = []
            for candidate in candidates:
                if ask(candidate):
                    if not maximal_cover.covers(candidate):
                        level_true.append(candidate)
                        satisfied.add(candidate)
                else:
                    failing.append(candidate)

            if self._check:
                self._verify_antimonotonicity(cache)

            mfcs.update(failing, protected=maximal_cover)
            mfcs.update(failing_frontier, protected=maximal_cover)
            candidates = sorted(
                lattice.generate_candidates(level_true, maximal_cover, k)
            )

        result = maximal_elements(maximal | satisfied)
        return result, stats

    # ------------------------------------------------------------------

    @staticmethod
    def _verify_antimonotonicity(cache: Dict[Itemset, bool]) -> None:
        """Check anti-monotonicity over every evaluated (subset, superset).

        A violation is a false set with a true superset; a cover index of
        the true sets answers that in one query per false set.  Cost is
        linear in the evaluated family per round — acceptable for the
        oracle-mining sizes this class targets, and switchable off via
        ``check_antimonotone=False``.
        """
        trues = CoverIndex(
            candidate for candidate, value in cache.items() if value
        )
        for candidate, value in cache.items():
            if value:
                continue
            witnesses = trues.supersets_of(candidate)
            if witnesses:
                raise ValueError(
                    "predicate is not anti-monotone: %r holds but its "
                    "subset %r does not" % (witnesses[0], candidate)
                )


def maximal_satisfying_sets(
    universe: Iterable[int],
    predicate: Predicate,
    check_antimonotone: bool = True,
) -> Set[Itemset]:
    """Functional wrapper around :class:`PredicatePincer`.

    >>> sorted(maximal_satisfying_sets(range(1, 5), lambda s: sum(s) <= 4))
    [(1, 2), (1, 3), (4,)]
    """
    miner = PredicatePincer(predicate, check_antimonotone=check_antimonotone)
    result, _ = miner.mine(universe)
    return result


def brute_force_maximal_satisfying_sets(
    universe: Iterable[int], predicate: Predicate
) -> Set[Itemset]:
    """Exhaustive oracle for tests (exponential in ``|universe|``)."""
    universe_set = tuple(sorted(set(universe)))
    satisfying = [
        candidate
        for size in range(1, len(universe_set) + 1)
        for candidate in combinations(universe_set, size)
        if predicate(candidate)
    ]
    return maximal_elements(satisfying)
