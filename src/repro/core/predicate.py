"""Pincer-Search over arbitrary anti-monotone predicates.

The paper frames frequent-itemset discovery as an instance of a more
general problem (Section 1 and the version-space discussion in Section 5):
given a finite universe and a predicate ``P`` over its subsets that is
**anti-monotone** (``P(X)`` and ``Y ⊆ X`` imply ``P(Y)``), find the
*maximal* sets satisfying ``P``.  Frequency above a threshold is one such
predicate; "attribute set is NOT a key of this relation" (minimal-keys
discovery, reference [11] of the paper) and "episode occurs in enough
windows" are others.

:class:`PredicatePincer` runs the main miner itself — pure
:class:`~repro.core.pincer.PincerSearch` at ``min_count=1`` over a
:class:`~repro.db.transaction_db.UniverseView` — through a counter that
answers 1 for a set satisfying the predicate and 0 otherwise.  The
predicate is asked once per distinct set (answers are memoised), and each
batch of questions is one pass of the main algorithm, so oracle-call
accounting is the paper's candidate accounting.

For database frequency, counting the database directly is faster (an
engine counts a whole batch per pass); this module is the right tool when
evaluating the predicate has nothing to do with transactions.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Iterable, List, Set, Tuple

from ..db.base import SupportCounter
from ..db.transaction_db import UniverseView
from .cover import CoverIndex
from .itemset import Itemset
from .lattice import maximal_elements
from .pincer import PincerSearch

#: An anti-monotone predicate over canonical itemsets.
Predicate = Callable[[Itemset], bool]


class OracleStats:
    """Accounting for one predicate-mining run.

    ``oracle_calls`` counts distinct sets asked; ``rounds`` the search's
    passes, each one batch of questions; ``maximal_found_top_down`` the
    maximal sets those passes found as MFCS elements.  Both come from
    :class:`~repro.core.stats.MiningStats`, so an iteration answered
    entirely from earlier answers asks nothing and counts in neither.
    """

    def __init__(self) -> None:
        self.oracle_calls = 0
        self.rounds = 0
        self.maximal_found_top_down = 0

    def __repr__(self) -> str:
        return (
            "OracleStats(calls=%d, rounds=%d, top_down=%d)"
            % (self.oracle_calls, self.rounds, self.maximal_found_top_down)
        )


class _PredicateCounter(SupportCounter):
    """Counts a set as 1 when the predicate holds and 0 when it fails.

    At ``min_count=1`` that makes "frequent" mean "satisfies".  Answers
    are memoised, so the predicate is asked once per distinct set, and
    with ``check`` on every batch is followed by the anti-monotonicity
    check over all answers so far.
    """

    name = "predicate"

    def __init__(self, predicate: Predicate, check: bool) -> None:
        super().__init__()
        self._predicate = predicate
        self._check = check
        self.answers: Dict[Itemset, bool] = {}

    def _count(self, db, candidates: List[Itemset]) -> Dict[Itemset, int]:
        answers = self.answers
        for candidate in candidates:
            if candidate not in answers:
                answers[candidate] = bool(self._predicate(candidate))
        if self._check:
            _verify_antimonotonicity(answers)
        return {candidate: int(answers[candidate]) for candidate in candidates}


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
        counter = _PredicateCounter(self._predicate, self._check)
        result = PincerSearch(adaptive=False).mine(
            UniverseView(1, sorted(set(universe))), min_count=1,
            counter=counter,
        )
        stats = OracleStats()
        stats.oracle_calls = len(counter.answers)
        stats.rounds = result.stats.num_passes
        stats.maximal_found_top_down = result.stats.total_maximal_found_in_mfcs
        return set(result.mfs), stats


def _verify_antimonotonicity(answers: Dict[Itemset, bool]) -> None:
    """Check anti-monotonicity over every evaluated (subset, superset).

    A violation is a false set with a true superset; a cover index of the
    true sets answers that in one query per false set.  Cost is linear in
    the evaluated family per round — acceptable for the oracle-mining
    sizes this class targets, and switchable off via
    ``check_antimonotone=False``.
    """
    trues = CoverIndex(candidate for candidate, value in answers.items() if value)
    for candidate, value in answers.items():
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
