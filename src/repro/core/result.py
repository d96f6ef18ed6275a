"""The result object every miner in the library returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from .itemset import Itemset, is_subset_of_any, sort_itemsets
from .lattice import downward_closure, is_antichain
from .stats import MiningStats


class MiningTimeout(Exception):
    """A miner exceeded its ``time_budget``.

    Carries the partial accounting so callers (notably the benchmark
    harness) can report "did not finish within N seconds" rows with the
    passes and candidate counts completed so far — which is how the
    reproduction renders the paper's several-orders-of-magnitude cells
    where Apriori is hopeless at any practical budget.
    """

    def __init__(self, algorithm: str, seconds: float, stats: MiningStats):
        super().__init__(
            "%s exceeded its time budget after %.1fs (%d passes done)"
            % (algorithm, seconds, stats.num_passes)
        )
        self.algorithm = algorithm
        self.seconds = seconds
        self.stats = stats


@dataclass
class MiningResult:
    """Outcome of a maximum-frequent-set discovery run.

    The primary payload is :attr:`mfs` — the maximum frequent set, i.e. all
    maximal frequent itemsets.  Because the MFS "uniquely defines the entire
    frequent itemsets" (paper, Section 1), :meth:`is_frequent` and
    :meth:`frequent_itemsets` answer frequency questions for *any* itemset
    without another database pass.

    :attr:`supports` holds the absolute support of every itemset the run
    counted; it always contains the MFS members themselves, and usually many
    of their subsets (everything the bottom-up passes touched).
    """

    mfs: FrozenSet[Itemset]
    supports: Dict[Itemset, int]
    num_transactions: int
    min_support_count: int
    min_support: float
    algorithm: str
    stats: MiningStats = field(default_factory=MiningStats)

    def __post_init__(self) -> None:
        if not is_antichain(self.mfs):
            raise ValueError("MFS must be an antichain of itemsets")
        missing = [member for member in self.mfs if member not in self.supports]
        if missing:
            raise ValueError(
                "supports must cover every MFS member; missing %r" % missing[:3]
            )

    # ------------------------------------------------------------------

    def is_frequent(self, candidate: Iterable[int]) -> bool:
        """True iff ``candidate`` is frequent.

        "an itemset is frequent if and only if it is a subset of a maximal
        frequent itemset" (paper, Section 2.1).  The empty itemset is
        frequent whenever anything is.

        >>> result = MiningResult(frozenset({(1, 2)}), {(1, 2): 3}, 4, 2, 0.5, "x")
        >>> result.is_frequent((1,))
        True
        >>> result.is_frequent((1, 3))
        False
        """
        probe = tuple(sorted(set(candidate)))
        if probe == ():
            return bool(self.mfs)
        return is_subset_of_any(probe, self.mfs)

    def frequent_itemsets(self) -> Set[Itemset]:
        """Materialise *all* frequent itemsets from the MFS.

        Exponential in the longest MFS member — that blow-up is the paper's
        whole point, so call this only when the maximal sets are short.
        """
        return downward_closure(self.mfs)

    def support_count(self, candidate: Iterable[int]) -> Optional[int]:
        """Absolute support if it was counted during the run, else None."""
        return self.supports.get(tuple(sorted(set(candidate))))

    def support(self, candidate: Iterable[int]) -> Optional[float]:
        """Fractional support if counted during the run, else None."""
        count = self.support_count(candidate)
        if count is None or self.num_transactions == 0:
            return None
        return count / self.num_transactions

    # ------------------------------------------------------------------

    def sorted_mfs(self) -> List[Itemset]:
        """MFS members ordered by (length, lexicographic)."""
        return sort_itemsets(self.mfs)

    def longest_maximal(self) -> Optional[Itemset]:
        """A longest maximal frequent itemset (None when MFS is empty)."""
        return max(self.mfs, key=len, default=None)

    def __repr__(self) -> str:
        return "MiningResult(%s, |MFS|=%d, minsup=%g, passes=%d)" % (
            self.algorithm,
            len(self.mfs),
            self.min_support,
            self.stats.num_passes,
        )
