"""Adaptivity policy: when to stop maintaining the MFCS.

Section 3.5 of the paper: "In general, one may not want to use the 'pure'
version of the Pincer Search algorithm.  For instance, in some case there
may be many 2-itemsets, but only a few of them are frequent.  In this case
it may not be worthwhile to maintain the MFCS ... The algorithm we have
implemented is in fact an adaptive version ... This adaptive version does
not maintain the MFCS, when doing so would be counterproductive."

The paper does not publish its exact heuristic.  The policy here acts on
the one situation it names, plus a budget that bounds the update the cue
guards against:

* **frequent ratio** (``frequent-ratio``) — after pass 2's candidates are
  classified and *before* its MFCS-gen update, too few frequent pairs
  among the counted ones abandon the MFCS: the scattered distribution
  has few frequent itemsets to find top-down, and its pass-2 update
  amounts to maximal-clique maintenance over the frequent-pair graph;
* **MFCS-gen work cap** (``mfcs-update-cap``) — an update whose split
  work passes ``mfcs_work_cap`` stops, and the MFCS is abandoned with it.

Neither fires once a maximal itemset longer than ``abandon_length_cap``
is known.  The miner records the reason and the pass in
:class:`~repro.core.stats.MiningStats` (``abandon_reason``,
``abandoned_at_pass``); the policy keeps no per-mine state, so one
instance serves any number of mines.  Once the MFCS is gone,
Pincer-Search completes the MFS with Apriori's loop, which is the
behaviour the paper describes for its evaluated implementation — and the
"very small overhead of deciding when to use the MFCS" stays in the
measured runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.logsetup import get_logger
from ..obs.metrics import Ewma

logger = get_logger("core.adaptive")


class PassRateEstimator:
    """EWMA of the observed counting throughput (candidates/second).

    A :class:`~repro.core.session.MiningSession` feeds it the candidates
    each query sent to the engine and the query's mining seconds; the
    smoothed rate is the session's ETA rate, which ``pincer serve``
    divides candidate bounds by for its ETA quotes.  The EWMA keeps one
    noisy query (a cold cache, a page-in burst) from whipsawing them.
    """

    def __init__(self, alpha: float = 0.5) -> None:
        self._ewma = Ewma(alpha)

    @property
    def rate(self) -> "float | None":
        """Smoothed candidates/second; None until the first observation."""
        return self._ewma.value

    def observe(self, num_candidates: int, seconds: float) -> "float | None":
        """Record one pass; returns the updated smoothed rate."""
        if num_candidates > 0 and seconds > 0.0:
            self._ewma.observe(num_candidates / seconds)
        return self.rate


@dataclass
class AdaptivePolicy:
    """Decides each pass whether to keep maintaining the MFCS.

    Parameters
    ----------
    frequent_ratio_floor / min_ratio_sample:
        The paper's own adaptivity cue, checked *before* the MFCS-gen
        update of pass 2 (the 2-itemset pass): "there may be many
        2-itemsets, but only a few of them are frequent.  In this case it
        may not be worthwhile to maintain the MFCS, since there will not
        be many frequent itemsets to discover."  On the paper's own
        benchmark families the pass-2 frequent fraction separates
        cleanly: concentrated distributions (``|L| = 50``) sit at
        0.08-0.17 while scattered ones (``|L| = 2000``) sit below 0.02,
        so the 0.04 floor decides correctly with a wide margin while
        skipping the maximal-clique-like MFCS blow-up entirely.  The
        check is skipped when fewer than ``min_ratio_sample`` candidates
        were counted (tiny universes tell us nothing).
    mfcs_work_cap:
        Per-update budget (item-mask lookups) for MFCS-gen; see
        :meth:`repro.core.mfcs.MFCS.update`.  It bounds a scattered
        pass-2 blow-up the ratio cue lets through, and with it the "very
        small overhead of deciding when to use the MFCS" the paper
        accounts for in its measurements.  None disables it.
    abandon_length_cap:
        Abandonment is *blocked* once a maximal frequent itemset longer
        than this has been discovered.  Falling back to the bottom-up
        search would materialise the subsets of every discovered maximal
        itemset level by level — exponential in their length, which is
        exactly the cost the MFCS exists to avoid.
    """

    frequent_ratio_floor: float = 0.04
    min_ratio_sample: int = 100
    mfcs_work_cap: Optional[int] = 2_000_000
    abandon_length_cap: int = 12

    def __post_init__(self) -> None:
        if not 0.0 <= self.frequent_ratio_floor <= 1.0:
            raise ValueError("frequent_ratio_floor must lie in [0, 1]")
        if self.mfcs_work_cap is not None and self.mfcs_work_cap < 0:
            raise ValueError("mfcs_work_cap must be non-negative")

    def keep_after_classification(
        self,
        pass_number: int,
        num_frequent: int,
        num_counted: int,
        longest_maximal: int = 0,
    ) -> bool:
        """Is this pass still worth an MFCS-gen update?

        Called after the pass's candidates are classified but *before*
        MFCS-gen runs, so a scattered pass 2 skips the update altogether;
        False abandons the MFCS for the rest of the mine.
        """
        if (
            pass_number != 2
            or num_counted < max(1, self.min_ratio_sample)
            or longest_maximal > self.abandon_length_cap
        ):
            return True
        ratio = num_frequent / num_counted
        if ratio >= self.frequent_ratio_floor:
            return True
        logger.info(
            "pass 2 frequent ratio %.4f below floor %.4f; abandoning MFCS "
            "before the update", ratio, self.frequent_ratio_floor,
        )
        return False

    def update_caps(
        self, longest_maximal: int
    ) -> Tuple[Optional[int], Optional[int]]:
        """``(size_cap, work_cap)`` for this pass's MFCS-gen update.

        A capped update that stops abandons the MFCS, so the work cap
        does not apply once ``abandon_length_cap`` blocks abandonment.
        Only :class:`~repro.algorithms.topdown.TopDown`'s frontier guard
        caps the size.
        """
        if longest_maximal > self.abandon_length_cap:
            return None, None
        return None, self.mfcs_work_cap

    def abandon(self) -> None:
        """Called when an MFCS-gen update stopped at its cap, just before
        the miner abandons the MFCS (and logs why); a subclass may raise
        instead."""


class AlwaysMaintain(AdaptivePolicy):
    """Policy of the *pure* Pincer-Search: never abandon the MFCS."""

    def __init__(self) -> None:
        super().__init__(frequent_ratio_floor=0.0, mfcs_work_cap=None)

    def abandon(self) -> None:
        raise AssertionError("the pure Pincer-Search never abandons the MFCS")
