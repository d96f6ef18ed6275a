"""Adaptivity policy: when is maintaining the MFCS worthwhile?

Section 3.5 of the paper: "In general, one may not want to use the 'pure'
version of the Pincer Search algorithm.  For instance, in some case there
may be many 2-itemsets, but only a few of them are frequent.  In this case
it may not be worthwhile to maintain the MFCS ... The algorithm we have
implemented is in fact an adaptive version ... This adaptive version does
not maintain the MFCS, when doing so would be counterproductive."

The paper does not publish the exact heuristic, so we expose it as a
policy object with the two natural triggers and paper-guided defaults:

* **size blow-up** — splitting on many scattered infrequent itemsets can
  make the MFCS explode; when its cardinality exceeds an absolute cap or a
  multiple of the bottom-up candidate set, the top-down search costs more
  support counting than it can ever save;
* **futility** — if several consecutive passes counted MFCS elements
  without ever finding one frequent (no maximal itemset discovered
  top-down), the distribution is scattered and the MFCS is pure overhead.

Once the policy gives up, Pincer-Search degenerates gracefully into
Apriori (the MFS is then completed bottom-up), which is exactly the
behaviour the paper describes for its evaluated implementation — and the
"very small overhead of deciding when to use the MFCS" stays in the
measured runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    mfcs_size_cap:
        Hard upper bound on ``|MFCS|``; above it the MFCS is abandoned.
    mfcs_ratio_cap:
        Abandon when ``|MFCS| > mfcs_ratio_cap * max(1, |C_k|)``.
    futile_passes:
        Abandon after this many consecutive passes (from pass
        ``min_passes`` on) in which MFCS candidates were counted but no
        maximal frequent itemset was found top-down.  ``0`` disables the
        futility trigger.
    min_passes:
        Give the MFCS at least this many passes before judging futility —
        pass 1 almost always only shrinks the universe element (the paper's
        "goes down m levels in one pass" effect) without finding anything.
    mfcs_work_cap:
        Per-pass budget (item-mask lookups) for the MFCS-gen update; see
        :meth:`repro.core.mfcs.MFCS.update`.  On scattered distributions
        the pass-2 update amounts to maximal-clique maintenance over the
        frequent-pair graph, and this budget is what bounds the "very
        small overhead of deciding when to use the MFCS" the paper
        accounts for in its measurements.
    frequent_ratio_floor / ratio_check_pass / min_ratio_sample:
        The paper's own adaptivity cue, checked *before* the MFCS-gen
        update of pass ``ratio_check_pass`` (the 2-itemset pass): "there
        may be many 2-itemsets, but only a few of them are frequent.  In
        this case it may not be worthwhile to maintain the MFCS, since
        there will not be many frequent itemsets to discover."  On the
        paper's own benchmark families the pass-2 frequent fraction
        separates cleanly: concentrated distributions (``|L| = 50``) sit
        at 0.08-0.17 while scattered ones (``|L| = 2000``) sit below
        0.02, so the 0.04 floor decides correctly with a wide margin
        while skipping the maximal-clique-like MFCS blow-up entirely.
        The check is skipped when fewer than ``min_ratio_sample``
        candidates were counted (tiny universes tell us nothing).
    abandon_length_cap:
        Abandonment is *blocked* once a maximal frequent itemset longer
        than this has been discovered.  Falling back to the bottom-up
        search would materialise the subsets of every discovered maximal
        itemset level by level — exponential in their length, which is
        exactly the cost the MFCS exists to avoid.  The other triggers can
        also misfire in the concentrated endgame: when Observation-2
        pruning empties the bottom-up candidate set while the MFCS still
        holds hundreds of near-maximal elements, the size/ratio numbers
        look pathological precisely because the algorithm is *winning*.
    """

    mfcs_size_cap: int = 10000
    mfcs_ratio_cap: float = 5.0
    futile_passes: int = 4
    min_passes: int = 3
    mfcs_work_cap: int = 2_000_000
    abandon_length_cap: int = 12
    frequent_ratio_floor: float = 0.04
    ratio_check_pass: int = 2
    min_ratio_sample: int = 100

    def __post_init__(self) -> None:
        if self.mfcs_size_cap < 1:
            raise ValueError("mfcs_size_cap must be positive")
        if self.mfcs_ratio_cap <= 0:
            raise ValueError("mfcs_ratio_cap must be positive")
        if self.futile_passes < 0 or self.min_passes < 1:
            raise ValueError("pass thresholds must be non-negative / positive")
        self.reset()

    def reset(self) -> None:
        """Forget the last run: :class:`~repro.core.pincer.PincerSearch`
        calls this as each mine starts, so one policy instance serves
        every mine alike and ``abandon_reason`` describes the latest."""
        self._futile_streak = 0
        self._abandoned = False
        self.abandon_reason: "str | None" = None

    @property
    def abandoned(self) -> bool:
        """True once the policy has permanently given up on the MFCS."""
        return self._abandoned

    @property
    def update_size_cap(self) -> "int | None":
        """Cap applied *during* MFCS-gen; None disables mid-update aborts.

        Splitting the MFCS on a large batch of infrequent itemsets (the
        pass-2 blow-up of scattered distributions) can explode it far past
        any useful size before the per-pass check runs, so the cap is also
        enforced inside the update.
        """
        return self.mfcs_size_cap

    @property
    def update_work_cap(self) -> "int | None":
        """Work budget per MFCS-gen update; None disables it."""
        return self.mfcs_work_cap

    def abandon(self) -> None:
        """Force permanent abandonment (called on a mid-update cap abort)."""
        logger.info("MFCS-gen update blew past its size/work cap; abandoning")
        self._abandoned = True
        self.abandon_reason = "mfcs-update-cap"

    def keep_after_classification(
        self,
        pass_number: int,
        num_frequent: int,
        num_counted: int,
        longest_maximal: int = 0,
        mfcs_size: int = 0,
        candidate_bound: "int | None" = None,
    ) -> bool:
        """Pre-update check: is this pass still worth an MFCS update?

        Called after the pass's candidates are classified but *before*
        MFCS-gen runs, so a hopeless (scattered) pass 2 skips the
        expensive update altogether.  Two triggers:

        * the paper's frequent-fraction cue (``frequent_ratio_floor``);
        * the Geerts–Goethals–Van den Bussche bound: ``candidate_bound``
          (see :func:`repro.core.bitset.candidate_upper_bound`) is a
          *provable* upper bound on the next bottom-up candidate count,
          so ``mfcs_size > mfcs_ratio_cap * bound`` implies the end-of-pass
          ratio trigger must also fire under MFCS-gen's usual growth —
          this just fires it before the update instead of after.
        """
        if self._abandoned:
            return False
        if longest_maximal > self.abandon_length_cap:
            return True
        if (
            candidate_bound is not None
            and pass_number >= self.min_passes
            and mfcs_size > self.mfcs_ratio_cap * max(1, candidate_bound)
        ):
            logger.info(
                "pass %d: |MFCS|=%d over %.1fx the candidate bound %d; "
                "abandoning MFCS before the update",
                pass_number, mfcs_size, self.mfcs_ratio_cap, candidate_bound,
            )
            self._abandoned = True
            self.abandon_reason = "candidate-bound-ratio"
            return False
        if pass_number != self.ratio_check_pass:
            return True
        if num_counted < self.min_ratio_sample:
            return True
        if num_frequent / num_counted < self.frequent_ratio_floor:
            logger.info(
                "pass %d frequent ratio %.4f below floor %.4f; "
                "abandoning MFCS before the update",
                pass_number, num_frequent / num_counted,
                self.frequent_ratio_floor,
            )
            self._abandoned = True
            self.abandon_reason = "frequent-ratio"
            return False
        return True

    def keep_mfcs(
        self,
        pass_number: int,
        mfcs_size: int,
        num_candidates: int,
        maximal_found_this_pass: int,
        longest_maximal: int = 0,
    ) -> bool:
        """Report the pass outcome; returns False once the MFCS should go.

        Giving up is permanent: re-growing an abandoned MFCS would need the
        full infrequent-set history, which the adaptive algorithm
        deliberately stopped maintaining.  ``longest_maximal`` is the
        length of the longest maximal frequent itemset discovered so far;
        past ``abandon_length_cap`` the MFCS is kept unconditionally.
        """
        if self._abandoned:
            return False
        if longest_maximal > self.abandon_length_cap:
            self._futile_streak = 0
            return True
        if mfcs_size > self.mfcs_size_cap:
            logger.info(
                "pass %d: |MFCS|=%d over size cap %d; abandoning",
                pass_number, mfcs_size, self.mfcs_size_cap,
            )
            self._abandoned = True
            self.abandon_reason = "size-cap"
            return False
        if mfcs_size > self.mfcs_ratio_cap * max(1, num_candidates):
            logger.info(
                "pass %d: |MFCS|=%d over %.1fx the %d candidates; abandoning",
                pass_number, mfcs_size, self.mfcs_ratio_cap, num_candidates,
            )
            self._abandoned = True
            self.abandon_reason = "ratio-cap"
            return False
        if self.futile_passes:
            if maximal_found_this_pass:
                self._futile_streak = 0
            elif pass_number >= self.min_passes:
                self._futile_streak += 1
                if self._futile_streak >= self.futile_passes:
                    logger.info(
                        "pass %d: %d futile MFCS passes in a row; abandoning",
                        pass_number, self._futile_streak,
                    )
                    self._abandoned = True
                    self.abandon_reason = "futility"
                    return False
        return True


class AlwaysMaintain(AdaptivePolicy):
    """Policy of the *pure* Pincer-Search: never abandon the MFCS."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def update_size_cap(self) -> "int | None":
        return None

    @property
    def update_work_cap(self) -> "int | None":
        return None

    def abandon(self) -> None:
        raise AssertionError("the pure Pincer-Search never abandons the MFCS")

    def keep_after_classification(
        self,
        pass_number: int,
        num_frequent: int,
        num_counted: int,
        longest_maximal: int = 0,
        mfcs_size: int = 0,
        candidate_bound: "int | None" = None,
    ) -> bool:
        return True

    def keep_mfcs(
        self,
        pass_number: int,
        mfcs_size: int,
        num_candidates: int,
        maximal_found_this_pass: int,
        longest_maximal: int = 0,
    ) -> bool:
        return True


class NeverMaintain(AdaptivePolicy):
    """Policy that disables the MFCS from the start (Apriori behaviour).

    Exists for the MFCS on/off ablation benchmark.
    """

    def __init__(self) -> None:
        super().__init__()

    def reset(self) -> None:
        super().reset()
        self._abandoned = True
        self.abandon_reason = "never-maintain"

    def keep_mfcs(
        self,
        pass_number: int,
        mfcs_size: int,
        num_candidates: int,
        maximal_found_this_pass: int,
        longest_maximal: int = 0,
    ) -> bool:
        return False
