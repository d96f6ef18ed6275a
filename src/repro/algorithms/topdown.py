"""A "pure" top-down maximal-itemset miner (paper Section 3.1).

Searches from the ``n``-itemset downward using only Observation 2 ("if an
itemset is frequent, all its subsets must be frequent, and they do not
need to be examined").  Each pass counts the unclassified frontier
elements; frequent ones are maximal (everything above them is already
known infrequent) and move to the MFS; infrequent ones are split into
their immediate subsets via MFCS-gen.

This is the degenerate case of Pincer-Search with an empty bottom-up
stream, and it runs as exactly that: :class:`TopDown` is
:class:`~repro.core.pincer.PincerSearch` mining with ``bottom_up=False``
from the full-universe MFCS, its frontier guard an MFCS-gen size cap.
It is provided both as an instructive baseline and because the paper's
Section 3.1 frames the design space as bottom-up vs top-down vs the
combined pincer.  It is efficient only when the maximal frequent
itemsets sit near the top of the lattice; with long transactions and low
supports the frontier explodes — which is exactly why the paper *combines*
the directions instead.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.adaptive import AlwaysMaintain
from ..core.pincer import PincerSearch
from ..core.result import MiningResult
from ..db.counting import SupportCounter
from ..db.transaction_db import TransactionDatabase
from ..obs.instrument import Instrumentation


class _FrontierGuard(AlwaysMaintain):
    """The pure search's policy with MFCS-gen capped at ``max_frontier``
    elements at any maximal-itemset length; a capped update raises."""

    def __init__(self, max_frontier: int) -> None:
        super().__init__()
        self.max_frontier = max_frontier

    def update_caps(self, longest_maximal: int) -> Tuple[int, None]:
        return self.max_frontier, None

    def abandon(self) -> None:
        raise RuntimeError(
            "top-down frontier exploded past %d elements; this search "
            "direction is infeasible for this database" % self.max_frontier
        )


class TopDown(PincerSearch):
    """Pure top-down miner: Pincer-Search's top-down half, unseeded.

    ``max_frontier`` guards against the combinatorial explosion this
    direction suffers on real data: an MFCS-gen update that grows the
    frontier past it raises RuntimeError rather than thrashing for hours.
    """

    name = "top-down"

    def __init__(
        self,
        engine: str = "auto",
        max_frontier: int = 200_000,
    ) -> None:
        super().__init__(engine=engine, policy=_FrontierGuard(max_frontier))

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
        return super().mine(
            db, min_support, min_count=min_count, counter=counter, obs=obs,
            bottom_up=False,
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
