"""Rule generation straight from the maximum frequent set.

Paper, Section 2.1: "an efficient way of generating interesting
association rules is by examining the maximum frequent set first, and then
proceeding to their subsets ... while generating rules, all one needs to
know is the support of the maximal frequent itemsets and of the itemsets
'a little' shorter.  If the maximum frequent set is known, one can easily
generate the required subsets and count their supports by reading the
database once."

This module implements exactly that post-processing: expand the subsets of
the MFS members down to a chosen depth, count the ones the mine did not
in one database pass, and feed exactly those supports into the stage-2
generator.  The rules therefore depend on the MFS and the depth alone,
not on which other itemsets a mine happened to count; ``depth=None``
expands the full closure.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Set

from ..core.itemset import Itemset
from ..core.result import MiningResult
from ..db.counting import SupportCounter, resolve_counter
from ..db.transaction_db import TransactionDatabase
from .generation import AssociationRule, generate_rules


def mfs_subsets_to_depth(
    mfs: Iterable[Itemset], depth: int
) -> Set[Itemset]:
    """All subsets of MFS members whose length is within ``depth`` of them.

    ``depth=0`` is the MFS itself; ``depth=1`` adds the immediate subsets;
    and so on.  Subsets shared by several members appear once.

    >>> sorted(mfs_subsets_to_depth([(1, 2, 3)], 1))
    [(1, 2), (1, 2, 3), (1, 3), (2, 3)]
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    wanted: Set[Itemset] = set()
    for member in mfs:
        low = max(1, len(member) - depth)
        for size in range(low, len(member) + 1):
            wanted.update(combinations(member, size))
    return wanted


def expand_mfs_supports(
    db: TransactionDatabase,
    result: MiningResult,
    depth: int,
    counter: Optional[SupportCounter] = None,
    engine: str = "auto",
) -> Dict[Itemset, int]:
    """Supports of the MFS subsets within ``depth``, in one extra pass.

    Returns the supports of exactly :func:`mfs_subsets_to_depth`
    ``(result.mfs, depth)``, nothing else: a subset the mining run
    counted is read from ``result.supports``, and only the rest hit the
    database, in one counting call.
    """
    wanted = mfs_subsets_to_depth(result.mfs, depth)
    known = result.supports
    supports = {itemset: known[itemset] for itemset in wanted if itemset in known}
    missing = sorted(wanted.difference(supports))
    if missing:
        engine_obj, _ = resolve_counter(db, engine, counter)
        supports.update(engine_obj.count(db, missing))
    return supports


def rules_from_mfs(
    db: TransactionDatabase,
    result: MiningResult,
    min_confidence: float,
    depth: Optional[int] = 2,
    engine: str = "auto",
) -> List[AssociationRule]:
    """Stage-2 rules using the MFS-first strategy of the paper.

    ``depth`` bounds how far below the maximal itemsets the rule search
    reaches: the rules are :func:`generate_rules` over the supports of
    exactly the itemsets within ``depth`` of an MFS member
    (:func:`expand_mfs_supports`), so a confident rule ``X -> Y`` needs
    both ``X ∪ Y`` and ``X`` in that expansion.  The answer depends
    only on ``result.mfs``, its threshold and ``depth``, never on what
    else the mine counted.  ``depth=None`` expands the entire closure
    (exponential in the longest member — only for short MFS members).
    """
    if depth is None:
        depth = max((len(member) for member in result.mfs), default=0)
    supports = expand_mfs_supports(db, result, depth, engine=engine)
    # Rules whose antecedent support is unknown (one level below the
    # expansion horizon) are skipped inside generate_rules; deepen `depth`
    # to reach them.
    return generate_rules(
        supports,
        num_transactions=result.num_transactions,
        min_confidence=min_confidence,
        min_support_count=result.min_support_count,
    )
