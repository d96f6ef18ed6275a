"""Utilities over the itemset lattice (the paper's "hypothesis search space").

The search space of frequent-itemset discovery is the power-set lattice of
the item universe — the paper's Figure 1 draws it as a binomial graph.  The
functions here answer structural questions about that lattice: antichain
tests, maximal and minimal elements, downward closures.  They back both the MFCS data
structure (which is an antichain by construction) and the test oracles.
"""

from __future__ import annotations

from typing import Iterable, Set

from .cover import CoverIndex
from .itemset import Itemset, all_subsets, is_proper_subset


def is_antichain(collection: Iterable[Itemset]) -> bool:
    """True if no member of ``collection`` is a subset of another member.

    Both MFS and MFCS are antichains at all times; the property tests lean
    on this predicate.  Duplicated entries in ``collection`` are collapsed
    first (a set is not a proper subset of itself).

    >>> is_antichain([(1, 2), (2, 3)])
    True
    >>> is_antichain([(1,), (1, 2)])
    False
    """
    index = CoverIndex(set(collection))
    return not any(index.covers_strictly(member) for member in index)


def maximal_elements(collection: Iterable[Itemset]) -> Set[Itemset]:
    """The maximal members of ``collection`` under set inclusion.

    Applied to the frequent set this yields exactly the maximum frequent
    set, which is how the brute-force oracle computes its answer.  Members
    are scanned longest-first against a cover index of the maximal ones
    found so far, so the cost is near-linear instead of quadratic.

    >>> sorted(maximal_elements([(1,), (1, 2), (3,)]))
    [(1, 2), (3,)]
    """
    index = CoverIndex()
    result: Set[Itemset] = set()
    for member in sorted(set(collection), key=len, reverse=True):
        if not index.covers(member):
            index.add(member)
            result.add(member)
    return result


def minimal_elements(collection: Iterable[Itemset]) -> Set[Itemset]:
    """The minimal members of ``collection`` under set inclusion.

    >>> sorted(minimal_elements([(1,), (1, 2), (3,)]))
    [(1,), (3,)]
    """
    members = list(set(collection))
    return {
        member
        for member in members
        if not any(is_proper_subset(other, member) for other in members)
    }


def downward_closure(collection: Iterable[Itemset]) -> Set[Itemset]:
    """All non-empty subsets of all members — the frequent set an MFS implies.

    "frequent itemsets are precisely all the non-empty subsets of its
    elements" (paper, Section 1).

    >>> sorted(downward_closure([(1, 2)]))
    [(1,), (1, 2), (2,)]
    """
    closure: Set[Itemset] = set()
    for member in collection:
        for subset in all_subsets(member):
            if subset:
                closure.add(subset)
    return closure
