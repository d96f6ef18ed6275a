"""Canonical itemset representation and algebra.

Throughout the library an *item* is an :class:`int` and an *itemset* is a
tuple of distinct items sorted in ascending order.  Keeping itemsets as
sorted tuples gives three properties the algorithms rely on:

* they are hashable, so they can live in sets and dictionary keys (the
  frequent/infrequent/candidate sets are plain Python sets and dicts);
* lexicographic ordering of the tuples matches the ordering assumed by the
  Apriori-gen *join* procedure (the paper's Section 3.3 notes that "itemsets
  are maintained as sequences in sorted lexicographical order, and the
  algorithm relies on this fact");
* prefix comparisons, which drive both *join* and the Pincer *recovery*
  procedure, are cheap tuple slices.

This module is intentionally free of any database or algorithm knowledge —
it is the shared vocabulary of everything else in :mod:`repro`.

The tuple is the *interface* representation.  The lattice hot paths
(candidate generation, MFS/MFCS pruning) may additionally intern itemsets
as integer bitmasks behind :mod:`repro.core.kernel`; masks never leak
through any public API, and every function here remains the semantic
reference the kernels are differentially tested against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .._types import EMPTY, Itemset  # re-exported for backward compatibility


def itemset(items: Iterable[int]) -> Itemset:
    """Build a canonical itemset from any iterable of items.

    Duplicates are removed and items are sorted:

    >>> itemset([3, 1, 2, 3])
    (1, 2, 3)
    """
    return tuple(sorted(set(items)))


def is_canonical(candidate: Sequence[int]) -> bool:
    """Return True if ``candidate`` is already a canonical itemset.

    >>> is_canonical((1, 2, 5))
    True
    >>> is_canonical((2, 1))
    False
    >>> is_canonical((1, 1, 2))
    False
    """
    return all(a < b for a, b in zip(candidate, candidate[1:]))


def validate(candidate: Sequence[int]) -> Itemset:
    """Validate that ``candidate`` is canonical and return it as a tuple.

    Raises :class:`ValueError` otherwise.  Use at public API boundaries;
    internal code assumes canonical input.
    """
    result = tuple(candidate)
    if not is_canonical(result):
        raise ValueError(
            "not a canonical itemset (sorted, distinct items): %r" % (candidate,)
        )
    return result


def difference(first: Itemset, second: Itemset) -> Itemset:
    """Items of ``first`` not in ``second``.

    >>> difference((1, 2, 3, 4), (2, 4))
    (1, 3)
    """
    excluded = set(second)
    return tuple(item for item in first if item not in excluded)


def without_item(base: Itemset, item: int) -> Itemset:
    """Remove a single item; the workhorse of MFCS-gen (paper step 7).

    >>> without_item((1, 2, 3), 2)
    (1, 3)
    """
    return tuple(element for element in base if element != item)


def is_subset(small: Itemset, large: Itemset) -> bool:
    """Subset test (not necessarily proper) via a linear merge.

    Both arguments must be canonical.  The merge walk is faster than building
    throwaway ``set`` objects for the short itemsets this library handles.

    >>> is_subset((1, 3), (1, 2, 3))
    True
    >>> is_subset((1, 4), (1, 2, 3))
    False
    >>> is_subset((), (1,))
    True
    """
    if len(small) > len(large):
        return False
    position = 0
    limit = len(large)
    for wanted in small:
        while position < limit and large[position] < wanted:
            position += 1
        if position == limit or large[position] != wanted:
            return False
        position += 1
    return True


def is_proper_subset(small: Itemset, large: Itemset) -> bool:
    """Proper subset test.

    >>> is_proper_subset((1, 2), (1, 2))
    False
    >>> is_proper_subset((1,), (1, 2))
    True
    """
    return len(small) < len(large) and is_subset(small, large)


def k_subsets(base: Itemset, k: int) -> Iterator[Itemset]:
    """Yield all ``k``-item subsets of ``base`` in lexicographic order.

    >>> list(k_subsets((1, 2, 3), 2))
    [(1, 2), (1, 3), (2, 3)]
    """
    return combinations(base, k)


def all_subsets(base: Itemset) -> Iterator[Itemset]:
    """Yield every subset of ``base`` including ``()`` and ``base`` itself."""
    for size in range(len(base) + 1):
        yield from combinations(base, size)


def is_subset_of_any(candidate: Itemset, collection: Iterable[Itemset]) -> bool:
    """True if ``candidate`` is a subset of at least one member.

    Used by the new prune procedure (line 2) and by MFCS maintenance.
    """
    return any(is_subset(candidate, member) for member in collection)


def sort_itemsets(collection: Iterable[Itemset]) -> list:
    """Sort itemsets by (length, lexicographic) — the library's display order.

    >>> sort_itemsets([(2, 3), (1,), (1, 2)])
    [(1,), (1, 2), (2, 3)]
    """
    return sorted(collection, key=lambda member: (len(member), member))


def format_itemset(base: Itemset) -> str:
    """Human-readable rendering used by the CLI and examples.

    >>> format_itemset((1, 2, 5))
    '{1, 2, 5}'
    """
    return "{%s}" % ", ".join(str(item) for item in base)
