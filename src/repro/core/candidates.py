"""Candidate generation: Apriori-gen plus Pincer-Search's recovery and prune.

Three building blocks from the paper's Sections 3.3 and 3.4:

* :func:`apriori_join` — the classic join: two frequent ``k``-itemsets with
  the same ``(k-1)``-prefix produce one ``(k+1)``-candidate.
* :func:`apriori_prune` — the classic prune: drop candidates having an
  infrequent ``k``-subset.
* :func:`recovery` — Pincer-Search's repair step.  After frequent itemsets
  are removed from ``L_k`` as subsets of discovered maximal frequent
  itemsets, the join can miss candidates (the paper's ``{2,4,5,6}``
  example).  Recovery re-derives the missing combinations directly from the
  MFS elements without materialising the removed itemsets.
* :func:`pincer_prune` — the "new prune": additionally drops candidates
  that are subsets of an MFS element, and treats a ``k``-subset as known
  frequent when it is *either* in ``L_k`` *or* under an MFS element
  (amendment A3 in DESIGN.md; without it the paper's own Figure 2 example
  would lose the recovered candidate again).

These free functions are the *tuple reference* semantics.
:class:`~repro.core.kernel.TupleKernel` runs :func:`generate_candidates`
for the miners; the default bitmask kernel reimplements that one call as
a pass over interned masks and is differentially tested against it, call
by call (DESIGN.md §8), so any behavioural change here must be mirrored
there.  :mod:`repro.borders` and :mod:`repro.rules` call
:func:`apriori_join` directly.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from .cover import as_cover
from .itemset import Itemset, k_subsets


def apriori_join(level_frequents: Iterable[Itemset]) -> Set[Itemset]:
    """The join procedure of Apriori-gen.

    All inputs must share one length ``k``; the result is the set of
    ``(k+1)``-itemsets formed from pairs with a common ``(k-1)``-prefix.

    >>> sorted(apriori_join([(1, 2), (1, 3), (2, 3)]))
    [(1, 2, 3)]
    """
    ordered = sorted(level_frequents)
    if not ordered:
        return set()
    lengths = {len(itemset_) for itemset_ in ordered}
    if len(lengths) != 1:
        raise ValueError("join requires itemsets of a single length")
    prefix_length = lengths.pop() - 1
    candidates: Set[Itemset] = set()
    for index, first in enumerate(ordered):
        for second in ordered[index + 1:]:
            if first[:prefix_length] != second[:prefix_length]:
                break  # sorted order: no later itemset shares the prefix
            candidates.add(first + second[prefix_length:])
    return candidates


def apriori_prune(
    candidates: Iterable[Itemset], level_frequents: Set[Itemset]
) -> Set[Itemset]:
    """The prune procedure of Apriori-gen.

    Keeps a ``(k+1)``-candidate only if all of its ``k``-subsets are in
    ``level_frequents``.

    >>> sorted(apriori_prune({(1, 2, 3)}, {(1, 2), (1, 3), (2, 3)}))
    [(1, 2, 3)]
    >>> apriori_prune({(1, 2, 3)}, {(1, 2), (1, 3)})
    set()
    """
    kept: Set[Itemset] = set()
    for candidate in candidates:
        subset_length = len(candidate) - 1
        if all(
            subset in level_frequents
            for subset in k_subsets(candidate, subset_length)
        ):
            kept.add(candidate)
    return kept


def recovery(
    level_frequents: Iterable[Itemset],
    mfs: Iterable[Itemset],
    k: int,
) -> Set[Itemset]:
    """The recovery procedure (paper Section 3.4).

    For each ``Y`` in the current frequent set and each maximal frequent
    itemset ``X`` longer than ``k``: if the ``(k-1)``-prefix of ``Y`` lies
    inside ``X``, every item of ``X`` positioned after that prefix's last
    item yields a removed ``k``-subset of ``X`` sharing the prefix, whose
    join with ``Y`` is a candidate the plain join would have missed.

    The paper's example: ``Y = (2, 4, 6)``, ``X = (1, 2, 3, 4, 5)``:

    >>> sorted(recovery([(2, 4, 6), (2, 5, 6), (4, 5, 6)], [(1, 2, 3, 4, 5)], 3))
    [(2, 4, 5, 6)]
    """
    if k < 1:
        raise ValueError("recovery needs a positive pass number")
    recovered: Set[Itemset] = set()
    cover = as_cover(mfs)
    for frequent in level_frequents:
        if len(frequent) != k:
            raise ValueError("recovery expects %d-itemsets in L_k" % k)
        prefix = frequent[:k - 1]
        last = frequent[-1]
        # only the maximal itemsets containing the prefix can contribute;
        # the cover index finds them without scanning the whole MFS
        for element in cover.supersets_of(prefix):
            if len(element) <= k:
                continue
            if prefix:
                # items of X strictly after the prefix's last item
                start = element.index(prefix[-1]) + 1
            else:
                start = 0  # k == 1: every item of X forms a 1-subset
            for item in element[start:]:
                if item == last:
                    continue  # the restored subset would equal Y itself
                if item > last:
                    candidate = frequent + (item,)
                else:
                    candidate = prefix + (item, last)
                recovered.add(candidate)
    return recovered


def pincer_prune(
    candidates: Iterable[Itemset],
    level_frequents: Set[Itemset],
    mfs: Iterable[Itemset],
) -> Set[Itemset]:
    """The new prune procedure (paper Section 3.4, with amendment A3).

    Drops a candidate when (a) it is a subset of a discovered maximal
    frequent itemset — its frequency is already known (Observation 2) — or
    (b) one of its ``k``-subsets is *not* known frequent, where known
    frequent means "in ``L_k``" or "under an MFS element".
    """
    mfs_cover = as_cover(mfs)
    kept: Set[Itemset] = set()
    for candidate in candidates:
        if mfs_cover.covers(candidate):
            continue
        subset_length = len(candidate) - 1
        if all(
            subset in level_frequents or mfs_cover.covers(subset)
            for subset in k_subsets(candidate, subset_length)
        ):
            kept.add(candidate)
    return kept


def generate_candidates(
    level_frequents: Iterable[Itemset],
    mfs: Iterable[Itemset],
    k: int,
) -> Set[Itemset]:
    """Pincer-Search's full candidate generation: join + recovery + prune.

    ``level_frequents`` is the MFS-filtered ``L_k``; ``mfs`` is the current
    maximum frequent set.  Recovery runs whenever the MFS is non-empty
    (amendment A6: the paper triggers it only when itemsets were removed in
    the current pass, which can starve the bottom-up search of candidates
    whose partners were pruned in *earlier* passes).
    """
    frequents = list(level_frequents)
    mfs_cover = as_cover(mfs)
    candidates = apriori_join(frequents)
    if mfs_cover and frequents:
        candidates |= recovery(frequents, mfs_cover, k)
    return pincer_prune(candidates, set(frequents), mfs_cover)


def first_level_candidates(universe: Iterable[int]) -> List[Itemset]:
    """``C_1``: one 1-itemset per universe item.

    >>> first_level_candidates([3, 1])
    [(1,), (3,)]
    """
    return [(item,) for item in sorted(set(universe))]
