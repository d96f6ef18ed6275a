"""Lattice kernels: the tuple reference and the interned bitmask algebra.

PR 1 made support counting fast enough that the per-pass bottleneck moved
to the pure-Python *lattice* side: the Apriori join, the new prune, the
recovery procedure, and MFCS-gen.  All of them operate on the public
canonical-tuple vocabulary (:mod:`repro.core.itemset`), whose subset tests
and ``k``-subset enumerations are linear-in-``k`` tuple churn per probe.

A :class:`LatticeKernel` bundles those hot paths behind one interface:

:class:`BitmaskKernel`
    The production kernel.  A per-run
    :class:`~repro.core.bitset.ItemUniverse` interns every itemset as an
    ``int`` mask, and the hot paths become integer algebra executed in C:

    * ``apriori_join`` buckets ``L_k`` by ``(k-1)``-prefix and emits
      ``prefix + (a, b)`` pairs per bucket — the seed's pairwise scan
      re-slices and re-compares tuple prefixes for every pair;
    * ``apriori_prune`` / ``pincer_prune`` test each ``k``-subset by
      clearing one bit (``mask ^ bit``) and probing a set of frequent
      masks — candidates are encoded uncached
      (:meth:`~repro.core.bitset.ItemUniverse.raw_mask_of`) so the
      throwaway fire-hose never touches the interning caches, and no
      subset tuples are materialised at all;
    * the MFS and MFCS families live in a
      :class:`~repro.core.cover.MaskCover` — the inverted cover index
      rebuilt on masks, with O(1) lazy discards and scrub-on-reuse
      inserts — so MFCS-gen takes each element one step per batch:
      the maximal cliques of its allowed-pair graph for the infrequent
      pairs, one probe of the shared core for a larger set (see
      :class:`~repro.core.mfcs.MFCS`).

    Everything behind it is masks of its universe.  After pass 1 the
    miner narrows that universe to the frequent items
    (:meth:`BitmaskKernel.restricted`).  A frequent itemset
    naming an outside item raises :class:`KeyError`; a candidate naming
    one is dropped, since one of its subsets is neither frequent nor
    covered.  An MFS passed as anything but the kernel's own MaskCover
    is indexed into one once per call.

:class:`TupleKernel`
    The seed behaviour, verbatim: the free functions of
    :mod:`repro.core.candidates` plus :class:`~repro.core.cover.CoverIndex`
    families.  Kept as the differential-testing reference.

Both kernels consume and produce plain canonical tuples — masks never
escape — so every API keeps its types and the two kernels are
interchangeable, which the differential tests exploit.  One output is
lazy: the bitmask kernel's level 2 (``generate_candidates`` at k = 1) is
a :class:`~repro.db.base.PairLevel`, L1's items standing for their
pairs, which ``len()``s, iterates and compares as the tuple kernel's
set of pairs.  Only
:class:`~repro.core.pincer.PincerSearch` and
:class:`~repro.core.session.MiningSession` take a ``kernel``; every other
miner runs the bitmask kernel.
"""

from __future__ import annotations

import copy
import time
from itertools import combinations
from typing import Iterable, List, Optional, Set

from .._types import CountingDeadline
from ..db.base import PairLevel
from . import candidates as _tuple_ops
from .bitset import ItemUniverse, bits_of
from .cover import CoverIndex, MaskCover, as_cover, mask_cover_of
from .itemset import Itemset
from .mfcs import MFCS

__all__ = [
    "BitmaskKernel",
    "DEFAULT_KERNEL",
    "KERNEL_NAMES",
    "LatticeKernel",
    "TupleKernel",
    "make_kernel",
    "resolve_kernel_name",
]

KERNEL_NAMES = ("tuple", "bitmask")
DEFAULT_KERNEL = "bitmask"

class LatticeKernel:
    """Interface of a lattice kernel (see module docstring).

    Concrete kernels provide candidate generation (join, prune, recovery)
    and factories for the cover/MFCS structures whose query cost the
    kernel controls.  All methods speak canonical tuples.
    """

    name = "abstract"

    def make_cover(self, members: Iterable[Itemset] = ()):
        raise NotImplementedError

    def make_mfcs(self, universe: Iterable[int]) -> MFCS:
        raise NotImplementedError

    def make_mfcs_from(self, elements: Iterable[Itemset]) -> MFCS:
        """An MFCS seeded from an arbitrary family instead of the
        full-universe singleton.  Non-maximal members are dropped with
        one cover probe per distinct element, so any covering family is a
        valid seed (warm-start queries hand the maximal family mined at a
        lower threshold).
        """
        raise NotImplementedError

    def restricted(self, items: Iterable[int]) -> "LatticeKernel":
        """This kernel for a run that can touch only ``items`` from now on.

        The miner calls it once pass 1 has proved that only the frequent
        items can matter, and rebuilds its families through the kernel it
        gets back.  A kernel with nothing to narrow returns itself.
        """
        return self

    def apriori_join(
        self,
        level_frequents: Iterable[Itemset],
        deadline: "float | None" = None,
    ) -> Set[Itemset]:
        raise NotImplementedError

    def apriori_prune(
        self,
        candidates: Iterable[Itemset],
        level_frequents: Iterable[Itemset],
    ) -> Set[Itemset]:
        raise NotImplementedError

    def recovery(
        self,
        level_frequents: Iterable[Itemset],
        mfs: Iterable[Itemset],
        k: int,
    ) -> Set[Itemset]:
        raise NotImplementedError

    def pincer_prune(
        self,
        candidates: Iterable[Itemset],
        level_frequents: Iterable[Itemset],
        mfs: Iterable[Itemset],
    ) -> Set[Itemset]:
        raise NotImplementedError

    def generate_candidates(
        self,
        level_frequents: Iterable[Itemset],
        mfs: Iterable[Itemset],
        k: int,
    ) -> "Set[Itemset] | PairLevel":
        """Pincer-Search's full candidate generation: join+recovery+prune.

        At k = 1 a kernel may hand level 2 over as a lazy
        :class:`~repro.db.base.PairLevel` (the bitmask kernel does).
        """
        frequents = list(level_frequents)
        mfs_cover = as_cover(mfs)
        found = self.apriori_join(frequents)
        if mfs_cover and frequents:
            found |= self.recovery(frequents, mfs_cover, k)
        return self.pincer_prune(found, frequents, mfs_cover)


class TupleKernel(LatticeKernel):
    """Seed tuple-algebra kernel — the differential-testing reference."""

    name = "tuple"

    def make_cover(self, members: Iterable[Itemset] = ()) -> CoverIndex:
        return CoverIndex(members)

    def make_mfcs(self, universe: Iterable[int]) -> MFCS:
        return MFCS.for_universe(universe)

    def make_mfcs_from(self, elements: Iterable[Itemset]) -> MFCS:
        return MFCS(elements)

    def apriori_join(self, level_frequents, deadline=None):
        return _tuple_ops.apriori_join(level_frequents, deadline=deadline)

    def apriori_prune(self, candidates, level_frequents):
        return _tuple_ops.apriori_prune(candidates, set(level_frequents))

    def recovery(self, level_frequents, mfs, k):
        return _tuple_ops.recovery(level_frequents, mfs, k)

    def pincer_prune(self, candidates, level_frequents, mfs):
        return _tuple_ops.pincer_prune(candidates, set(level_frequents), mfs)


class BitmaskKernel(LatticeKernel):
    """Interned-bitmask kernel over one run's :class:`ItemUniverse`."""

    name = "bitmask"

    def __init__(self, universe: Iterable[int]) -> None:
        self.universe = (
            universe
            if isinstance(universe, ItemUniverse)
            else ItemUniverse(universe)
        )

    def make_cover(self, members: Iterable[Itemset] = ()) -> MaskCover:
        return MaskCover(self.universe, members)

    def make_mfcs(self, universe: Iterable[int]) -> MFCS:
        return MFCS.for_universe(universe, kernel=self)

    def make_mfcs_from(self, elements: Iterable[Itemset]) -> MFCS:
        return MFCS(elements, kernel=self)

    def restricted(self, items: Iterable[int]) -> "BitmaskKernel":
        """A shallow copy over an :class:`ItemUniverse` of ``items`` (a
        subset of this kernel's universe) alone, so that every later
        mask, probe and cover table is that narrow.  A subclass keeps its
        class and its state; ``self`` comes back when ``items`` is the
        whole universe.
        """
        universe = ItemUniverse(items)
        if len(universe) == len(self.universe):
            return self
        narrowed = copy.copy(self)
        narrowed.universe = universe
        return narrowed

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------

    def apriori_join(self, level_frequents, deadline=None):
        """Prefix-bucketed join: identical output to the pairwise scan.

        ``L_k`` sorts once; equal ``(k-1)``-prefixes are then adjacent, so
        one linear sweep groups the final items into per-prefix buckets
        and each bucket contributes ``C(|bucket|, 2)`` candidates without
        ever re-slicing or re-comparing prefixes.
        """
        ordered = sorted(level_frequents)
        if not ordered:
            return set()
        lengths = {len(itemset_) for itemset_ in ordered}
        if len(lengths) != 1:
            raise ValueError("join requires itemsets of a single length")
        prefix_length = lengths.pop() - 1
        buckets: List = []
        previous = None
        tails: List[int] = []
        for itemset_ in ordered:
            prefix = itemset_[:prefix_length]
            if prefix != previous:
                tails = []
                buckets.append((prefix, tails))
                previous = prefix
            tails.append(itemset_[prefix_length])
        found: Set[Itemset] = set()
        if deadline is None:
            update = found.update
            for prefix, tails in buckets:
                if prefix:
                    update(prefix + pair for pair in combinations(tails, 2))
                else:
                    # k = 1: the pairs *are* the candidates — bulk-load
                    # the combinations iterator without per-pair concat
                    update(combinations(tails, 2))
            return found
        add = found.add
        ticks = 0
        for prefix, tails in buckets:
            for index in range(len(tails) - 1):
                ticks += 1
                if ticks % 256 == 0 and time.perf_counter() > deadline:
                    raise CountingDeadline("join passed its deadline")
                first = tails[index]
                for second in tails[index + 1:]:
                    add(prefix + (first, second))
        return found

    def apriori_prune(self, candidates, level_frequents):
        frequent_masks = set(self.universe.masks_of(level_frequents))
        raw_mask_of = self.universe.raw_mask_of
        kept: Set[Itemset] = set()
        for candidate in candidates:
            mask = raw_mask_of(candidate)
            if mask is None:
                continue  # a subset naming the outside item is not frequent
            remaining = mask
            keep = True
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                if mask ^ bit not in frequent_masks:
                    keep = False
                    break
            if keep:
                kept.add(candidate)
        return kept

    def recovery(self, level_frequents, mfs, k):
        # the tuple procedure already queries through the cover; handing
        # it a mask-native MFS keeps the supersets_of step sub-linear
        return _tuple_ops.recovery(
            level_frequents, mask_cover_of(self.universe, mfs), k
        )

    def pincer_prune(self, candidates, level_frequents, mfs):
        mfs_cover = mask_cover_of(self.universe, mfs)
        frequent_masks = set(self.universe.masks_of(level_frequents))
        raw_mask_of = self.universe.raw_mask_of
        covers_mask = mfs_cover.covers_mask
        has_cover = bool(mfs_cover)
        kept: Set[Itemset] = set()
        for candidate in candidates:
            mask = raw_mask_of(candidate)
            if mask is None:
                # a subset naming the outside item is neither frequent
                # nor covered
                continue
            # already under a maximal itemset (Observation 2)?
            if has_cover and covers_mask(mask):
                continue
            remaining = mask
            keep = True
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                subset_mask = mask ^ bit
                if subset_mask in frequent_masks:
                    continue
                if has_cover and covers_mask(subset_mask):
                    continue
                keep = False
                break
            if keep:
                kept.add(candidate)
        return kept

    def generate_candidates(self, level_frequents, mfs, k):
        """Join + recovery + new prune; level 2 (k = 1) comes back as a
        lazy :class:`~repro.db.base.PairLevel` whose pairs are never
        built here — the miners count it as the paper's 2-D array."""
        frequents = list(level_frequents)
        mfs_cover = mask_cover_of(self.universe, mfs)
        if k == 1:
            return self._pair_level(frequents, mfs_cover)
        found = self.apriori_join(frequents)
        if mfs_cover and frequents:
            found |= self.recovery(frequents, mfs_cover, k)
        return self.pincer_prune(found, frequents, mfs_cover)

    def _pair_level(self, frequents, mfs_cover: MaskCover) -> PairLevel:
        """Level 2 as a :class:`PairLevel`, with no pair built.

        With no MFS it is every pair over L1's items — the paper's "no
        candidate generation process for 2-itemsets is needed".  With
        one, the k = 1 recovery pairs each L1 item with every item of
        each MFS member longer than one item, and both 1-subsets of every
        pair it yields are frequent or covered, so the new prune drops
        exactly the covered pairs.  The level is therefore the pairs over
        L1 and those members' items with at least one item in L1, less
        the covered ones; a covered pair has both items in one long
        member, so only such pairs are probed.
        """
        singles = sorted({itemset_[0] for itemset_ in frequents})
        if not mfs_cover or not singles:
            return PairLevel(singles)
        # the new prune raises for an outside item; so does this
        single_mask = 0
        for mask in self.universe.masks_of(frequents):
            single_mask |= mask
        long_mask = 0
        for mask in mfs_cover.member_masks:
            if mask & (mask - 1):
                long_mask |= mask
        if not long_mask:
            return PairLevel(singles)
        positions = list(bits_of(single_mask | long_mask))
        items = [self.universe.items[position] for position in positions]
        in_l1 = bytes((single_mask >> position) & 1 for position in positions)
        n = len(items)
        keep = bytearray()
        for i in range(n):
            # row i of the condensed mask: a pair needs an item of L1
            keep += b"\x01" * (n - i - 1) if in_l1[i] else in_l1[i + 1:]
        level = PairLevel(items, keep if 0 in keep else None)
        bits = [1 << position for position in positions]
        long_items = [i for i in range(n) if long_mask & bits[i]]
        return level.without(
            (items[min(i, j)], items[max(i, j)])
            for i in long_items
            if in_l1[i]
            for j in long_items
            if (j > i or not in_l1[j])  # each pair once, never (i, i)
            and mfs_cover.covers_mask(bits[i] | bits[j])
        )


def resolve_kernel_name(name: Optional[str] = None) -> str:
    """Normalise a kernel name; ``None`` is the default (bitmask) kernel.

    >>> resolve_kernel_name("tuple")
    'tuple'
    >>> resolve_kernel_name(None)
    'bitmask'
    """
    if name is None:
        name = DEFAULT_KERNEL
    if name not in KERNEL_NAMES:
        raise ValueError(
            "unknown lattice kernel %r (choose from %s)"
            % (name, ", ".join(KERNEL_NAMES))
        )
    return name


def make_kernel(
    name: "Optional[str] | LatticeKernel", universe: Iterable[int]
) -> LatticeKernel:
    """Build the kernel ``name`` for a run over ``universe`` items.

    A :class:`LatticeKernel` *instance* passes through unchanged, which is
    how the lattice benchmark injects its recording kernel into a miner.
    """
    if isinstance(name, LatticeKernel):
        return name
    resolved = resolve_kernel_name(name)
    if resolved == "tuple":
        return TupleKernel()
    return BitmaskKernel(universe)
