"""Lattice kernels: the tuple reference and the interned bitmask algebra.

PR 1 made support counting fast enough that the per-pass bottleneck moved
to the pure-Python *lattice* side: the Apriori join, the new prune, the
recovery procedure, and MFCS-gen.  All of them operate on the public
canonical-tuple vocabulary (:mod:`repro.core.itemset`), whose subset tests
and ``k``-subset enumerations are linear-in-``k`` tuple churn per probe.

A :class:`LatticeKernel` bundles those hot paths behind one interface:
factories for the cover and MFCS structures, and one generation call,
``generate_candidates``, which both pass loops build every level with
(:func:`~repro.core.pincer.levelwise` hands it an empty MFS).

:class:`BitmaskKernel`
    The production kernel.  A per-run
    :class:`~repro.core.bitset.ItemUniverse` interns every itemset as an
    ``int`` mask, and the hot paths become integer algebra executed in C:

    * ``generate_candidates`` runs the join, the recovery and the new
      prune as one pass over masks.  The join buckets each ``L_k`` mask
      under itself less its highest bit (its ``(k-1)``-prefix) and ORs
      every two final bits of a bucket onto it, checking the kernel's
      ``deadline`` every 256 rows; recovery ORs onto each ``L_k`` mask
      the bits of an MFS member above its prefix, found with one cover
      probe per prefix; the prune tests each ``k``-subset by clearing
      one bit (``mask ^ bit``), against the frequent masks first and the
      MFS cover at most once per distinct subset.  Only the survivors
      are decoded into tuples, so the joined-but-pruned fire-hose never
      touches the interning caches;
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
    naming an outside item raises :class:`KeyError`.  An MFS passed as
    anything but the kernel's own MaskCover is indexed into one once
    per call.

:class:`TupleKernel`
    The seed behaviour, verbatim:
    :func:`repro.core.candidates.generate_candidates` plus
    :class:`~repro.core.cover.CoverIndex` families.  Kept as the
    differential-testing reference.

Both kernels consume and produce plain canonical tuples — masks never
escape — so every API keeps its types, and the differential tests check
the two call by call on inputs that keep the generation contract
(:meth:`LatticeKernel.generate_candidates`).  One output is
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
from typing import Dict, Iterable, List, Optional, Set

from .._types import CountingDeadline
from ..db.base import PairLevel
from . import candidates as _tuple_ops
from .bitset import ItemUniverse, bits_of, popcount
from .cover import CoverIndex, MaskCover, mask_cover_of
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

    Concrete kernels provide one candidate-generation call and factories
    for the cover/MFCS structures whose query cost the kernel controls.
    All methods speak canonical tuples.
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

    def generate_candidates(
        self,
        level_frequents: Iterable[Itemset],
        mfs: Iterable[Itemset],
        k: int,
    ) -> "Set[Itemset] | PairLevel":
        """Pincer-Search's candidate generation for level ``k + 1``: the
        join, the recovery and the new prune in one call.  With an empty
        ``mfs`` it is Apriori-gen's join and prune.

        Contract: ``level_frequents`` holds no itemset an ``mfs`` member
        covers, as the miner's ``L_k`` does (it drops them).  Every
        candidate contains an ``L_k`` member, a join parent or the ``Y``
        recovery extends, so no candidate is covered either, and a kernel
        may skip Observation 2's check on the candidates.  A caller that
        breaks the contract may get covered candidates back; a miner
        counts them for nothing and gets the same answer.

        At k = 1 a kernel may hand level 2 over as a lazy
        :class:`~repro.db.base.PairLevel` (the bitmask kernel does).
        """
        raise NotImplementedError


class TupleKernel(LatticeKernel):
    """Seed tuple-algebra kernel — the differential-testing reference."""

    name = "tuple"

    def make_cover(self, members: Iterable[Itemset] = ()) -> CoverIndex:
        return CoverIndex(members)

    def make_mfcs(self, universe: Iterable[int]) -> MFCS:
        return MFCS.for_universe(universe)

    def make_mfcs_from(self, elements: Iterable[Itemset]) -> MFCS:
        return MFCS(elements)

    def generate_candidates(self, level_frequents, mfs, k):
        return _tuple_ops.generate_candidates(level_frequents, mfs, k)


class BitmaskKernel(LatticeKernel):
    """Interned-bitmask kernel over one run's :class:`ItemUniverse`.

    ``deadline`` (a ``time.perf_counter`` timestamp) bounds the join:
    past it, generation raises
    :class:`~repro.db.counting.CountingDeadline`.
    :class:`~repro.algorithms.apriori.Apriori` sets it from its time
    budget.
    """

    name = "bitmask"

    def __init__(
        self, universe: Iterable[int], deadline: "float | None" = None
    ) -> None:
        self.universe = (
            universe
            if isinstance(universe, ItemUniverse)
            else ItemUniverse(universe)
        )
        self.deadline = deadline

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
    # candidate generation: one join, one recovery and one prune, on masks
    # ------------------------------------------------------------------

    def generate_candidates(self, level_frequents, mfs, k):
        """Join + recovery + new prune in one pass over masks; only the
        survivors are decoded.  Level 2 (k = 1) comes back as a lazy
        :class:`~repro.db.base.PairLevel` whose pairs are never built
        here — the miners count it as the paper's 2-D array."""
        frequents = list(level_frequents)
        mfs_cover = mask_cover_of(self.universe, mfs)
        if k == 1:
            return self._pair_level(frequents, mfs_cover)
        level = set(self.universe.masks_of(frequents))
        buckets = self._buckets(level)
        found = self._join(buckets, self.deadline)
        if mfs_cover:
            found |= self._recover(buckets, mfs_cover, k)
        itemset_of = self.universe.itemset_of
        return {
            itemset_of(mask) for mask in self._prune(found, level, mfs_cover)
        }

    @staticmethod
    def _buckets(level: Set[int]) -> Dict[int, List[int]]:
        """``L_k`` grouped for the join: each mask less its highest bit
        (its ``(k-1)``-prefix) maps to the highest bits it completes."""
        buckets: Dict[int, List[int]] = {}
        for mask in level:
            last = 1 << (mask.bit_length() - 1)
            tails = buckets.get(mask ^ last)
            if tails is None:
                buckets[mask ^ last] = [last]
            else:
                tails.append(last)
        return buckets

    @staticmethod
    def _join(
        buckets: Dict[int, List[int]], deadline: "float | None"
    ) -> Set[int]:
        """Apriori-gen's join: ``prefix | a | b`` for every two final bits
        of one bucket.  Each candidate has one such split (its two
        highest bits), so nothing is emitted twice.  ``deadline`` is
        checked every 256 rows."""
        joined: Set[int] = set()
        update = joined.update
        rows = 0
        for prefix, tails in buckets.items():
            for index in range(len(tails) - 1):
                rows += 1
                if (
                    deadline is not None
                    and rows % 256 == 0
                    and time.perf_counter() > deadline
                ):
                    raise CountingDeadline("join passed its deadline")
                update(map((prefix | tails[index]).__or__, tails[index + 1:]))
        return joined

    @staticmethod
    def _recover(
        buckets: Dict[int, List[int]], mfs_cover: MaskCover, k: int
    ) -> Set[int]:
        """The recovery procedure (paper §3.4) on masks.

        For ``Y = prefix | last`` in ``L_k`` and each MFS member longer
        than ``k`` that holds the prefix, ``Y | b`` for every bit ``b`` of
        the member above the prefix's highest bit other than ``last`` —
        the set :func:`repro.core.candidates.recovery` builds.  One
        cover probe per distinct prefix finds the members.
        """
        recovered: Set[int] = set()
        update = recovered.update
        supersets_masks = mfs_cover.supersets_masks
        for prefix, tails in buckets.items():
            shift = prefix.bit_length()
            for member in supersets_masks(prefix):
                if popcount(member) <= k:
                    continue
                above = [
                    1 << position
                    for position in bits_of(member >> shift << shift)
                ]
                for last in tails:
                    base = prefix | last
                    update(base | bit for bit in above if bit != last)
        return recovered

    @staticmethod
    def _prune(
        candidates: Iterable[int], level: Set[int], mfs_cover: MaskCover
    ) -> List[int]:
        """The new prune (§3.4, amendment A3) on masks; Apriori-gen's
        prune when ``mfs_cover`` is empty.

        Every ``k``-subset must be in ``level`` or under an MFS member.
        Subsets are tested against ``level`` first, and the cover is
        probed at most once per distinct subset.  The candidate itself
        is never probed: under the contract of
        :meth:`LatticeKernel.generate_candidates` no candidate is
        covered, so Observation 2 cannot drop one.
        """
        covers_mask = mfs_cover.covers_mask if mfs_cover else None
        covered: Dict[int, bool] = {}
        kept: List[int] = []
        for candidate in candidates:
            remaining = candidate
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                subset = candidate ^ bit
                if subset in level:
                    continue
                if covers_mask is None:
                    break
                known = covered.get(subset)
                if known is None:
                    known = covered[subset] = covers_mask(subset)
                if not known:
                    break
            else:
                kept.append(candidate)
        return kept

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
