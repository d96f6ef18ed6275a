"""Fast subset-cover queries over a family of itemsets.

Both halves of Pincer-Search keep asking one question about a *family* of
itemsets: "is this probe a subset of some member?"  The bottom-up side
asks it against the MFS (Observation-2 pruning in ``L_k`` filtering and
the new prune); the top-down side asks it against the MFCS (minimality
maintenance in MFCS-gen, and finding the elements an infrequent itemset
splits).

A linear scan is O(|family| · |probe|) per query and dominated the
profile, so :class:`CoverIndex` keeps an inverted index from item to a
bitmask of member ids.  Then

* ``covers(probe)`` — does some member contain all items of ``probe``? —
  is the AND of the probe's item masks (non-zero means yes), and
* ``supersets_of(probe)`` decodes the same AND into the member itemsets,

turning each query into a few arbitrary-precision integer operations.
Removals just clear a bit in the ``alive`` mask; ids are recycled through
a free list so long-running MFCS churn does not grow the masks forever.

:class:`MaskCover` is the same index over the masks of one run's
:class:`~repro.core.bitset.ItemUniverse`; the bitmask kernel keeps the
MFS and the MFCS in it.  :class:`CoverIndex` is the tuple kernel's
structure, kept as the differential reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from .itemset import Itemset


class CoverIndex:
    """Inverted-index family of itemsets supporting subset-cover queries."""

    def __init__(self, members: Iterable[Itemset] = ()) -> None:
        self._members: List[Optional[Itemset]] = []
        self._slot_of: Dict[Itemset, int] = {}
        self._item_masks: Dict[int, int] = {}
        self._alive = 0
        self._free_slots: List[int] = []
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(list(self._slot_of))

    def __contains__(self, member: Itemset) -> bool:
        return member in self._slot_of

    def __bool__(self) -> bool:
        return bool(self._slot_of)

    def __repr__(self) -> str:
        return "CoverIndex(%d members)" % len(self._slot_of)

    @property
    def members(self) -> List[Itemset]:
        """Snapshot of the current members."""
        return list(self._slot_of)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, member: Itemset) -> bool:
        """Insert a member; returns False if it was already present."""
        if member in self._slot_of:
            return False
        if self._free_slots:
            slot = self._free_slots.pop()
            self._members[slot] = member
        else:
            slot = len(self._members)
            self._members.append(member)
        self._slot_of[member] = slot
        bit = 1 << slot
        self._alive |= bit
        for item in member:
            self._item_masks[item] = self._item_masks.get(item, 0) | bit
        return True

    def discard(self, member: Itemset) -> bool:
        """Remove a member; returns False if it was not present.

        Item masks keep the stale bit — queries mask with ``alive`` — and
        the slot is recycled after its bit is scrubbed on reuse.
        """
        slot = self._slot_of.pop(member, None)
        if slot is None:
            return False
        bit = 1 << slot
        self._alive &= ~bit
        for item in member:
            self._item_masks[item] &= ~bit
        self._members[slot] = None
        self._free_slots.append(slot)
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def covers(self, probe: Itemset) -> bool:
        """True iff some member is a superset of ``probe``.

        The empty probe is covered whenever the family is non-empty.
        """
        return self._matches(probe) != 0

    def covers_strictly(self, probe: Itemset) -> bool:
        """True iff some member is a *proper* superset of ``probe``."""
        matches = self._matches(probe)
        slot = self._slot_of.get(probe)
        if slot is not None:
            matches &= ~(1 << slot)
        return matches != 0

    def supersets_of(self, probe: Itemset) -> List[Itemset]:
        """All members that contain ``probe``."""
        matches = self._matches(probe)
        found: List[Itemset] = []
        while matches:
            low_bit = matches & -matches
            member = self._members[low_bit.bit_length() - 1]
            assert member is not None
            found.append(member)
            matches ^= low_bit
        return found

    def _matches(self, probe: Itemset) -> int:
        accumulator = self._alive
        masks = self._item_masks
        for item in probe:
            mask = masks.get(item)
            if mask is None:
                return 0
            accumulator &= mask
            if not accumulator:
                return 0
        return accumulator


#: bit positions set in each byte value, for byte-at-a-time mask walks
_BYTE_BITS = tuple(
    tuple(position for position in range(8) if byte >> position & 1)
    for byte in range(256)
)


class MaskCover:
    """Mask-native inverted cover index over one :class:`ItemUniverse`.

    The same inverted-index idea as :class:`CoverIndex` — per-item bitmaps
    of member slots, queries are early-exit ANDs — but members and probes
    are the kernel's interned *masks*, which changes the cost model in two
    ways that matter to MFCS-gen:

    * ``discard_mask`` is O(1): the slot's bit leaves the ``alive`` mask
      and its per-item table bits go *stale* instead of being scrubbed
      (queries always AND with ``alive``, so stale bits are invisible);
    * ``add_mask`` scrubs lazily on slot reuse, paying only for the XOR
      between the stale mask and the new member.  MFCS-gen replaces an
      element by subsets that differ from it in a single item, and the
      freed slot is reused immediately — so the dominant
      discard-element/add-replacement churn costs O(1) table updates
      instead of O(|element|) per replacement.

    Probes arrive as masks too (``covers_mask``/``supersets_masks``), so
    the kernel's hot paths never materialise tuples; the tuple-facing
    CoverIndex API is kept for the boundary.  Every member is a mask of
    the universe: adding an itemset that names an outside item raises
    :class:`KeyError` and leaves the cover unchanged, while a tuple probe
    naming one is simply not covered (``covers``/``in``/``discard`` are
    False, ``supersets_of`` is empty).

    ``queries``/``node_visits`` count one query per cover question and
    one visit per item bitmap examined before the early exit — the
    sub-linearity signal the observability layer reports as
    ``mfcs.cover_*``.
    """

    def __init__(self, universe, members: Iterable[Itemset] = ()) -> None:
        self._universe = universe
        self._table: List[int] = [0] * len(universe)
        self._masks: List[int] = []  # slot -> current (or stale) mask
        self._slot_of: Dict[int, int] = {}  # member mask -> slot
        self._alive = 0
        self._free_slots: List[int] = []
        self.queries = 0
        self.node_visits = 0
        for member in members:
            self.add(member)

    @property
    def universe(self):
        """The :class:`~repro.core.bitset.ItemUniverse` masks refer to."""
        return self._universe

    # ------------------------------------------------------------------
    # container protocol (tuple boundary)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self.members)

    def __contains__(self, member: Itemset) -> bool:
        mask = self._universe.raw_mask_of(member)
        return mask is not None and mask in self._slot_of

    def __bool__(self) -> bool:
        return bool(self._slot_of)

    def __repr__(self) -> str:
        return "MaskCover(%d members)" % len(self)

    @property
    def members(self) -> List[Itemset]:
        """Snapshot of the current members, decoded through the universe."""
        itemset_of = self._universe.itemset_of
        return [itemset_of(mask) for mask in self._slot_of]

    @property
    def member_masks(self) -> List[int]:
        """Snapshot of the member masks."""
        return list(self._slot_of)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, member: Itemset) -> bool:
        """Insert a member; KeyError (and no change) for an outside item."""
        return self.add_mask(self._universe.mask_of(member))

    def discard(self, member: Itemset) -> bool:
        mask = self._universe.raw_mask_of(member)
        return mask is not None and self.discard_mask(mask)

    def add_mask(self, mask: int) -> bool:
        """Insert a member mask; returns False if already present."""
        if mask in self._slot_of:
            return False
        if self._free_slots:
            slot = self._free_slots.pop()
            stale = self._masks[slot]
            self._masks[slot] = mask
        else:
            slot = len(self._masks)
            stale = 0
            self._masks.append(mask)
        self._slot_of[mask] = slot
        bit = 1 << slot
        self._alive |= bit
        table = self._table
        # scrub-on-reuse: only the symmetric difference with the stale
        # mask needs table edits — O(1) for MFCS-gen's one-item splits
        to_set = mask & ~stale
        while to_set:
            low = to_set & -to_set
            to_set ^= low
            table[low.bit_length() - 1] |= bit
        to_clear = stale & ~mask
        not_bit = ~bit
        while to_clear:
            low = to_clear & -to_clear
            to_clear ^= low
            table[low.bit_length() - 1] &= not_bit
        return True

    def discard_mask(self, mask: int) -> bool:
        """Remove a member mask in O(1); table bits are scrubbed on reuse."""
        slot = self._slot_of.pop(mask, None)
        if slot is None:
            return False
        self._alive &= ~(1 << slot)
        self._free_slots.append(slot)
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def covers(self, probe: Itemset) -> bool:
        mask = self._universe.raw_mask_of(probe)
        return mask is not None and self.covers_mask(mask)

    def covers_strictly(self, probe: Itemset) -> bool:
        """True iff some member is a *proper* superset of ``probe``."""
        mask = self._universe.raw_mask_of(probe)
        if mask is None:
            return False
        matches = self._matches_mask(mask)
        slot = self._slot_of.get(mask)
        if slot is not None:
            matches &= ~(1 << slot)
        return matches != 0

    def supersets_of(self, probe: Itemset) -> List[Itemset]:
        mask = self._universe.raw_mask_of(probe)
        if mask is None:
            return []
        itemset_of = self._universe.itemset_of
        return [itemset_of(member) for member in self.supersets_masks(mask)]

    def covers_mask(self, probe_mask: int) -> bool:
        """True iff some member mask contains ``probe_mask``."""
        return self._matches_mask(probe_mask) != 0

    def supersets_masks(self, probe_mask: int) -> List[int]:
        """All member masks containing ``probe_mask``."""
        matches = self._matches_mask(probe_mask)
        masks = self._masks
        found: List[int] = []
        while matches:
            low = matches & -matches
            matches ^= low
            found.append(masks[low.bit_length() - 1])
        return found

    #: item-bitmap probes before switching to direct witness verification
    _PROBE_CUTOFF = 8

    def _matches_mask(self, probe_mask: int) -> int:
        self.queries += 1
        accumulator = self._alive
        if not accumulator:
            return 0
        table = self._table
        byte_bits = _BYTE_BITS
        visits = 0
        base = 0
        # one C-level conversion, then a small-int walk: extracting bits
        # straight off the (universe-wide) probe int would re-allocate a
        # multi-word integer several times per visited bit
        data = probe_mask.to_bytes((probe_mask.bit_length() + 7) // 8, "little")
        for byte in data:
            if byte:
                positions = byte_bits[byte]
                visits += len(positions)
                for position in positions:
                    accumulator &= table[base + position]
                    if not accumulator:
                        self.node_visits += visits
                        return 0
                if visits >= self._PROBE_CUTOFF:
                    break
            base += 8
        else:
            self.node_visits += visits
            return accumulator
        # the first CUTOFF item bitmaps thinned the slots to a handful of
        # candidates; verifying each directly (one wide ANDNOT) beats
        # walking the remaining probe items — a *positive* query can never
        # early-exit the item walk, so long covered probes would otherwise
        # pay one bitmap AND per item they contain
        masks = self._masks
        matches = 0
        remaining = accumulator
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            visits += 1
            if not probe_mask & ~masks[low.bit_length() - 1]:
                matches |= low
        self.node_visits += visits
        return matches


def as_cover(family: object) -> "CoverIndex":
    """Coerce an iterable of itemsets into a cover-query structure.

    Anything already answering the cover protocol (``covers`` +
    ``supersets_of`` — a :class:`CoverIndex`, a :class:`MaskCover`, or
    an :class:`~repro.core.mfcs.MFCS`) passes through untouched, so callers
    keep whatever query complexity the active lattice kernel chose for
    the family.  Plain iterables are indexed into a fresh CoverIndex.
    """
    if hasattr(family, "covers") and hasattr(family, "supersets_of"):
        return family  # type: ignore[return-value]
    return CoverIndex(family)  # type: ignore[arg-type]


def mask_cover_of(universe, family: Iterable[Itemset]) -> MaskCover:
    """``family`` as a :class:`MaskCover` over ``universe``.

    A MaskCover over that universe passes through untouched; anything
    else (a plain iterable, a CoverIndex, another universe's cover) is
    indexed into a fresh one, raising :class:`KeyError` for a member that
    names an outside item.
    """
    if isinstance(family, MaskCover) and family.universe is universe:
        return family
    return MaskCover(universe, family)
