"""The maximum frequent candidate set (MFCS) and the MFCS-gen algorithm.

Definition 1 of the paper: at any point of the search, the MFCS is a
minimum-cardinality set of itemsets such that the union of all the subsets
of its elements (i) contains every itemset classified frequent so far and
(ii) contains no itemset classified infrequent so far.  The MFCS is always
a superset of the (final) MFS, and the top-down half of Pincer-Search is
nothing but maintaining this set and counting its elements.

The update rule (Section 3.2, algorithm *MFCS-gen*): for every newly
discovered infrequent itemset ``s`` and every MFCS element ``m ⊇ s``,
replace ``m`` by the ``|s|`` itemsets ``m \\ {e}`` for ``e ∈ s``, keeping
only those not already covered by another element.  Removing exactly one
item of ``s`` produces the *longest* subsets of ``m`` that exclude ``s``,
which is what keeps the MFCS minimum (Lemma 1).

Two documented amendments (DESIGN.md A4/A5) refine the paper's pseudocode:

* replacements that are subsets of an already-discovered maximal frequent
  itemset are dropped, so the working invariant is that **MFS ∪ MFCS**
  jointly cover all frequent itemsets and the MFCS never re-counts known
  frequent territory;
* the empty itemset is never stored.

All containment bookkeeping runs through a cover structure, so splitting
on an infrequent itemset touches only the elements that actually contain
it.  The kernel that builds the MFCS picks that structure once, and with
it the path every operation runs.  The bitmask kernel's
:class:`~repro.core.cover.MaskCover` keeps the whole MFCS-gen loop in
mask algebra, and takes each element one step per batch:

* a batch of infrequent *pairs* replaces every element it touches, at
  once, by that element's maximal pair-free subsets: the maximal cliques
  of the element's allowed-pair graph, listed by one pivoting
  Bron–Kerbosch walk (:func:`maximal_cliques`).  They are inserted
  longest first, each checked once against the other elements, the
  earlier replacements and the protected MFS;
* a larger infrequent set ``s`` splits an element ``E`` with one cover
  probe of the core ``E \\ s``: a member covers ``E \\ {a}`` iff it holds
  the core and every other item of ``s``, which prefix/suffix ANDs over
  the slot bitmaps of ``s``'s items answer for every ``a`` at once.

Both leave the MFCS the sequential splits leave, element for element.
The tuple kernel, or no kernel, keeps the seed
:class:`~repro.core.cover.CoverIndex` and the paper's sequential tuple
splits: the differential reference.  Seeding from a family costs one
cover probe per element.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set

from .bitset import bits_of, popcount
from .cover import CoverIndex, MaskCover, as_cover, mask_cover_of
from .itemset import Itemset, is_subset, sort_itemsets, without_item
from .lattice import is_antichain


class MFCS:
    """Mutable maximum-frequent-candidate-set.

    >>> mfcs = MFCS([(1, 2, 3, 4, 5, 6)])
    >>> mfcs.exclude((1, 6))
    >>> mfcs.exclude((3, 6))
    >>> sorted(mfcs)
    [(1, 2, 3, 4, 5), (2, 4, 5, 6)]

    (This is the paper's Section 3.2 worked example.)
    """

    def __init__(
        self,
        elements: Iterable[Itemset] = (),
        kernel: Optional[object] = None,
    ) -> None:
        """``kernel`` (a :class:`~repro.core.kernel.LatticeKernel`) builds
        the cover index: a :class:`MaskCover` runs every operation in mask
        algebra, a :class:`CoverIndex` (the tuple kernel, or None) the
        seed tuple path.  ``elements`` may be any family; only its maximal
        members are kept."""
        self._index = (
            kernel.make_cover() if kernel is not None else CoverIndex()
        )
        self._mask_native = isinstance(self._index, MaskCover)
        #: lifetime count of Observation-1 applications (infrequent
        #: itemsets excluded) and of elements split by them — the
        #: top-down work the trace/metrics layer reports per pass
        self.exclusions = 0
        self.splits = 0
        # longest-first, no later distinct element can contain an earlier
        # one, so a single cover probe per element keeps the antichain
        ordered = sorted(set(elements), key=len, reverse=True)
        index = self._index
        if self._mask_native:
            mask_of = index.universe.mask_of
            for element in ordered:
                mask = mask_of(element)
                if mask and not index.covers_mask(mask):
                    index.add_mask(mask)
        else:
            for element in ordered:
                if element and not index.covers(element):
                    index.add(element)

    @classmethod
    def for_universe(
        cls,
        universe: Iterable[int],
        kernel: Optional[object] = None,
    ) -> "MFCS":
        """The paper's initial MFCS: one element holding every item.

        >>> sorted(MFCS.for_universe([2, 1, 3]))
        [(1, 2, 3)]
        """
        top = tuple(sorted(set(universe)))
        return cls([top] if top else [], kernel=kernel)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._index)

    def __contains__(self, element: Itemset) -> bool:
        return element in self._index

    def __bool__(self) -> bool:
        return bool(self._index)

    def __repr__(self) -> str:
        preview = sort_itemsets(self._index.members)[:4]
        suffix = ", ..." if len(self._index) > 4 else ""
        return "MFCS(%s%s)" % (preview, suffix)

    @property
    def elements(self) -> Set[Itemset]:
        """A snapshot copy of the current elements."""
        return set(self._index.members)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, element: Itemset) -> bool:
        """Insert ``element`` unless it is already covered; prune its subsets.

        Maintains the antichain/minimality property.  Returns True when the
        element was actually inserted.  On a mask MFCS an element naming
        an item outside the universe raises :class:`KeyError` and changes
        nothing.
        """
        if not element:
            return False
        index = self._index
        if self._mask_native:
            mask = index.universe.mask_of(element)
            if index.covers_mask(mask):
                return False
            for member_mask in index.member_masks:
                if not member_mask & ~mask:
                    index.discard_mask(member_mask)
            index.add_mask(mask)
            return True
        if index.covers(element):
            return False
        for member in index.members:
            if is_subset(member, element):
                index.discard(member)
        index.add(element)
        return True

    def remove(self, element: Itemset) -> None:
        """Remove an element (e.g. one promoted to the MFS)."""
        self._index.discard(element)

    def exclude(
        self,
        infrequent: Itemset,
        protected: Optional[object] = None,
    ) -> None:
        """MFCS-gen for a single infrequent itemset.

        Every element containing ``infrequent`` is replaced by its maximal
        subsets that avoid ``infrequent``.  Replacements covered by another
        element — or by any itemset in ``protected`` (the current MFS,
        amendment A4) — are dropped.
        """
        if not infrequent:
            raise ValueError("cannot exclude the empty itemset")
        self.update([infrequent], protected=protected)

    def update(
        self,
        infrequent_sets: Iterable[Itemset],
        protected: Optional[object] = None,
        size_cap: Optional[int] = None,
        work_cap: Optional[int] = None,
    ) -> bool:
        """The full MFCS-gen loop over a batch of infrequent itemsets.

        The paper runs this once per pass with ``S_k``; Pincer-Search also
        feeds MFCS elements that were themselves counted infrequent
        (amendment A2).

        Two guards bound the update; when either trips, the update stops
        and returns False — the caller should abandon the MFCS, whose
        contents are no longer meaningful:

        * ``size_cap`` — maximum number of elements (the pure top-down
          search's frontier guard), checked after the singletons, after
          the mask path's pair batch and after each larger set;
        * ``work_cap`` — maximum split work (in item-mask-lookup units),
          the adaptive version's (Section 3.5) budget: on scattered
          distributions the pass-2 update is a maximal-clique enumeration
          over the frequent-pair graph, whose cost must be bounded
          *during* the update.  Every split element is charged its width
          times the infrequent set's size (a pair batch charges each
          element it touches once, as for one pair), and the pair batch
          also charges each enumeration node the size of its candidate
          set.

        ``protected`` should be the building kernel's own cover; any
        other family is indexed into one once per call.  An infrequent
        itemset naming an item outside a mask MFCS's universe is under no
        element, so it splits nothing.  Returns True when fully applied.
        """
        if protected is not None:
            protected = (
                mask_cover_of(self._index.universe, protected)
                if self._mask_native
                else as_cover(protected)
            )
        budget = [work_cap] if work_cap is not None else None
        singletons = []
        pairs = []
        larger = []
        for infrequent in infrequent_sets:
            if len(infrequent) == 1:
                singletons.append(infrequent)
            elif len(infrequent) == 2 and self._mask_native:
                pairs.append(infrequent)
            else:
                larger.append(infrequent)
        index = self._index
        if singletons and not self._exclude_items(
            {s[0] for s in singletons}, protected, budget
        ):
            return False
        if size_cap is not None and len(index) > size_cap:
            return False
        if pairs:
            self.exclusions += len(pairs)
            if not self._split_pairs(pairs, protected, budget):
                return False
            if size_cap is not None and len(index) > size_cap:
                return False
        split = self._split_mask if self._mask_native else self._split
        for infrequent in larger:
            self.exclusions += 1
            if not split(infrequent, protected, budget):
                return False
            if size_cap is not None and len(index) > size_cap:
                return False
        return True

    def _split(
        self,
        infrequent: Itemset,
        protected: Optional[CoverIndex],
        budget: Optional[List[int]],
    ) -> bool:
        """Split every element containing ``infrequent`` (tuple path).

        ``budget`` (a one-element mutable list of remaining work units,
        where one unit ≈ one item-mask lookup) implements the adaptive
        version's work cap; returns False when it ran out mid-split.
        """
        index = self._index
        for element in index.supersets_of(infrequent):
            if budget is not None:
                budget[0] -= len(element) * len(infrequent)
                if budget[0] < 0:
                    return False
            self.splits += 1
            index.discard(element)
            for item in infrequent:
                replacement = without_item(element, item)
                if not replacement:
                    continue  # amendment A5: never store the empty itemset
                if index.covers(replacement):
                    continue
                if protected is not None and protected.covers(replacement):
                    continue
                # A replacement is never a *superset* of a remaining
                # element (it lost an item of a former antichain member
                # that every split sibling retains — see tests), so a
                # plain insert keeps the antichain property.
                index.add(replacement)
        return True

    def _split_mask(
        self,
        infrequent: Itemset,
        protected: Optional[MaskCover],
        budget: Optional[List[int]],
    ) -> bool:
        """All-mask :meth:`_split` for a set of any size but one or two.

        Every replacement ``E \\ {a}`` of an element ``E ⊇ s`` shares the
        core ``E \\ s``, and a member covers it iff the member holds the
        core and every item of ``s`` but ``a``.  So one exact probe of
        the core, ANDed with the slot bitmaps of ``s``'s other items,
        answers every replacement's cover check.  The slot bitmaps are
        read live for each element: inserts recycle freed slots and
        scrub their table bits, so a snapshot taken up front would
        misattribute items to reused slots.  The protected cover never
        mutates during an update, so its ANDs are taken once.  The
        discarded element's slot is recycled by the next insert, so a
        replacement costs O(1) cover-index edits.  The batch is encoded
        uncached: infrequent itemsets are seen once.
        """
        index = self._index
        infrequent_mask = index.universe.raw_mask_of(infrequent)
        if infrequent_mask is None:
            return True  # no element holds an outside item
        elements = index.supersets_masks(infrequent_mask)
        if not elements:
            return True
        positions = list(bits_of(infrequent_mask))
        matches = index._matches_mask  # the slots whose member covers
        table = index._table
        add_mask = index.add_mask
        discard_mask = index.discard_mask
        if protected is not None and protected:
            protected_matches = protected._matches_mask
            protected_others = _and_all_but_one(
                [protected._table[position] for position in positions], -1
            )
        else:
            protected = None  # an empty protected cover rejects nothing
        width = len(positions)
        splits = 0
        for element_mask in elements:
            if budget is not None:
                budget[0] -= popcount(element_mask) * width
                if budget[0] < 0:
                    self.splits += splits
                    return False
            splits += 1
            discard_mask(element_mask)
            core = element_mask & ~infrequent_mask
            covered = _and_all_but_one(
                [table[position] for position in positions], matches(core)
            )
            protected_core = None
            for i, position in enumerate(positions):
                if covered[i]:
                    continue
                if protected is not None:
                    if protected_core is None:
                        protected_core = protected_matches(core)
                    if protected_core & protected_others[i]:
                        continue
                add_mask(element_mask ^ (1 << position))
        self.splits += splits
        return True

    def _split_pairs(
        self,
        pairs: Sequence[Itemset],
        protected: Optional[MaskCover],
        budget: Optional[List[int]],
    ) -> bool:
        """MFCS-gen for a batch of infrequent pairs, one step per element.

        The maximal subsets of an element that hold no infrequent pair
        are its items without a conflict inside it, plus each maximal
        clique of the allowed-pair graph over the rest.  Sequential pair
        splits reach the same family one replacement at a time, and most
        of those replacements are split again within the batch.  All
        replacements are gathered first, every touched element is then
        discarded, and the replacements are inserted longest first, so a
        cover check against the index (the untouched elements and the
        longer replacements) and the protected MFS (amendment A4) keeps
        the antichain.
        """
        index = self._index
        universe = index.universe
        position_of = universe._bit_of
        bit = [1 << position for position in range(len(universe))]
        conflicts = [0] * len(universe)
        touched = 0
        for a, b in pairs:
            position_a = position_of.get(a)
            position_b = position_of.get(b)
            if position_a is None or position_b is None:
                continue  # no element holds an outside item
            conflicts[position_a] |= bit[position_b]
            conflicts[position_b] |= bit[position_a]
            touched |= bit[position_a] | bit[position_b]
        # allowed[p]: every item but p and its conflicts (a negative int)
        allowed = {
            position: ~(conflicts[position] | bit[position])
            for position in bits_of(touched)
        }
        replacements: List[int] = []
        split_elements: List[int] = []
        for element_mask in index.member_masks:
            vertices = 0
            for position in bits_of(element_mask & touched):
                if conflicts[position] & element_mask:
                    vertices |= bit[position]
            if not vertices:
                continue
            if budget is not None:
                budget[0] -= popcount(element_mask) * 2
            # a spent budget stops the walk at its first node
            cliques = maximal_cliques(vertices, allowed, budget)
            if cliques is None:
                return False  # no element was split yet
            split_elements.append(element_mask)
            free = element_mask & ~vertices
            replacements.extend(free | clique for clique in cliques)
        self.splits += len(split_elements)
        discard_mask = index.discard_mask
        for element_mask in split_elements:
            discard_mask(element_mask)
        covers_mask = index.covers_mask
        protected_covers = protected.covers_mask if protected else None
        add_mask = index.add_mask
        for replacement in sorted(replacements, key=popcount, reverse=True):
            if covers_mask(replacement):
                continue
            if protected_covers is not None and protected_covers(replacement):
                continue
            add_mask(replacement)
        return True

    def _exclude_items(
        self,
        items: "set[int]",
        protected: Optional[CoverIndex],
        budget: Optional[List[int]],
    ) -> bool:
        """Batch fast path for infrequent *1-itemsets*.

        Splitting on a singleton ``{e}`` replaces each element containing
        ``e`` by the single itemset ``element \\ {e}``, so a batch of
        singletons just strips all the batch items from every element —
        pass 1's "top-down search goes down m levels in one pass" costs
        one rebuild instead of ``m`` incremental splits.  Stripping is
        inclusion-monotone, so taking maximal survivors afterwards gives
        exactly the sequential MFCS-gen result.
        """
        self.exclusions += len(items)
        if self._mask_native:
            return self._exclude_items_mask(items, protected, budget)
        index = self._index
        replacements = []
        for element in index.members:
            if not any(item in items for item in element):
                continue
            if budget is not None:
                budget[0] -= len(element)
                if budget[0] < 0:
                    return False
            self.splits += 1
            index.discard(element)
            replacements.append(
                tuple(item for item in element if item not in items)
            )
        # longest-first: a later (shorter) replacement can never swallow an
        # earlier one, so a plain covers-check keeps the antichain intact
        for replacement in sorted(replacements, key=len, reverse=True):
            if not replacement:
                continue
            if index.covers(replacement):
                continue
            if protected is not None and protected.covers(replacement):
                continue
            index.add(replacement)
        return True

    def _exclude_items_mask(
        self,
        items: "set[int]",
        protected: Optional[MaskCover],
        budget: Optional[List[int]],
    ) -> bool:
        """All-mask :meth:`_exclude_items` (same semantics, no tuples)."""
        index = self._index
        universe = index.universe
        # an outside item is in no element, so it strips nothing
        batch_mask = universe.raw_mask_of(
            [item for item in items if item in universe]
        )
        stripped_masks: List[int] = []
        for element_mask in index.member_masks:
            if not element_mask & batch_mask:
                continue
            if budget is not None:
                budget[0] -= popcount(element_mask)
                if budget[0] < 0:
                    return False
            self.splits += 1
            index.discard_mask(element_mask)
            stripped_masks.append(element_mask & ~batch_mask)
        covers_mask = index.covers_mask
        protected_covers = (
            protected.covers_mask if protected is not None else None
        )
        for replacement in sorted(stripped_masks, key=popcount, reverse=True):
            if not replacement:
                continue
            if covers_mask(replacement):
                continue
            if protected_covers is not None and protected_covers(replacement):
                continue
            index.add_mask(replacement)
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def covers(self, candidate: Itemset) -> bool:
        """True if ``candidate`` is a subset of some element.

        Routed through the index the constructing kernel chose: with the
        bitmask kernel this is a guard-masked trie descent, sub-linear in
        the element count, not a rescan of every element.
        """
        return self._index.covers(candidate)

    def supersets_of(self, candidate: Itemset) -> List[Itemset]:
        """All elements containing ``candidate`` (same routing as covers)."""
        return self._index.supersets_of(candidate)

    @property
    def cover_queries(self) -> int:
        """Cover queries answered by the index (0 when it does not count)."""
        return getattr(self._index, "queries", 0)

    @property
    def cover_node_visits(self) -> int:
        """Trie nodes visited answering them (the sub-linearity metric)."""
        return getattr(self._index, "node_visits", 0)

    def check_invariants(
        self,
        frequent: Iterable[Itemset] = (),
        infrequent: Iterable[Itemset] = (),
        protected: Iterable[Itemset] = (),
    ) -> None:
        """Assert Definition 1 against known classifications (test hook).

        ``protected`` is the current MFS; coverage of frequents is required
        from the union MFS ∪ MFCS (amendment A4).  Raises AssertionError on
        violation.
        """
        assert is_antichain(self._index.members), "MFCS is not an antichain"
        protected_cover = CoverIndex(protected)
        for itemset_ in frequent:
            assert self._index.covers(itemset_) or protected_cover.covers(
                itemset_
            ), "frequent %r not covered by MFS ∪ MFCS" % (itemset_,)
        for itemset_ in infrequent:
            assert not self._index.covers(itemset_), (
                "infrequent %r still covered by MFCS" % (itemset_,)
            )


def maximal_cliques(
    vertices: int,
    allowed: "dict[int, int]",
    budget: Optional[List[int]] = None,
) -> Optional[List[int]]:
    """Every maximal clique of the graph on ``vertices``, as masks.

    ``allowed[p]`` masks the neighbours of vertex ``p`` (bits outside
    ``vertices`` are ignored, and ``p``'s own bit must be clear).  One
    Bron–Kerbosch walk with Tomita pivoting, over int masks and an
    explicit stack: each node branches only on the candidates its pivot,
    the vertex of ``P ∪ X`` with the most neighbours in ``P``, does not
    reach.  Each node charges ``budget`` (a one-element list of work
    units) the size of its candidate set ``P``; None is returned once it
    runs out.

    >>> edges = {0: 0b0110, 1: 0b0101, 2: 0b0011, 3: 0}
    >>> sorted(maximal_cliques(0b1111, edges))
    [7, 8]
    """
    found: List[int] = []
    stack = [(0, vertices, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        clique, candidates, excluded = pop()
        if not candidates:
            if not excluded:
                found.append(clique)
            continue
        if budget is not None:
            budget[0] -= popcount(candidates)
            if budget[0] < 0:
                return None
        most = -1
        reach = 0
        for position in bits_of(candidates | excluded):
            neighbours = candidates & allowed[position]
            size = popcount(neighbours)
            if size > most:
                most = size
                reach = neighbours
        for position in bits_of(candidates & ~reach):
            low = 1 << position
            neighbours = allowed[position]
            push((clique | low, candidates & neighbours, excluded & neighbours))
            candidates ^= low
            excluded |= low
    return found


def _and_all_but_one(masks: List[int], seed: int) -> List[int]:
    """``seed`` ANDed with every mask but the ``i``-th, for each ``i``:
    one prefix and one suffix sweep.

    >>> _and_all_but_one([0b011, 0b110, 0b111], -1)
    [6, 3, 2]
    """
    suffix = [-1] * len(masks)
    accumulator = -1
    for i in range(len(masks) - 1, 0, -1):
        accumulator &= masks[i]
        suffix[i - 1] = accumulator
    out = []
    accumulator = seed
    for mask, rest in zip(masks, suffix):
        out.append(accumulator & rest)
        accumulator &= mask
    return out
