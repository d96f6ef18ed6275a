"""Vertical bitmap indexes and the counting engine body they share.

Every index in this module is built from one vertical view: the
database's cached ``db.item_bitmaps()``, one arbitrary-precision int per
item with bit ``t`` set iff transaction ``t`` contains the item.  A
database keeps one index per index class (``db.counting_index``), so
mining it again, at another support or with a fresh counter, builds
nothing.  Counting never changes an index: each ``counts`` call returns
its prefix-sharing tally with the counts (:class:`IndexCounts`), and
the packed kernel's in-place AND buffer belongs to the caller
(:class:`Scratch`).

:class:`PrefixIntersector`
    A running-AND memo over a sorted candidate stream.  Candidates emitted
    by the Apriori join arrive grouped by their common ``(k-1)``-prefix,
    so memoizing the intersection of the first ``j`` items turns a pass
    from O(candidates x length) intersections into roughly one
    intersection per candidate-trie edge.

:class:`IntBitmapIndex`
    The int bitmaps walked through a :class:`PrefixIntersector`: the
    ``bitmap`` engine's index, and every index engine's index when NumPy
    is absent.

:class:`PackedBitmapIndex`
    The same view packed into a ``(num_items, num_words)`` NumPy
    ``uint64`` matrix.  Batch counting groups candidates by length and
    resolves each length level with *one* vectorized AND over the unique
    prefixes of the group — the same trie-edge saving as
    :class:`PrefixIntersector`, but across the whole batch at once, with
    no per-candidate interpreter overhead.

Pass 2 as the paper's 2-D array (Section 4.1.1)
    The paper counts the pairs of frequent items in a triangular array,
    not as candidates.  :func:`_pair_table` ANDs each of the items' rows
    with itself and every later row and popcounts the results, so pass 2
    costs ``C(|L1|, 2)`` bit-parallel row ANDs and no per-pair walk.  The
    miners hand level 2 over as a lazy
    :class:`~repro.db.base.PairBatch`; ``packed`` and ``roaring`` answer
    it with the array itself, a :class:`PairCounts`, without mapping a
    single pair.  A *listed* batch whose pairs are dense over their items
    goes through :func:`sweep_pairs`, which reads its pairs' cells one by
    one.

The shared adapter
    :func:`pass_batch` builds a pass's batch around its level and
    :func:`level_counts` turns any engine's answer into the level's
    counts (:class:`LevelCounts`): a :class:`PairCounts` as it is, any
    other answer — every engine's dict, every listed batch's — itemset
    by itemset.  Level 2 is then classified with one ``np.nonzero``,
    and tuples are built only for the pairs asked for; without NumPy the
    counts are a list and one comprehension classifies them.  It is the
    one place an engine's dict becomes the count array, so neither miner
    branches on engine, kernel or NumPy.

:class:`IndexCounter` is the engine body of ``bitmap``, ``packed`` and
``roaring`` (:mod:`repro.db.roaring`): each is a subclass naming its
index class, and ``packed`` and ``roaring`` answer pass 2's pairs from
the 2-D array before their index counts the rest (``packed`` gathers the
rows from its own matrix, ``roaring`` packs them).  The in-memory
partitions of :mod:`repro.db.outofcore` build their own indexes through
:meth:`IndexCounter.index_over`, cached nowhere, and never sweep: they
count a pair batch listed, and the adapter reads their dict.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from itertools import chain
from typing import (
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .._types import Itemset
from .base import PairBatch, PairLevel, SupportCounter

try:  # NumPy is optional (the ``[fast]`` extra); everything degrades.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI cells
    _np = None

#: True when the packed NumPy matrix path is available.
HAVE_NUMPY = _np is not None

#: Words of AND work one vectorized step may gather (~32 MiB of uint64):
#: the packed kernel's candidate chunks, the deadline cadence of every
#: index walk and of the pass-2 sweep, and the largest block the sweep
#: copies.
WORK_BUDGET_WORDS = 1 << 22

__all__ = [
    "BitmapCounter",
    "HAVE_NUMPY",
    "IndexCounter",
    "IndexCounts",
    "IntBitmapIndex",
    "LevelCounts",
    "PackedBitmapIndex",
    "PackedCounter",
    "PairCounts",
    "PrefixIntersector",
    "Scratch",
    "WORK_BUDGET_WORDS",
    "as_level",
    "level_counts",
    "pass_batch",
    "popcount",
    "sweep_pairs",
]


if hasattr(int, "bit_count"):  # Python >= 3.10

    def popcount(value: int) -> int:
        """Number of set bits of a non-negative int."""
        return value.bit_count()

else:  # pragma: no cover - legacy interpreters

    def popcount(value: int) -> int:
        """Number of set bits of a non-negative int."""
        return bin(value).count("1")


if _np is not None and hasattr(_np, "bitwise_count"):  # NumPy >= 2.0

    def _popcount_words(words):  # (C, W) uint64 -> (C,) int64
        return _np.bitwise_count(words).sum(axis=-1, dtype=_np.int64)

elif _np is not None:  # pragma: no cover - NumPy 1.x

    _POPCOUNT_TABLE = _np.array(
        [bin(value).count("1") for value in range(256)], dtype=_np.uint8
    )

    def _popcount_words(words):
        as_bytes = _np.ascontiguousarray(words).view(_np.uint8)
        return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=_np.int64)


def _pack_rows(bitmaps: Dict[int, int], items: Sequence[int], num_rows: int):
    """``items``' int bitmaps as ``(len(items), ceil(num_rows / 64))``
    little-endian uint64 rows; an item without a bitmap gets a zero row."""
    num_words = max(1, (num_rows + 63) // 64)
    matrix = _np.zeros((len(items), num_words), dtype=_np.uint64)
    num_bytes = num_words * 8
    for row, item in enumerate(items):
        value = bitmaps.get(item)
        if value:
            matrix[row] = _np.frombuffer(
                value.to_bytes(num_bytes, "little"), dtype="<u8"
            )
    return matrix


class IndexCounts(list):
    """One ``counts`` call's answer: supports parallel to the candidates.

    It also carries that call's prefix-sharing accounting, mirroring
    :class:`PrefixIntersector`: ``hits`` are ANDs saved by resolving a
    shared prefix once, ``misses`` the ANDs done.  An index keeps no
    tally of its own, so counting never changes it.
    """

    __slots__ = ("hits", "misses")

    def __init__(self, counts=(), hits: int = 0, misses: int = 0) -> None:
        super().__init__(counts)
        self.hits = hits
        self.misses = misses


class Scratch:
    """The in-place AND buffer :meth:`PackedBitmapIndex.counts` fills.

    ``np.take(..., out=...)`` into it skips one allocation and one
    memory pass per chunk versus fancy-indexed temporaries — ~2x on the
    cache-resident AND path.  A counter owns one and passes it into
    every ``counts`` call, so the buffer is freed with the counter and
    the index itself stays unchanged.
    """

    def __init__(self) -> None:
        self._words = None  # grown to the largest block asked for

    def take(self, rows: int, num_words: int):
        """A ``(rows, num_words)`` uint64 view, valid until the next
        ``take``."""
        size = rows * num_words
        if self._words is None or self._words.shape[0] < size:
            self._words = _np.empty(size, dtype=_np.uint64)
        return self._words[:size].reshape(rows, num_words)


Bitmap = TypeVar("Bitmap")


class PrefixIntersector(Generic[Bitmap]):
    """Memoized running AND over a stream of *sorted* candidates.

    ``lookup(item)`` returns the item's bitmap (None for items outside
    the universe: any candidate containing one has support 0), ``combine``
    is the AND of two bitmaps, and ``top`` is the all-ones bitmap the
    empty prefix starts from.  The memo is a stack holding, for the most
    recent candidate, the running intersection of each of its prefixes;
    the next candidate reuses the longest prefix it shares.

    A *hit* is a prefix entry served from the memo, a *miss* is a prefix
    entry that had to be (re)computed, whether or not its item resolved
    to a bitmap; the metrics registry and bench records surface them as
    ``prefix_cache.hits`` / ``prefix_cache.misses``.
    """

    def __init__(
        self,
        lookup: Callable[[int], Optional[Bitmap]],
        combine: Callable[[Bitmap, Bitmap], Bitmap],
        top: Bitmap,
    ) -> None:
        self._lookup = lookup
        self._combine = combine
        self._top = top
        self._items: List[int] = []
        self._values: List[Optional[Bitmap]] = []
        self.hits = 0
        self.misses = 0

    def intersection(self, candidate: Itemset) -> Optional[Bitmap]:
        """AND of the item bitmaps; None if any item has no bitmap."""
        if not candidate:
            return self._top
        shared = 0
        limit = min(len(self._items), len(candidate))
        while shared < limit and self._items[shared] == candidate[shared]:
            shared += 1
        del self._items[shared:]
        del self._values[shared:]
        self.hits += shared
        self.misses += len(candidate) - shared
        value = self._values[shared - 1] if shared else self._top
        for item in candidate[shared:]:
            if value is not None:
                bitmap = self._lookup(item)
                if bitmap is None:
                    value = None
                else:
                    value = self._combine(value, bitmap)
            self._items.append(item)
            self._values.append(value)
        return self._values[-1]


class PackedBitmapIndex:
    """Vertical bitmaps packed as a ``(num_items, num_words)`` uint64 matrix.

    ``num_words = ceil(num_rows / 64)``; bit ``t`` of the row for item
    ``i`` (little-endian across words) is set iff transaction ``t``
    contains ``i``.  Tail bits past ``num_rows`` are always zero, so
    popcounts never need masking.
    """

    #: Candidates per vectorized block; bounds the working set to
    #: ``chunk x length x num_words`` words per level.
    # ~1 MiB of gathered words per side at 32 words/row: chunks (and their
    # AND/popcount temporaries) stay L2-resident, worth ~20% over 8192
    DEFAULT_CHUNK = 4096

    #: Upper bound on the item id for the O(1) vectorized item->row table;
    #: universes with larger (or negative) ids fall back to dict mapping.
    MAX_TABLE_ITEM = 1 << 20

    #: Row width (uint64 words) at or above which a candidate block is
    #: counted by the cache-blocked fused kernel instead of materialising
    #: full-width (C, W) accumulators.  512 words = 32k transactions —
    #: below that the whole working set is L2-resident anyway.
    FUSED_MIN_WORDS = 512

    #: Floor on the words per column tile of the fused kernel.  The
    #: actual tile adapts to the block: see :data:`TILE_TARGET_BYTES`.
    TILE_WORDS = 128

    #: Target byte size of the fused kernel's per-tile accumulator.  The
    #: tile width is chosen as ``TILE_TARGET_BYTES / (block_rows * 8)``
    #: (floored at :data:`TILE_WORDS`), so the accumulator plus the
    #: gathered operand slab stay cache-resident regardless of how many
    #: candidates the block holds.  A fixed 128-word tile is right for
    #: full 4096-candidate chunks but pathological for small blocks —
    #: a few hundred candidates over a wide matrix turn into thousands
    #: of sliver-sized NumPy calls per block, and ufunc dispatch
    #: overhead, not bandwidth, dominates (profiled at >2x the whole
    #: kernel on snapshot-scale rows).
    TILE_TARGET_BYTES = 512 * 1024

    def __init__(self, matrix, rows: Dict[int, int], num_rows: int) -> None:
        if isinstance(matrix, _np.memmap):
            # np.memmap is an ndarray subclass whose every slice and
            # gather runs Python-level ``__getitem__`` +
            # ``__array_finalize__`` to propagate mmap attributes — a few
            # microseconds per access, and the tiled kernel makes
            # thousands of accesses per block (profiled at >60% of
            # snapshot-backed counting time).  A plain ndarray view
            # shares the same mapped buffer at zero copy (the memmap
            # stays alive through ``.base``), so counting pays only the
            # page faults, never the subclass dispatch.
            matrix = matrix.view(_np.ndarray)
        self._matrix = matrix
        self._rows = rows
        self._num_rows = num_rows
        self._row_table = self._build_row_table(rows)

    @classmethod
    def _build_row_table(cls, rows: Dict[int, int]):
        """Vectorized item -> matrix-row lookup (last slot = unknown)."""
        if rows and all(
            isinstance(item, int) and 0 <= item <= cls.MAX_TABLE_ITEM
            for item in rows
        ):
            table = _np.full(max(rows) + 2, -1, dtype=_np.intp)
            for item, row in rows.items():
                table[item] = row
            return table
        return None

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_words(self) -> int:
        return int(self._matrix.shape[1])

    @classmethod
    def from_database(cls, db) -> "PackedBitmapIndex":
        """Pack the database's cached ``item_bitmaps()`` into a matrix."""
        bitmaps = db.item_bitmaps()
        items = sorted(bitmaps)
        matrix = _pack_rows(bitmaps, items, len(db))
        return cls(matrix, {item: row for row, item in enumerate(items)}, len(db))

    # ------------------------------------------------------------------

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
        scratch: Optional[Scratch] = None,
    ) -> IndexCounts:
        """Support counts parallel to ``candidates`` (batch, vectorized).

        Candidates are grouped by length and each group is counted in
        chunks of AND + popcount; a candidate naming an item outside the
        universe counts 0.  ``scratch`` is the caller's in-place AND
        buffer (a fresh one per call when omitted); the matrix is only
        read, so callers on other threads may share the index.
        """
        if scratch is None:
            scratch = Scratch()
        lengths, flat_rows = self.map_candidates(candidates)
        out = _np.zeros(len(lengths), dtype=_np.int64)
        offsets = _np.zeros(len(lengths), dtype=_np.intp)
        _np.cumsum(lengths[:-1], out=offsets[1:])
        out[lengths == 0] = self._num_rows  # () holds everywhere
        hits = misses = 0
        for length in _np.unique(lengths):
            length = int(length)
            if length == 0:
                continue
            positions = _np.nonzero(lengths == length)[0]
            group = flat_rows[offsets[positions][:, None] + _np.arange(length)]
            # candidates naming an item outside the universe keep count 0
            known = (group >= 0).all(axis=1)
            if not known.all():
                positions = positions[known]
                group = group[known]
            chunk = self._chunk_for(length, chunk_size)
            fused = self.num_words >= self.FUSED_MIN_WORDS
            for start in range(0, len(group), chunk):
                if deadline_check is not None:
                    deadline_check()
                block = group[start : start + chunk]
                # 3- to 32-item candidates, 256 or more: share prefixes
                plan = (
                    _prefix_plan(block)
                    if 2 < length <= 32 and len(block) >= 256
                    else None
                )
                ands = (
                    sum(len(last_rows) for _, last_rows in plan[1])
                    if plan is not None
                    else len(block) * (length - 1)
                )
                hits += len(block) * (length - 1) - ands
                misses += ands
                if fused:
                    counted = self._fused_counts_tiled(block, plan)
                else:
                    counted = _popcount_words(
                        self._intersect(block, plan, scratch)
                    )
                out[positions[start : start + chunk]] = counted
        return IndexCounts(out.tolist(), hits, misses)

    @staticmethod
    def flatten_candidates(candidates: Sequence[Itemset]):
        """Ragged candidate list -> ``(lengths, flat item vector)``.

        The flat encoding lets per-length groups be sliced without any
        per-candidate Python work.
        """
        total = len(candidates)
        lengths = _np.fromiter(
            map(len, candidates), dtype=_np.int64, count=total
        )
        flat = _np.fromiter(
            chain.from_iterable(candidates),
            dtype=_np.int64,
            count=int(lengths.sum()),
        )
        return lengths, flat

    def map_items(self, flat_items):
        """Flat item ids -> flat matrix rows, -1 for unknown items."""
        table = self._row_table
        if table is not None:
            sentinel = table.shape[0] - 1
            if flat_items.size == 0 or (
                int(flat_items.min()) >= 0 and int(flat_items.max()) < sentinel
            ):
                return table[flat_items]
            in_range = (flat_items >= 0) & (flat_items < sentinel)
            return table[_np.where(in_range, flat_items, sentinel)]
        lookup = self._rows.get
        return _np.fromiter(
            (lookup(item, -1) for item in flat_items.tolist()),
            dtype=_np.intp,
            count=len(flat_items),
        )

    def map_candidates(self, candidates: Sequence[Itemset]):
        """Candidates -> ``(lengths, flat matrix-row vector)``, with row
        id -1 marking an item outside the universe."""
        lengths, flat_items = self.flatten_candidates(candidates)
        return lengths, self.map_items(flat_items)

    def item_rows(self, items: Sequence[int]):
        """``items``' rows of the matrix, gathered into a fresh
        ``(len(items), num_words)`` block; an item outside the universe
        gets a zero row."""
        rows = self.map_items(_np.asarray(items, dtype=_np.int64))
        block = _np.zeros((len(items), self.num_words), dtype=_np.uint64)
        known = rows >= 0
        block[known] = self._matrix[rows[known]]
        return block

    def word_slice(self, word_lo: int, word_hi: int) -> "PackedBitmapIndex":
        """A zero-copy view of transactions ``[64*word_lo, 64*word_hi)``.

        The partitioned plane's windowed counting (:mod:`repro.db.outofcore`)
        counts a word-aligned transaction range by slicing matrix
        *columns* — no data moves, and tail bits beyond ``num_rows`` stay
        zero.
        """
        rows_before = min(self._num_rows, word_lo * 64)
        rows_in = max(0, min(self._num_rows, word_hi * 64) - rows_before)
        return PackedBitmapIndex(
            self._matrix[:, word_lo:word_hi], self._rows, rows_in
        )

    def _chunk_for(self, length: int, chunk_size: Optional[int]) -> int:
        if chunk_size:
            return chunk_size
        budget = WORK_BUDGET_WORDS // max(1, length * self.num_words)
        return max(1, min(self.DEFAULT_CHUNK, budget))

    def _intersect(self, block, plan, scratch: Scratch):
        """(C, L) valid row indices -> (C, num_words) AND-accumulators."""
        count, length = block.shape
        matrix = self._matrix
        if length == 1:
            return matrix[block[:, 0]]
        if plan is not None:
            return _replay_plan(matrix, plan)
        if count < 64 and length > 2:
            # tiny blocks of long candidates (an MFCS candidate can span
            # the whole universe): one gather + one reduce beats paying
            # per-column call overhead ``length`` times
            return _np.bitwise_and.reduce(matrix[block], axis=1)
        # column-at-a-time in-place AND: one (C, W) gather and one store
        # per column, instead of one (C, L, W) gather for ufunc.reduce
        accumulators = scratch.take(count, self.num_words)
        _np.take(matrix, block[:, 0], axis=0, out=accumulators)
        for column in range(1, length):
            _np.bitwise_and(
                accumulators, matrix[block[:, column]], out=accumulators
            )
        return accumulators

    def _fused_counts_tiled(self, block, plan):
        """Cache-blocked fused AND + popcount over a (C, L) block.

        The full-width path (:meth:`_intersect`) streams a ``(C, W)``
        accumulator through memory once per candidate level and once more
        for the popcount.  Here the transaction dimension is cut into
        cache-budget-sized column tiles (:data:`TILE_TARGET_BYTES` per
        accumulator, floored at :data:`TILE_WORDS`): the shared-prefix
        ``plan``, made once per block, is replayed per tile, so every
        level's AND and the final popcount reduction happen while the
        tile-sized accumulator is still cache-resident.  Nothing of shape
        ``(C, W)`` is ever materialised — the only full-width output is
        the int64 count vector.
        """
        count, length = block.shape
        matrix = self._matrix
        num_words = self.num_words
        results = _np.zeros(count, dtype=_np.int64)
        # adapt the tile to the block so the accumulator slab is
        # TILE_TARGET_BYTES regardless of candidate count (see the
        # constant's docstring); TILE_WORDS stays the floor
        tile = max(1, self.TILE_WORDS)
        tile = max(
            tile,
            min(num_words, self.TILE_TARGET_BYTES // (max(1, count) * 8)),
        )
        for word_lo in range(0, num_words, tile):
            columns = matrix[:, word_lo : word_lo + tile]
            if plan is not None:
                accumulators = _replay_plan(columns, plan)
            else:
                # advanced indexing copies, so the in-place AND is safe
                accumulators = columns[block[:, 0]]
                for column in range(1, length):
                    _np.bitwise_and(
                        accumulators, columns[block[:, column]], out=accumulators
                    )
            results += _popcount_words(accumulators)
        return results


def _prefix_plan(block):
    """Levelwise ``np.unique`` dedup plan for a (C, L) block.

    The batch-wide twin of :class:`PrefixIntersector`: the unique
    ``(k-1)``-prefixes of the block are resolved first (all C-level), so
    a prefix shared by many candidates costs one AND for the whole block
    instead of one per candidate — roughly one vectorized AND per
    candidate-trie edge.

    Returns ``(base_rows, levels)`` where ``levels`` is a list of
    ``(inverse, last_rows)`` pairs: evaluating ``base_rows`` and then
    AND-ing ``acc[inverse] & matrix[last_rows]`` level by level in
    reverse yields one accumulator row per candidate
    (:func:`_replay_plan`); the ANDs it does are the ``last_rows``.  The
    plan is pure index arithmetic — no bitmap columns are touched — so
    the fused kernel makes it once per block and replays it per word
    tile.
    """
    levels = []
    current = block
    while current.shape[1] > 1:
        unique_prefixes, inverse = _np.unique(
            current[:, :-1], axis=0, return_inverse=True
        )
        levels.append((inverse.reshape(-1), current[:, -1]))
        current = unique_prefixes
    return current[:, 0], levels


def _replay_plan(columns, plan):
    """One AND-accumulator row per candidate of ``plan``'s block, over
    ``columns`` (the whole matrix, or one tile of its words)."""
    base_rows, levels = plan
    accumulators = columns[base_rows]
    for inverse, last_rows in reversed(levels):
        accumulators = _np.bitwise_and(
            accumulators[inverse], columns[last_rows]
        )
    return accumulators


class IntBitmapIndex:
    """Pure-Python twin of :class:`PackedBitmapIndex`.

    Same ``counts`` contract, but counting walks the database's own int
    bitmaps through the :class:`PrefixIntersector` memo — no copy, no
    packing — so every index engine keeps working (and keeps its
    prefix-sharing advantage) on interpreters without NumPy.
    """

    def __init__(self, bitmaps: Dict[int, int], num_rows: int) -> None:
        self._bitmaps = bitmaps
        self._num_rows = num_rows

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @classmethod
    def from_database(cls, db) -> "IntBitmapIndex":
        return cls(db.item_bitmaps(), len(db))

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
        scratch: Optional[Scratch] = None,
    ) -> IndexCounts:
        full = (1 << self._num_rows) - 1
        cache: PrefixIntersector[int] = PrefixIntersector(
            self._bitmaps.get, operator.and_, full
        )
        results = IndexCounts([0] * len(candidates))
        order = sorted(range(len(candidates)), key=lambda i: candidates[i])
        # Deadline cadence matches the packed path's chunk budget: check
        # once per WORK_BUDGET_WORDS words of AND work, where one item-AND
        # costs ``ceil(num_rows / 64)`` words.  The old per-4096-candidates
        # stepping let a batch of long candidates over a wide database run
        # arbitrarily far past its deadline between checks.
        words_per_item = max(1, (self._num_rows + 63) // 64)
        work_budget = max(1, WORK_BUDGET_WORDS // words_per_item)
        work = 0
        for position in order:
            if deadline_check is not None:
                if work == 0:
                    deadline_check()
                work += len(candidates[position]) or 1
                if work >= work_budget:
                    work = 0
            value = cache.intersection(candidates[position])
            if value is not None:
                results[position] = popcount(value)
        results.hits, results.misses = cache.hits, cache.misses
        return results


def _sweeps(db, size: int, num_pairs: int) -> bool:
    """Whether ``num_pairs`` pairs over ``size`` items go to the 2-D array:
    at least half of the ``C(size, 2)`` pairs, in a block within
    :data:`WORK_BUDGET_WORDS`."""
    return (
        num_pairs > 0
        and size * max(1, (len(db) + 63) // 64) <= WORK_BUDGET_WORDS
        and 2 * num_pairs >= size * (size - 1) // 2
    )


def sweep_pairs(
    db,
    candidates: List[Itemset],
    deadline_check: Callable[[], None],
    index=None,
) -> Tuple[Dict[Itemset, int], List[Itemset]]:
    """Count a batch's length-2 candidates in the paper's 2-D array.

    Pass 2 counts every pair of frequent items, which the paper keeps in
    a triangular 2-D array (Section 4.1.1) rather than in a candidate
    structure.  When the batch holds at least half as many pairs as the
    ``C(|S|, 2)`` pairs over their items ``S``, the rows of ``S`` are
    taken into one ``|S| x num_words`` uint64 block (:func:`_item_rows`:
    gathered from ``index``'s matrix when it is a
    :class:`PackedBitmapIndex`, else packed from ``db.item_bitmaps()``)
    and :func:`_pair_table` ANDs each row with itself and every later
    row into the upper triangle of an ``|S| x |S|`` count array that
    answers every pair.  ``(b, a)`` reads the cell of ``(a, b)`` and
    ``(a, a)`` the diagonal (its support); an item outside the universe
    has an all-zero row.

    This is the listed batch's sweep: a batch kept lazy as a
    :class:`PairBatch` is answered from the same array without mapping a
    single pair (:class:`IndexCounter`).

    The density test counts the pairs as given, duplicates included: a
    duplicate never changes a count, and a batch that passes holds at
    least ``C(|S|, 2) / 2`` pairs, so the sweep's row ANDs stay within a
    small constant factor of the one AND per pair the index would do.

    Returns ``(counts, rest)``: the swept pairs' counts and the candidates
    left for the index.  Sparse pair batches, and blocks over
    :data:`WORK_BUDGET_WORDS`, sweep nothing.
    """
    pairs = [candidate for candidate in candidates if len(candidate) == 2]
    num_pairs, items = len(pairs), sorted(set(chain.from_iterable(pairs)))
    del pairs  # batch-sized: gone before the result dict grows
    if not _sweeps(db, len(items), num_pairs):
        return {}, candidates
    table = _pair_table(_item_rows(db, index, items), deadline_check)
    # answer in candidate chunks: the result dict is the only batch-sized
    # object left while it grows
    keys = _np.array(items, dtype=_np.int64)
    step = PackedBitmapIndex.DEFAULT_CHUNK
    counts: Dict[Itemset, int] = {}
    rest: List[Itemset] = []
    for start in range(0, len(candidates), step):
        chunk = candidates[start : start + step]
        part = [candidate for candidate in chunk if len(candidate) == 2]
        rest.extend(candidate for candidate in chunk if len(candidate) != 2)
        rows = _np.searchsorted(
            keys,
            _np.fromiter(
                chain.from_iterable(part), dtype=_np.int64, count=2 * len(part)
            ),
        ).reshape(-1, 2)
        rows.sort(axis=1)  # (b, a) reads the cell of (a, b)
        counts.update(zip(part, table[rows[:, 0], rows[:, 1]].tolist()))
    return counts, rest


def _item_rows(db, index, items: Sequence[int]):
    """``items``' rows as one ``(len(items), num_words)`` uint64 block.

    A :class:`PackedBitmapIndex` already holds them: they are gathered
    from its matrix by row index.  Any other index has no flat rows, so
    they are packed from ``db.item_bitmaps()`` (~5 us a row).
    """
    if isinstance(index, PackedBitmapIndex):
        return index.item_rows(items)
    return _pack_rows(db.item_bitmaps(), items, len(db))


def _pair_table(block, deadline_check: Callable[[], None]):
    """Upper triangle (diagonal included) of the support array over the
    items whose rows ``block`` holds: ``table[i, j]`` for ``i <= j``
    counts the transactions holding both item ``i`` and item ``j``.

    Rows go in slabs whose AND temporaries stay within the fused
    kernel's :data:`PackedBitmapIndex.TILE_TARGET_BYTES`, so a handful
    of items costs one vectorized call; ``deadline_check`` runs once per
    :data:`WORK_BUDGET_WORDS` words of AND work.
    """
    size, num_words = block.shape
    # a count is at most len(db) < 64 * WORK_BUDGET_WORDS rows: int32 holds it
    table = _np.zeros((size, size), dtype=_np.int32)
    slab_words = PackedBitmapIndex.TILE_TARGET_BYTES // 8
    lo = work = 0
    while lo < size:
        if work <= 0:
            deadline_check()
            work = WORK_BUDGET_WORDS
        span = (size - lo) * num_words
        hi = min(size, lo + max(1, slab_words // span))
        table[lo:hi, lo:] = _popcount_words(
            block[lo:hi, None] & block[None, lo:]
        )
        work -= (hi - lo) * span
        lo = hi
    return table


def _condensed(table):
    """The strict upper triangle of ``table``, row by row: one count per
    pair of ``combinations(range(size), 2)``, in that order."""
    size = table.shape[0]
    return table[_np.triu(_np.ones((size, size), dtype=bool), 1)]


def _pairs_at(level: PairLevel, positions) -> List[Itemset]:
    """The pairs at ``positions`` (ascending) of ``level``'s iteration
    order, built as tuples only for those positions."""
    if level.keep is not None:
        kept = _np.flatnonzero(_np.frombuffer(level.keep, dtype=_np.uint8))
        positions = kept[positions]
    n = len(level.items)
    rows = _np.arange(n, dtype=_np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # where each row's pairs begin
    first = _np.searchsorted(starts, positions, side="right") - 1
    second = positions - starts[first] + first + 1
    items = _np.asarray(level.items)
    return list(zip(items[first].tolist(), items[second].tolist()))


class PairCounts(Mapping):
    """``packed``'s and ``roaring``'s answer to a :class:`PairBatch`.

    ``counts`` is the 2-D array condensed: one support per pair of
    ``combinations(level.items, 2)``, the level's pairs among them;
    ``rest`` holds the rest of the batch.  As a mapping it answers every
    itemset of the batch, so it compares equal to the dict any engine
    returns for the listed batch; :func:`level_counts` reads the array
    without mapping a pair.
    """

    def __init__(self, level: PairLevel, counts, rest: Dict[Itemset, int]):
        self.level = level
        self.counts = counts
        self.rest = rest

    def __len__(self) -> int:
        return len(self.level) + len(self.rest)

    def __iter__(self):
        return chain(self.level, self.rest)

    def __getitem__(self, itemset_: Itemset) -> int:
        if itemset_ in self.level:
            return int(self.counts[self.level.position(itemset_)])
        return self.rest[itemset_]

    def counts_of(self, level: PairLevel):
        """The supports of ``level``'s pairs, in its order (``level`` has
        this answer's items)."""
        if level.keep is None:
            return self.counts
        return self.counts[_np.frombuffer(level.keep, dtype=bool)]


class LevelCounts:
    """A counted level: one support per itemset, in the level's order.

    Level 2 with NumPy holds an array and classifies it with one
    ``np.nonzero``, building tuples only for the pairs asked for; every
    other level holds a list and classifies it with one comprehension.
    """

    def __init__(self, level, counts) -> None:
        self.level = level
        self.counts = counts

    def frequent(self, threshold: int) -> List[Itemset]:
        """The level's itemsets with support ``>= threshold``, in order."""
        if isinstance(self.counts, list):
            return [
                itemset_
                for itemset_, count in zip(self.level, self.counts)
                if count >= threshold
            ]
        return _pairs_at(self.level, _np.flatnonzero(self.counts >= threshold))

    def infrequent(self, threshold: int) -> List[Itemset]:
        """The level's itemsets with support ``< threshold``, in order."""
        if isinstance(self.counts, list):
            return [
                itemset_
                for itemset_, count in zip(self.level, self.counts)
                if count < threshold
            ]
        return _pairs_at(self.level, _np.flatnonzero(self.counts < threshold))


def as_level(candidates) -> "PairLevel | List[Itemset]":
    """A generated level in the shape the miners count it: level 2 as a
    :class:`PairLevel` (a kernel's set of pairs becomes one), any other
    level as a sorted list."""
    if isinstance(candidates, PairLevel):
        return candidates
    ordered = sorted(candidates)
    if ordered and len(ordered[0]) == 2:
        return PairLevel.of(ordered)
    return ordered


def pass_batch(
    level, others: Sequence[Itemset], supports: Dict[Itemset, int]
) -> Tuple[object, int]:
    """One pass's batch: ``level`` plus ``others`` (the pass's MFCS
    elements), and how many of its itemsets are the level's.

    An itemset already in ``supports`` is not counted again, and one of
    ``others`` that is also in the level is billed once, as the level's.
    Level 2 stays lazy: its batch is a :class:`PairBatch`, and the pairs
    already in ``supports`` are found from the dict side, never by
    probing every pair.
    """
    if isinstance(level, PairLevel):
        pairs = level.without(
            [itemset_ for itemset_ in supports
             if len(itemset_) == 2 and itemset_ in level]
        )
        rest = [
            other for other in others
            if other not in supports and other not in level
        ]
        return PairBatch(pairs, rest), len(pairs)
    batch = dict.fromkeys(c for c in level if c not in supports)
    num_level = len(batch)
    batch.update((other, None) for other in others if other not in supports)
    return list(batch), num_level


def level_counts(level, answer, supports: Dict[Itemset, int]) -> LevelCounts:
    """The shared adapter: a pass's answer as its level's counts.

    ``answer`` is any engine's answer to the batch :func:`pass_batch`
    built for ``level``.  Everything it counted is stored in
    ``supports`` in bulk, and the level's itemsets an earlier pass
    counted are read back from there.  A :class:`PairCounts` gives
    level 2 its array as is; any other answer — every engine's dict,
    and every listed batch's — is read itemset by itemset, into an
    array for level 2 when NumPy is present.
    """
    if isinstance(answer, PairCounts):
        counts = answer.counts_of(level)
        supports.update(zip(level, counts.tolist()))
        supports.update(answer.rest)
        return LevelCounts(level, counts)
    supports.update(answer)
    if HAVE_NUMPY and isinstance(level, PairLevel):
        counts = _np.fromiter(
            map(supports.__getitem__, level), dtype=_np.int64, count=len(level)
        )
    else:
        counts = [supports[itemset_] for itemset_ in level]
    return LevelCounts(level, counts)


class IndexCounter(SupportCounter):
    """The engine body of ``bitmap``, ``packed`` and ``roaring``.

    Subclasses name an ``index_class``.  Every pass counts on the
    database's own index of that class (:meth:`index_for`): built from
    its cached ``item_bitmaps()`` on first use, kept by the database and
    released with it, and shared by every counter on it, since counting
    never changes an index.  The counter owns what counting does change:
    the packed kernel's in-place AND buffer (:class:`Scratch`, freed
    with the counter) and the prefix-sharing tally each ``counts`` call
    returns, reported as ``prefix_cache_hits``/``prefix_cache_misses``
    and as the ``prefix_cache.hits``/``prefix_cache.misses`` metrics.
    ``_index`` is the index the last pass counted on.

    On the NumPy indexes (``packed``, ``roaring``) pass 2's pairs are
    answered from the paper's 2-D array inside the same billed pass, and
    the index counts the rest (MFCS elements, singletons, ``()``).  A
    :class:`~repro.db.base.PairBatch` reaches them unlisted: its level's
    items give the array's rows directly, and the answer is a
    :class:`PairCounts` holding the array, with no per-pair mapping.  A
    listed batch whose pairs are dense over their items goes through
    :func:`sweep_pairs`.  ``packed`` gathers the rows from its own
    matrix; ``roaring`` packs them from ``db.item_bitmaps()``.
    ``bitmap`` and NumPy-less runs never sweep and count a PairBatch
    listed.  Swept pairs are neither prefix-cache hits nor misses: the
    pass's ``count`` span reports them as ``pairs_swept`` (0 when the
    index counted everything).
    """

    #: the index this engine counts on when NumPy is present
    index_class: type

    def __init__(self) -> None:
        super().__init__()
        self._index = None
        self._scratch = Scratch()
        #: cumulative prefix-sharing accounting across all passes served
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0
        #: pairs the last pass answered from the 2-D array
        self.last_pairs_swept = 0

    @classmethod
    def built_index_class(cls) -> type:
        """The index class this engine counts on: ``index_class``, or
        :class:`IntBitmapIndex` for every index engine without NumPy.
        The one place the NumPy choice is made."""
        return cls.index_class if HAVE_NUMPY else IntBitmapIndex

    @classmethod
    def index_over(cls, db):
        """A fresh index over ``db.item_bitmaps()``, cached nowhere: the
        out-of-core partitions build and free their own."""
        return cls.built_index_class().from_database(db)

    def index_for(self, db):
        """``db``'s own index for this engine, built on its first use
        (``db.counting_index``); it becomes ``_index``."""
        self._index = db.counting_index(self.built_index_class())
        return self._index

    def _takes_pair_batches(self) -> bool:
        return self.built_index_class() is not IntBitmapIndex

    def _count(self, db, candidates):
        index = self.index_for(db)
        answer = None
        if isinstance(candidates, PairBatch):
            level = candidates.level
            if _sweeps(db, len(level.items), len(level)):
                table = _pair_table(
                    _item_rows(db, index, level.items), self._check_deadline
                )
                # the array answers the level; the index fills the rest
                answer = PairCounts(level, _condensed(table), {})
                candidates = candidates.rest
            else:
                candidates = list(candidates)
        if answer is not None:
            result = answer.rest
            self.last_pairs_swept = len(answer.level)
        else:
            result = {}
            if not isinstance(index, IntBitmapIndex):
                result, candidates = sweep_pairs(
                    db, candidates, self._check_deadline, index
                )
            self.last_pairs_swept = len(result)
        counts = (
            index.counts(
                candidates, self._check_deadline, scratch=self._scratch
            )
            if candidates
            else IndexCounts()
        )
        self.prefix_cache_hits += counts.hits
        self.prefix_cache_misses += counts.misses
        if self.obs.enabled:
            self.obs.counter("prefix_cache.hits").inc(counts.hits)
            self.obs.counter("prefix_cache.misses").inc(counts.misses)
        result.update(zip(candidates, counts))
        return result if answer is None else answer

    def _span_attrs(self) -> Dict[str, int]:
        return {"pairs_swept": self.last_pairs_swept}

    def reset(self) -> None:
        super().reset()
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0


class BitmapCounter(IndexCounter):
    """The ``bitmap`` engine: one Python int per item, prefix-memo ANDs."""

    name = "bitmap"
    index_class = IntBitmapIndex


class PackedCounter(IndexCounter):
    """The ``packed`` engine: vectorized batches on the uint64 matrix."""

    name = "packed"
    index_class = PackedBitmapIndex
