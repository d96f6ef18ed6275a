"""Compressed counting tier: roaring-style hybrid bitmap containers.

The ``packed`` engine (:mod:`repro.db.vertical`) spends its wall time on
AND + popcount over dense ``uint64`` rows — every candidate pays for the
*whole* transaction dimension even when the items involved occur in a
tiny fraction of it.  Real basket data is dominated by exactly those
sparse low-support items, so this module stores each item's vertical
bitmap as a *hybrid container index* in the style of Roaring bitmaps
(Chambi et al.): the row space is cut into 2^16-row chunks, and each
column picks the cheaper of two container forms for its payload — sized
in bytes exactly like roaring's array/bitmap decision:

``array``
    A sorted vector of row positions — the form for sparse columns.
    Intersections become one vectorized ``searchsorted`` membership
    test of the smaller side against the larger: O(|small| log |big|)
    C work with *constant* interpreter overhead, however many chunks
    the column spans.
``bitmap``
    Packed ``uint64`` words covering only the column's *occupied
    chunk-aligned span* — chunks before the first and past the last set
    bit are never stored, and an AND of two bitmap containers touches
    only the chunks in the overlap of both spans.

Roaring's third form, ``[start, stop)`` run intervals for clustered
columns, is left out: no column of the benchmark's datasets picks it,
and a clustered column's counts are the same in the bitmap form.

The fused intersect+popcount dispatches on the container pair:
array∧array is a ``searchsorted`` probe, array∧bitmap a word
gather-and-test, bitmap∧bitmap a word AND over the span overlap (zero
work when the spans are disjoint — the absent chunks are skipped
wholesale).
Support counting walks the sorted candidate stream with the same
prefix-sharing discipline as :class:`~repro.db.vertical.PrefixIntersector`
and *fuses* the final AND with the popcount — when the next candidate
does not extend the current one, the last intersection is answered as a
cardinality directly, never materialising the result.

:class:`RoaringCounter` is the engine registered as ``roaring``: the
shared :class:`~repro.db.vertical.IndexCounter` body over a
:class:`RoaringIndex` built from ``db.item_bitmaps()``.  That body counts
pass 2's pairs — the miners' lazy pair batch, or a dense listed one — in
the paper's 2-D array before the walk sees the rest; the containers hold
no flat rows, so the array's rows are packed from ``db.item_bitmaps()``
(:mod:`repro.db.vertical`).  Whether a
database *should* be counted this way is
:func:`repro.db.counting.engine_decision`'s call — ``auto`` picks
``roaring`` only for large sparse databases — so the engine applies no
density policy of its own.  Without NumPy it counts on
:class:`~repro.db.vertical.IntBitmapIndex`, exactly as ``packed`` does:
a platform fallback, byte-identical to the container walk (the
differential suite in ``tests/test_roaring.py`` pins this).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .._types import Itemset
from .vertical import IndexCounter, IndexCounts, Scratch

try:  # NumPy is optional; IntBitmapIndex covers its absence.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via no-NumPy CI cell
    _np = None

__all__ = [
    "CHUNK_SIZE",
    "RoaringCounter",
    "RoaringIndex",
]

#: Rows per chunk — the roaring convention: the low 16 bits of a row id
#: address within a chunk, the high bits select it.
CHUNK_BITS = 16
CHUNK_SIZE = 1 << CHUNK_BITS
#: uint64 words per bitmap container.
CHUNK_WORDS = CHUNK_SIZE // 64

#: Item-steps between deadline checks in the container walk (matches the
#: work-budget cadence of the packed path).
_DEADLINE_WORK = 4096


# ----------------------------------------------------------------------
# NumPy containers
# ----------------------------------------------------------------------

if _np is not None:

    from .vertical import _popcount_words

    class _Sparse:
        """Sorted int64 row positions of a whole column (array form).

        One flat array per column keeps the interpreter overhead of an
        intersection *constant* — a single vectorized ``searchsorted``
        probe — no matter how many 2^16-row chunks the column spans.
        """

        __slots__ = ("positions",)
        kind = "array"

        def __init__(self, positions) -> None:
            self.positions = positions

        @property
        def card(self) -> int:
            return int(self.positions.shape[0])

    class _Dense:
        """Packed uint64 words over the column's occupied word span.

        ``offset`` is the span's first word index; words before it and
        past the end are implicitly zero and never stored, so an AND of
        two dense containers slices only the overlap of both spans.
        """

        __slots__ = ("offset", "words", "card")
        kind = "bitmap"

        def __init__(self, offset: int, words, card: int) -> None:
            self.offset = offset
            self.words = words
            self.card = card

    def _probe_sparse(positions, other):
        """Bool mask: which sorted ``positions`` are set in ``other``.

        The sparse probe needs no bounds mask: ``take(mode="clip")``
        clips an off-the-end index to the last element, which compares
        unequal by construction (the probed value is larger than it).
        """
        if type(other) is _Sparse:
            theirs = other.positions
            got = theirs.take(
                _np.searchsorted(theirs, positions), mode="clip"
            )
            return got == positions
        bits = _gather_bits(positions, other)
        if type(bits) is tuple:
            valid, bits = bits
            return valid & (bits != 0)
        return bits != 0

    def _gather_bits(positions, dense):
        """Per-position bit values gathered from a dense container.

        Returns an int array of 0/1 values — or, when some positions
        fall outside the container's span, a ``(valid, bits)`` pair.
        The common case (a span covering the whole probe range) skips
        the bounds arithmetic entirely: one gather, one shift, one mask.
        """
        word_index = (positions >> 6) - dense.offset
        # uint64 words viewed as int64: arithmetic shift differs from
        # logical only in the bits above the one ``& 1`` keeps
        if dense.offset == 0 and (
            int(positions[-1]) >> 6
        ) < dense.words.shape[0]:
            gathered = dense.words.take(word_index).view(_np.int64)
            return (gathered >> (positions & 63)) & 1
        valid = (word_index >= 0) & (word_index < dense.words.shape[0])
        gathered = dense.words.take(word_index, mode="clip").view(_np.int64)
        return valid, (gathered >> (positions & 63)) & 1

    def _probe_count(positions, other) -> int:
        """How many sorted ``positions`` are set in ``other`` (fused)."""
        if type(other) is _Sparse:
            theirs = other.positions
            got = theirs.take(
                _np.searchsorted(theirs, positions), mode="clip"
            )
            return int(_np.count_nonzero(got == positions))
        bits = _gather_bits(positions, other)
        if type(bits) is tuple:
            valid, bits = bits
            return int(_np.count_nonzero(valid & (bits != 0)))
        return int(_np.count_nonzero(bits))

    def _dense_overlap(a, b):
        """Word slices of two dense containers over their span overlap."""
        lo = max(a.offset, b.offset)
        hi = min(a.offset + a.words.shape[0], b.offset + b.words.shape[0])
        if hi <= lo:
            return None
        return (
            lo,
            a.words[lo - a.offset : hi - a.offset],
            b.words[lo - b.offset : hi - b.offset],
        )

    def _col_and(a, b):
        """Fully-materialised column intersection (None when empty)."""
        ta, tb = type(a), type(b)
        if ta is _Sparse or tb is _Sparse:
            # probe the smaller sparse side: O(|small| log |big|)
            if ta is not _Sparse or (tb is _Sparse and b.card < a.card):
                a, b = b, a
            kept = a.positions[_probe_sparse(a.positions, b)]
            if not kept.shape[0]:
                return None
            return _Sparse(kept)
        overlap = _dense_overlap(a, b)
        if overlap is None:
            return None
        lo, words_a, words_b = overlap
        words = _np.bitwise_and(words_a, words_b)
        card = int(_popcount_words(words[None, :])[0])
        if card == 0:
            return None
        if card <= words.shape[0]:
            # same byte rule as the build (8*card vs 8*words): sparse is
            # now the cheaper form, and later fused ops against this
            # intersection become array probes instead of word ANDs
            bits = _np.unpackbits(words.view(_np.uint8), bitorder="little")
            return _Sparse(_np.nonzero(bits)[0] + lo * 64)
        return _Dense(lo, words, card)

    def _col_and_card(a, b) -> int:
        """Fused intersect+popcount: cardinality without materialising."""
        ta, tb = type(a), type(b)
        if ta is _Sparse or tb is _Sparse:
            if ta is not _Sparse or (tb is _Sparse and b.card < a.card):
                a, b = b, a
            return _probe_count(a.positions, b)
        overlap = _dense_overlap(a, b)
        if overlap is None:
            return 0
        _, words_a, words_b = overlap
        return int(
            _popcount_words(_np.bitwise_and(words_a, words_b)[None, :])[0]
        )


class RoaringIndex:
    """Hybrid container index over one database's vertical view.

    Same ``counts`` contract as :class:`~repro.db.vertical.PackedBitmapIndex`
    (the call's prefix hits and misses ride on the returned
    :class:`~repro.db.vertical.IndexCounts`), but the candidate walk is
    container-native: sorted stream, longest-shared-prefix memo, fused
    final AND+popcount, absent-chunk skipping.  The walk allocates every
    intersection it keeps, so counting never changes a container.
    """

    def __init__(self, columns: Dict[int, object], num_rows: int) -> None:
        self._columns = columns
        self._num_rows = num_rows

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @classmethod
    def from_database(cls, db) -> "RoaringIndex":
        """One container per non-empty column of ``db.item_bitmaps()``."""
        num_rows = len(db)
        columns: Dict[int, object] = {}
        for item, value in db.item_bitmaps().items():
            container = cls._build_column(value, num_rows)
            if container is not None:  # empty columns: lookup miss = 0
                columns[item] = container
        return cls(columns, num_rows)

    @staticmethod
    def _build_column(value: int, num_rows: int):
        """Cheaper whole-column container for one item's bitmap.

        Byte costs: array ``8*card``, bitmap ``8*words`` over the
        occupied chunk-aligned span; ties prefer the array form (its
        probe is the cheaper intersection).  Empty columns return
        ``None`` and are not stored at all.
        """
        if not value:
            return None
        data = value.to_bytes((num_rows + 7) // 8 or 1, "little")
        data += b"\x00" * (-len(data) % 8)
        # the whole container decision runs at word level — positions are
        # unpacked only if the array form actually wins, so a dense
        # column never pays for bit unpacking at all
        words_all = _np.frombuffer(data, dtype=_np.uint64)
        occupied = _np.flatnonzero(words_all)
        occ_vals = words_all.take(occupied)
        card = int(_popcount_words(occ_vals[None, :])[0])
        chunk_bytes = CHUNK_SIZE // 8
        first_chunk = int(occupied[0]) // CHUNK_WORDS
        last_chunk = int(occupied[-1]) // CHUNK_WORDS
        lo_byte = first_chunk * chunk_bytes
        hi_byte = min(len(data), (last_chunk + 1) * chunk_bytes)
        sparse_bytes = 8 * card
        dense_bytes = 8 * ((hi_byte - lo_byte + 7) // 8)
        if sparse_bytes <= dense_bytes:
            bits = _np.unpackbits(occ_vals.view(_np.uint8), bitorder="little")
            flat = _np.flatnonzero(bits)
            return _Sparse(occupied.take(flat >> 6) * 64 + (flat & 63))
        piece = data[lo_byte:hi_byte]
        piece += b"\x00" * (-len(piece) % 8)
        words = _np.frombuffer(piece, dtype=_np.uint8).view(_np.uint64).copy()
        return _Dense(first_chunk * CHUNK_WORDS, words, card)

    # ------------------------------------------------------------------

    def container_counts(self) -> Dict[str, int]:
        """How many columns each container kind is serving."""
        tally = {"array": 0, "bitmap": 0}
        for container in self._columns.values():
            tally[container.kind] += 1
        return tally

    def compressed_bytes(self) -> int:
        """Payload bytes of every container (the compression numerator)."""
        total = 0
        for container in self._columns.values():
            if container.kind == "array":
                total += 8 * container.card
            else:
                total += 8 * int(container.words.shape[0])
        return total

    def dense_bytes(self) -> int:
        """What the flat packed matrix would spend on the same view."""
        num_words = max(1, (self._num_rows + 63) // 64)
        return len(self._columns) * num_words * 8

    def density(self) -> float:
        cells = len(self._columns) * self._num_rows
        if not cells:
            return 0.0
        return sum(c.card for c in self._columns.values()) / cells

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
        chunk_size: Optional[int] = None,
        scratch: Optional[Scratch] = None,
    ) -> IndexCounts:
        walk = _PrefixWalk(
            self._columns.get, _col_and, _col_and_card, self._num_rows
        )
        return walk.counts(candidates, deadline_check)


class _PrefixWalk:
    """Sorted-candidate walk with a prefix memo and a fused last AND.

    Generic over the column type: ``and_full(a, b)`` materialises an
    intersection (must allocate — column objects are borrowed by the
    memo), ``and_card(a, b)`` answers only the cardinality.  Columns need
    a ``card`` attribute.  The memo is the same stack discipline as
    :class:`~repro.db.vertical.PrefixIntersector`; the fusion looks one
    candidate ahead in the sorted order — only when the next candidate
    *extends* the current one is the final intersection materialised for
    reuse, otherwise it is answered as a count directly.
    """

    def __init__(self, lookup, and_full, and_card, num_rows: int) -> None:
        self._lookup = lookup
        self._and_full = and_full
        self._and_card = and_card
        self._num_rows = num_rows

    def counts(
        self,
        candidates: Sequence[Itemset],
        deadline_check: Optional[Callable[[], None]] = None,
    ) -> IndexCounts:
        total = len(candidates)
        results = IndexCounts([0] * total)
        order = sorted(range(total), key=lambda i: candidates[i])
        stack_items: List[int] = []
        stack_values: List[Optional[object]] = []  # None = no survivors
        work = hits = misses = 0
        for step, position in enumerate(order):
            candidate = candidates[position]
            length = len(candidate)
            if length == 0:
                results[position] = self._num_rows
                continue
            shared = 0
            limit = min(len(stack_items), length)
            while shared < limit and stack_items[shared] == candidate[shared]:
                shared += 1
            # a fused-away level holds no bitmap to extend or read — step
            # back below it so the walk recomputes that level (duplicates)
            while shared and stack_values[shared - 1] is _UNMATERIALIZED:
                shared -= 1
            del stack_items[shared:]
            del stack_values[shared:]
            hits += shared
            misses += length - shared
            successor = (
                candidates[order[step + 1]] if step + 1 < total else None
            )
            extends = (
                successor is not None
                and len(successor) > length
                and successor[:length] == candidate
            )
            value = stack_values[shared - 1] if shared else _TOP
            count: Optional[int] = None
            for depth in range(shared, length):
                work += 1
                if deadline_check is not None and work >= _DEADLINE_WORK:
                    work = 0
                    deadline_check()
                item = candidate[depth]
                last = depth == length - 1
                if value is None:
                    stack_items.append(item)
                    stack_values.append(None)
                    continue
                column = self._lookup(item)
                if column is None:
                    value = None
                elif value is _TOP:
                    value = column  # borrowed: and_full always allocates
                elif last and not extends:
                    # fused intersect+popcount: nothing downstream reuses
                    # this intersection, so never materialise it
                    count = self._and_card(value, column)
                    value = _UNMATERIALIZED
                else:
                    value = self._and_full(value, column)
                stack_items.append(item)
                stack_values.append(value)
            tail = stack_values[-1] if stack_values else _TOP
            if count is not None:
                results[position] = count
            elif tail is None:
                results[position] = 0
            elif tail is _TOP:
                results[position] = self._num_rows
            else:
                results[position] = tail.card
        results.hits, results.misses = hits, misses
        return results


#: Sentinel for the empty prefix ("all rows").
_TOP = object()


class _Unmaterialized:
    """Placeholder for a fused-away intersection (count answered already).

    It can only be observed by an immediately following *duplicate*
    candidate (a duplicate shares every item but the memo holds no
    bitmap for the last level); re-deriving from the shorter prefix is
    what the stack discipline does anyway, so ``card`` is never read.
    """

    card = None


_UNMATERIALIZED = _Unmaterialized()


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class RoaringCounter(IndexCounter):
    """The ``roaring`` engine: the shared body on a :class:`RoaringIndex`.

    The first pass a counter makes on a container index reports the
    index's mix and compression evidence as ``engine.roaring.*`` gauges.
    """

    name = "roaring"
    index_class = RoaringIndex

    def index_for(self, db):
        previous = self._index
        index = super().index_for(db)
        if (
            index is not previous
            and self.obs.enabled
            and isinstance(index, RoaringIndex)
        ):
            gauge = self.obs.gauge
            for kind, value in index.container_counts().items():
                gauge("engine.roaring.containers.%s" % kind).set(value)
            gauge("engine.roaring.compressed_bytes").set(
                index.compressed_bytes()
            )
            gauge("engine.roaring.dense_bytes").set(index.dense_bytes())
        return index
