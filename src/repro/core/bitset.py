"""Interned bitmask representation of itemsets.

The public vocabulary of the library is the canonical sorted tuple
(:mod:`repro.core.itemset`).  Tuples are the right *interface* — hashable,
ordered, human-readable — but a poor *kernel* representation: every subset
test walks items one comparison at a time, every ``k``-subset enumeration
materialises ``k`` fresh tuples, and every hash touches ``k`` words.

This module provides the per-run translation layer the bitmask lattice
kernel (:mod:`repro.core.kernel`) is built on:

:class:`ItemUniverse`
    A bijection between the items of one mining run and dense bit
    positions, so every itemset is *also* an :class:`int` mask.  Subset
    test, union, difference and "drop one item" collapse to single
    arbitrary-precision integer operations executed in C.  Both directions
    of the translation are interned (tuple → mask and mask → tuple
    caches), so repeated boundary crossings — the same frequent itemsets
    re-entering candidate generation pass after pass — cost one dict hit.

:func:`candidate_upper_bound`
    The tight combinatorial upper bound of Geerts, Goethals & Van den
    Bussche ("A tight upper bound on the number of candidate patterns",
    see PAPERS.md) on how many ``(k+1)``-candidates Apriori-gen can emit
    from ``|L_k|`` frequent ``k``-itemsets.  It costs a handful of
    binomials per pass and feeds only observability: the pass span's
    ``candidate_bound``, the progress heartbeat and its ETA.  The adaptive
    policy (:mod:`repro.core.adaptive`) does not read it.

Masks live strictly behind the kernel: nothing outside :mod:`repro.core`
needs to know they exist.  The tuple kernel never builds a universe; it is
kept as the differential reference the bitmask kernel is tested against.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .itemset import Itemset

__all__ = [
    "ItemUniverse",
    "bits_of",
    "candidate_upper_bound",
    "popcount",
]

try:  # int.bit_count is 3.10+; the fallback keeps 3.9 working
    int.bit_count
except AttributeError:  # pragma: no cover - exercised only on 3.9

    def popcount(mask: int) -> int:
        """Number of set bits in ``mask``."""
        return bin(mask).count("1")

else:

    def popcount(mask: int) -> int:
        """Number of set bits in ``mask``."""
        return mask.bit_count()


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.

    >>> list(bits_of(0b10110))
    [1, 2, 4]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ItemUniverse:
    """Dense item ↔ bit-position bijection with two-way interning.

    Bit positions follow the ascending item order, so the ``i``-th bit of
    a mask corresponds to the ``i``-th smallest universe item and mask
    decoding yields canonical (sorted) tuples for free.

    >>> uni = ItemUniverse([30, 10, 20])
    >>> uni.mask_of((10, 30))
    5
    >>> uni.itemset_of(5)
    (10, 30)
    """

    __slots__ = (
        "_items",
        "_bit_of",
        "_bit_mask_of",
        "_mask_cache",
        "_tuple_cache",
        "full_mask",
    )

    def __init__(self, items: Iterable[int]) -> None:
        self._items: Tuple[int, ...] = tuple(sorted(set(items)))
        self._bit_of: Dict[int, int] = {
            item: position for position, item in enumerate(self._items)
        }
        self._bit_mask_of: Dict[int, int] = {
            item: 1 << position for position, item in enumerate(self._items)
        }
        #: interning caches; bounded by the lifetime of the kernel (one
        #: mining run or one bench replay), not by the process
        self._mask_cache: Dict[Itemset, int] = {}
        self._tuple_cache: Dict[int, Itemset] = {}
        #: mask with every universe bit set (the top of the lattice)
        self.full_mask = (1 << len(self._items)) - 1

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._bit_of

    def __repr__(self) -> str:
        return "ItemUniverse(%d items)" % len(self._items)

    @property
    def items(self) -> Tuple[int, ...]:
        """The universe items, ascending (bit position order)."""
        return self._items

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------

    def mask_of(self, itemset_: Itemset) -> int:
        """Encode a canonical itemset as an int mask (interned).

        Raises :class:`KeyError` for items outside the universe: the
        bitmask kernel stores only masks of its run's universe (see
        :mod:`repro.core.kernel`).
        """
        cached = self._mask_cache.get(itemset_)
        if cached is not None:
            return cached
        mask = 0
        bit_mask_of = self._bit_mask_of
        for item in itemset_:
            mask |= bit_mask_of[item]
        self._mask_cache[itemset_] = mask
        self._tuple_cache.setdefault(mask, itemset_)
        return mask

    def raw_mask_of(self, itemset_: Itemset) -> Optional[int]:
        """Uncached encode; None for out-of-universe itemsets.

        The interning caches are a win for itemsets that recur across
        passes (frequents, MFCS elements) but a loss for the candidate
        fire-hose: pruning probes millions of itemsets that are seen once
        and thrown away, and interning each would pay two dict writes per
        probe and grow the caches without bound.  Tuple candidates, cover
        probes and MFCS-gen's infrequent batches encode through this
        method instead.
        """
        mask = 0
        bit_mask_of = self._bit_mask_of
        for item in itemset_:
            bit = bit_mask_of.get(item)
            if bit is None:
                return None
            mask |= bit
        return mask

    def itemset_of(self, mask: int) -> Itemset:
        """Decode a mask back to the canonical tuple (interned)."""
        cached = self._tuple_cache.get(mask)
        if cached is not None:
            return cached
        decoded = self.raw_itemset_of(mask)
        self._tuple_cache[mask] = decoded
        self._mask_cache.setdefault(decoded, mask)
        return decoded

    def raw_itemset_of(self, mask: int) -> Itemset:
        """Uncached decode of an itemset seen once (see
        :meth:`raw_mask_of`)."""
        items = self._items
        decoded = []
        # bits_of inlined: its generator resumes cost a third of the
        # decode.  Built from a list, the tuple is allocated at its size;
        # from a generator it is allocated large and shrunk, which
        # fragments the small-object heap (+0.9 MB peak RSS on the
        # ledger's fig3 cells)
        while mask:
            low = mask & -mask
            decoded.append(items[low.bit_length() - 1])
            mask ^= low
        return tuple(decoded)

    def masks_of(self, itemsets: Iterable[Itemset]) -> List[int]:
        """Encode a family of itemsets."""
        mask_of = self.mask_of
        return [mask_of(itemset_) for itemset_ in itemsets]


def candidate_upper_bound(num_frequent: int, k: int) -> int:
    """Geerts–Goethals–Van den Bussche bound on ``|C_{k+1}|`` from ``|L_k|``.

    Write ``n = |L_k|`` in its canonical ``k``-cascade (binomial)
    representation ``n = C(m_k, k) + C(m_{k-1}, k-1) + ... + C(m_r, r)``
    with ``m_k > m_{k-1} > ... > m_r >= r >= 1``; then the number of
    ``(k+1)``-itemsets all of whose ``k``-subsets can lie in ``L_k`` — and
    hence the number of candidates the join+prune can ever emit — is at
    most ``C(m_k, k+1) + C(m_{k-1}, k) + ... + C(m_r, r+1)``.

    The bound is *tight* (attained by compressed families), costs a few
    binomials, and needs no knowledge of the itemsets themselves — which
    is what makes it a usable per-pass estimator: the progress heartbeat
    divides it by the counting rate for its next-pass ETA.

    >>> candidate_upper_bound(4, 2)   # 4 pairs support at most one 3-set...
    1
    >>> candidate_upper_bound(6, 2)   # C(4,2)=6 pairs -> at most C(4,3)
    4
    >>> candidate_upper_bound(0, 3)
    0
    """
    if num_frequent <= 0 or k < 1:
        return 0
    remaining = num_frequent
    bound = 0
    level = k
    while remaining > 0 and level >= 1:
        # largest m with C(m, level) <= remaining
        m = level
        while comb(m + 1, level) <= remaining:
            m += 1
        if comb(m, level) > remaining:
            break  # remaining < C(level, level) = 1 cannot happen; safety
        bound += comb(m, level + 1)
        remaining -= comb(m, level)
        level -= 1
    return bound
