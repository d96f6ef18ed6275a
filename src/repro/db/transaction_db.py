"""In-memory transaction database.

This is the substrate every miner in the library runs on.  A database is a
bag of transactions, each a set of integer items (paper Section 2.1).  The
store is *horizontal* (one row per transaction) because that is what the
levelwise algorithms scan; a *vertical* bitmap view (one bitmap per item,
bit ``t`` set iff transaction ``t`` contains the item) is built lazily,
once, and every vertical counting index and the ``auto`` engine resolver
read it.  Those, too, are built once per database and kept on it
(:class:`VerticalCache`).

The vertical view has one builder, linear in the item occurrences
(:func:`item_columns`); the file-backed database and the partitioned
snapshot writer build through it too.

Support thresholds: the paper defines support as a *fraction* of the
transactions.  :meth:`TransactionDatabase.absolute_support` converts a
user-facing fraction into the absolute transaction count the counters
compare against, rounding up so that "support above the threshold" matches
the usual ``count >= ceil(fraction * |D|)`` convention.
"""

from __future__ import annotations

import threading
from math import ceil
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .._types import Itemset
from .vertical import popcount


class VerticalCache:
    """What counting derives from a database's vertical view, made once.

    Mixed into both databases, which cache ``item_bitmaps()``
    themselves.  :meth:`nnz` (the ``auto`` resolver's density count) and
    :meth:`counting_index` are built on first use, kept on the database
    and released with it, so mining a database again — at another
    support, or through a fresh counter — rebuilds neither.

    Each first build runs under the database's one re-entrant lock
    (re-entrant because an index's build reads ``item_bitmaps()``), so
    threads that count on a fresh database at once build everything
    once; a built value is read without the lock.
    """

    def __init__(self) -> None:
        self._building = threading.RLock()
        self._nnz: Optional[int] = None
        self._indexes: Dict[type, object] = {}

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_building"]  # a lock does not pickle
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._building = threading.RLock()

    def nnz(self) -> int:
        """Set bits over all of ``item_bitmaps()``: one per (transaction,
        item) occurrence."""
        if self._nnz is None:
            with self._building:
                if self._nnz is None:
                    self._nnz = sum(
                        map(popcount, self.item_bitmaps().values())
                    )
        return self._nnz

    def counting_index(self, index_class: type):
        """The database's one ``index_class`` index
        (:mod:`repro.db.vertical`, :mod:`repro.db.roaring`), built from
        ``item_bitmaps()`` on first use.  Counting never changes an
        index, so every counter on this database shares it."""
        index = self._indexes.get(index_class)
        if index is None:
            with self._building:
                index = self._indexes.get(index_class)
                if index is None:
                    index = index_class.from_database(self)
                    self._indexes[index_class] = index
        return index


class TransactionDatabase(VerticalCache):
    """A set of transactions over an integer item universe.

    Parameters
    ----------
    transactions:
        Any iterable of item iterables.  Each transaction is normalised to a
        ``frozenset`` of ints; empty transactions are kept (they count toward
        ``|D|`` but support nothing, matching the benchmark generator which
        can emit size-0 baskets only if asked to).
    universe:
        Optional explicit item universe.  When omitted, the universe is the
        set of items that occur in at least one transaction.  An explicit
        universe matters when reproducing the paper's setup where ``N=1000``
        items exist but only some occur.
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        universe: Optional[Iterable[int]] = None,
    ) -> None:
        super().__init__()
        self._transactions: List[FrozenSet[int]] = [
            frozenset(transaction) for transaction in transactions
        ]
        if universe is None:
            occurring: set = set()
            for transaction in self._transactions:
                occurring.update(transaction)
            self._universe: Itemset = tuple(sorted(occurring))
        else:
            self._universe = tuple(sorted(set(universe)))
            universe_set = frozenset(self._universe)
            for position, transaction in enumerate(self._transactions):
                if not transaction <= universe_set:
                    raise ValueError(
                        "transaction %d contains items outside the universe"
                        % position
                    )
        self._bitmaps: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> FrozenSet[int]:
        return self._transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self._transactions == other._transactions
            and self._universe == other._universe
        )

    def __repr__(self) -> str:
        return "TransactionDatabase(|D|=%d, |I|=%d)" % (
            len(self._transactions),
            len(self._universe),
        )

    @property
    def transactions(self) -> Sequence[FrozenSet[int]]:
        """The transactions, in insertion order."""
        return self._transactions

    @property
    def universe(self) -> Itemset:
        """All items of the database, as a canonical itemset."""
        return self._universe

    @property
    def num_items(self) -> int:
        return len(self._universe)

    def average_transaction_size(self) -> float:
        """Mean basket length — the generator's ``|T|`` parameter, measured."""
        if not self._transactions:
            return 0.0
        return sum(len(transaction) for transaction in self._transactions) / len(
            self._transactions
        )

    # ------------------------------------------------------------------
    # support
    # ------------------------------------------------------------------

    def absolute_support(self, fraction: float) -> int:
        """Convert a fractional minimum support into a transaction count.

        The result is at least 1 so that the empty database edge case and
        ``fraction=0`` do not declare never-seen itemsets frequent.

        >>> TransactionDatabase([[1], [1], [2]]).absolute_support(0.5)
        2
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("minimum support must be a fraction in [0, 1]")
        return max(1, ceil(fraction * len(self._transactions)))

    def support_count(self, candidate: Iterable[int]) -> int:
        """Absolute support of one itemset, by full scan.

        Convenience for examples and tests; the miners use the engines in
        :mod:`repro.db.counting` which amortise the scan over a whole
        candidate set.
        """
        wanted = frozenset(candidate)
        return sum(1 for transaction in self._transactions if wanted <= transaction)

    def support(self, candidate: Iterable[int]) -> float:
        """Fractional support of one itemset.

        >>> TransactionDatabase([[1, 2], [1], [2]]).support([1])
        0.6666666666666666
        """
        if not self._transactions:
            return 0.0
        return self.support_count(candidate) / len(self._transactions)

    def item_support_counts(self) -> Dict[int, int]:
        """Support count of every universe item (the pass-1 1-D array).

        Items that never occur are reported with count 0.
        """
        counts: Dict[int, int] = {item: 0 for item in self._universe}
        for transaction in self._transactions:
            for item in transaction:
                counts[item] += 1
        return counts

    # ------------------------------------------------------------------
    # vertical view
    # ------------------------------------------------------------------

    def item_bitmaps(self) -> Dict[int, int]:
        """Vertical bitmaps: item -> int with bit ``t`` set iff ``t`` has it.

        Built once, in linear time (:func:`bitmaps_from_rows`), and
        cached: the one vertical view every counting index
        (:meth:`counting_index`) and the ``auto`` resolver's density
        (:meth:`nnz`) are built from.  Arbitrary-precision ints make each
        AND/popcount a handful of C-level operations.
        """
        if self._bitmaps is None:
            with self._building:
                if self._bitmaps is None:
                    self._bitmaps = bitmaps_from_rows(
                        self._transactions,
                        len(self._transactions),
                        self._universe,
                    )
        return self._bitmaps

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_itemset_supports(
        cls, supported: Dict[Itemset, int]
    ) -> "TransactionDatabase":
        """Build a database where each key occurs as a basket ``value`` times.

        Handy for tests that need exact supports:

        >>> db = TransactionDatabase.from_itemset_supports({(1, 2): 2, (3,): 1})
        >>> len(db)
        3
        """
        transactions: List[Tuple[int, ...]] = []
        for basket, copies in supported.items():
            if copies < 0:
                raise ValueError("negative multiplicity for %r" % (basket,))
            transactions.extend([tuple(basket)] * copies)
        return cls(transactions)

    def restricted_to(self, items: Iterable[int]) -> "TransactionDatabase":
        """Project every transaction onto ``items`` (baskets may become empty).

        Useful for drilling into a discovered maximal itemset.
        """
        keep = frozenset(items)
        return TransactionDatabase(
            [transaction & keep for transaction in self._transactions],
            universe=sorted(keep),
        )

    def sample(self, indices: Iterable[int]) -> "TransactionDatabase":
        """A new database containing the transactions at ``indices``."""
        picked = [self._transactions[index] for index in indices]
        return TransactionDatabase(picked, universe=self._universe)

    def occurring_items(self) -> Itemset:
        """Items with non-zero support, as a canonical itemset."""
        seen: set = set()
        for transaction in self._transactions:
            seen.update(transaction)
        return tuple(sorted(seen))


def item_columns(
    rows: Iterable[Iterable[int]], num_bytes: int
) -> Dict[int, bytearray]:
    """The vertical view as columns: item -> ``bytearray(num_bytes)``.

    Bit ``t`` of a column (bit ``t % 8`` of byte ``t // 8``, so the
    bytes read little-endian) is set iff row ``t`` holds the item.  Only
    items that occur get a column, and each occurrence sets one bit, so
    the build is linear in the occurrences.  ``num_bytes`` must cover
    every row: at least ``ceil(rows / 8)``; larger sizes pad with zeros.
    """
    columns: Dict[int, bytearray] = {}
    for position, row in enumerate(rows):
        byte = position >> 3
        bit = 1 << (position & 7)
        for item in row:
            try:
                columns[item][byte] |= bit
            except KeyError:
                column = columns[item] = bytearray(num_bytes)
                column[byte] = bit
    return columns


def bitmaps_from_rows(
    rows: Iterable[Iterable[int]], num_rows: int, universe: Iterable[int]
) -> Dict[int, int]:
    """item -> int bitmap of ``num_rows`` rows; absent items map to 0.

    One :func:`item_columns` pass, then one ``int.from_bytes`` per item
    that occurs.  Each column is released as soon as its int exists, so
    the build holds about one copy of the view at a time.

    >>> bitmaps_from_rows([[1, 2], [], [2]], 3, [1, 2, 3])
    {1: 1, 2: 5, 3: 0}
    """
    bitmaps = dict.fromkeys(universe, 0)
    columns = item_columns(rows, (num_rows + 7) // 8)
    while columns:
        item, column = columns.popitem()
        bitmaps[item] = int.from_bytes(column, "little")
    return bitmaps


class UniverseView:
    """A database known only by its length and item universe.

    The surface a miner needs when its counter never reads rows from the
    database argument: the partitioned miner's per-partition counters
    count through their partition handle, and the predicate miner's
    counter asks its predicate.  The miner still takes the universe (for
    candidate generation and the termination guard) and the length (for
    thresholds and record accounting) from the view.
    """

    def __init__(self, num_rows: int, universe: Iterable[int]) -> None:
        self._num_rows = num_rows
        self._universe: Itemset = tuple(universe)

    def __len__(self) -> int:
        return self._num_rows

    @property
    def universe(self) -> Itemset:
        return self._universe

    @property
    def num_items(self) -> int:
        return len(self._universe)
