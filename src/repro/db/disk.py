"""File-backed transaction database with true I/O accounting.

The paper's cost model is explicitly I/O-aware: "The cost of the frequent
itemsets discovery process comes from the reading of the database (I/O
time) and the generation of new candidates (CPU time)" (Section 2.2), and
the figures report the number of *passes of reading the database*.  The
in-memory :class:`~repro.db.transaction_db.TransactionDatabase` makes
those reads free; this module provides a drop-in replacement that leaves
the transactions **on disk** and streams them on every iteration, so a
pass really is a file read.

:class:`DiskTransactionDatabase` exposes the same surface the counting
engines use (`__len__`, `__iter__`, ``transactions``, ``universe``,
``item_bitmaps``, ``absolute_support``, ...), plus:

* ``file_reads`` / ``records_streamed`` — how many times the file was
  scanned and how many basket lines were parsed in total;
* a metadata pass at construction (one read) that fixes ``len`` and the
  universe without keeping the baskets;
* a :meth:`~DiskTransactionDatabase.snapshot` /
  :meth:`~DiskTransactionDatabase.from_snapshot` pair built on
  :mod:`repro.db.snapshot`: the packed vertical index is serialised once
  per dataset, and later runs skip the basket re-parse entirely — both
  the metadata pass and the bitmap build are replaced by one
  memory-mappable file read.

The vertical counting engines still work: their indexes are built from
``item_bitmaps``, which one streaming pass builds and caches (they are
|I| × |D| *bits*, far smaller than the parsed transactions), and are
kept on the database like the in-memory one's
(:class:`~repro.db.transaction_db.VerticalCache`).  The line parser and
the bitmap build are the in-memory database's own.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Optional, Union

from .io import read_rows
from .snapshot import Snapshot, default_snapshot_path, load_snapshot, snapshot_database
from .transaction_db import VerticalCache, bitmaps_from_rows

PathLike = Union[str, Path]


class DiskTransactionDatabase(VerticalCache):
    """Streaming FIMI-format database: every iteration reads the file.

    ``snapshot`` (a path or a loaded :class:`~repro.db.snapshot.Snapshot`)
    supplies the metadata and the vertical bitmaps without parsing the
    basket file; the basket file is then only touched by code that
    genuinely needs horizontal rows (``__iter__``, ``transactions``).
    """

    def __init__(
        self, path: PathLike, snapshot: Optional[PathLike] = None
    ) -> None:
        super().__init__()
        self._path = Path(path)
        self.file_reads = 0
        self.records_streamed = 0
        self._snapshot: Optional[Snapshot] = None
        self._bitmaps: Optional[Dict[int, int]] = None
        if snapshot is not None:
            snap = (
                snapshot
                if isinstance(snapshot, Snapshot)
                else load_snapshot(snapshot)
            )
            self._snapshot = snap
            self._length = snap.num_rows
            self._universe = snap.universe
            return
        count = 0
        items: set = set()
        for transaction in self._stream():
            count += 1
            items.update(transaction)
        self._length = count
        self._universe = tuple(sorted(items))

    # ------------------------------------------------------------------
    # streaming core
    # ------------------------------------------------------------------

    def _stream(self) -> Iterator[FrozenSet[int]]:
        self.file_reads += 1
        for transaction in read_rows(self._path):
            self.records_streamed += 1
            yield transaction

    def __iter__(self) -> Iterator[FrozenSet[int]]:
        return self._stream()

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return "DiskTransactionDatabase(%r, |D|=%d, reads=%d)" % (
            str(self._path), self._length, self.file_reads,
        )

    @property
    def transactions(self) -> Iterator[FrozenSet[int]]:
        """A fresh stream over the baskets (one file read per use)."""
        return self._stream()

    @property
    def path(self) -> Path:
        """The basket file backing this database."""
        return self._path

    @property
    def snapshot_path(self) -> Optional[Path]:
        """The snapshot file in use, if any."""
        return self._snapshot.path if self._snapshot is not None else None

    @property
    def universe(self):
        return self._universe

    @property
    def num_items(self) -> int:
        return len(self._universe)

    # ------------------------------------------------------------------
    # support interface (mirrors TransactionDatabase)
    # ------------------------------------------------------------------

    def absolute_support(self, fraction: float) -> int:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("minimum support must be a fraction in [0, 1]")
        from math import ceil

        return max(1, ceil(fraction * self._length))

    def support_count(self, candidate) -> int:
        wanted = frozenset(candidate)
        return sum(1 for transaction in self if wanted <= transaction)

    def support(self, candidate) -> float:
        if not self._length:
            return 0.0
        return self.support_count(candidate) / self._length

    def item_support_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {item: 0 for item in self._universe}
        for transaction in self:
            for item in transaction:
                counts[item] += 1
        return counts

    def average_transaction_size(self) -> float:
        if not self._length:
            return 0.0
        total = sum(len(transaction) for transaction in self)
        return total / self._length

    def item_bitmaps(self) -> Dict[int, int]:
        """Vertical bitmaps built from one streaming pass, then cached.

        The build is linear in the item occurrences.  After it, the
        vertical engines and the ``auto`` resolver no longer touch the
        file — the bitmaps *are* the database, vertically.  Pass
        accounting then models the paper's I/O, while ``file_reads``
        tracks physical reads.  A database opened from a snapshot loads
        the bitmaps from the snapshot instead, skipping the basket parse.
        """
        if self._bitmaps is None:
            with self._building:
                if self._bitmaps is None:
                    self._bitmaps = (
                        self._snapshot.int_bitmaps()
                        if self._snapshot is not None
                        else bitmaps_from_rows(
                            self._stream(), self._length, self._universe
                        )
                    )
        return self._bitmaps

    def occurring_items(self):
        return self._universe

    # ------------------------------------------------------------------
    # snapshots (repro.db.snapshot)
    # ------------------------------------------------------------------

    def snapshot(
        self,
        path: Optional[PathLike] = None,
        *,
        num_partitions: Optional[int] = None,
        partition_rows: Optional[int] = None,
    ) -> Path:
        """Serialise the vertical index to a snapshot file (one read).

        Default location is the basket file plus ``.snap``.  The written
        snapshot immediately backs this instance too, so subsequent
        ``item_bitmaps`` users (the counting engines) read it instead of
        the baskets.

        With ``num_partitions`` or ``partition_rows`` the partitioned v2
        layout is written by *streaming* the baskets — memory stays
        bounded by one partition's matrix, which is the point of the
        out-of-core plane: the snapshot build itself must not need the
        dense matrix resident.
        """
        written = snapshot_database(
            self,
            path if path is not None else default_snapshot_path(self._path),
            num_partitions=num_partitions,
            partition_rows=partition_rows,
        )
        self._snapshot = load_snapshot(written)
        return written

    @classmethod
    def from_snapshot(
        cls, snapshot: PathLike, basket_path: Optional[PathLike] = None
    ) -> "DiskTransactionDatabase":
        """Open a database from its snapshot, skipping the basket parse.

        ``basket_path`` defaults to the snapshot path minus the ``.snap``
        suffix; it is only touched if horizontal iteration is requested.
        """
        snap_path = Path(snapshot)
        if basket_path is None:
            name = snap_path.name
            if not name.endswith(".snap"):
                raise ValueError(
                    "cannot infer the basket path from %r; pass basket_path"
                    % str(snap_path)
                )
            basket_path = snap_path.with_name(name[: -len(".snap")])
        return cls(basket_path, snapshot=snap_path)

    # ------------------------------------------------------------------

    def load_into_memory(self):
        """Materialise as an in-memory TransactionDatabase (one read)."""
        from .transaction_db import TransactionDatabase

        return TransactionDatabase(list(self), universe=self._universe)
