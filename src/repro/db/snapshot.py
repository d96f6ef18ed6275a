"""Versioned on-disk packed-bitmap snapshots (the ``.snap`` format).

A snapshot serialises the *vertical* view of a transaction database — the
``(num_items, num_words)`` uint64 bitmap matrix of
:class:`repro.db.vertical.PackedBitmapIndex`, plus the item universe and
the row count — into a single flat file designed to be **memory-mapped**:
every multi-byte field is little-endian, each partition's matrix is
row-major, and the universe array and every matrix start on 8-byte
boundaries, so a reader hands the OS page cache a partition's index with
one ``numpy.memmap`` call and zero parsing.

This removes the parse tax of out-of-core mining: a
:class:`repro.db.disk.DiskTransactionDatabase` normally pays one full
basket parse for the metadata pass and another to build bitmaps.  With a
snapshot (``pincer snapshot data.dat``), both are replaced by one
``open`` + header read.

Layout (version 2, the one format)::

    offset  size               field
    ------  ----               -----
         0  8                  magic  b"PINCSNAP"
         8  4                  format version (uint32)
        12  4                  reserved flags (uint32, zero)
        16  8                  num_rows   (uint64) — transactions
        24  8                  num_items  (uint64) — universe size
        32  8                  num_words  (uint64) — ceil(num_rows/64), min 1
        40  8 * num_items      universe   (int64, ascending)
         …  8                  num_partitions (uint64, >= 1)
         …  32 * P             partition directory: per partition
                               (row_start, num_rows, num_words,
                               matrix_offset), all uint64
         …  …                  per-partition matrices, in directory
                               order: each a row-major
                               ``(num_items, num_words_p)`` uint64 block
                               (row i is the transaction bitmap of
                               ``universe[i]`` over the partition's rows,
                               little-endian across words, tail bits zero)

The rows (transactions) are split into contiguous ranges, one complete
packed matrix per range, each independently memory-mappable and 8-byte
aligned; ``pincer snapshot`` without ``--partitions`` writes one range.
Partition boundaries are 64-row aligned (every partition except the last
holds a multiple of 64 rows), which makes each partition's matrix
exactly a word-aligned column slice of the logical global matrix: bit
``t`` of the global bitmap of an item lives in partition ``p`` with
``row_start_p <= t`` at local bit ``t - row_start_p``.  Support is
therefore *additive* over partitions —
``support(X) = Σ_p popcount(AND of X's rows in partition p)`` — which is
what the two-scan Partition mining scheme and the memory-budget counting
plane (:mod:`repro.db.outofcore`) build on.

:func:`write_partitioned_snapshot` streams rows into the file one
partition at a time, never holding the full matrix; :func:`load_snapshot`
validates it.  Version 1, a single matrix with no partition directory,
is no longer read: :func:`load_snapshot` refuses it and asks for the
snapshot to be rewritten.

The format is self-describing and NumPy-optional.  The writer builds
each partition with the linear vertical builder
(:func:`repro.db.transaction_db.item_columns`) and writes its
``bytearray`` columns as they are, one path with or without NumPy.
:meth:`Snapshot.int_bitmaps` reads the file into ints, so snapshots
written on a NumPy box load on a bare interpreter and vice versa.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .transaction_db import item_columns
from .vertical import HAVE_NUMPY, IntBitmapIndex, PackedBitmapIndex

try:  # pragma: no cover - import guard mirrors repro.db.vertical
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

PathLike = Union[str, Path]

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_SUFFIX",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotFormatError",
    "SnapshotPartition",
    "default_snapshot_path",
    "load_snapshot",
    "partition_row_starts",
    "snapshot_database",
    "write_partitioned_snapshot",
]

SNAPSHOT_MAGIC = b"PINCSNAP"
#: The one version written and read: the partitioned layout.
SNAPSHOT_VERSION = 2
SNAPSHOT_SUFFIX = ".snap"

_HEADER = struct.Struct("<8sIIQQQ")
HEADER_SIZE = _HEADER.size  # 40 bytes; keeps the arrays 8-byte aligned

_PARTITION_ENTRY = struct.Struct("<QQQQ")
PARTITION_ENTRY_SIZE = _PARTITION_ENTRY.size  # 32 bytes, 8-aligned


class SnapshotFormatError(ValueError):
    """The file is not a snapshot this reader understands."""


def default_snapshot_path(database_path: PathLike) -> Path:
    """``data.dat`` -> ``data.dat.snap`` (suffix appended, not replaced)."""
    path = Path(database_path)
    return path.with_name(path.name + SNAPSHOT_SUFFIX)


def _num_words(num_rows: int) -> int:
    return max(1, (num_rows + 63) // 64)


def partition_row_starts(
    num_rows: int,
    num_partitions: Optional[int] = None,
    partition_rows: Optional[int] = None,
) -> List[int]:
    """Row offsets of the partition boundaries (64-row aligned).

    Exactly one of ``num_partitions`` and ``partition_rows`` may be
    given (neither means one partition).  The per-partition row count is
    rounded **up** to a multiple of 64 so every partition's matrix is a
    word-aligned column slice of the logical global matrix; tiny
    databases may therefore end up with fewer partitions than requested.
    """
    if num_partitions is not None and partition_rows is not None:
        raise ValueError("give at most one of num_partitions and partition_rows")
    if num_rows <= 0:
        return [0]
    if partition_rows is None:
        if num_partitions is None:
            return [0]
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        partition_rows = -(-num_rows // num_partitions)  # ceil division
    if partition_rows < 1:
        raise ValueError("partition_rows must be at least 1")
    partition_rows = ((partition_rows + 63) // 64) * 64
    return list(range(0, num_rows, partition_rows))


def write_partitioned_snapshot(
    path: PathLike,
    universe: Iterable[int],
    num_rows: int,
    transactions: Iterable[Iterable[int]],
    *,
    num_partitions: Optional[int] = None,
    partition_rows: Optional[int] = None,
) -> Path:
    """Stream ``transactions`` into a snapshot at ``path``.

    ``transactions`` is consumed exactly once, in row order, and only one
    partition's columns are resident at a time: one ``8 * words_p``-byte
    ``bytearray`` per item that occurs in it (:func:`item_columns`),
    written as that item's row of the partition matrix.  The writer's
    memory is bounded by the *partition* size, not the database size,
    which is what lets ``pincer snapshot --partitions`` build beyond-RAM
    snapshots.

    Partition sizing follows :func:`partition_row_starts` (neither
    argument means one partition); every item in every transaction must
    be in ``universe`` (else :class:`ValueError`).  Atomic: the file is
    written to a temporary name and renamed into place.
    """
    items = sorted(set(int(item) for item in universe))
    starts = partition_row_starts(
        num_rows, num_partitions=num_partitions, partition_rows=partition_rows
    )
    bounds = starts + [max(0, num_rows)]
    table: List[Tuple[int, int, int, int]] = []
    directory_end = (
        HEADER_SIZE + 8 * len(items) + 8 + PARTITION_ENTRY_SIZE * len(starts)
    )
    offset = directory_end
    for index in range(len(starts)):
        rows_p = bounds[index + 1] - bounds[index]
        words_p = _num_words(rows_p)
        table.append((bounds[index], rows_p, words_p, offset))
        offset += 8 * len(items) * words_p

    path = Path(path)
    temp = path.with_name(path.name + ".tmp.%d" % os.getpid())
    stream = iter(transactions)
    try:
        with open(temp, "wb") as handle:
            handle.write(
                _HEADER.pack(
                    SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0,
                    num_rows, len(items), _num_words(num_rows),
                )
            )
            handle.write(struct.pack("<%dq" % len(items), *items))
            handle.write(struct.pack("<Q", len(table)))
            for entry in table:
                handle.write(_PARTITION_ENTRY.pack(*entry))
            for _, rows_p, words_p, _ in table:
                columns = item_columns(_take_rows(stream, rows_p), 8 * words_p)
                zero = bytes(8 * words_p)
                for item in items:
                    handle.write(columns.pop(item, zero))
                if columns:
                    raise ValueError(
                        "transaction item %r is outside the universe"
                        % min(columns)
                    )
    except Exception:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    os.replace(temp, path)
    return path


def _take_rows(stream: Iterator, rows_p: int) -> Iterator:
    """The next ``rows_p`` transactions, or raise on a short stream."""
    for local in range(rows_p):
        try:
            yield next(stream)
        except StopIteration:
            raise ValueError(
                "transaction stream ended %d rows short of num_rows"
                % (rows_p - local)
            ) from None


def snapshot_database(
    db,
    path: Optional[PathLike] = None,
    *,
    num_partitions: Optional[int] = None,
    partition_rows: Optional[int] = None,
) -> Path:
    """Write the snapshot of any database exposing the db surface.

    Works for :class:`~repro.db.transaction_db.TransactionDatabase` and
    :class:`~repro.db.disk.DiskTransactionDatabase` alike: one pass
    streams the rows into :func:`write_partitioned_snapshot`, so memory
    stays bounded by one partition.  Without ``num_partitions`` or
    ``partition_rows`` the file holds one partition.  Returns the
    written path (default: the database file + ``.snap`` when the
    database knows its file, else ``path`` is required).
    """
    if path is None:
        source = getattr(db, "path", None)
        if source is None:
            raise ValueError("path is required for in-memory databases")
        path = default_snapshot_path(source)
    return write_partitioned_snapshot(
        path, db.universe, len(db), iter(db),
        num_partitions=num_partitions, partition_rows=partition_rows,
    )


class SnapshotPartition:
    """One row range of a snapshot, with its own mmap-able packed matrix.

    Bit ``t`` of this partition's bitmap for an item corresponds to the
    *global* transaction ``row_start + t``.  Partitions are the
    attach/detach unit of the memory-budget scheduler
    (:mod:`repro.db.outofcore`): each offers the same lazy index surface
    as a whole snapshot, over only its own bytes.
    """

    __slots__ = (
        "path", "ordinal", "row_start", "num_rows", "num_words",
        "matrix_offset", "universe",
    )

    def __init__(
        self,
        path: Path,
        ordinal: int,
        row_start: int,
        num_rows: int,
        num_words: int,
        matrix_offset: int,
        universe: Tuple[int, ...],
    ) -> None:
        self.path = path
        self.ordinal = ordinal
        self.row_start = row_start
        self.num_rows = num_rows
        self.num_words = num_words
        self.matrix_offset = matrix_offset
        self.universe = universe

    def __repr__(self) -> str:
        return "SnapshotPartition(#%d, rows [%d, %d), %d words)" % (
            self.ordinal, self.row_start, self.row_start + self.num_rows,
            self.num_words,
        )

    @property
    def num_items(self) -> int:
        return len(self.universe)

    @property
    def word_start(self) -> int:
        """This partition's first word column of the logical global matrix."""
        return self.row_start // 64

    @property
    def matrix_shape(self) -> Tuple[int, int]:
        return (self.num_items, self.num_words)

    @property
    def matrix_bytes(self) -> int:
        """Resident bytes when this partition's matrix is mapped."""
        return 8 * self.num_items * self.num_words

    def matrix(self, writable: bool = False):
        """The partition matrix as a ``numpy.memmap`` view (zero-copy)."""
        if _np is None:  # pragma: no cover - NumPy-less interpreters
            raise RuntimeError("snapshot memory-mapping requires NumPy")
        return _np.memmap(
            self.path,
            dtype="<u8",
            mode="r+" if writable else "r",
            offset=self.matrix_offset,
            shape=self.matrix_shape,
        )

    def int_bitmaps(
        self, word_lo: int = 0, word_hi: Optional[int] = None
    ) -> Dict[int, int]:
        """item -> int bitmap of *local* rows (bit 0 = ``row_start``).

        ``word_lo``/``word_hi`` select a word-aligned window of the
        partition — the pure-Python half of sub-partition windowed
        counting reads only the window's bytes per item.
        """
        if word_hi is None:
            word_hi = self.num_words
        num_bytes = (word_hi - word_lo) * 8
        stride = self.num_words * 8
        bitmaps: Dict[int, int] = {}
        with open(self.path, "rb") as handle:
            for row, item in enumerate(self.universe):
                handle.seek(self.matrix_offset + row * stride + word_lo * 8)
                bitmaps[item] = int.from_bytes(handle.read(num_bytes), "little")
        return bitmaps

    def packed_index(self) -> "PackedBitmapIndex":
        """A :class:`PackedBitmapIndex` over the memory-mapped matrix."""
        rows = {item: row for row, item in enumerate(self.universe)}
        return PackedBitmapIndex(self.matrix(), rows, self.num_rows)

    def index(self):
        """The best available counting index backed by this partition."""
        if HAVE_NUMPY:
            return self.packed_index()
        return IntBitmapIndex(self.int_bitmaps(), self.num_rows)


class Snapshot:
    """A validated, lazily-materialised snapshot file.

    Holds only the header metadata.  The bitmaps are read on demand:
    whole-file as pure-Python int bitmaps (:meth:`int_bitmaps`), or per
    partition through :attr:`partitions`, each of which maps its own
    matrix zero-copy (:meth:`SnapshotPartition.matrix`).
    """

    def __init__(
        self,
        path: Path,
        version: int,
        num_rows: int,
        universe: Tuple[int, ...],
        num_words: int,
        partition_table: Sequence[Tuple[int, int, int, int]],
    ) -> None:
        self.path = path
        self.version = version
        self.num_rows = num_rows
        self.universe = universe
        self.num_words = num_words
        self._partition_table = tuple(
            tuple(entry) for entry in partition_table
        )
        self._partitions: Optional[Tuple[SnapshotPartition, ...]] = None

    def __repr__(self) -> str:
        return "Snapshot(%r, v%d, |D|=%d, |I|=%d, P=%d)" % (
            str(self.path), self.version, self.num_rows,
            len(self.universe), self.num_partitions,
        )

    @property
    def num_items(self) -> int:
        return len(self.universe)

    @property
    def num_partitions(self) -> int:
        return len(self._partition_table)

    @property
    def partitions(self) -> Tuple[SnapshotPartition, ...]:
        """The row partitions, in row order."""
        if self._partitions is None:
            self._partitions = tuple(
                SnapshotPartition(
                    self.path, ordinal, row_start, num_rows, num_words,
                    matrix_offset, self.universe,
                )
                for ordinal, (row_start, num_rows, num_words, matrix_offset)
                in enumerate(self._partition_table)
            )
        return self._partitions

    def int_bitmaps(self) -> Dict[int, int]:
        """item -> arbitrary-precision int bitmap (pure-Python read).

        Partition bitmaps concatenate exactly (boundaries are 64-row
        aligned), so the result is the same for any partition count.
        """
        combined: Dict[int, int] = dict.fromkeys(self.universe, 0)
        for partition in self.partitions:
            local = partition.int_bitmaps()
            shift = partition.row_start
            for item, value in local.items():
                if value:
                    combined[item] |= value << shift
        return combined


def _load_partition_table(
    handle, path: Path, num_rows: int, num_items: int, num_words: int
) -> List[Tuple[int, int, int, int]]:
    """Parse and validate the partition directory."""
    raw = handle.read(8)
    if len(raw) < 8:
        raise SnapshotFormatError(
            "%s: truncated partition directory (missing count)" % path
        )
    (count,) = struct.unpack("<Q", raw)
    if not 1 <= count <= max(1, num_rows):
        raise SnapshotFormatError(
            "%s: implausible partition count %d for %d rows"
            % (path, count, num_rows)
        )
    raw = handle.read(PARTITION_ENTRY_SIZE * count)
    if len(raw) < PARTITION_ENTRY_SIZE * count:
        raise SnapshotFormatError(
            "%s: truncated partition directory (%d of %d entries)"
            % (path, len(raw) // PARTITION_ENTRY_SIZE, count)
        )
    table = [
        _PARTITION_ENTRY.unpack_from(raw, index * PARTITION_ENTRY_SIZE)
        for index in range(count)
    ]
    directory_end = (
        HEADER_SIZE + 8 * num_items + 8 + PARTITION_ENTRY_SIZE * count
    )
    expected_row = 0
    expected_offset = directory_end
    total_words = 0
    for index, (row_start, rows_p, words_p, matrix_offset) in enumerate(table):
        if row_start != expected_row:
            raise SnapshotFormatError(
                "%s: partition %d starts at row %d, expected %d"
                % (path, index, row_start, expected_row)
            )
        if row_start % 64:
            raise SnapshotFormatError(
                "%s: partition %d start %d is not 64-row aligned"
                % (path, index, row_start)
            )
        if index < count - 1 and (rows_p <= 0 or rows_p % 64):
            raise SnapshotFormatError(
                "%s: non-final partition %d holds %d rows (need a positive "
                "multiple of 64)" % (path, index, rows_p)
            )
        if words_p != _num_words(rows_p):
            raise SnapshotFormatError(
                "%s: partition %d words %d inconsistent with its %d rows"
                % (path, index, words_p, rows_p)
            )
        if matrix_offset != expected_offset:
            raise SnapshotFormatError(
                "%s: partition %d matrix at %d, expected %d"
                % (path, index, matrix_offset, expected_offset)
            )
        expected_row += rows_p
        expected_offset += 8 * num_items * words_p
        total_words += words_p
    if expected_row != num_rows:
        raise SnapshotFormatError(
            "%s: partitions cover %d rows, header promises %d"
            % (path, expected_row, num_rows)
        )
    if total_words != num_words:
        raise SnapshotFormatError(
            "%s: partition words sum to %d, header promises %d"
            % (path, total_words, num_words)
        )
    return table


def load_snapshot(path: PathLike) -> Snapshot:
    """Validate ``path`` and return its :class:`Snapshot` header view.

    Raises :class:`SnapshotFormatError` on a bad magic, an unsupported
    version, a truncated partition directory, or a file whose size
    disagrees with its own header.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise SnapshotFormatError("%s: truncated snapshot header" % path)
        magic, version, _, num_rows, num_items, num_words = _HEADER.unpack(
            header
        )
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError("%s: not a snapshot file" % path)
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                "%s: snapshot format version %d, but this reader reads "
                "version %d only; re-run `pincer snapshot` to rewrite it"
                % (path, version, SNAPSHOT_VERSION)
            )
        if num_words != _num_words(num_rows):
            raise SnapshotFormatError(
                "%s: num_words %d inconsistent with num_rows %d"
                % (path, num_words, num_rows)
            )
        universe = struct.unpack(
            "<%dq" % num_items, handle.read(8 * num_items)
        )
        table = _load_partition_table(
            handle, path, num_rows, num_items, num_words
        )
    last = table[-1]
    expected = last[3] + 8 * num_items * last[2]
    actual = os.path.getsize(path)
    if actual != expected:
        raise SnapshotFormatError(
            "%s: file is %d bytes, header promises %d" % (path, actual, expected)
        )
    if any(a >= b for a, b in zip(universe, universe[1:])):
        raise SnapshotFormatError("%s: universe is not strictly ascending" % path)
    return Snapshot(
        path, version, num_rows, tuple(universe), num_words,
        partition_table=table,
    )
