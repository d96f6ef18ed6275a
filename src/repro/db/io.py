"""Reading and writing transaction databases.

Three interchange formats are supported:

* **FIMI / basket** (``.dat``): one transaction per line, items as
  whitespace-separated integers.  This is the format of the FIMI repository
  datasets the frequent-itemset-mining community standardised on.
* **CSV**: one transaction per line, comma-separated integers (spreadsheet
  friendly).
* **JSON**: ``{"universe": [...], "transactions": [[...], ...]}`` — the only
  format that round-trips an explicit universe with zero-support items.

The two line formats share one parser, :func:`read_rows`, which the
file-backed :class:`~repro.db.disk.DiskTransactionDatabase` streams
through too.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from typing import FrozenSet, Iterator, Optional, Union

from .transaction_db import TransactionDatabase

PathLike = Union[str, Path]


class _ItemTable(dict):
    """token -> item, converting each distinct token with ``int()`` once.

    Tokens that spell the same integer (``"7"``, ``" 7"``, ``"07"``) map
    to one int object, so every occurrence of an item shares it.
    """

    def __missing__(self, token: str) -> int:
        item = int(token)
        # int keys hold each item's one int object; no str key equals them
        item = self[token] = self.setdefault(item, item)
        return item


def read_rows(
    path: PathLike, separator: Optional[str] = None
) -> Iterator[FrozenSet[int]]:
    """Yield each non-blank line of ``path`` as a frozenset of int items.

    ``separator=None`` splits on whitespace (the basket format); a
    separator such as ``","`` splits cells and skips blank ones, so a
    line of separators is an empty row.  Blank and whitespace-only lines
    are skipped.  The file is read as UTF-8 text, so any Unicode
    whitespace separates and any Unicode digits spell an integer, as for
    ``int()``.  A token that is not an integer raises :class:`ValueError`
    naming ``path:line``.
    """
    kind = "basket" if separator is None else "CSV"
    convert = _ItemTable().__getitem__
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            cells = line.split(separator)
            if separator is not None:
                cells = [cell for cell in cells if cell.strip()]
            try:
                row = frozenset(map(convert, cells))
            except ValueError:
                raise ValueError(
                    "%s:%d: non-integer item in %s line"
                    % (path, line_number, kind)
                ) from None
            yield row


def _database_of_rows(rows: Iterator[FrozenSet[int]]) -> TransactionDatabase:
    """``TransactionDatabase(rows)`` with the cyclic garbage collector
    paused.

    Every row is a new ``frozenset``, a GC-tracked container, so building
    100,000 of them triggers collector passes that find nothing
    (frozensets of ints hold no cycles): about a quarter of a large
    basket load.  The caller's collector state is restored however the
    build ends, and a collector the caller switched off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return TransactionDatabase(rows)
    finally:
        if enabled:
            gc.enable()


def load_basket(path: PathLike) -> TransactionDatabase:
    """Load a FIMI-format basket file.

    Blank lines are skipped; a malformed token raises :class:`ValueError`
    with the offending line number.
    """
    return _database_of_rows(read_rows(path))


def save_basket(db: TransactionDatabase, path: PathLike) -> None:
    """Write a FIMI-format basket file, items sorted per transaction."""
    with open(path, "w", encoding="utf-8") as handle:
        for transaction in db:
            handle.write(" ".join(str(item) for item in sorted(transaction)))
            handle.write("\n")


def load_csv(path: PathLike) -> TransactionDatabase:
    """Load a CSV basket file (one transaction per row, integer cells)."""
    return _database_of_rows(read_rows(path, ","))


def save_csv(db: TransactionDatabase, path: PathLike) -> None:
    """Write a CSV basket file, items sorted per transaction."""
    with open(path, "w", encoding="utf-8") as handle:
        for transaction in db:
            handle.write(",".join(str(item) for item in sorted(transaction)))
            handle.write("\n")


def load_json(path: PathLike) -> TransactionDatabase:
    """Load the JSON interchange format (preserves the explicit universe)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "transactions" not in payload:
        raise ValueError("%s: expected an object with a 'transactions' key" % path)
    return TransactionDatabase(
        payload["transactions"], universe=payload.get("universe")
    )


def save_json(db: TransactionDatabase, path: PathLike) -> None:
    """Write the JSON interchange format."""
    payload = {
        "universe": list(db.universe),
        "transactions": [sorted(transaction) for transaction in db],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


_LOADERS = {".dat": load_basket, ".basket": load_basket, ".txt": load_basket,
            ".csv": load_csv, ".json": load_json}
_SAVERS = {".dat": save_basket, ".basket": save_basket, ".txt": save_basket,
           ".csv": save_csv, ".json": save_json}


def load(path: PathLike) -> TransactionDatabase:
    """Load a database, dispatching on file extension.

    ``.dat``/``.basket``/``.txt`` → FIMI, ``.csv`` → CSV, ``.json`` → JSON.
    """
    suffix = Path(path).suffix.lower()
    loader = _LOADERS.get(suffix)
    if loader is None:
        raise ValueError("unsupported database extension %r" % suffix)
    return loader(path)


def save(db: TransactionDatabase, path: PathLike) -> None:
    """Save a database, dispatching on file extension (see :func:`load`)."""
    suffix = Path(path).suffix.lower()
    saver = _SAVERS.get(suffix)
    if saver is None:
        raise ValueError("unsupported database extension %r" % suffix)
    saver(db, path)
