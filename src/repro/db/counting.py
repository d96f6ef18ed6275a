"""Support-counting engines.

A counting engine answers one question: given a database and a collection
of candidate itemsets, what is the absolute support of each candidate?
Every call corresponds to **one pass over the database** — the unit the
paper's Figures 3 and 4 report — regardless of how the engine is
implemented internally.  Engines track how many passes they have served and
how many transaction records those passes read, giving the I/O model the
benchmark harness reports.

Engines provided:

``naive``
    Per-transaction subset tests against a flat candidate list.  This is
    the moral equivalent of the paper's linked-list implementation
    (Section 4.1.1) and the fairest backend for Apriori-vs-Pincer
    comparisons.
``hashtree``
    The classic Agrawal–Srikant hash tree (:mod:`repro.db.hash_tree`), one
    tree per candidate length.
``trie``
    An item-prefix trie holding all candidate lengths at once
    (:mod:`repro.db.trie`).
``bitmap``
    Vertical bitmaps: support is the popcount of the AND of the item
    bitmaps (one Python int per item), with candidates sharing prefix
    intersections through a running-AND memo
    (:class:`repro.db.vertical.PrefixIntersector`).
``packed``
    The same bitmaps packed into ``uint64`` NumPy words; whole candidate
    batches are counted with vectorized AND + popcount
    (:mod:`repro.db.vertical`).  What ``auto`` resolves to on large
    databases when NumPy is installed.
``roaring``
    The compressed tier (:mod:`repro.db.roaring`): per-item hybrid
    containers (sorted-array / packed-bitmap) in 2^16-row chunks,
    with container-level fused intersect+popcount that skips absent
    chunks.  ``auto`` picks it for large sparse databases
    (:func:`engine_decision` is the only density-based resolver).
``partitioned``
    The out-of-core tier (:mod:`repro.db.outofcore`): row partitions of
    a v2 snapshot attached/counted/detached under a byte budget, with
    sub-partition windowed counting when even one partition exceeds it.
    Support is summed over partitions (additive over row ranges), so
    counts are identical to the in-memory engines while the resident
    index never exceeds ``memory_budget``.

``bitmap``, ``packed`` and ``roaring`` are one engine body,
:class:`repro.db.vertical.IndexCounter`, over three index classes, each
built from the database's cached ``item_bitmaps()`` and kept on the
database, one per class, for every counter and every mine of it; without
NumPy all three count on the pure-Python int-bitmap index.

The paper speeds up passes 1 and 2 with a 1-D and a 2-D array over the
items (Section 4.1.1) instead of counting candidates.  Both miners hold
level 2 as a lazy :class:`~repro.db.base.PairLevel` and count it as a
:class:`~repro.db.base.PairBatch`: L1's items, never ``C(|L1|, 2)``
tuples.  With NumPy, ``packed`` and ``roaring`` answer that batch from
one bit-parallel all-pairs sweep, a triangular count array, inside the
same billed pass, and hand the array back as it is
(:class:`repro.db.vertical.PairCounts`).  Every other engine, ``bitmap``
included, counts the batch listed, pass 2 pair by pair as candidates,
and so does any wrapper that lists it (the support cache, the layer
ledger's probe); a listed batch dense in pairs still takes the sweep on
``packed`` and ``roaring`` (:func:`repro.db.vertical.sweep_pairs`).  One
adapter (:func:`repro.db.vertical.level_counts`) turns every answer into
the level's count array.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._types import CountingDeadline, Itemset
from .base import SupportCounter
from .hash_tree import HashTree
from .outofcore import PartitionedCounter
from .roaring import RoaringCounter
from .transaction_db import TransactionDatabase
from .trie import CandidateTrie
from .vertical import HAVE_NUMPY, BitmapCounter, PackedCounter

__all__ = [
    "AUTO_PACKED_MIN_ROWS",
    "AUTO_ROARING_MAX_DENSITY",
    "AUTO_ROARING_MIN_ROWS",
    "BitmapCounter",
    "CountingDeadline",
    "DEFAULT_ENGINE",
    "EngineDecision",
    "HashTreeCounter",
    "NaiveCounter",
    "PackedCounter",
    "PartitionedCounter",
    "RoaringCounter",
    "SupportCounter",
    "TrieCounter",
    "available_engines",
    "engine_decision",
    "get_counter",
    "resolve_counter",
]


class NaiveCounter(SupportCounter):
    """Flat scan: each transaction is tested against each candidate."""

    name = "naive"

    def _count(
        self, db: TransactionDatabase, candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        counts = dict.fromkeys(candidates, 0)
        # iterate the deduped keys: base.count no longer pre-dedups batches
        as_sets = [(candidate, frozenset(candidate)) for candidate in counts]
        for position, transaction in enumerate(db):
            if position % 512 == 0:
                self._check_deadline()
            for candidate, candidate_set in as_sets:
                if candidate_set <= transaction:
                    counts[candidate] += 1
        return counts


class HashTreeCounter(SupportCounter):
    """Hash-tree engine; one tree per candidate length, one logical pass."""

    name = "hashtree"

    def __init__(self, branch: int = 8, leaf_capacity: int = 16) -> None:
        super().__init__()
        self._branch = branch
        self._leaf_capacity = leaf_capacity

    def _count(
        self, db: TransactionDatabase, candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        by_length: Dict[int, List[Itemset]] = defaultdict(list)
        for candidate in candidates:
            by_length[len(candidate)].append(candidate)
        counts: Dict[Itemset, int] = {}
        for _, group in sorted(by_length.items()):
            tree = HashTree(group, branch=self._branch, leaf_capacity=self._leaf_capacity)
            counts.update(
                tree.counts_by_itemset(
                    db.transactions, deadline_check=self._check_deadline
                )
            )
        # Mixed lengths share the single billed pass: a real implementation
        # would walk all the trees per transaction, as the paper's pass 6
        # counts C_k and MFCS together.
        if () in counts:
            counts[()] = len(db)
        return counts


class TrieCounter(SupportCounter):
    """Prefix-trie engine; naturally handles mixed candidate lengths."""

    name = "trie"

    def _count(
        self, db: TransactionDatabase, candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        trie = CandidateTrie(candidates)
        return trie.counts_by_itemset(
            db.transactions, deadline_check=self._check_deadline
        )


_ENGINES = {
    "naive": NaiveCounter,
    "hashtree": HashTreeCounter,
    "trie": TrieCounter,
    "bitmap": BitmapCounter,
    "packed": PackedCounter,
    "roaring": RoaringCounter,
    "partitioned": PartitionedCounter,
}

DEFAULT_ENGINE = "bitmap"

#: ``auto`` resolves to ``packed`` at or above this many transactions
#: (when NumPy is importable).  Below it, batch setup costs rival the
#: counting itself and plain int bitmaps win.
AUTO_PACKED_MIN_ROWS = 512

#: ``auto`` upgrades ``packed`` to ``roaring`` only at or above this many
#: transactions: compression pays through skipped words, and below ~4k
#: rows the flat matrix fits in cache no matter how sparse the columns.
AUTO_ROARING_MIN_ROWS = 4096

#: ...and only when mean column density is at or below this.  Denser
#: data builds mostly bitmap containers, where the flat packed matrix
#: with its vectorized batch kernel is the better representation.
AUTO_ROARING_MAX_DENSITY = 0.05


@dataclass
class EngineDecision:
    """An engine choice plus the measured evidence that produced it.

    ``engine`` is what :func:`get_counter` should instantiate; ``evidence``
    is a JSON-ready dict recorded into ``MiningStats.engine_evidence`` so
    traces show *why* a tier was picked, not just which.  For ``auto`` the
    evidence carries the density measurement (rows / items / nnz /
    density) and a human-readable ``reason``; explicit engine names pass
    through with ``reason: "explicit"`` and no measurement cost.
    """

    engine: str
    evidence: Dict[str, Any] = field(default_factory=dict)


def engine_decision(db, name: Optional[str] = None) -> EngineDecision:
    """Resolve an engine name against a concrete db, keeping the evidence.

    The ``auto`` policy, in order:

    1. no NumPy or a small database -> :data:`DEFAULT_ENGINE` (plain int
       bitmaps; batch setup costs would rival the counting);
    2. sparse and large (density <= :data:`AUTO_ROARING_MAX_DENSITY`,
       rows >= :data:`AUTO_ROARING_MIN_ROWS`) -> ``roaring``;
    3. otherwise -> ``packed``.

    Density is ``nnz / (rows * items)`` with ``nnz`` the popcount of the
    database's cached ``item_bitmaps()`` — the vertical view every
    engine ``auto`` can return builds its index from anyway, so
    measuring it costs no extra scan of the database.  The database
    computes ``nnz`` once and keeps it (``db.nnz()``), so deciding for a
    database mined before costs no popcount.
    """
    if name is not None and name != "auto":
        return EngineDecision(name, {"reason": "explicit"})
    if db is None:
        return EngineDecision(DEFAULT_ENGINE, {"reason": "no database"})
    if not HAVE_NUMPY or len(db) < AUTO_PACKED_MIN_ROWS:
        return EngineDecision(
            DEFAULT_ENGINE,
            {
                "rows": len(db),
                "reason": (
                    "numpy unavailable"
                    if not HAVE_NUMPY
                    else "below packed row threshold (%d)"
                    % AUTO_PACKED_MIN_ROWS
                ),
            },
        )
    rows, items = len(db), len(db.item_bitmaps())
    nnz = db.nnz()
    evidence: Dict[str, Any] = {
        "rows": rows,
        "items": items,
        "nnz": nnz,
        "density": nnz / (rows * items) if items else 0.0,
    }
    if (
        evidence["rows"] >= AUTO_ROARING_MIN_ROWS
        and evidence["density"] <= AUTO_ROARING_MAX_DENSITY
    ):
        evidence["reason"] = "sparse (density %.4f <= %.2f)" % (
            evidence["density"],
            AUTO_ROARING_MAX_DENSITY,
        )
        return EngineDecision("roaring", evidence)
    evidence["reason"] = (
        "dense (density %.4f > %.2f)"
        % (evidence["density"], AUTO_ROARING_MAX_DENSITY)
        if evidence["rows"] >= AUTO_ROARING_MIN_ROWS
        else "below roaring row threshold (%d)" % AUTO_ROARING_MIN_ROWS
    )
    return EngineDecision("packed", evidence)


def get_counter(name: Optional[str] = None) -> SupportCounter:
    """Instantiate a counting engine by name.

    >>> get_counter("naive").name
    'naive'
    >>> get_counter().name
    'bitmap'
    """
    if name is None or name == "auto":
        name = DEFAULT_ENGINE
    try:
        engine = _ENGINES[name]
    except KeyError:
        raise ValueError(
            "unknown counting engine %r (choose from %s)"
            % (name, ", ".join(sorted(_ENGINES)))
        ) from None
    return engine()


def resolve_counter(db, name, counter):
    """The miners' engine-resolution step: ``(engine, decision)``.

    A caller-supplied ``counter`` wins (decision records its name with
    reason ``caller-supplied``); otherwise the name — usually ``auto`` —
    is resolved against the database via :func:`engine_decision` and the
    evidence travels with the instantiated engine into ``MiningStats``.
    """
    if counter is not None:
        return counter, EngineDecision(
            getattr(counter, "name", ""), {"reason": "caller-supplied"}
        )
    decision = engine_decision(db, name)
    return get_counter(decision.engine), decision


def available_engines() -> List[str]:
    """Names of all registered engines."""
    return sorted(_ENGINES)
