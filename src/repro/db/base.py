"""Base class shared by all support-counting engines, and the lazy pass-2
batch every engine accepts.

Lives below :mod:`repro.db.counting` so that engine modules
(:mod:`repro.db.vertical`, :mod:`repro.db.outofcore`) can subclass
:class:`SupportCounter` without importing the engine registry — the
registry imports *them*, and a shared basement module breaks the cycle.

:class:`PairLevel` is level 2 as the paper counts it (Section 4.1.1):
every pair over the frequent items, held as those items and never built
as ``C(|L1|, 2)`` tuples.  :class:`PairBatch` is one pass's batch around
it.  Both iterate as the sorted tuples they stand for, so a caller that
lists one counts exactly the list it would have built.
"""

from __future__ import annotations

import time
from itertools import chain, combinations, compress
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from .._types import CountingDeadline, Itemset
from ..obs.instrument import NOOP, Instrumentation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transaction_db import TransactionDatabase


class PairLevel:
    """Level 2 as the sorted pairs over ``items``, never built as tuples.

    ``items`` is sorted and distinct.  ``keep`` is None when the level
    holds every one of the ``C(n, 2)`` pairs over them, else a condensed
    keep-mask: one byte per pair of ``combinations(items, 2)``, in that
    order, 1 for the pairs the level holds.  The level ``len()``s,
    iterates and answers ``in`` as the sorted pair tuples would, and
    compares equal to a set holding the same pairs.
    """

    __slots__ = ("items", "keep", "_size", "_index")

    def __init__(
        self, items: Sequence[int], keep: Optional[bytearray] = None
    ) -> None:
        self.items = tuple(items)
        self.keep = keep
        n = len(self.items)
        self._size = n * (n - 1) // 2 if keep is None else keep.count(1)
        self._index: Optional[Dict[int, int]] = None

    @classmethod
    def of(cls, pairs: Iterable[Itemset]) -> "PairLevel":
        """The level holding exactly ``pairs`` (canonical pairs)."""
        pairs = list(pairs)
        level = cls(sorted(set(chain.from_iterable(pairs))))
        keep = bytearray(len(level))
        for pair in pairs:
            position = level.position(pair)
            if position is None:
                raise ValueError("%r is not a canonical pair" % (pair,))
            keep[position] = 1
        return cls(level.items, keep if 0 in keep else None)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Itemset]:
        pairs = combinations(self.items, 2)
        return pairs if self.keep is None else compress(pairs, self.keep)

    def __contains__(self, pair: object) -> bool:
        position = self.position(pair)
        return position is not None and (
            self.keep is None or self.keep[position] == 1
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairLevel):
            return set(self) == set(other)
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self) and all(
                pair in self for pair in other
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "PairLevel(%d pairs over %d items)" % (
            len(self), len(self.items)
        )

    def position(self, pair: object) -> Optional[int]:
        """Index of ``pair`` in ``combinations(items, 2)``, or None for
        anything that is not a canonical pair over the items."""
        if not isinstance(pair, tuple) or len(pair) != 2:
            return None
        if self._index is None:
            self._index = {item: i for i, item in enumerate(self.items)}
        first = self._index.get(pair[0])
        second = self._index.get(pair[1])
        if first is None or second is None or first >= second:
            return None
        n = len(self.items)
        return first * (2 * n - first - 1) // 2 + second - first - 1

    def without(self, pairs: Iterable[Itemset]) -> "PairLevel":
        """The level less ``pairs``; pairs outside it are ignored."""
        positions = [
            position
            for position in map(self.position, pairs)
            if position is not None
        ]
        if not positions:
            return self
        n = len(self.items)
        keep = (
            bytearray(self.keep)
            if self.keep is not None
            else bytearray(b"\x01") * (n * (n - 1) // 2)
        )
        for position in positions:
            keep[position] = 0
        return PairLevel(self.items, keep)


class PairBatch:
    """One pass's batch with level 2 kept lazy.

    ``level``'s pairs, then ``rest``: the pass's other itemsets (its MFCS
    elements), none of them a pair of the level.  It ``len()``s and
    iterates as the listed batch would, so a caller that lists it — every
    engine but the two that answer pairs from a 2-D array, and any
    wrapper around an engine — counts today's list.
    """

    __slots__ = ("level", "rest")

    def __init__(self, level: PairLevel, rest: Iterable[Itemset] = ()) -> None:
        self.level = level
        self.rest = list(rest)

    def __len__(self) -> int:
        return len(self.level) + len(self.rest)

    def __iter__(self) -> Iterator[Itemset]:
        return chain(self.level, self.rest)


class EngineClosedError(RuntimeError):
    """A counting request reached an engine after its :meth:`close`.

    Closing is the *external* lifecycle boundary — a session or miner
    declaring the engine's resources (mapped partitions) released.
    Engines detach and re-attach internally (the partitioned plane
    evicts and re-maps partitions under its budget), which never trips
    this; only a caller-visible ``close()`` makes later ``count()``
    calls an error instead of a silent use-after-free of an unmapped
    region.
    """


class SupportCounter:
    """Base class for counting engines; also the pass/IO accountant.

    ``deadline`` (a :func:`time.perf_counter` timestamp, or None) is
    checked periodically by engines that can: exceeding it aborts the
    pass with :class:`CountingDeadline`.

    ``obs`` is the engine's :class:`~repro.obs.instrument.Instrumentation`
    handle; miners attach theirs before mining so counting emits ``count``
    spans (nested under the miner's pass span) and engine metrics.  It
    defaults to the shared disabled bundle, whose cost in :meth:`count` is
    one attribute read and one truthiness check per pass.

    Miners drive an engine through :meth:`count` and :meth:`close`
    alone; how an engine splits a pass (the partitioned plane's
    partition sweep) is its own policy, with no hook for a miner to
    steer it.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.passes = 0
        self.records_read = 0
        self.itemsets_counted = 0
        self.deadline: Optional[float] = None
        self.obs: Instrumentation = NOOP
        #: True once :meth:`close` has run; further counting raises
        #: :class:`EngineClosedError`
        self.closed = False

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise CountingDeadline(
                "%s engine passed its deadline mid-pass" % self.name
            )

    def _bill_records(self, db: "TransactionDatabase") -> None:
        """Account the records one pass reads.

        Every engine reads each transaction exactly once per logical
        pass, however it splits the pass; an engine bound to a slice of
        the database (the partitioned plane's per-partition counters)
        bills that slice's rows instead.
        """
        self.records_read += len(db)

    def count(
        self, db: "TransactionDatabase", candidates: Iterable[Itemset]
    ) -> Dict[Itemset, int]:
        """Count supports of ``candidates``; bills exactly one pass.

        An empty candidate collection is free: no pass is billed and an
        empty mapping is returned.  A :class:`PairBatch` reaches
        :meth:`_count` whole on engines that answer its pairs from a 2-D
        array (:meth:`_takes_pair_batches`); every other engine counts it
        listed.  Either way the answer maps each itemset to its support.
        """
        if self.closed:
            raise EngineClosedError(
                "%s engine was closed; counting on it would run against "
                "released resources" % self.name
            )
        if isinstance(candidates, list) or (
            isinstance(candidates, PairBatch) and self._takes_pair_batches()
        ):
            batch = candidates
        else:
            batch = list(candidates)
        if not batch:
            return {}
        self.passes += 1
        records_before = self.records_read
        self._bill_records(db)
        self._check_deadline()
        obs = self.obs
        if obs.enabled:
            with obs.span("count", engine=self.name, batch_size=len(batch)) as span:
                result = self._count(db, batch)
                span.set(
                    records_read=self.records_read - records_before,
                    **self._span_attrs(),
                )
            obs.counter("engine.passes").inc()
            obs.counter("engine.records_read").inc(
                self.records_read - records_before
            )
            obs.histogram("engine.batch_size").observe(len(batch))
        else:
            result = self._count(db, batch)
        # engines key their result by itemset, so duplicate candidates
        # collapse in the output; billing the result size keeps
        # ``itemsets_counted`` a count of *unique* itemsets without an
        # upfront dedup scan of every batch
        self.itemsets_counted += len(result)
        return result

    def _count(
        self, db: "TransactionDatabase", candidates: List[Itemset]
    ) -> Dict[Itemset, int]:
        raise NotImplementedError

    def _takes_pair_batches(self) -> bool:
        """Whether :meth:`_count` takes a :class:`PairBatch` unlisted.
        Default: no, the batch is listed first."""
        return False

    def _span_attrs(self) -> Dict[str, Any]:
        """Engine-specific attributes of the pass's ``count`` span, read
        after :meth:`_count` returns.  Default: none."""
        return {}

    def close(self) -> None:
        """Release engine-held resources (mapped partitions).

        Idempotent: the first call releases, later calls are free.  A
        closed engine refuses further :meth:`count` calls with
        :class:`EngineClosedError` — catching use-after-close at the
        API boundary instead of hanging on a dead worker pipe.
        Subclasses releasing real resources override :meth:`_detach`
        (also used for internal re-attach cycles), not this.
        """
        if self.closed:
            return
        self._detach()
        self.closed = True

    def _detach(self) -> None:
        """Release attached resources without sealing the engine.

        Internal lifecycle step: engines detach when they re-attach to a
        new database — and must keep serving ``count()`` afterwards.
        No-op for in-process engines.
        """

    def reset(self) -> None:
        """Zero the pass/IO accounting."""
        self.passes = 0
        self.records_read = 0
        self.itemsets_counted = 0
