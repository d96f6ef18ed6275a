"""Cross-threshold support cache and its engine wrapper.

A support count is a property of ``(database, itemset)`` alone — the
minsup threshold only *interprets* it.  Everything counted while mining
at 0.5% therefore classifies the same itemset at 1.0% (or any other
threshold) for free, which is the whole economics of a resident session:
one hot snapshot, many differently-parameterized queries, each pass
consulting the cache before touching the data plane.

:class:`SupportCache` is the store: one plain ``itemset tuple -> count``
dict — one hash lookup per candidate with no mask interning at all,
because the cache sits in front of engines that count thousands of
candidates per second and must never cost more than the counting it
saves.  It is bounded by :data:`MAX_ENTRIES`: a store that would grow
past the bound empties the dict first (a *rotation*), and whatever is
still in use is counted once more and stored again.

:class:`CachedSupportCounter` is the insertion point: a duck-typed
wrapper around any :class:`~repro.db.base.SupportCounter` that partitions
every batch into cache hits and misses, forwards only the misses, and
stores what comes back.  Wrapping the *engine* rather than patching the
miner means every counting path — pincer passes, the post-abandonment
sweep, rules expansion — gets cache semantics uniformly, and a fully
cached batch bills no pass and never wakes the worker plane.

Exactness: the cache stores the engine's own counts verbatim, keyed by
itemset, so a cached classification is byte-for-byte the classification
a cold count would have produced (the differential ladder in
``tests/test_session.py`` proves this end to end).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .._types import Itemset
from ..db.base import SupportCounter

__all__ = ["MAX_ENTRIES", "CachedSupportCounter", "SupportCache"]

#: Cache bound in entries; a store past it empties the cache first.
#: At ~100 bytes of dict machinery per entry this is tens of MiB —
#: roomy next to the lattice frontiers the miner already holds.
MAX_ENTRIES = 500_000


class SupportCache:
    """Bounded itemset -> support-count store for one database.

    ``hits`` and ``misses`` bill every :meth:`get` and every distinct
    candidate of a :meth:`partition`; :meth:`peek` bills nothing.
    ``rotations`` counts the times the bound emptied the store.
    """

    def __init__(self) -> None:
        self._counts: Dict[Itemset, int] = {}
        self.hits = 0
        self.misses = 0
        self.rotations = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counts)

    def encoded_bytes(self) -> int:
        """Payload bytes: one 8-byte count per entry."""
        return 8 * len(self._counts)

    def peek(self, itemset_: Itemset) -> Optional[int]:
        """Cached support of ``itemset_``, or None.  Bills nothing."""
        return self._counts.get(itemset_)

    def get(self, itemset_: Itemset) -> Optional[int]:
        """Cached support of ``itemset_``, or None.  Bills hit/miss."""
        count = self._counts.get(itemset_)
        if count is None:
            self.misses += 1
        else:
            self.hits += 1
        return count

    def put(self, itemset_: Itemset, count: int) -> None:
        counts = self._counts
        if itemset_ not in counts and len(counts) >= MAX_ENTRIES:
            counts.clear()
            self.rotations += 1
        counts[itemset_] = count

    def partition(
        self, candidates: Iterable[Itemset]
    ) -> Tuple[Dict[Itemset, int], List[Itemset]]:
        """Split a batch into ``(cached hits, uncached misses)``.

        Duplicate candidates collapse into one entry either way, matching
        the engine's own keyed-result semantics.
        """
        hits: Dict[Itemset, int] = {}
        misses: List[Itemset] = []
        seen_misses = set()
        for candidate in candidates:
            if candidate in hits or candidate in seen_misses:
                continue
            count = self.get(candidate)
            if count is None:
                seen_misses.add(candidate)
                misses.append(candidate)
            else:
                hits[candidate] = count
        return hits, misses

    def store_batch(self, counts: Dict[Itemset, int]) -> None:
        for itemset_, count in counts.items():
            self.put(itemset_, count)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "bytes": self.encoded_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "rotations": self.rotations,
        }


class CachedSupportCounter:
    """A :class:`SupportCounter` facade that consults a cache first.

    Duck-typed rather than subclassed: every attribute other than the
    cache plumbing reads and writes through to the wrapped engine, so
    miner-side wiring (``engine.obs = obs``, deadline setting, pass/IO
    accounting reads, ``close``) behaves as if the engine were bare.
    ``count`` is the only interception: hits are answered from the
    cache, misses go to the engine in one batch, and the engine's
    answers are stored back.  An all-hit batch never reaches the
    engine — no pass billed.
    """

    def __init__(self, inner: SupportCounter, cache: SupportCache) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "cache", cache)

    # -- transparent delegation ----------------------------------------

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name, value) -> None:
        setattr(object.__getattribute__(self, "_inner"), name, value)

    @property
    def inner(self) -> SupportCounter:
        """The wrapped engine (for tests and lifecycle introspection)."""
        return object.__getattribute__(self, "_inner")

    def __enter__(self) -> "CachedSupportCounter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.inner.close()

    # -- the interception ----------------------------------------------

    def count(self, db, candidates: Iterable[Itemset]) -> Dict[Itemset, int]:
        inner = self.inner
        cache = self.cache
        batch = candidates if isinstance(candidates, list) else list(candidates)
        if not batch:
            return {}
        hits, misses = cache.partition(batch)
        num_hits = len(hits)
        if misses:
            counted = inner.count(db, misses)
            cache.store_batch(counted)
            hits.update(counted)
        obs = inner.obs
        if obs.enabled:
            obs.counter("cache.hits").inc(num_hits)
            obs.counter("cache.misses").inc(len(misses))
            obs.gauge("cache.bytes").set(cache.encoded_bytes())
            obs.gauge("cache.entries").set(len(cache))
        return hits
