"""Cross-threshold support cache and its engine wrapper.

A support count is a property of ``(database, itemset)`` alone — the
minsup threshold only *interprets* it.  Everything counted while mining
at 0.5% therefore classifies the same itemset at 1.0% (or any other
threshold) for free, which is the whole economics of a resident session:
one hot snapshot, many differently-parameterized queries, each pass
consulting the cache before touching the data plane.

:class:`SupportCache` is the store, in two generations.  The *young*
generation is a plain ``itemset tuple -> count`` dict — the hot path,
one hash lookup per candidate with no mask interning at all, because
the cache sits in front of engines that count thousands of candidates
per second and must never cost more than the counting it saves.  On
filling, young is compressed wholesale into the *old* generation via
the block machinery of :mod:`repro.core.maskstore` (interned masks,
sorted, LEB128 varint deltas — a few bytes per entry instead of ~100 of
dict overhead), and the previous old generation is dropped: segmented
LRU without per-entry bookkeeping.  Old-generation probes pay one mask
computation and one cache-resident block decode; hits are promoted back
into young, so anything still in use stays on the fast path.  The count
payload rides in the maskstore's slot channel.

:class:`CachedSupportCounter` is the insertion point: a duck-typed
wrapper around any :class:`~repro.db.base.SupportCounter` that partitions
every batch into cache hits and misses, forwards only the misses, and
stores what comes back.  Wrapping the *engine* rather than patching the
miner means every counting path — pincer passes, the post-abandonment
sweep, rules expansion — gets cache semantics uniformly, and a fully
cached batch bills no pass and never wakes the worker plane.

Exactness: the cache stores the engine's own counts verbatim, keyed by
interned mask, so a cached classification is byte-for-byte the
classification a cold count would have produced (the differential ladder
in ``tests/test_session.py`` proves this end to end).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .._types import Itemset
from ..db.base import SupportCounter
from .bitset import ItemUniverse
from .maskstore import CompressedMaskStore

__all__ = ["DEFAULT_MAX_ENTRIES", "CachedSupportCounter", "SupportCache"]

#: Default cache bound (entries across both generations).  At a few
#: bytes per entry this is single-digit MiB — roomy next to the lattice
#: frontiers the miner already holds.
DEFAULT_MAX_ENTRIES = 1_000_000


class SupportCache:
    """Bounded mask -> support-count store for one snapshot.

    Parameters
    ----------
    universe:
        The database's :class:`~repro.core.bitset.ItemUniverse`; cache
        keys are its interned masks, which ties the cache to one item
        vocabulary the way the session ties it to one snapshot id.
    max_entries:
        Total bound across both generations.  Each generation holds up
        to half; filling the young dict compresses it into the old
        generation and drops the previous old generation wholesale.
    key:
        Opaque snapshot identity, carried for introspection — sessions
        refuse to share a cache across different snapshot keys.
    """

    def __init__(
        self,
        universe: ItemUniverse,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        key: Optional[str] = None,
    ) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.universe = universe
        self.max_entries = max_entries
        self.key = key
        self._young: Dict[Itemset, int] = {}
        self._old = CompressedMaskStore()
        self.hits = 0
        self.misses = 0
        self.rotations = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._young) + len(self._old)

    def encoded_bytes(self) -> int:
        """Resident payload bytes: dict entries priced at their
        compressed cost-to-be plus the old generation's actual bytes."""
        return 8 * len(self._young) + self._old.encoded_bytes()

    def get(self, itemset_: Itemset) -> Optional[int]:
        """Cached support of ``itemset_``, or None.  Bills hit/miss."""
        count = self._lookup(itemset_)
        if count is None:
            self.misses += 1
        else:
            self.hits += 1
        return count

    def put(self, itemset_: Itemset, count: int) -> None:
        self._store(itemset_, count)

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

    # ------------------------------------------------------------------

    def _lookup(self, itemset_: Itemset) -> Optional[int]:
        count = self._young.get(itemset_)
        if count is not None:
            return count
        if not self._old:  # pre-rotation: the young dict is everything
            return None
        mask = self.universe.try_mask_of(itemset_)
        if mask is None:  # foreign items cannot have been counted here
            return None
        count = self._old.get(mask)
        if count is not None:
            # old-generation hit: promote back to the fast path, and so
            # the next rotation keeps it
            self._store(itemset_, count)
        return count

    def _store(self, itemset_: Itemset, count: int) -> None:
        if (
            itemset_ not in self._young
            and len(self._young) >= self.max_entries // 2
        ):
            self._old = CompressedMaskStore.from_dict(self._compress_young())
            self._young = {}
            self.rotations += 1
        self._young[itemset_] = count

    def _compress_young(self) -> Dict[int, int]:
        """Young entries as interned masks (foreign itemsets dropped)."""
        mask_of = self.universe.try_mask_of
        out: Dict[int, int] = {}
        for itemset_, count in self._young.items():
            mask = mask_of(itemset_)
            if mask is not None:
                out[mask] = count
        return out


class CachedSupportCounter:
    """A :class:`SupportCounter` facade that consults a cache first.

    Duck-typed rather than subclassed: every attribute other than the
    cache plumbing reads and writes through to the wrapped engine, so
    miner-side wiring (``engine.obs = obs``, deadline setting, pass/IO
    accounting reads, ``note_candidate_bound``, ``close``) behaves as if
    the engine were bare.  ``count`` is the only interception: hits are
    answered from the cache, misses go to the engine in one batch, and
    the engine's answers are stored back.  An all-hit batch never
    reaches the engine — no pass billed, no worker woken.
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
