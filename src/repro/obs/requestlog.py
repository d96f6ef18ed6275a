"""Structured JSONL access log for the ``pincer serve`` query plane.

One line per wire query (schema v4 ``request`` records, see
:mod:`repro.obs.schema`): request id, op, admission price and decision,
queue wait, passes run, cache hits/misses, result size, latency, and the
ETA quoted to the client.  Lines are written whole under a lock and
flushed immediately, so concurrent handler threads can never tear or
interleave records and a crashed daemon loses at most the query in
flight.

Riding along is a bounded **slow-query recorder**: every admitted,
successful query's latency feeds an EWMA, and a query slower than
``slow_factor`` times the smoothed latency (never below
``slow_min_seconds``) gets its full span subtree — the events collected
by :meth:`~repro.obs.tracing.Tracer.bind` during the query — snapshotted
into an on-disk ring of at most ``slow_capacity`` files.  The ring gives
operators the *trace* of the outliers the access log can only name,
without ever growing the disk footprint: slot files are overwritten
oldest-first.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from .metrics import Ewma
from .schema import SCHEMA_VERSION

__all__ = ["RequestLog", "SlowQueryRing"]

#: Default floor under which a query is never "slow" — warm cache hits
#: jitter in the milliseconds and should not churn the ring.
DEFAULT_SLOW_MIN_SECONDS = 0.5

#: Default outlier factor over the smoothed latency.
DEFAULT_SLOW_FACTOR = 4.0


class SlowQueryRing:
    """Fixed-capacity on-disk ring of slow-query snapshots.

    Each snapshot is one JSON file ``slow-NNNN.json`` holding the access
    record plus the span events of that query.  Slot ``seq % capacity``
    is overwritten, so the ring holds the most recent ``capacity`` slow
    queries and nothing older.  Writes go through a temp file and
    ``os.replace`` so a reader never sees a half-written snapshot.
    """

    def __init__(self, directory: str, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.directory = directory
        self.capacity = int(capacity)
        self._seq = 0
        os.makedirs(directory, exist_ok=True)

    def snapshot(
        self,
        record: Dict[str, Any],
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> str:
        """Write one snapshot; returns the slot file path."""
        slot = self._seq % self.capacity
        self._seq += 1
        path = os.path.join(self.directory, "slow-%04d.json" % slot)
        tmp = path + ".tmp"
        document = {
            "v": SCHEMA_VERSION,
            "type": "slow_query",
            "ts": time.time(),
            "seq": self._seq - 1,
            "record": record,
            "spans": list(spans) if spans else [],
        }
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    def entries(self) -> List[Dict[str, Any]]:
        """All snapshots on disk, oldest sequence first."""
        documents = []
        for path in sorted(glob.glob(os.path.join(self.directory, "slow-*.json"))):
            with open(path, "r", encoding="utf-8") as handle:
                documents.append(json.load(handle))
        documents.sort(key=lambda doc: doc.get("seq", 0))
        return documents


class RequestLog:
    """Append-only JSONL access log plus the slow-query recorder.

    Parameters
    ----------
    path:
        The JSONL file; opened in append mode so a restarted daemon
        continues the same log.
    slow_dir:
        Directory for the :class:`SlowQueryRing`; None disables slow
        recording (the access log still gets every record).
    slow_capacity / slow_min_seconds / slow_factor:
        Ring size and outlier thresholds (see the module docstring).
    alpha:
        EWMA smoothing weight for the latency baseline.
    """

    def __init__(
        self,
        path: str,
        slow_dir: Optional[str] = None,
        slow_capacity: int = 32,
        slow_min_seconds: float = DEFAULT_SLOW_MIN_SECONDS,
        slow_factor: float = DEFAULT_SLOW_FACTOR,
        alpha: float = 0.3,
    ) -> None:
        self.path = path
        self.slow_min_seconds = float(slow_min_seconds)
        self.slow_factor = float(slow_factor)
        self._baseline = Ewma(alpha)
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")
        self.ring = (
            SlowQueryRing(slow_dir, capacity=slow_capacity)
            if slow_dir is not None
            else None
        )
        self.records_written = 0
        self.slow_recorded = 0

    # ------------------------------------------------------------------

    def log(
        self,
        record: Dict[str, Any],
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Write one access record; returns the full line's payload.

        ``record`` carries the caller's fields (id, op, timings, ...);
        the envelope (``v``/``type``/``ts``) is stamped here.  When the
        record describes an admitted, successful query, its latency
        feeds the slow-query EWMA, and outliers get snapshotted together
        with ``spans`` into the ring.
        """
        payload: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": "request",
            "ts": time.time(),
        }
        payload.update(record)
        line = json.dumps(payload, separators=(",", ":"))
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.records_written += 1
            seconds = payload.get("seconds")
            if (
                payload.get("ok")
                and payload.get("admitted")
                and isinstance(seconds, (int, float))
            ):
                slow = self._is_slow(float(seconds))
                self._baseline.observe(float(seconds))
                if slow and self.ring is not None:
                    self.ring.snapshot(payload, spans)
                    self.slow_recorded += 1
        return payload

    def _is_slow(self, seconds: float) -> bool:
        baseline = self._baseline.value
        if baseline is None:
            # no baseline yet: only the absolute floor applies
            return seconds > self.slow_min_seconds
        threshold = max(self.slow_min_seconds, self.slow_factor * baseline)
        return seconds > threshold

    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.flush()
                self._handle.close()
            except (OSError, ValueError):  # pragma: no cover - closed twice
                pass

    def __enter__(self) -> "RequestLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
