"""Process-local metrics registry: counters, gauges, histograms.

The registry is a named bag of three instrument kinds, all plain Python
objects with ``__slots__`` so the enabled path costs one dict lookup plus
one attribute update per observation:

* :class:`Counter` — monotonically increasing int (``inc``);
* :class:`Gauge` — last-written value (``set``);
* :class:`Histogram` — running ``count/total/min/max/sumsq`` summary
  (``observe``; ``sumsq`` powers the exported ``stddev``) plus a bounded
  reservoir sample feeding :meth:`Histogram.percentile` — tail latency
  (p95/p99) cannot be reconstructed from moments alone.  Deliberately no
  buckets: the consumers here (bench records, the metrics JSON document)
  want cheap summaries, and keeping the per-observation cost at a handful
  of scalar updates is what lets engines observe every batch.

:class:`Ewma`, the one exponentially weighted moving average, lives here
too but outside the registry: the session's ETA rate and the request
log's slow-query baseline each hold their own.

Disabled instrumentation uses :data:`NULL_INSTRUMENT` — a single object
answering ``inc``/``set``/``observe`` with a no-op — handed out by
:class:`NullRegistry` without allocating anything per call.

Instrument *creation* (the name → instrument lookup) is guarded by a
lock, so the serve daemon's front-end threads can write into the same
registry as the mining thread.  Individual ``inc``/``set``/``observe``
calls stay lock-free: they are single attribute updates, and the GIL
already makes them atomic enough for monotonic counters and last-write
gauges.

Registries serialise to the versioned ``metrics`` document of
:mod:`repro.obs.schema` via :meth:`MetricsRegistry.to_dict`.
"""

from __future__ import annotations

import json
import math
import random
import threading
from typing import Any, Dict, List, Union

from .schema import SCHEMA_VERSION

__all__ = [
    "Counter",
    "Ewma",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NullRegistry",
]

Number = Union[int, float]

#: Bounded sample kept per histogram for percentile estimation.  512
#: values bound the p99 estimate's relative rank error to ~±0.6% of the
#: distribution while costing at most 4 KiB per histogram.
RESERVOIR_SIZE = 512


class Counter:
    """Monotonic int counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Running summary (count, total, min, max, sumsq) of observed values.

    The sum of squares rides along so :meth:`to_dict` can report the
    population standard deviation without keeping samples.  A bounded
    reservoir (:data:`RESERVOIR_SIZE` values, uniform sample over the
    whole observation stream) additionally powers :meth:`percentile` —
    per-query SLOs need p95/p99, and mean/stddev cannot describe a tail.
    The reservoir's RNG is seeded per instance so documents are
    reproducible run to run.
    """

    __slots__ = ("count", "total", "min", "max", "sumsq", "_sample", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total: Number = 0
        self.min: Number = 0
        self.max: Number = 0
        self.sumsq: Number = 0
        self._sample: List[Number] = []
        self._rng = random.Random(0x5EED)

    def observe(self, value: Number) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if self.count == 0 or value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        self.sumsq += value * value
        # Vitter's algorithm R: after the reservoir fills, each further
        # value replaces a uniformly-chosen slot with probability R/count
        if len(self._sample) < RESERVOIR_SIZE:
            self._sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self._sample[slot] = value

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of the sampled distribution.

        Nearest-rank over the bounded reservoir: exact while ``count``
        stays within :data:`RESERVOIR_SIZE`, a uniform-sample estimate
        beyond it.  Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
        return float(ordered[rank])

    @property
    def samples(self) -> List[Number]:
        """A copy of the reservoir sample.  Merged views — the rolling
        SLO window concatenating its buckets' reservoirs — need the raw
        values; moments alone cannot be re-ranked."""
        return list(self._sample)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation of the observed values."""
        if not self.count:
            return 0.0
        variance = self.sumsq / self.count - self.mean ** 2
        return math.sqrt(variance) if variance > 0 else 0.0

    def to_dict(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "sumsq": self.sumsq,
            "stddev": round(self.stddev, 9),
            "p50": round(self.percentile(50.0), 9),
            "p95": round(self.percentile(95.0), 9),
            "p99": round(self.percentile(99.0), 9),
        }


class Ewma:
    """Exponentially weighted moving average.

    ``value`` is None until the first :meth:`observe`, which sets it
    exactly; each later observation moves it ``alpha`` of the way toward
    the new value.
    """

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: "float | None" = None

    def observe(self, value: float) -> float:
        """Fold in ``value``; returns the updated average."""
        self.value = (
            value
            if self.value is None
            else (1.0 - self.alpha) * self.value + self.alpha * value
        )
        return self.value


class _NullInstrument:
    """Answers every instrument method with a no-op (the disabled path)."""

    __slots__ = ()
    value = 0
    count = 0

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: Number) -> None:
        return None

    def observe(self, value: Number) -> None:
        return None

    def percentile(self, p: float) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named counters/gauges/histograms plus JSON serialisation.

    Instrument creation is serialised by an internal lock, so the serve
    daemon's front-end threads and the mining thread can share one
    registry; the hot-path writes on an *already created* instrument
    stay lock-free.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram()
        return instrument

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The versioned ``metrics`` document (see :mod:`repro.obs.schema`)."""
        with self._lock:  # freeze the name sets against concurrent creation
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "v": SCHEMA_VERSION,
            "type": "metrics",
            "counters": {name: counter.value for name, counter in counters},
            "gauges": {name: gauge.value for name, gauge in gauges},
            "histograms": {
                name: histogram.to_dict() for name, histogram in histograms
            },
        }

    def write(self, path: str) -> None:
        """Dump the metrics document to ``path`` as pretty JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class NullRegistry(MetricsRegistry):
    """Disabled registry: every instrument is :data:`NULL_INSTRUMENT`."""

    enabled = False

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:  # type: ignore[override]
        return NULL_INSTRUMENT  # type: ignore[return-value]
