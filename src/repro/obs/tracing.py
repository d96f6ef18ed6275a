"""Nestable wall-clock spans emitted as JSONL events.

A :class:`Tracer` owns an output sink and a stack of open spans; calling
:meth:`Tracer.span` inside a ``with`` block opens a child of whatever span
is currently innermost, so the miners' natural call structure produces the
documented hierarchy (``run > pass > {count, prune, mfcs_gen, generate,
recover}``) without any explicit parent plumbing.  Span events are written
when the span *closes* (see :mod:`repro.obs.schema` for the event shape).

Tracing is strictly opt-in.  The default tracer everywhere is
:data:`NOOP_TRACER`, whose :meth:`~NoopTracer.span` hands back a shared
:class:`NoopSpan` — entering it, setting attributes on it, and leaving it
are all attribute lookups plus a no-op call, so instrumented code paths
cost effectively nothing when nobody asked for a trace.  Hot loops should
still guard per-item work behind ``tracer.enabled`` /
``Instrumentation.enabled``.

The tracer is synchronous and single-writer by design: mining runs are
single-threaded (the partitioned miner's phase-I worker processes report
numbers back instead of tracing directly), so a lock would buy nothing.

:meth:`Tracer.bind` adds *ambient context*: a ``with tracer.bind(
request_id=...)`` block stamps its attributes onto every span opened
inside it (explicit span attributes win on collision), and optionally
collects the closed span events into a caller-supplied list.  This is how
the serve front-end threads one ``request_id`` through ``run > pass >
{count, prune, mfcs_gen}`` without touching any miner signature — the
session binds *inside* its query lock, so the single-writer contract
extends to the ambient state too.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, IO, List, Optional

from .schema import SCHEMA_VERSION

__all__ = [
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NoopSpan",
    "NoopTracer",
    "Span",
    "TraceBinding",
    "Tracer",
]


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to schema scalars (repr anything exotic)."""
    cleaned: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, bool) or value is None or isinstance(value, str):
            cleaned[key] = value
        elif isinstance(value, int):
            cleaned[key] = int(value)  # normalises IntEnum / numpy ints
        elif isinstance(value, float):
            cleaned[key] = float(value)
        else:
            cleaned[key] = repr(value)
    return cleaned


class Span:
    """One open span; a context manager that emits itself on exit."""

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "ts", "_started",
        "attrs", "_profile",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        profiler = tracer.profiler
        self._profile = profiler.begin() if profiler is not None else None
        self.ts = time.time()
        self._started = time.perf_counter()

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (recorded when the span closes)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close_span(self, time.perf_counter() - self._started)


class TraceBinding:
    """One active :meth:`Tracer.bind` scope; restores the prior scope on
    exit, so bindings nest like the spans they decorate."""

    __slots__ = ("_tracer", "_attrs", "_sink", "_saved")

    def __init__(
        self,
        tracer: "Tracer",
        attrs: Dict[str, Any],
        sink: Optional[List[Dict[str, Any]]],
    ) -> None:
        self._tracer = tracer
        self._attrs = attrs
        self._sink = sink
        self._saved: Optional[tuple] = None

    def __enter__(self) -> "TraceBinding":
        tracer = self._tracer
        self._saved = (tracer._ambient, tracer._collect)
        merged = dict(tracer._ambient)
        merged.update(self._attrs)
        tracer._ambient = merged
        if self._sink is not None:
            tracer._collect = self._sink
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._saved is not None:
            self._tracer._ambient, self._tracer._collect = self._saved
            self._saved = None


class Tracer:
    """JSONL span emitter; see the module docstring.

    Parameters
    ----------
    sink:
        A writable text file object.  The tracer owns it only when built
        via :meth:`to_path` (then :meth:`close` closes it).
    producer:
        Free-text origin label stamped into the ``meta`` header.
    max_events:
        Size cap / rotation guard: after this many events have been
        written, further events are *counted but dropped*, and
        :meth:`close` appends a single ``truncated`` marker event naming
        the drop count — a huge run cannot grow a trace without bound.
        None (default) disables the cap.
    profiler:
        Optional :class:`~repro.obs.resources.SpanProfiler`; when set,
        every span is stamped with ``cpu_s`` (and ``mem_peak_kb`` when
        tracemalloc is tracing) as it closes.
    """

    enabled = True

    def __init__(
        self,
        sink: IO[str],
        producer: str = "repro",
        max_events: Optional[int] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be positive")
        self._sink = sink
        self._owns_sink = False
        self._stack: List[Span] = []
        self._next_id = 1
        #: ambient attrs stamped onto every opened span (see :meth:`bind`)
        self._ambient: Dict[str, Any] = {}
        #: optional list collecting closed span events for the active bind
        self._collect: Optional[List[Dict[str, Any]]] = None
        self.events_emitted = 0
        self.events_dropped = 0
        self.max_events = max_events
        self.profiler = profiler
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "type": "meta",
                "ts": time.time(),
                "pid": os.getpid(),
                "producer": producer,
            }
        )

    @classmethod
    def to_path(
        cls,
        path: str,
        producer: str = "repro",
        max_events: Optional[int] = None,
        profiler: Optional[Any] = None,
    ) -> "Tracer":
        """Open ``path`` for writing and trace into it."""
        sink = open(path, "w", encoding="utf-8")
        tracer = cls(
            sink, producer=producer, max_events=max_events, profiler=profiler
        )
        tracer._owns_sink = True
        return tracer

    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a child span of the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        if self._ambient:
            merged = dict(self._ambient)
            merged.update(attrs)
            attrs = merged
        span = Span(self, name, self._next_id, parent, dict(attrs))
        self._next_id += 1
        self._stack.append(span)
        return span

    def bind(
        self,
        sink: Optional[List[Dict[str, Any]]] = None,
        **attrs: Any,
    ) -> TraceBinding:
        """Scope ambient span context (a context manager).

        Every span opened while the binding is entered carries ``attrs``
        (explicit span attributes win on collision), and — when ``sink``
        is given — every span *closed* inside the scope appends its
        emitted event dict to that list, regardless of the trace-file
        event cap.  ``None``-valued attrs are dropped rather than
        stamped.  Bindings nest: an inner bind layers over (and on exit
        restores) the outer scope.
        """
        cleaned = {k: v for k, v in attrs.items() if v is not None}
        return TraceBinding(self, cleaned, sink)

    def emit_event(self, event_type: str, **fields: Any) -> None:
        """Emit a non-span event line (``progress`` reporters use this)."""
        payload: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": event_type,
            "ts": time.time(),
        }
        payload.update(_clean_attrs(fields))
        for key, value in self._ambient.items():
            payload.setdefault(key, value)
        self._emit(payload)

    def _close_span(self, span: Span, duration: float) -> None:
        if span._profile is not None and self.profiler is not None:
            span.attrs.update(self.profiler.end(span._profile))
        # exception unwinding may close an outer span while inner noop /
        # already-closed ids linger; pop everything above it
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        event = {
            "v": SCHEMA_VERSION,
            "type": "span",
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "ts": span.ts,
            "dur": duration,
            "attrs": _clean_attrs(span.attrs),
        }
        if self._collect is not None:
            self._collect.append(event)
        self._emit(event)

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.max_events is not None and self.events_emitted >= self.max_events:
            self.events_dropped += 1
            return
        self._sink.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.events_emitted += 1

    def close(self) -> None:
        """Flush and (when owning the sink) close the output file."""
        if self.events_dropped:
            # bypass _emit: the marker must land even though the cap is hit
            self._sink.write(
                json.dumps(
                    {
                        "v": SCHEMA_VERSION,
                        "type": "truncated",
                        "ts": time.time(),
                        "dropped": self.events_dropped,
                        "max_events": self.max_events,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            self.events_dropped = 0
        try:
            self._sink.flush()
        except (OSError, ValueError):  # pragma: no cover - closed sink
            pass
        if self._owns_sink:
            try:
                self._sink.close()
            except OSError:  # pragma: no cover
                pass


class NoopSpan:
    """Shared do-nothing span; the disabled path's context manager."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        return None


class NoopTracer:
    """Disabled tracer: every span is the shared :data:`NOOP_SPAN`."""

    enabled = False
    events_emitted = 0
    events_dropped = 0
    max_events = None
    profiler = None

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> NoopSpan:
        return NOOP_SPAN

    def bind(
        self,
        sink: Optional[List[Dict[str, Any]]] = None,
        **attrs: Any,
    ) -> NoopSpan:
        return NOOP_SPAN

    def emit_event(self, event_type: str, **fields: Any) -> None:
        return None

    def close(self) -> None:
        return None


NOOP_SPAN = NoopSpan()
NOOP_TRACER = NoopTracer()
