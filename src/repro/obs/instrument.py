"""The :class:`Instrumentation` bundle threaded through miners and engines.

One object carries the whole observability surface — a tracer and a
metrics registry — so instrumented code needs a single optional ``obs``
parameter instead of three.  The module-level :data:`NOOP` instance is the
default everywhere: its ``enabled`` flag is False, its spans are the
shared no-op span, and its instruments swallow writes, which is what makes
instrumentation safe to leave compiled into every hot path.

Conventions for instrumented code:

* accept ``obs: Optional[Instrumentation] = None`` and normalise with
  ``obs = obs if obs is not None else NOOP``;
* wrap per-pass (not per-item) work in ``with obs.span(...)``, which is
  cheap enough unguarded;
* guard anything finer — per-candidate counters, attribute dictionaries —
  behind ``if obs.enabled:``.

:func:`capture` is the factory the CLI and tests use to build an enabled
bundle from output paths, and :meth:`Instrumentation.finish` writes the
metrics document and closes the trace sink.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NullRegistry,
)
from .progress import NOOP_PROGRESS, NoopProgress, ProgressReporter
from .tracing import NOOP_SPAN, NOOP_TRACER, NoopSpan, NoopTracer, Span, Tracer

__all__ = ["Instrumentation", "NOOP", "capture"]


class Instrumentation:
    """Tracer + metrics registry (+ optional progress) behind one handle."""

    enabled = True

    def __init__(
        self,
        tracer: Optional[Union[Tracer, NoopTracer]] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_path: Optional[str] = None,
        progress: Optional[Union[ProgressReporter, NoopProgress]] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics_path = metrics_path
        self.progress = progress if progress is not None else NOOP_PROGRESS

    # ------------------------------------------------------------------
    # delegation shims — the whole instrumented surface in one namespace
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Union[Span, NoopSpan]:
        return self.tracer.span(name, **attrs)

    def bind(self, sink: Optional[list] = None, **attrs: Any):
        """Ambient span context (see :meth:`Tracer.bind`): a context
        manager stamping ``attrs`` on every span opened inside it and
        collecting closed span events into ``sink`` when given."""
        return self.tracer.bind(sink=sink, **attrs)

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Write the metrics document (if a path was given), close the trace."""
        if self.metrics_path is not None:
            self.metrics.write(self.metrics_path)
        profiler = getattr(self.tracer, "profiler", None)
        self.tracer.close()
        if profiler is not None:
            profiler.uninstall()

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()


class _NoopInstrumentation(Instrumentation):
    """The shared disabled bundle; every operation is free."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(
            tracer=NOOP_TRACER, metrics=NullRegistry(), progress=NOOP_PROGRESS
        )

    def span(self, name: str, **attrs: Any) -> NoopSpan:
        return NOOP_SPAN

    def bind(self, sink: Optional[list] = None, **attrs: Any) -> NoopSpan:
        return NOOP_SPAN

    def counter(self, name: str) -> Counter:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def finish(self) -> None:
        return None


NOOP = _NoopInstrumentation()


def capture(
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    producer: str = "repro",
    profile: bool = False,
    progress: Optional[Union[bool, ProgressReporter, NoopProgress]] = None,
    trace_max_events: Optional[int] = None,
) -> Instrumentation:
    """Build an :class:`Instrumentation` from output paths.

    With nothing requested the shared :data:`NOOP` bundle is returned, so
    callers can wire CLI flags straight through without branching.

    ``profile=True`` attaches a
    :class:`~repro.obs.resources.SpanProfiler` to the tracer (requires
    ``trace_path`` — the attribution lands in span attrs) and starts
    tracemalloc for the bundle's lifetime; ``trace_max_events`` caps the
    trace file (a ``truncated`` marker replaces the overflow);
    ``progress`` threads a heartbeat reporter through to the miners —
    pass a :class:`~repro.obs.progress.ProgressReporter` or ``True`` for
    a default stderr reporter.
    """
    if progress is True:
        progress = ProgressReporter()
    elif progress is False:
        progress = None
    if trace_path is None and metrics_path is None and progress is None:
        if profile:
            raise ValueError("profile=True requires a trace_path to land in")
        return NOOP
    if profile and trace_path is None:
        raise ValueError("profile=True requires a trace_path to land in")
    profiler = None
    if profile:
        from .resources import SpanProfiler

        profiler = SpanProfiler().install()
    tracer = (
        Tracer.to_path(
            trace_path,
            producer=producer,
            max_events=trace_max_events,
            profiler=profiler,
        )
        if trace_path is not None
        else NOOP_TRACER
    )
    metrics = MetricsRegistry()
    if progress is not None and isinstance(progress, ProgressReporter):
        if progress._tracer is None and tracer is not NOOP_TRACER:
            progress._tracer = tracer
        if progress._metrics is None:
            progress._metrics = metrics
    return Instrumentation(
        tracer=tracer,
        metrics=metrics,
        metrics_path=metrics_path,
        progress=progress,
    )
