"""Per-span resource attribution and a sampling stack profiler.

Two independent tools make the trace a *flight recorder* rather than a
stopwatch:

* :class:`SpanProfiler` — attached to a :class:`~repro.obs.tracing.Tracer`
  (``capture(..., profile=True)`` or ``--profile``), it stamps every span
  with ``cpu_s`` (process CPU via :func:`time.process_time`, inclusive of
  children, like the wall-clock ``dur``) and — when :mod:`tracemalloc` is
  tracing — ``mem_peak_kb``, the peak Python heap growth over the span's
  lifetime relative to its entry point.  Peaks are nest-aware: a child's
  absolute peak is propagated into its parent frame, so a parent's
  ``mem_peak_kb`` is never smaller than the growth any child observed.
* :class:`SamplingProfiler` — a daemon thread that samples the target
  thread's Python stack at a fixed interval and aggregates *folded
  stacks* (``outer;inner;leaf count`` lines, the input format of every
  flamegraph renderer).  It is wall-clock sampling: blocked time shows up
  too, which is exactly what a "where did the run go" question wants.

Both are strictly opt-in.  The span profiler costs two clock reads plus
(under tracemalloc) two allocation-counter reads per span; nothing here
runs when profiling is off, so the disabled-overhead budget of
:mod:`repro.bench.obs_overhead` is untouched.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from typing import Any, Dict, List, Optional

__all__ = [
    "SamplingProfiler",
    "SpanProfiler",
    "fold_stack",
]


class _Frame:
    """One open profiled span: entry clocks plus the running peak."""

    __slots__ = ("cpu_start", "mem_start", "mem_peak")

    def __init__(self, cpu_start: float, mem_start: int) -> None:
        self.cpu_start = cpu_start
        self.mem_start = mem_start
        # absolute tracemalloc peak observed while this frame was open
        # (children propagate theirs upward on close)
        self.mem_peak = mem_start


class SpanProfiler:
    """Per-span CPU and memory deltas, attached to span attrs.

    Designed to be driven by the tracer: :meth:`begin` when a span opens,
    :meth:`end` (returning the attrs to attach) when it closes.  Frames
    form a stack parallel to the tracer's span stack; like the tracer,
    :meth:`end` tolerates out-of-order closes from exception unwinding.

    Parameters
    ----------
    trace_memory:
        When True (default), :meth:`install` starts :mod:`tracemalloc` if
        nobody else has, and spans gain ``mem_peak_kb``.  When False only
        CPU is attributed — tracemalloc costs real time (every allocation
        is intercepted), so memory attribution is separable.
    """

    def __init__(self, trace_memory: bool = True) -> None:
        self.trace_memory = trace_memory
        self._frames: List[_Frame] = []
        self._started_tracemalloc = False

    # ------------------------------------------------------------------

    def install(self) -> "SpanProfiler":
        """Start tracemalloc if memory attribution is on and it isn't."""
        if self.trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        return self

    def uninstall(self) -> None:
        """Stop tracemalloc iff :meth:`install` started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False

    @property
    def memory_active(self) -> bool:
        return self.trace_memory and tracemalloc.is_tracing()

    # ------------------------------------------------------------------

    def begin(self) -> _Frame:
        """Open a profiling frame for a span that just started."""
        if self.memory_active:
            current, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        else:
            current = 0
        frame = _Frame(time.process_time(), current)
        self._frames.append(frame)
        return frame

    def end(self, frame: _Frame) -> Dict[str, float]:
        """Close ``frame``; returns the attrs to stamp onto the span."""
        attrs: Dict[str, float] = {
            "cpu_s": max(0.0, time.process_time() - frame.cpu_start)
        }
        memory = self.memory_active
        if memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.mem_peak = max(frame.mem_peak, peak)
            attrs["mem_peak_kb"] = round(
                max(0, frame.mem_peak - frame.mem_start) / 1024.0, 3
            )
            tracemalloc.reset_peak()
        # pop this frame (and any orphans exception unwinding left above
        # it), then propagate the absolute peak into the parent so its
        # window covers everything its children saw
        while self._frames and self._frames[-1] is not frame:
            self._frames.pop()
        if self._frames:
            self._frames.pop()
        if memory and self._frames:
            parent = self._frames[-1]
            parent.mem_peak = max(parent.mem_peak, frame.mem_peak)
        return attrs


# ----------------------------------------------------------------------
# sampling profiler (folded stacks)
# ----------------------------------------------------------------------


def fold_stack(frame: Any) -> str:
    """Render a frame chain as a ``;``-joined folded stack (root first)."""
    parts: List[str] = []
    while frame is not None:
        code = frame.f_code
        parts.append("%s:%s" % (code.co_filename.rsplit("/", 1)[-1], code.co_name))
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Background thread sampling one thread's Python stack.

    Aggregates identical stacks into a counter; :meth:`write` emits the
    classic folded-stack text (one ``stack count`` line per distinct
    stack, sorted by count descending) that ``flamegraph.pl``, speedscope
    and Perfetto's flamegraph importers all accept.

    Parameters
    ----------
    interval:
        Seconds between samples (default 5 ms — coarse enough to stay
        under ~1% overhead on CPython, fine enough for pass-level
        attribution).
    thread_id:
        The :func:`threading.get_ident` of the thread to sample; defaults
        to the caller's thread (construct the profiler on the thread you
        want profiled, then :meth:`start`).
    """

    def __init__(
        self, interval: float = 0.005, thread_id: Optional[int] = None
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.thread_id = (
            thread_id if thread_id is not None else threading.get_ident()
        )
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("sampling profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampling-profiler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample_once()

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self.thread_id)
        if frame is None:
            return
        stack = fold_stack(frame)
        self.samples[stack] = self.samples.get(stack, 0) + 1
        self.total_samples += 1

    def stop(self) -> "SamplingProfiler":
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
            self._thread = None
        return self

    # ------------------------------------------------------------------

    def folded_lines(self) -> List[str]:
        """The aggregated ``stack count`` lines, hottest first."""
        return [
            "%s %d" % (stack, count)
            for stack, count in sorted(
                self.samples.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.folded_lines():
                handle.write(line + "\n")

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
