"""Heartbeat progress reporting for long mining runs.

A mining run's pass structure is its natural progress axis, and the
Geerts–Goethals–Van den Bussche candidate bound (computed each pass, see
:func:`repro.core.bitset.candidate_upper_bound`) is a *provable* upper
bound on the next pass's bottom-up candidates — which makes it an honest
ETA signal: ``bound / (candidates counted per second so far)`` bounds the
next pass's counting time from above.  :class:`ProgressReporter` combines
``|C_k|``, the MFCS front size, and that bound into

* a live one-line-per-pass heartbeat on a stream (the CLI's
  ``--progress`` sends it to stderr), and
* machine-readable ``progress`` events (schema v2, see
  :mod:`repro.obs.schema`) — appended into the trace stream when a
  tracer is attached, and/or into a standalone JSONL sink.

Like everything in ``repro.obs`` it is opt-in: the shared
:data:`NOOP_PROGRESS` answers every callback with a no-op, and the miners
guard their calls behind ``progress.enabled``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, IO, List, Optional

from .schema import SCHEMA_VERSION

__all__ = ["NOOP_PROGRESS", "NoopProgress", "ProgressReporter"]


class NoopProgress:
    """Disabled reporter: every callback is free."""

    enabled = False

    __slots__ = ()

    def start_run(self, **fields: Any) -> None:
        return None

    def on_pass(self, **fields: Any) -> None:
        return None

    def on_abandon(self, **fields: Any) -> None:
        return None

    def on_finish(self, **fields: Any) -> None:
        return None


NOOP_PROGRESS = NoopProgress()


class ProgressReporter:
    """Per-pass heartbeat: human line + machine-readable event.

    Parameters
    ----------
    stream:
        Text stream for the human-readable heartbeat (default: stderr).
        Pass None to silence the human side.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`; progress events are
        then appended to the trace stream as schema ``progress`` lines.
        Once the tracer's ``max_events`` cap has been reached the mirror
        stops (the tracer would drop the event anyway) — the human line
        and the ``events`` list keep flowing, and every unmirrored event
        is tallied in :attr:`dropped_events` and, when ``metrics`` is
        given, the ``progress.dropped_events`` counter.
    events_sink:
        Optional writable text object receiving the same events as
        standalone JSONL (for tailing a file independently of the trace).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        the ``progress.dropped_events`` counter.
    """

    enabled = True

    def __init__(
        self,
        stream: Optional[IO[str]] = sys.stderr,
        tracer: Optional[Any] = None,
        events_sink: Optional[IO[str]] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self._stream = stream
        self._tracer = tracer
        self._events_sink = events_sink
        self._metrics = metrics
        #: every emitted event, for programmatic consumers and tests
        self.events: List[Dict[str, Any]] = []
        #: events the tracer cap kept out of the trace stream
        self.dropped_events = 0
        self._started = time.perf_counter()
        self._candidates_total = 0
        self._label = "run"

    # ------------------------------------------------------------------

    def _tracer_capped(self) -> bool:
        """True once the attached tracer can no longer accept events."""
        tracer = self._tracer
        if tracer is None:
            return True
        cap = getattr(tracer, "max_events", None)
        return cap is not None and tracer.events_emitted >= cap

    def _emit(self, phase: str, line: Optional[str], **fields: Any) -> None:
        event: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": "progress",
            "ts": time.time(),
            "phase": phase,
        }
        event.update(fields)
        self.events.append(event)
        if self._tracer is not None:
            if self._tracer_capped():
                # the tracer would silently swallow it; keep the human
                # side alive and make the loss observable instead
                self.dropped_events += 1
                if self._metrics is not None:
                    self._metrics.counter("progress.dropped_events").inc()
            else:
                self._tracer.emit_event("progress", phase=phase, **fields)
        if self._events_sink is not None:
            self._events_sink.write(
                json.dumps(event, separators=(",", ":")) + "\n"
            )
        if self._stream is not None and line is not None:
            self._stream.write(line + "\n")
            try:
                self._stream.flush()
            except (OSError, ValueError):  # pragma: no cover - closed stream
                pass

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    # ------------------------------------------------------------------
    # miner callbacks
    # ------------------------------------------------------------------

    def start_run(
        self,
        algorithm: str = "run",
        num_transactions: int = 0,
        min_support_count: int = 0,
    ) -> None:
        self._started = time.perf_counter()
        self._candidates_total = 0
        self._label = algorithm
        self._emit(
            "start",
            "[%s] mining %d transactions (min support %d)"
            % (algorithm, num_transactions, min_support_count),
            algorithm=algorithm,
            num_transactions=num_transactions,
            min_support_count=min_support_count,
        )

    def on_pass(
        self,
        k: int,
        candidates: int,
        mfcs_size: int,
        candidate_bound: int,
        maximal_found: int = 0,
        mfs_size: int = 0,
        phase: str = "pass",
    ) -> None:
        """One finished pass; ``candidate_bound`` caps the *next* pass."""
        self._candidates_total += candidates
        elapsed = self.elapsed
        rate = self._candidates_total / elapsed if elapsed > 0 else 0.0
        # the bound is provable, so bound/rate is an upper bound on the
        # next pass's counting time — "on track" means this keeps shrinking
        eta_next = candidate_bound / rate if rate > 0 else 0.0
        line = (
            "[%s] %s %d: %d candidates, |MFCS|=%d, |MFS|=%d (+%d), "
            "bound %d -> next pass <= %.2fs (%.1fs elapsed)"
            % (
                self._label, phase, k, candidates, mfcs_size, mfs_size,
                maximal_found, candidate_bound, eta_next, elapsed,
            )
        )
        self._emit(
            phase,
            line,
            k=k,
            candidates=candidates,
            candidates_total=self._candidates_total,
            mfcs_size=mfcs_size,
            mfs_size=mfs_size,
            maximal_found=maximal_found,
            candidate_bound=candidate_bound,
            rate_per_s=round(rate, 3),
            eta_next_pass_s=round(eta_next, 6),
            elapsed_s=round(elapsed, 6),
        )

    def on_abandon(self, k: int, reason: str) -> None:
        self._emit(
            "abandon",
            "[%s] pass %d: MFCS abandoned (%s); completing bottom-up"
            % (self._label, k, reason),
            k=k,
            reason=reason,
            elapsed_s=round(self.elapsed, 6),
        )

    def on_finish(
        self, mfs_size: int = 0, passes: int = 0, seconds: float = 0.0
    ) -> None:
        self._emit(
            "finish",
            "[%s] done: |MFS|=%d after %d passes in %.2fs"
            % (self._label, mfs_size, passes, seconds),
            mfs_size=mfs_size,
            passes=passes,
            seconds=round(seconds, 6),
            candidates_total=self._candidates_total,
        )
