"""Stall watchdog: adaptive heartbeat-age detection over the telemetry plane.

A worker that stops beating mid-pass is one of two very different
problems, and the watchdog distinguishes them:

* **dead** — the process itself is gone (crash, OOM-kill, SIGKILL).  It
  will never answer; detection is immediate via the engine's liveness
  callback, no threshold needed.
* **wedged** — the process is alive but its heartbeat is stale (stuck
  syscall, livelock, SIGSTOP).  Detection is by heartbeat age against an
  adaptive threshold: ``stall_factor`` x the per-worker EWMA inter-beat
  interval, floored at ``min_stall_seconds`` (or a hard ``stall_after``
  override).  The EWMA makes the threshold self-scaling — a worker that
  beats every few milliseconds through its counting loop is flagged in
  well under a second of silence, while a plane whose beats are
  naturally sparse gets proportional patience.

The watchdog only judges workers the engine says are *pending* (owing a
reply): an idle worker between passes beats rarely and must not be
flagged.  Each stall is reported once as a :class:`StallEvent`, mirrored
into the trace as a schema-v3 ``shard_stalled`` event, and counted in
``telemetry.shard_stalled``; the engine reacts by reassigning the
shard's remaining work to live processes (see ``db/shm.py``) and
stepping down the fallback ladder at the next attach.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional

from .logsetup import get_logger
from .metrics import Ewma
from .telemetry import (
    HeartbeatRecord,
    TelemetryConfig,
    TelemetryReader,
)

__all__ = ["StallEvent", "StallWatchdog"]

logger = get_logger("obs.watchdog")

#: EWMA smoothing for the observed inter-beat interval
_ALPHA = 0.3

#: floor for the EWMA itself, so a burst of sub-millisecond beats cannot
#: collapse the threshold to the poll jitter scale
_MIN_INTERVAL = 0.005


class StallEvent:
    """One detected stall: which shard, which failure mode, how stale."""

    __slots__ = ("shard", "slot", "pid", "kind", "age_s", "threshold_s")

    def __init__(
        self,
        shard: int,
        slot: int,
        pid: int,
        kind: str,
        age_s: float,
        threshold_s: float,
    ) -> None:
        self.shard = shard
        self.slot = slot
        self.pid = pid
        self.kind = kind  # "dead" | "wedged"
        self.age_s = age_s
        self.threshold_s = threshold_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StallEvent(shard=%d, kind=%s, age=%.3fs)" % (
            self.shard, self.kind, self.age_s
        )


class StallWatchdog:
    """Flags pending workers whose heartbeats have gone stale.

    Parameters
    ----------
    reader:
        The telemetry reader over the engine's segment (worker ``i``
        publishes into slot ``i + 1``).
    config:
        Threshold knobs (see :class:`~repro.obs.telemetry.TelemetryConfig`).
    obs:
        Optional instrumentation bundle receiving the ``shard_stalled``
        trace events and counters.
    """

    #: minimum seconds between full sweeps (the engines call
    #: :meth:`check` from a tight reply-poll loop)
    CHECK_INTERVAL = 0.05

    def __init__(
        self,
        reader: TelemetryReader,
        config: Optional[TelemetryConfig] = None,
        obs=None,
    ) -> None:
        self._reader = reader
        self._config = config if config is not None else TelemetryConfig()
        self._obs = obs
        self._ewma: Dict[int, Ewma] = {}
        self._last_beat: Dict[int, tuple] = {}  # slot -> (beats, mono_ts)
        self._first_seen: Dict[int, float] = {}
        self._flagged: Dict[int, StallEvent] = {}
        self._last_check = 0.0

    # ------------------------------------------------------------------

    def threshold_for(self, slot: int) -> float:
        """The current stall threshold (seconds) for ``slot``."""
        config = self._config
        if config.stall_after is not None:
            return config.stall_after
        ewma = self._ewma.get(slot)
        interval = config.min_stall_seconds if ewma is None else ewma.value
        return max(config.min_stall_seconds, config.stall_factor * interval)

    def _observe(self, slot: int, record: Optional[HeartbeatRecord]) -> None:
        """Fold a snapshot into the slot's EWMA inter-beat interval."""
        if record is None:
            return
        previous = self._last_beat.get(slot)
        if previous is not None:
            prev_beats, prev_ts = previous
            delta = record.heartbeats - prev_beats
            if delta > 0 and record.mono_ts > prev_ts:
                interval = max(
                    _MIN_INTERVAL, (record.mono_ts - prev_ts) / delta
                )
                if slot not in self._ewma:
                    self._ewma[slot] = Ewma(_ALPHA)
                self._ewma[slot].observe(interval)
        if previous is None or record.heartbeats != previous[0]:
            self._last_beat[slot] = (record.heartbeats, record.mono_ts)

    def check(
        self,
        pending: Iterable[int],
        alive: Optional[Callable[[int], bool]] = None,
        now: Optional[float] = None,
    ) -> List[StallEvent]:
        """Sweep the pending workers; returns *newly* detected stalls.

        ``pending`` holds worker ids (0-based) still owing a reply this
        pass; ``alive(worker_id)`` is the engine's process-liveness
        probe.  A worker is reported once — re-raising the same stall
        every poll would turn one wedge into an event storm.
        """
        if now is None:
            now = time.monotonic()
        if now - self._last_check < self.CHECK_INTERVAL:
            return []
        self._last_check = now
        events: List[StallEvent] = []
        for worker_id in sorted(set(pending)):
            slot = worker_id + 1
            if slot in self._flagged:
                continue
            record = self._reader.read(slot)
            self._observe(slot, record)
            pid = record.pid if record is not None else 0
            if alive is not None and not alive(worker_id):
                # process gone: no reply will ever come, flag immediately
                age = record.age(now) if record is not None else 0.0
                event = StallEvent(
                    worker_id, slot, pid, "dead", age, 0.0
                )
            else:
                if record is not None:
                    age = record.age(now)
                else:
                    # never beaten (attach raced/failed): age since the
                    # watchdog first saw the slot pending
                    first = self._first_seen.setdefault(slot, now)
                    age = now - first
                threshold = self.threshold_for(slot)
                if age <= threshold:
                    continue
                event = StallEvent(
                    worker_id, slot, pid, "wedged", age, threshold
                )
            self._flagged[slot] = event
            events.append(event)
            self._emit(event)
        return events

    def flag_dead(self, worker_id: int) -> Optional[StallEvent]:
        """Record a death the engine discovered itself (send/recv race).

        A worker can die between watchdog sweeps and announce it through
        a ``BrokenPipeError``/``EOFError`` before :meth:`check` ever sees
        it; the engine calls this so the ``shard_stalled`` event is
        emitted either way.  Idempotent per slot — a stall the watchdog
        already flagged is not re-raised.
        """
        slot = worker_id + 1
        if slot in self._flagged:
            return None
        record = self._reader.read(slot)
        now = time.monotonic()
        event = StallEvent(
            worker_id,
            slot,
            record.pid if record is not None else 0,
            "dead",
            record.age(now) if record is not None else 0.0,
            0.0,
        )
        self._flagged[slot] = event
        self._emit(event)
        return event

    def reset(self, worker_id: int) -> None:
        """Forget a worker's stall (after the engine replaced it)."""
        slot = worker_id + 1
        self._flagged.pop(slot, None)
        self._last_beat.pop(slot, None)
        self._ewma.pop(slot, None)
        self._first_seen.pop(slot, None)

    @property
    def stalled(self) -> List[StallEvent]:
        """Every stall flagged so far (ordered by slot)."""
        return [self._flagged[slot] for slot in sorted(self._flagged)]

    # ------------------------------------------------------------------

    def _emit(self, event: StallEvent) -> None:
        logger.warning(
            "shard %d stalled (%s): heartbeat age %.3fs, threshold %.3fs, "
            "pid %d",
            event.shard, event.kind, event.age_s, event.threshold_s, event.pid,
        )
        obs = self._obs
        if obs is None or not obs.enabled:
            return
        obs.counter("telemetry.shard_stalled").inc()
        obs.counter("telemetry.shard_stalled.%s" % event.kind).inc()
        obs.tracer.emit_event(
            "shard_stalled",
            shard=event.shard,
            kind=event.kind,
            age_s=round(event.age_s, 6),
            threshold_s=round(event.threshold_s, 6),
            pid=event.pid,
        )
