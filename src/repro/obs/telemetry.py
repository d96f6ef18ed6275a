"""Live telemetry plane: fixed-slot shared-memory shard heartbeats.

The flight recorder (:mod:`repro.obs.tracing`) sees a pass only *after*
it closes; the progress reporter heartbeats once per pass.  Between
those two beats a multi-process engine is a black box — a wedged worker
and a long pass look identical from the parent.  This module gives every
shard worker a place to publish liveness *during* a pass, cheap enough
to update per work chunk and readable from any process on the host:

* :class:`TelemetrySegment` — one fixed-size shared byte range per
  mining engine: a 64-byte header plus one 128-byte record slot per
  participant (slot 0 is the coordinator, slots ``1..N`` the workers).
  Two interchangeable backing planes mirror the ``_SharedBlock`` ladder
  of :mod:`repro.db.shm`: ``"shm"`` uses
  :class:`multiprocessing.shared_memory.SharedMemory`; ``"file"`` maps a
  temp file with the stdlib :mod:`mmap` module, so the plane works
  without ``/dev/shm`` and without NumPy.
* :class:`TelemetryWriter` — the single-writer side of one slot.  Each
  publish is a **seqlock**: the sequence word goes odd, the payload is
  written, the sequence goes even — a reader that observes an odd or
  changed sequence simply retries, so no lock is ever shared between
  processes and a dead writer can never wedge a reader.
* :class:`TelemetryReader` — attach-by-name snapshot reads of any slot
  (:class:`HeartbeatRecord`), used by the coordinator's collector, the
  stall watchdog (:mod:`repro.obs.watchdog`), and the ``pincer obs top``
  console (:mod:`repro.obs.top`) — possibly from a different process
  than the mine.
* :class:`TelemetryCollector` — coordinator-side polling: aggregates
  per-shard rates into the :class:`~repro.obs.metrics.MetricsRegistry`
  and mirrors schema-v3 ``telemetry`` events into the trace.
* :class:`EngineTelemetry` — the bundle an engine owns: segment +
  coordinator writer + collector + watchdog, with ``worker_spec`` dicts
  small enough to ride in the existing worker-spawn messages.

Timestamps are ``time.monotonic()``: on Linux that is ``CLOCK_MONOTONIC``,
which is system-wide, so heartbeat ages computed in the parent (or in
``pincer obs top``) are directly comparable across processes.  Every
writer-side failure is swallowed: telemetry must never be the reason a
count is wrong or a worker dies.
"""

from __future__ import annotations

import mmap as _mmap_module
import os
import struct
import tempfile
import time
from typing import Any, Dict, List, Optional

from .logsetup import get_logger
from .resources import rusage_snapshot

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - very old interpreters
    _shared_memory = None

__all__ = [
    "EngineTelemetry",
    "HeartbeatRecord",
    "STATE_COUNTING",
    "STATE_DEAD",
    "STATE_DONE",
    "STATE_IDLE",
    "STATE_NAMES",
    "TelemetryCollector",
    "TelemetryConfig",
    "TelemetryReader",
    "TelemetrySegment",
    "TelemetryWriter",
]

logger = get_logger("obs.telemetry")

# ----------------------------------------------------------------------
# segment layout
# ----------------------------------------------------------------------

MAGIC = b"PINCTELE"
FORMAT_VERSION = 2

#: header: magic, version, num_slots, slot_size, zero padding to 64 bytes
_HEADER = struct.Struct("<8sIII44x")
HEADER_SIZE = _HEADER.size  # 64

#: slot payload, after the 8-byte sequence word:
#: pid, state, pass_no, candidates_done, candidates_total, cursor,
#: rss_kb, heartbeats (u64 each), mono_ts, wall_ts (f64), bound,
#: reserved (u64), zero padding that keeps every slot on its own
#: 64-byte cache lines
_SEQ = struct.Struct("<Q")
_PAYLOAD = struct.Struct("<8Q2d2Q24x")
SLOT_SIZE = _SEQ.size + _PAYLOAD.size  # 128

_PAYLOAD_FIELDS = (
    "pid",
    "state",
    "pass_no",
    "candidates_done",
    "candidates_total",
    "cursor",
    "rss_kb",
    "heartbeats",
    "mono_ts",
    "wall_ts",
    "bound",
    "reserved",
)

#: worker state enum published in the ``state`` field
STATE_IDLE = 0
STATE_COUNTING = 1
STATE_DONE = 2
STATE_DEAD = 3

STATE_NAMES = {
    STATE_IDLE: "idle",
    STATE_COUNTING: "counting",
    STATE_DONE: "done",
    STATE_DEAD: "dead",
}

#: slot index reserved for the coordinating (parent) process
COORDINATOR_SLOT = 0


class HeartbeatRecord:
    """One consistent snapshot of a slot (all payload fields + ``slot``)."""

    __slots__ = ("slot", "seq") + _PAYLOAD_FIELDS

    def __init__(self, slot: int, seq: int, values) -> None:
        self.slot = slot
        self.seq = seq
        for name, value in zip(_PAYLOAD_FIELDS, values):
            setattr(self, name, value)

    @property
    def state_name(self) -> str:
        return STATE_NAMES.get(self.state, "unknown")

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since this record was published (monotonic clock)."""
        if now is None:
            now = time.monotonic()
        return max(0.0, now - self.mono_ts)

    def to_dict(self) -> Dict[str, Any]:
        cells = {name: getattr(self, name) for name in _PAYLOAD_FIELDS}
        cells["slot"] = self.slot
        cells["state_name"] = self.state_name
        return cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HeartbeatRecord(slot=%d, state=%s, beats=%d, age=%.3fs)" % (
            self.slot, self.state_name, self.heartbeats, self.age()
        )


def _slot_offset(slot: int) -> int:
    return HEADER_SIZE + slot * SLOT_SIZE


def _file_path_for(name: str) -> str:
    """Map a bare segment name onto the file plane's temp path."""
    if os.path.sep in name or os.path.isabs(name):
        return name
    return os.path.join(
        tempfile.gettempdir(), "pincer-tele-%s.tele" % name
    )


def _attach_shm(name: str):
    """Tracker-safe attach (mirrors :func:`repro.db.shm.attach_segment`).

    Attaching an existing segment on Python < 3.13 registers it with the
    process's resource tracker as if we owned it.  That is merely
    redundant inside the engine's process tree (workers share the
    creator's tracker, so the extra register is idempotent), but fatal
    in an unrelated observer such as ``pincer obs top``: its private
    tracker would *unlink the live segment* when the observer exits.
    We detect that case by whether a tracker was already running before
    the attach — if not, the tracker that just got spawned is ours alone
    and holds exactly this one registration, so removing it is both safe
    and required.
    """
    try:
        return _shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        try:
            from multiprocessing import resource_tracker

            fresh_tracker = resource_tracker._resource_tracker._fd is None
        except Exception:  # pragma: no cover - tracker API drift
            fresh_tracker = False
        segment = _shared_memory.SharedMemory(name=name, create=False)
        try:
            import multiprocessing

            if fresh_tracker or multiprocessing.get_start_method() != "fork":
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API drift
            pass
        return segment


class _Backing:
    """One attached byte range: ``buf`` plus a close hook."""

    def __init__(self, buf, closer=None) -> None:
        self.buf = buf
        self._closer = closer

    def close(self) -> None:
        buf, closer = self.buf, self._closer
        self.buf = None
        self._closer = None
        if isinstance(buf, memoryview):
            try:
                buf.release()
            except (AttributeError, BufferError):  # pragma: no cover
                pass
        if closer is not None:
            try:
                closer()
            except (BufferError, OSError, ValueError):  # pragma: no cover
                pass


def _attach_backing(name: str, plane: Optional[str]) -> _Backing:
    """Attach an existing segment by name; raises ``FileNotFoundError``.

    With ``plane=None`` the shm namespace is probed first, then the file
    plane's temp-path mapping — which is also how ``pincer obs top``
    finds a segment given only its name.
    """
    if plane in (None, "shm") and _shared_memory is not None:
        try:
            segment = _attach_shm(name)
            return _Backing(memoryview(segment.buf), segment.close)
        except (FileNotFoundError, OSError, ValueError):
            if plane == "shm":
                raise FileNotFoundError(
                    "no shm telemetry segment named %r" % name
                )
    path = _file_path_for(name)
    handle = open(path, "r+b")
    try:
        mapped = _mmap_module.mmap(handle.fileno(), 0)
    finally:
        handle.close()
    return _Backing(memoryview(mapped), mapped.close)


# ----------------------------------------------------------------------
# the segment (creator side)
# ----------------------------------------------------------------------


class TelemetrySegment:
    """Creator-owned telemetry segment: header + ``num_slots`` slots.

    Parameters
    ----------
    num_workers:
        Worker slots to allocate (the coordinator slot rides on top).
    name:
        Optional stable name so external tools can attach (``pincer obs
        top NAME``).  Default: a kernel- or tempfile-generated name,
        discoverable through :attr:`name`.
    plane:
        ``"shm"`` | ``"file"`` | None (auto: shm when available).
    """

    def __init__(
        self,
        num_workers: int,
        name: Optional[str] = None,
        plane: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_slots = num_workers + 1
        size = HEADER_SIZE + self.num_slots * SLOT_SIZE
        if plane is None:
            plane = "shm" if _shared_memory is not None else "file"
        self.plane = plane
        self._segment = None
        self._mapped = None
        self._path: Optional[str] = None
        if plane == "shm":
            if _shared_memory is None:
                raise RuntimeError("shared_memory unavailable on this build")
            self._segment = self._create_shm(name, size)
            self.name = self._segment.name.lstrip("/")
            self._buf = memoryview(self._segment.buf)
        elif plane == "file":
            if name is None:
                handle, path = tempfile.mkstemp(
                    prefix="pincer-tele-", suffix=".tele"
                )
            else:
                path = _file_path_for(name)
                handle = os.open(path, os.O_CREAT | os.O_RDWR, 0o600)
            os.ftruncate(handle, size)
            self._mapped = _mmap_module.mmap(handle, size)
            os.close(handle)
            self._path = path
            self.name = path if name is None else name
            self._buf = memoryview(self._mapped)
        else:
            raise ValueError("unknown telemetry plane %r" % plane)
        self._buf[:size] = b"\x00" * size
        _HEADER.pack_into(
            self._buf, 0, MAGIC, FORMAT_VERSION, self.num_slots, SLOT_SIZE
        )

    @staticmethod
    def _create_shm(name: Optional[str], size: int):
        if name is None:
            return _shared_memory.SharedMemory(create=True, size=size)
        try:
            return _shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            # a previous run died without unlinking; reclaim the name
            stale = _shared_memory.SharedMemory(name=name, create=False)
            stale.close()
            stale.unlink()
            return _shared_memory.SharedMemory(name=name, create=True, size=size)

    # ------------------------------------------------------------------

    def writer(self, slot: int) -> "TelemetryWriter":
        """The (single) writer handle for ``slot`` over the own mapping."""
        return TelemetryWriter(self._buf, slot)

    def reader(self) -> "TelemetryReader":
        """A reader over the own mapping (no re-attach)."""
        return TelemetryReader(self._buf, self.num_slots)

    def worker_spec(self, worker_id: int) -> Dict[str, Any]:
        """The attach recipe a worker needs: tiny, pickles anywhere."""
        return {
            "name": self._path if self.plane == "file" else self.name,
            "plane": self.plane,
            "slot": worker_id + 1,
        }

    def close(self) -> None:
        """Release the mapping and unlink the backing object (idempotent)."""
        buf, self._buf = self._buf, None
        if buf is not None:
            try:
                buf.release()
            except (AttributeError, BufferError):  # pragma: no cover
                pass
        if self._segment is not None:
            segment, self._segment = self._segment, None
            for method in ("close", "unlink"):
                try:
                    getattr(segment, method)()
                except (BufferError, FileNotFoundError, OSError):
                    pass
        if self._mapped is not None:
            mapped, self._mapped = self._mapped, None
            try:
                mapped.close()
            except (BufferError, OSError):  # pragma: no cover
                pass
        if self._path is not None:
            path, self._path = self._path, None
            try:
                os.unlink(path)
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def __enter__(self) -> "TelemetrySegment":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# writer (one per slot, one process each)
# ----------------------------------------------------------------------


class TelemetryWriter:
    """Seqlock publisher for one slot.

    The writer keeps the slot's current field values locally; each
    :meth:`beat` republishes the full payload under an odd/even sequence
    bracket.  :meth:`advance` accumulates counter deltas *without*
    publishing, and :meth:`maybe_beat` publishes at most once per
    ``min_interval`` — together they make a per-work-chunk callback
    cheap enough to pass as an engine ``deadline_check``.
    """

    def __init__(self, buf, slot: int, backing: Optional[_Backing] = None) -> None:
        self._buf = buf
        self._offset = _slot_offset(slot)
        self._backing = backing
        self.slot = slot
        self._seq = 0
        self._values: Dict[str, Any] = {name: 0 for name in _PAYLOAD_FIELDS}
        self._values["pid"] = os.getpid()
        self._last_publish = 0.0
        self.min_interval = 0.05

    @classmethod
    def attach(cls, spec: Optional[Dict[str, Any]]) -> Optional["TelemetryWriter"]:
        """Worker-side attach from a :meth:`TelemetrySegment.worker_spec`.

        Returns None on any failure — a worker must count correctly with
        or without a telemetry plane.
        """
        if not spec:
            return None
        try:
            backing = _attach_backing(spec["name"], spec.get("plane"))
            return cls(backing.buf, spec["slot"], backing=backing)
        except Exception:
            logger.debug(
                "telemetry attach failed for %r", spec, exc_info=True
            )
            return None

    # ------------------------------------------------------------------

    def advance(self, **deltas: int) -> None:
        """Accumulate counter deltas locally (published at the next beat)."""
        values = self._values
        for name, delta in deltas.items():
            values[name] = values.get(name, 0) + delta

    def note(self, **fields: Any) -> None:
        """Set absolute field values locally (published at the next beat)."""
        self._values.update(fields)

    def beat(self, state: Optional[int] = None, **fields: Any) -> None:
        """Publish a heartbeat: absolute ``fields``, then the seqlock write."""
        values = self._values
        if state is not None:
            values["state"] = state
        for name, value in fields.items():
            values[name] = value
        values["heartbeats"] += 1
        now = time.monotonic()
        values["mono_ts"] = now
        values["wall_ts"] = time.time()
        values["rss_kb"] = rusage_snapshot().get("maxrss_kb", 0)
        try:
            buf, offset = self._buf, self._offset
            self._seq += 1  # odd: write in progress
            _SEQ.pack_into(buf, offset, self._seq)
            _PAYLOAD.pack_into(
                buf,
                offset + _SEQ.size,
                int(values["pid"]),
                int(values["state"]),
                int(values["pass_no"]),
                int(values["candidates_done"]),
                int(values["candidates_total"]),
                int(values["cursor"]),
                int(values["rss_kb"]),
                int(values["heartbeats"]),
                float(values["mono_ts"]),
                float(values["wall_ts"]),
                int(values["bound"]),
                int(values["reserved"]),
            )
            self._seq += 1  # even: consistent
            _SEQ.pack_into(buf, offset, self._seq)
            self._last_publish = now
        except (TypeError, ValueError, struct.error):
            # a detached buffer or a wildly out-of-range value must never
            # take the worker down with it
            logger.debug("telemetry beat failed", exc_info=True)

    def maybe_beat(self) -> None:
        """Throttled :meth:`beat` — safe as a per-chunk deadline callback."""
        if time.monotonic() - self._last_publish >= self.min_interval:
            self.beat()

    def close(self) -> None:
        self._buf = None
        if self._backing is not None:
            backing, self._backing = self._backing, None
            backing.close()


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------


class TelemetryReader:
    """Snapshot reads of any slot, tolerant of concurrent writers."""

    #: seqlock retries before giving a torn slot up for this poll
    MAX_RETRIES = 4

    def __init__(self, buf, num_slots: int, backing: Optional[_Backing] = None) -> None:
        self._buf = buf
        self._backing = backing
        self.num_slots = num_slots

    @classmethod
    def attach(cls, name: str, plane: Optional[str] = None) -> "TelemetryReader":
        """Attach by segment name (shm namespace, else temp-file path)."""
        backing = _attach_backing(name, plane)
        magic, version, num_slots, slot_size = _HEADER.unpack_from(backing.buf, 0)
        if magic != MAGIC:
            backing.close()
            raise ValueError("%r is not a telemetry segment" % name)
        if version != FORMAT_VERSION or slot_size != SLOT_SIZE:
            backing.close()
            raise ValueError(
                "telemetry segment %r has format v%d/slot %dB; "
                "this reader expects v%d/%dB"
                % (name, version, slot_size, FORMAT_VERSION, SLOT_SIZE)
            )
        return cls(backing.buf, num_slots, backing=backing)

    # ------------------------------------------------------------------

    def read(self, slot: int) -> Optional[HeartbeatRecord]:
        """One consistent snapshot, or None (never written / torn read)."""
        if not 0 <= slot < self.num_slots:
            raise IndexError("slot %d out of range" % slot)
        buf = self._buf
        offset = _slot_offset(slot)
        for _ in range(self.MAX_RETRIES):
            (seq_before,) = _SEQ.unpack_from(buf, offset)
            if seq_before == 0:
                return None  # never published
            if seq_before % 2:
                continue  # writer mid-publish: retry
            values = _PAYLOAD.unpack_from(buf, offset + _SEQ.size)
            (seq_after,) = _SEQ.unpack_from(buf, offset)
            if seq_after == seq_before:
                return HeartbeatRecord(slot, seq_before, values)
        return None

    def coordinator(self) -> Optional[HeartbeatRecord]:
        return self.read(COORDINATOR_SLOT)

    def workers(self) -> List[Optional[HeartbeatRecord]]:
        """Records for slots ``1..N`` (None where unwritten/torn)."""
        return [self.read(slot) for slot in range(1, self.num_slots)]

    def close(self) -> None:
        self._buf = None
        if self._backing is not None:
            backing, self._backing = self._backing, None
            backing.close()


# ----------------------------------------------------------------------
# configuration + coordinator-side aggregation
# ----------------------------------------------------------------------


class TelemetryConfig:
    """How an engine should run its telemetry plane.

    Parameters
    ----------
    name:
        Stable segment name for external attachment; None lets the plane
        pick one (logged, and visible on ``engine._telemetry``).
    plane:
        ``"shm"`` | ``"file"`` | None (auto).
    stall_factor / min_stall_seconds:
        A pending worker is stalled once its heartbeat age exceeds
        ``max(min_stall_seconds, stall_factor x EWMA inter-beat
        interval)``.
    stall_after:
        Hard age threshold in seconds, overriding the adaptive one.
    poll_interval:
        Collector aggregation cadence (seconds).
    """

    enabled = True

    def __init__(
        self,
        name: Optional[str] = None,
        plane: Optional[str] = None,
        stall_factor: float = 8.0,
        min_stall_seconds: float = 2.0,
        stall_after: Optional[float] = None,
        poll_interval: float = 0.25,
    ) -> None:
        if stall_factor <= 0:
            raise ValueError("stall_factor must be positive")
        if min_stall_seconds <= 0:
            raise ValueError("min_stall_seconds must be positive")
        self.name = name
        self.plane = plane
        self.stall_factor = stall_factor
        self.min_stall_seconds = min_stall_seconds
        self.stall_after = stall_after
        self.poll_interval = poll_interval

    @classmethod
    def from_option(cls, value) -> Optional["TelemetryConfig"]:
        """Normalise a CLI/capture() option into a config (or None)."""
        if value is None or value is False:
            return None
        if isinstance(value, cls):
            return value
        if value is True or value == "auto":
            return cls()
        return cls(name=str(value))


class TelemetryCollector:
    """Coordinator-side poller: per-shard rates -> metrics + trace.

    Each :meth:`poll` (throttled to the config's ``poll_interval``)
    snapshots every worker slot, differentiates the cumulative candidate
    counter against the previous snapshot into a candidates rate, updates
    the ``telemetry.*`` gauges, and mirrors one schema-v3 ``telemetry``
    event into the trace.
    """

    def __init__(
        self,
        reader: TelemetryReader,
        obs=None,
        interval: float = 0.25,
    ) -> None:
        self._reader = reader
        self._obs = obs
        self._interval = interval
        self._last_poll = 0.0
        self._prev: Dict[int, tuple] = {}
        #: aggregate of the most recent poll (tests + top console reuse)
        self.last_summary: Optional[Dict[str, Any]] = None

    def poll(self, now: Optional[float] = None, force: bool = False):
        """Aggregate one snapshot; returns the summary dict (or None)."""
        if now is None:
            now = time.monotonic()
        if not force and now - self._last_poll < self._interval:
            return None
        self._last_poll = now
        records = self._reader.workers()
        active = 0
        candidates_rate = 0.0
        candidates_done = 0
        rss_max = 0
        beats = 0
        for record in records:
            if record is None:
                continue
            beats += record.heartbeats
            candidates_done += record.candidates_done
            rss_max = max(rss_max, record.rss_kb)
            if record.state == STATE_COUNTING:
                active += 1
            previous = self._prev.get(record.slot)
            if previous is not None:
                prev_ts, prev_candidates = previous
                dt = record.mono_ts - prev_ts
                if dt > 0:
                    candidates_rate += (
                        record.candidates_done - prev_candidates
                    ) / dt
            self._prev[record.slot] = (record.mono_ts, record.candidates_done)
        coordinator = self._reader.coordinator()
        summary = {
            "workers": sum(1 for record in records if record is not None),
            "workers_active": active,
            "candidates_per_s": round(candidates_rate, 3),
            "candidates_done": candidates_done,
            "rss_kb_max": rss_max,
            "heartbeats": beats,
            "pass_no": coordinator.pass_no if coordinator else 0,
            "bound": coordinator.bound if coordinator else 0,
        }
        self.last_summary = summary
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.gauge("telemetry.workers_active").set(active)
            obs.gauge("telemetry.candidates_per_s").set(
                summary["candidates_per_s"]
            )
            obs.gauge("telemetry.rss_kb_max").set(rss_max)
            obs.gauge("telemetry.heartbeats").set(beats)
            obs.tracer.emit_event("telemetry", **summary)
        return summary


# ----------------------------------------------------------------------
# the engine-owned bundle
# ----------------------------------------------------------------------


class EngineTelemetry:
    """Everything an engine needs: segment, coordinator slot, collector,
    watchdog — built just before the workers spawn so each worker's spec
    can carry its slot assignment.
    """

    def __init__(self, num_workers: int, config: TelemetryConfig, obs=None) -> None:
        self.config = config
        self.segment = TelemetrySegment(
            num_workers, name=config.name, plane=config.plane
        )
        self.name = self.segment.name
        self.plane = self.segment.plane
        self.num_workers = num_workers
        self.coordinator = self.segment.writer(COORDINATOR_SLOT)
        self.reader = self.segment.reader()
        self.collector = TelemetryCollector(
            self.reader, obs=obs, interval=config.poll_interval
        )
        from .watchdog import StallWatchdog

        self.watchdog = StallWatchdog(self.reader, config=config, obs=obs)
        self.coordinator.beat(state=STATE_IDLE)
        logger.info(
            "telemetry plane up: segment %r (%s), %d worker slots "
            "(attach with: pincer obs top %s)",
            self.name, self.plane, num_workers, self.name,
        )

    def worker_spec(self, worker_id: int) -> Dict[str, Any]:
        return self.segment.worker_spec(worker_id)

    # -- coordinator beats --------------------------------------------

    def begin_pass(self, pass_no: int, num_candidates: int) -> None:
        self.coordinator.beat(
            state=STATE_COUNTING,
            pass_no=pass_no,
            candidates_total=num_candidates,
        )

    def end_pass(self, num_candidates: int) -> None:
        self.coordinator.advance(candidates_done=num_candidates)
        self.coordinator.beat(state=STATE_IDLE)
        self.collector.poll(force=True)

    def note_bound(self, bound: int) -> None:
        """Publish the candidate upper bound for the *next* pass (ETA)."""
        self.coordinator.beat(bound=max(0, int(bound)))

    # -- mid-pass servicing -------------------------------------------

    def poll(self) -> None:
        self.collector.poll()

    def check_stalls(self, pending, alive=None):
        """Watchdog sweep over worker ids still owing a reply."""
        return self.watchdog.check(pending, alive=alive)

    def note_worker_dead(self, worker_id: int):
        """Flag a death the engine discovered before the watchdog did."""
        return self.watchdog.flag_dead(worker_id)

    def close(self) -> None:
        self.coordinator.close()
        self.reader.close()
        self.segment.close()
