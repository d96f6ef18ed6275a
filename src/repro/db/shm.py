"""Zero-copy shared-memory data plane: the ``shm`` engine.

Support is additive over the candidates of a batch, so a pass can be
split across worker processes that each count a share of the candidates
against the whole database.  Nothing about the pass/IO accounting
changes — one ``count`` call is still one logical pass over every
transaction, whichever process counts which candidate.  This module is
the repository's only process plane, and it never copies the database
into a worker:

* **One index, attached everywhere.**  The parent builds (or
  memory-maps, via a :mod:`repro.db.snapshot` file) the packed uint64
  bitmap matrix once, publishes it in a
  :class:`multiprocessing.shared_memory.SharedMemory` segment, and each
  worker attaches NumPy views over the same physical pages — worker
  startup is O(1) regardless of ``|D|``, and the transactions are never
  forked or pickled per worker.
* **Flat-encoded batches, preallocated results.**  Per pass, the parent
  maps candidates to matrix-row ids once and writes the flat encoding
  into a shared batch block; counts come back through a preallocated
  shared ``uint32`` result array (one row per worker, summed by the
  parent).  The only pipe traffic is a tiny per-pass control message.
* **One pass shape: candidate work-stealing.**  Workers claim chunks of
  :func:`chunk_size` candidates off a shared cursor until the batch is
  exhausted, so skew balances itself and a worker that never arrives
  simply leaves its share to the others.  (Row segmentation, Rajalakshmi
  et al. arXiv:1109.2427, lives in the budgeted partitioned plane,
  :mod:`repro.db.outofcore`, where it is what bounds memory.)

A worker that dies (broken pipe or EOF) or, with a telemetry plane,
wedges is retired; the batch is recounted on the survivors, or in the
parent when none is left, and the stall strike sends the next attach to
the serial rung.  A worker's ``("error", …)`` reply raises.

Fallback ladder, walked automatically: shared memory → ``mmap`` of a
snapshot file → serial, one in-process ``packed`` index over the
database's ``item_bitmaps()``
(:meth:`~repro.db.vertical.IndexCounter.index_over`).  Serial serves
when NumPy is absent, when only one worker is planned, when the workers
cannot be spawned, and after the first stall strike.  All rungs produce
byte-identical counts and identical pass/IO accounting.

The worker-count heuristic targets one worker per core, but never plans
so many workers that per-worker dispatch costs beat the counting itself:
a database with fewer than :data:`MIN_ROWS_PER_SHARD` transactions per
worker is not worth a process.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .._types import Itemset
from ..obs.logsetup import get_logger
from ..obs.resources import rusage_snapshot
from ..obs.telemetry import (
    STATE_COUNTING,
    STATE_IDLE,
    TelemetryConfig,
    TelemetryWriter,
)
from .base import SupportCounter
from .snapshot import load_snapshot, snapshot_database
from .vertical import HAVE_NUMPY, PackedBitmapIndex, PackedCounter

try:  # pragma: no cover - mirrors repro.db.vertical
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - very old interpreters
    _shared_memory = None

__all__ = [
    "MAX_CHUNK",
    "MAX_WORKERS_ENV",
    "MIN_ROWS_PER_SHARD",
    "ShmShardedCounter",
    "attach_segment",
    "chunk_size",
    "default_num_shards",
]

logger = get_logger("db.shm")

#: Initial shared-batch capacity (candidates / flat items); grows 2x.
INITIAL_BATCH_CAPACITY = 4096
INITIAL_ITEM_CAPACITY = 4 * INITIAL_BATCH_CAPACITY

#: Below this many transactions a worker cannot amortise its dispatch cost.
MIN_ROWS_PER_SHARD = 512

#: Largest work-stealing chunk, in candidates.
MAX_CHUNK = 4096

#: Environment override capping worker counts fleet-wide (operators can
#: pin CI boxes or shared hosts without touching call sites).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_num_shards(num_rows: int) -> int:
    """One worker per core, capped so every worker stays worth dispatching.

    The ``REPRO_MAX_WORKERS`` environment variable caps the result — it
    is the operator's deployment ceiling, not a default.
    """
    cores = os.cpu_count() or 1
    cap = cores
    env_cap = os.environ.get(MAX_WORKERS_ENV)
    if env_cap:
        try:
            cap = min(cap, max(1, int(env_cap)))
        except ValueError:
            logger.warning(
                "ignoring non-integer %s=%r", MAX_WORKERS_ENV, env_cap
            )
    shards = max(1, min(cap, num_rows // MIN_ROWS_PER_SHARD))
    logger.debug(
        "shard plan: %d shards for %d rows (cores=%d, %s=%r)",
        shards, num_rows, cores, MAX_WORKERS_ENV, env_cap,
    )
    return shards


def chunk_size(num_candidates: int, num_workers: int) -> int:
    """Candidates per work-stealing chunk: about four chunks per worker.

    ``⌈n / (4 · workers)⌉``, clamped to ``[1, MAX_CHUNK]``.  Four chunks
    per worker leave room for a fast worker to steal a slow one's share;
    the floor of one spreads even a narrow pass over every worker instead
    of handing it whole to the first claimant.
    """
    target = -(-num_candidates // (4 * num_workers))
    return max(1, min(MAX_CHUNK, target))


def attach_segment(name: str, untrack: Optional[bool] = None):
    """Attach an existing shared-memory segment without tracker ownership.

    Attaching registers the segment with the process's
    ``resource_tracker`` on Pythons before 3.13, which makes the *worker*
    unlink (and warn about) a segment the parent still owns when the
    worker exits.  The creator is the sole owner here, so attachments are
    explicitly untracked: ``track=False`` where supported, manual
    ``resource_tracker.unregister`` otherwise.

    The manual path matters only when the attaching process runs its
    *own* tracker (spawn/forkserver children); a fork child shares the
    parent's tracker, where the duplicate registration is an idempotent
    set-add and unregistering here would steal the parent's entry.
    ``untrack=None`` decides from the process's start method.
    """
    try:
        return _shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        segment = _shared_memory.SharedMemory(name=name, create=False)
        if untrack is None:
            try:
                untrack = multiprocessing.get_start_method() != "fork"
            except Exception:  # pragma: no cover
                untrack = False
        if untrack:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker API drift
                pass
        return segment


def _unlink_segments(segments: List) -> None:
    """Best-effort close+unlink of owned blocks (also the GC finalizer)."""
    while segments:
        segment = segments.pop()
        for method in ("close", "unlink"):
            try:
                getattr(segment, method)()
            except (AttributeError, BufferError, FileNotFoundError, OSError):
                pass


class _SharedBlock:
    """One parent-owned shared byte range, per the plane's rung.

    ``"shm"`` backs it with a POSIX shared-memory segment; ``"mmap"``
    with a ``MAP_SHARED`` temp file — so the mmap rung works end to end
    even when ``/dev/shm`` is unavailable or full (its reason to exist).
    ``name`` is what workers attach by: the segment name or the path.
    """

    def __init__(self, plane: str, size: int) -> None:
        self.plane = plane
        self._mapped = None
        self._segment = None
        if plane == "shm":
            self._segment = _shared_memory.SharedMemory(create=True, size=size)
            self.name = self._segment.name
        else:
            handle, path = tempfile.mkstemp(
                prefix="pincer-shm-", suffix=".blk"
            )
            os.ftruncate(handle, size)
            os.close(handle)
            self._mapped = _np.memmap(
                path, dtype=_np.uint8, mode="r+", shape=(size,)
            )
            self.name = path

    @property
    def buf(self):
        return self._segment.buf if self._segment is not None else self._mapped

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
        self._mapped = None

    def unlink(self) -> None:
        if self._segment is not None:
            self._segment.unlink()
        else:
            os.unlink(self.name)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _shm_worker(connection, spec: Dict, cursor) -> None:
    """Attach the shared index, then serve count tasks until told to stop.

    ``spec`` describes the matrix (shared segment name, or snapshot path
    plus offset for the mmap rung) and this worker's slot in the result
    array.  Candidate batches arrive through the shared batch block named
    in each task message; nothing bigger than a small control dict ever
    crosses the pipe.
    """
    import numpy as np

    started = time.perf_counter()
    matrix_segment = None
    untrack = spec.get("untrack")
    try:
        if spec["plane"] == "shm":
            matrix_segment = attach_segment(spec["matrix_name"], untrack)
            matrix = np.ndarray(
                spec["shape"], dtype=np.uint64, buffer=matrix_segment.buf
            )
        else:  # mmap rung: the snapshot file is the shared medium
            matrix = np.memmap(
                spec["snapshot_path"],
                dtype="<u8",
                mode="r",
                offset=spec["matrix_offset"],
                shape=spec["shape"],
            )
        index = PackedBitmapIndex(matrix, {}, spec["num_rows"])
    except BaseException as exc:  # pragma: no cover - defensive
        connection.send(("error", repr(exc)))
        connection.close()
        return
    telemetry = TelemetryWriter.attach(spec.get("telemetry"))
    connection.send(("ready", os.getpid(), time.perf_counter() - started))
    if telemetry is not None:
        telemetry.beat(state=STATE_IDLE)

    worker_id = spec["worker"]
    num_workers = spec["num_workers"]
    batch_segment = results_segment = None
    attached_names: Tuple[Optional[str], Optional[str]] = (None, None)
    while True:
        try:
            task = connection.recv()
        except EOFError:  # parent vanished
            break
        if task is None:
            break
        try:
            names = (task["batch_name"], task["results_name"])
            if names != attached_names:
                _close_quietly(batch_segment, results_segment)
                batch_segment, batch_buffer = _attach_block(
                    spec["plane"], names[0], untrack
                )
                results_segment, results_buffer = _attach_block(
                    spec["plane"], names[1], untrack
                )
                attached_names = names
            capacity = task["capacity_candidates"]
            lengths_all = np.ndarray(
                (capacity,), dtype=np.int64, buffer=batch_buffer
            )
            flat_all = np.ndarray(
                (task["capacity_items"],),
                dtype=np.int64,
                buffer=batch_buffer,
                offset=capacity * 8,
            )
            results = np.ndarray(
                (num_workers, capacity),
                dtype=np.uint32,
                buffer=results_buffer,
            )
            n = task["n"]
            lengths = lengths_all[:n]
            flat_rows = flat_all[: task["flat_len"]]
            offsets = np.zeros(n, dtype=np.intp)
            if n > 1:
                np.cumsum(lengths[:-1], out=offsets[1:])
            out = results[worker_id]

            wall_started = time.perf_counter()
            cpu_started = time.process_time()
            hits_before = index.prefix_hits
            misses_before = index.prefix_misses
            chunks_taken = 0
            beat_hook = None
            if telemetry is not None:
                beat_hook = telemetry.maybe_beat
                telemetry.beat(state=STATE_COUNTING, candidates_total=n)
            chunk = task["chunk"]
            while True:
                with cursor.get_lock():
                    chunk_id = cursor.value
                    cursor.value = chunk_id + 1
                lo = chunk_id * chunk
                if lo >= n:
                    break
                hi = min(lo + chunk, n)
                index.counts_into(
                    lengths, flat_rows, out, lo, hi,
                    offsets=offsets, deadline_check=beat_hook,
                )
                chunks_taken += 1
                if telemetry is not None:
                    telemetry.advance(candidates_done=hi - lo)
                    telemetry.note(cursor=chunk_id)
                    telemetry.maybe_beat()
            if telemetry is not None:
                telemetry.beat(state=STATE_IDLE)
            meta = {
                "seconds": time.perf_counter() - wall_started,
                "cpu_seconds": time.process_time() - cpu_started,
                "maxrss_kb": rusage_snapshot().get("maxrss_kb", 0),
                "chunks_taken": chunks_taken,
                "prefix_hits": index.prefix_hits - hits_before,
                "prefix_misses": index.prefix_misses - misses_before,
            }
            connection.send(("done", meta))
        except BaseException as exc:  # pragma: no cover - defensive
            connection.send(("error", repr(exc)))
    try:
        del lengths_all, flat_all, results
    except NameError:  # stopped before the first task
        pass
    del matrix, index
    if telemetry is not None:
        telemetry.close()
    _close_quietly(batch_segment, results_segment, matrix_segment)
    connection.close()


def _close_quietly(*segments) -> None:
    for segment in segments:
        if segment is not None:
            try:
                segment.close()
            except (AttributeError, BufferError, OSError):  # pragma: no cover
                pass  # np.memmap blocks have no close(); GC unmaps them


def _attach_block(plane: str, name: str, untrack):
    """Worker-side attach: -> ``(holder, buffer)`` for either rung."""
    import numpy as np

    if plane == "shm":
        segment = attach_segment(name, untrack)
        return segment, segment.buf
    mapped = np.memmap(name, dtype=np.uint8, mode="r+")
    return mapped, mapped


# ----------------------------------------------------------------------
# parent-side plane state
# ----------------------------------------------------------------------


class _ShmPlane:
    """Parent-side handle on the shared segments and worker specs."""

    def __init__(self, plane: str, num_words: int) -> None:
        self.plane = plane  # "shm" | "mmap"
        self.num_words = num_words
        self.matrix_segment = None
        self.temp_snapshot: Optional[Path] = None
        self.batch_segment = None
        self.results_segment = None
        self.capacity_candidates = 0
        self.capacity_items = 0
        self.num_workers = 0
        self.cursor = None
        self.lengths = None  # np views over the batch/results blocks
        self.flat = None
        self.results = None
        #: owned segments, shared with the GC finalizer for leak-proofing
        self.owned: List = []

    def ensure_capacity(self, num_candidates: int, num_items: int) -> None:
        """(Re)allocate the batch + result blocks; unlink outgrown ones."""
        if (
            num_candidates <= self.capacity_candidates
            and num_items <= self.capacity_items
        ):
            return
        capacity_c = max(
            INITIAL_BATCH_CAPACITY, 2 * self.capacity_candidates, num_candidates
        )
        capacity_i = max(
            INITIAL_ITEM_CAPACITY, 2 * self.capacity_items, num_items
        )
        old = [
            segment
            for segment in (self.batch_segment, self.results_segment)
            if segment is not None
        ]
        self.lengths = self.flat = self.results = None
        batch_bytes = capacity_c * 8 + capacity_i * 8
        results_bytes = self.num_workers * capacity_c * 4
        self.batch_segment = _SharedBlock(self.plane, batch_bytes)
        self.results_segment = _SharedBlock(self.plane, results_bytes)
        self.owned.extend([self.batch_segment, self.results_segment])
        self.capacity_candidates = capacity_c
        self.capacity_items = capacity_i
        self.lengths = _np.ndarray(
            (capacity_c,), dtype=_np.int64, buffer=self.batch_segment.buf
        )
        self.flat = _np.ndarray(
            (capacity_i,),
            dtype=_np.int64,
            buffer=self.batch_segment.buf,
            offset=capacity_c * 8,
        )
        self.results = _np.ndarray(
            (self.num_workers, capacity_c),
            dtype=_np.uint32,
            buffer=self.results_segment.buf,
        )
        for segment in old:
            # workers still hold the old mapping until their next task
            # message names the new segments; unlinking now only removes
            # the name
            self.owned.remove(segment)
            try:
                segment.unlink()
                segment.close()
            except (BufferError, FileNotFoundError, OSError):  # pragma: no cover
                pass
        del old

    def task_header(self) -> Dict:
        return {
            "batch_name": self.batch_segment.name,
            "results_name": self.results_segment.name,
            "capacity_candidates": self.capacity_candidates,
            "capacity_items": self.capacity_items,
        }

    def close(self) -> None:
        self.lengths = self.flat = self.results = None
        _unlink_segments(self.owned)
        self.matrix_segment = None
        self.batch_segment = None
        self.results_segment = None
        if self.temp_snapshot is not None:
            try:
                self.temp_snapshot.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            self.temp_snapshot = None


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class ShmShardedCounter(SupportCounter):
    """The ``shm`` engine: work-stealing counting over one shared index.

    Parameters
    ----------
    num_shards:
        Worker count; default is the per-database heuristic
        :func:`default_num_shards`.  One worker counts on the serial
        rung, in-process.
    """

    name = "shm"

    def __init__(self, num_shards: Optional[int] = None) -> None:
        super().__init__()
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self._num_shards = num_shards
        self._db_ref = None
        self._workers: List[multiprocessing.Process] = []
        self._connections: List[object] = []
        self.worker_pids: List[int] = []
        #: per-worker wall, CPU seconds and peak RSS (kB) of the latest
        #: pass (one entry on the serial rung)
        self.last_shard_seconds: List[float] = []
        self.last_shard_cpu_seconds: List[float] = []
        self.last_shard_maxrss_kb: List[int] = []
        #: live telemetry plane (EngineTelemetry), when obs requests one
        self._telemetry = None
        #: stalls survived so far; any strike sends the next attach to
        #: the serial rung (see :meth:`_attach`)
        self._stall_strikes = 0
        self._needs_reattach = False
        #: workers retired after a stall (cumulative)
        self.shards_reassigned = 0
        self._plane: Optional[_ShmPlane] = None
        self._parent_index: Optional[PackedBitmapIndex] = None
        #: the serial rung's whole-database index
        self._serial_index = None
        self._finalizer = None
        #: which rung of the fallback ladder is serving: "shm", "mmap"
        #: or "serial"
        self.plane = "unattached"
        #: seconds the most recent attach took (index + publish + spawn)
        self.last_attach_seconds = 0.0
        #: per-worker startup seconds reported at the latest attach
        self.worker_startup_seconds: List[float] = []
        #: work-stealing accounting (cumulative since attach)
        self.steals = 0
        self.chunks_dispatched = 0

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------

    def _attached_to(self, db) -> bool:
        return self._db_ref is not None and self._db_ref() is db

    def _attach(self, db) -> None:
        attach_started = time.perf_counter()
        self._detach()
        num_rows = len(db)
        workers = self._num_shards or default_num_shards(num_rows)
        workers = max(1, min(workers, num_rows) if num_rows else 1)
        if (
            HAVE_NUMPY
            and _shared_memory is not None
            and workers > 1
            # any stall strike sends the ladder to its serial rung
            and self._stall_strikes < 1
            and self._attach_shared(db, workers)
        ):
            self._db_ref = weakref.ref(db)
            self.last_attach_seconds = time.perf_counter() - attach_started
            if self.obs.enabled:
                self.obs.gauge("shard.attach_seconds").set(
                    self.last_attach_seconds
                )
            logger.debug(
                "shm plane up: %s, %d workers, %d words, attach %.4fs "
                "(worker startup max %.4fs)",
                self.plane, workers, self._plane.num_words,
                self.last_attach_seconds,
                max(self.worker_startup_seconds or [0.0]),
            )
            return
        self._serial_index = PackedCounter.index_over(db)
        self._db_ref = weakref.ref(db)
        self.plane = "serial"
        self.last_attach_seconds = time.perf_counter() - attach_started
        logger.debug("serial rung: one index over %d rows", num_rows)

    def _make_telemetry(self, num_workers: int):
        """Build the engine's telemetry plane when obs asks for one."""
        config = TelemetryConfig.from_option(
            getattr(self.obs, "telemetry", None)
        )
        if config is None:
            return None
        try:
            from ..obs.telemetry import EngineTelemetry

            return EngineTelemetry(num_workers, config, obs=self.obs)
        except Exception:
            logger.warning(
                "telemetry plane unavailable; mining without heartbeats",
                exc_info=True,
            )
            return None

    def _close_telemetry(self) -> None:
        if self._telemetry is not None:
            telemetry, self._telemetry = self._telemetry, None
            try:
                telemetry.close()
            except Exception:  # pragma: no cover - teardown resilience
                logger.debug("telemetry close failed", exc_info=True)

    def _attach_shared(self, db, workers: int) -> bool:
        """Publish the index and spawn attach-only workers; False to fall."""
        index = self._build_parent_index(db)
        matrix = index._matrix
        num_words = index.num_words
        plane: Optional[_ShmPlane] = None
        try:
            plane = _ShmPlane("shm", num_words)
            segment = _shared_memory.SharedMemory(
                create=True, size=int(matrix.nbytes)
            )
            plane.matrix_segment = segment
            plane.owned.append(segment)
            shared_matrix = _np.ndarray(
                matrix.shape, dtype=_np.uint64, buffer=segment.buf
            )
            shared_matrix[:] = matrix
            del shared_matrix
            matrix_spec = {"plane": "shm", "matrix_name": segment.name}
        except (OSError, ValueError):
            if plane is not None:
                plane.close()
            plane, matrix_spec = self._mmap_fallback(db, index, num_words)
            if plane is None:
                return False
        plane.num_workers = workers
        self._telemetry = self._make_telemetry(workers)
        if not self._spawn_shm_workers(plane, matrix_spec, index, workers):
            plane.close()
            self._close_telemetry()
            return False
        self._plane = plane
        self._parent_index = index
        self.plane = plane.plane
        self.steals = 0
        self.chunks_dispatched = 0
        # leak-proofing: unlink whatever is still owned when the counter
        # is garbage-collected or the interpreter exits without close()
        self._finalizer = weakref.finalize(self, _unlink_segments, plane.owned)
        return True

    def _build_parent_index(self, db) -> PackedBitmapIndex:
        """The full vertical index — memory-mapped when a snapshot exists."""
        snapshot_path = getattr(db, "snapshot_path", None)
        if snapshot_path is not None:
            return load_snapshot(snapshot_path).packed_index()
        return PackedBitmapIndex.from_database(db)

    def _mmap_fallback(self, db, index, num_words):
        """Second rung: share the matrix through a snapshot file mmap."""
        try:
            snapshot_path = getattr(db, "snapshot_path", None)
            temp_snapshot = None
            if snapshot_path is not None:
                snap = load_snapshot(snapshot_path)
                if snap.num_partitions > 1:
                    # a v2 partitioned snapshot has no single contiguous
                    # matrix for the workers to window; fall through to a
                    # temp v1 file (the partitioned engine is the plane
                    # that maps v2 files partition by partition)
                    snapshot_path = None
            if snapshot_path is None:
                handle, name = tempfile.mkstemp(
                    prefix="pincer-shm-", suffix=".snap"
                )
                os.close(handle)
                temp_snapshot = Path(name)
                snapshot_database(db, temp_snapshot)
                snapshot_path = temp_snapshot
                snap = load_snapshot(snapshot_path)
            plane = _ShmPlane("mmap", num_words)
            plane.temp_snapshot = temp_snapshot
            return plane, {
                "plane": "mmap",
                "snapshot_path": str(snapshot_path),
                "matrix_offset": snap.matrix_offset,
            }
        except (OSError, ValueError):  # pragma: no cover - disk exhaustion
            return None, None

    def _spawn_shm_workers(self, plane, matrix_spec, index, workers) -> bool:
        processes: List = []
        connections: List = []
        self.worker_startup_seconds = []
        try:
            context = multiprocessing.get_context()
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            plane.cursor = context.Value("l", 0)
            untrack = context.get_start_method() != "fork"
            for worker_id in range(workers):
                spec = dict(
                    matrix_spec,
                    shape=(int(index._matrix.shape[0]), index.num_words),
                    num_rows=index.num_rows,
                    worker=worker_id,
                    num_workers=workers,
                    untrack=untrack,
                    telemetry=(
                        self._telemetry.worker_spec(worker_id)
                        if self._telemetry is not None
                        else None
                    ),
                )
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_shm_worker,
                    args=(child_end, spec, plane.cursor),
                    daemon=True,
                )
                process.start()
                child_end.close()
                processes.append(process)
                connections.append(parent_end)
            for connection in connections:
                reply = connection.recv()
                if reply[0] != "ready":
                    raise RuntimeError(
                        "shm worker failed to start: %s" % (reply[1],)
                    )
                self.worker_startup_seconds.append(reply[2])
        except (OSError, RuntimeError, EOFError):
            for connection in connections:
                connection.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=1.0)
            return False
        self._workers = processes
        self._connections = connections
        self.worker_pids = [process.pid for process in processes]
        return True

    def _detach(self) -> None:
        """Stop the workers and release the plane (idempotent).

        ``_stall_strikes`` deliberately survives: it is the fallback
        ladder's memory, and the post-stall reattach goes through here.
        This is the *internal* teardown — re-attach cycles and stall
        recovery call it directly; the sealing ``close()`` (inherited
        from :class:`~repro.db.base.SupportCounter`) layers the
        use-after-close guard on top.
        """
        for connection in self._connections:
            try:
                connection.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.join(timeout=2.0)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():  # pragma: no cover - SIGSTOPped worker
                # SIGTERM stays pending on a stopped process; only
                # SIGKILL resumes-and-reaps it
                worker.kill()
                worker.join(timeout=1.0)
        for connection in self._connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass
        self._workers = []
        self._connections = []
        self.worker_pids = []
        self.worker_startup_seconds = []
        self.last_shard_seconds = []
        self.last_shard_cpu_seconds = []
        self.last_shard_maxrss_kb = []
        self._db_ref = None
        self._needs_reattach = False
        self._close_telemetry()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._plane is not None:
            self._plane.close()
            self._plane = None
        self._parent_index = None
        self._serial_index = None
        self.plane = "unattached"

    def __del__(self):  # pragma: no cover - interpreter teardown timing
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "ShmShardedCounter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------

    def note_candidate_bound(self, bound: Optional[int]) -> None:
        """Miner-provided bound on the next pass's candidates (live ETA)."""
        if self._telemetry is not None and bound is not None:
            self._telemetry.note_bound(bound)

    def _count(self, db, candidates: List[Itemset]) -> Dict[Itemset, int]:
        if not self._attached_to(db):
            self._attach(db)
        if self._plane is None:
            totals = self._count_serial(candidates)
        else:
            totals = self._count_shared(candidates)
        self._record_shard_metrics()
        self._finish_pass_after_stalls()
        return dict(zip(candidates, totals))

    def _count_serial(self, candidates: List[Itemset]) -> List[int]:
        """The serial rung: the whole batch on the in-process index."""
        started = time.perf_counter()
        cpu_started = time.process_time()
        totals = self._serial_index.counts(
            candidates, deadline_check=self._check_deadline
        )
        self.last_shard_seconds = [time.perf_counter() - started]
        self.last_shard_cpu_seconds = [time.process_time() - cpu_started]
        self.last_shard_maxrss_kb = [rusage_snapshot().get("maxrss_kb", 0)]
        return totals

    def _worker_alive(self, shard: int) -> bool:
        try:
            return self._workers[shard].is_alive()
        except (IndexError, ValueError):  # pragma: no cover - torn state
            return False

    def _finish_pass_after_stalls(self) -> None:
        """After a pass that survived a stall: drop the wounded pool.

        The next ``count()`` re-attaches, and the stall strike (which
        :meth:`_detach` preserves) sends that attach to the serial rung.
        """
        if self._needs_reattach:
            logger.info(
                "re-attaching on the serial rung after %d stall strike(s)",
                self._stall_strikes,
            )
            self._detach()

    def _record_shard_metrics(self) -> None:
        """Feed the latest pass's per-worker numbers into the registry."""
        obs = self.obs
        if not obs.enabled:
            return
        obs.gauge("shard.count").set(len(self.last_shard_seconds))
        worker_seconds = obs.histogram("shard.worker_seconds")
        for seconds in self.last_shard_seconds:
            worker_seconds.observe(seconds)
        if self.last_shard_seconds:
            obs.gauge("shard.last_pass_max_seconds").set(
                max(self.last_shard_seconds)
            )
            obs.counter("shard.worker_seconds_total_ms").inc(
                int(sum(self.last_shard_seconds) * 1000)
            )
        cpu_seconds = obs.histogram("shard.cpu_seconds")
        for seconds in self.last_shard_cpu_seconds:
            cpu_seconds.observe(seconds)
        if self.last_shard_maxrss_kb:
            obs.gauge("shard.max_rss_kb").set(max(self.last_shard_maxrss_kb))

    def _count_shared(self, candidates: List[Itemset]) -> List[int]:
        plane = self._plane
        n = len(candidates)
        lengths, flat_rows = self._parent_index.map_candidates(candidates)
        plane.ensure_capacity(n, len(flat_rows))
        plane.lengths[:n] = lengths
        plane.flat[: len(flat_rows)] = flat_rows
        chunk = chunk_size(n, plane.num_workers)
        task = plane.task_header()
        task.update(n=n, flat_len=len(flat_rows), chunk=chunk)
        if self._telemetry is not None:
            self._telemetry.begin_pass(self.passes, n)
        self.last_shard_seconds = [0.0] * len(self._connections)
        self.last_shard_cpu_seconds = [0.0] * len(self._connections)
        self.last_shard_maxrss_kb = [0] * len(self._connections)
        dead: set = set()
        while True:
            # stealing writes are scattered over every result row, so each
            # (re)attempt starts from zero; a retry after a dead or wedged
            # worker recounts the full batch on the survivors —
            # counts_into is a pure function of the shared matrix, so the
            # recount is byte-identical to an undisturbed pass.  The reset
            # writes the raw ctypes object: no worker is mid-claim here,
            # and a retired worker may have died holding the cursor's lock
            plane.results[:, :n] = 0
            plane.cursor.get_obj().value = 0
            sent: List[int] = []
            for shard in range(len(self._connections)):
                if shard in dead:
                    continue
                try:
                    self._connections[shard].send(task)
                    sent.append(shard)
                except (BrokenPipeError, OSError):
                    # died before this pass reached it: it claimed no
                    # chunk, so the survivors steal its share
                    self._retire_shm_worker(shard, dead)
            if not sent:
                self._parent_recount_all(task)
                metas = []
                break
            metas, retry = self._collect_replies(sent, dead)
            if not retry:
                break
        total_chunks = -(-n // chunk)
        self.chunks_dispatched += total_chunks
        fair_share = -(-total_chunks // plane.num_workers)
        steals = sum(
            max(0, meta["chunks_taken"] - fair_share) for meta in metas
        )
        self.steals += steals
        totals = plane.results[: plane.num_workers, :n].sum(
            axis=0, dtype=_np.int64
        )
        if self._telemetry is not None:
            self._telemetry.end_pass(n)
        if self.obs.enabled:
            self.obs.counter("shard.steals").inc(steals)
            hits = sum(meta["prefix_hits"] for meta in metas)
            misses = sum(meta["prefix_misses"] for meta in metas)
            self.obs.counter("prefix_cache.hits").inc(hits)
            self.obs.counter("prefix_cache.misses").inc(misses)
        return totals.tolist()

    def _collect_replies(
        self, live: List[int], dead: set
    ) -> Tuple[List[Dict], bool]:
        """Deadline- and stall-aware reply collection.

        Returns ``(metas, retry)``.  ``retry`` is True when a worker died
        (EOF on its pipe) or, with a telemetry plane, wedged mid-pass:
        its chunk claims are unrecoverable (the shared cursor already
        moved past them), so the caller must zero the results and re-run
        the task on the surviving workers.
        """
        telemetry = self._telemetry
        metas: List[Dict] = []
        pending = set(live)
        retry = False
        while pending:
            try:
                self._check_deadline()
            except Exception:
                # pending replies would poison the next pass: drop the
                # plane; the next count() re-attaches cleanly
                self._detach()
                raise
            if telemetry is not None:
                telemetry.poll()
                for event in telemetry.check_stalls(
                    pending, alive=self._worker_alive
                ):
                    if event.shard in pending:
                        pending.discard(event.shard)
                        self._retire_shm_worker(event.shard, dead)
                        retry = True
            for shard in sorted(pending):
                connection = self._connections[shard]
                try:
                    if not connection.poll(0.01):
                        continue
                    reply = connection.recv()
                except (EOFError, OSError):
                    pending.discard(shard)
                    self._retire_shm_worker(shard, dead)
                    retry = True
                    continue
                if reply[0] != "done":
                    self._detach()
                    raise RuntimeError(
                        "shm worker %d failed: %s" % (shard, reply[1])
                    )
                meta = reply[1]
                metas.append(meta)
                self.last_shard_seconds[shard] = meta["seconds"]
                self.last_shard_cpu_seconds[shard] = meta["cpu_seconds"]
                self.last_shard_maxrss_kb[shard] = meta["maxrss_kb"]
                pending.discard(shard)
        return metas, retry

    # ------------------------------------------------------------------
    # stall recovery
    # ------------------------------------------------------------------

    def _retire_shm_worker(self, shard: int, dead: set) -> None:
        """SIGKILL a dead or stalled worker and take the stall strike."""
        dead.add(shard)
        worker = self._workers[shard]
        worker.kill()
        worker.join(timeout=2.0)
        if self._telemetry is not None:
            # no-op if the watchdog already flagged this stall; covers
            # deaths the pipe announced first (send/recv races)
            self._telemetry.note_worker_dead(shard)
        self.shards_reassigned += 1
        self._stall_strikes += 1
        self._needs_reattach = True
        if self.obs.enabled:
            self.obs.counter("telemetry.shards_reassigned").inc()

    def _parent_recount_all(self, task: Dict) -> None:
        """Last resort: every worker is retired — the parent counts alone.

        The caller zeroed every result row for this attempt, and no
        worker is left to write one, so the column sum sees only row 0.
        """
        plane = self._plane
        n = task["n"]
        logger.warning(
            "all %d shm workers retired; parent counting the batch alone",
            len(self._connections),
        )
        if n:
            self._parent_index.counts_into(
                plane.lengths[:n],
                plane.flat[: task["flat_len"]],
                plane.results[0],
                0,
                n,
                deadline_check=self._check_deadline,
            )
