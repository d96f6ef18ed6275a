"""``pincer obs top`` — live operator console over a telemetry segment.

Attach to a running mine by the segment name the engine logged (or the
one pinned with ``pincer mine --telemetry NAME``) and watch, refreshed
in place with ANSI escapes:

* one row per shard worker: state, per-shard candidate throughput bar,
  cumulative candidates, RSS, heartbeat age;
* the coordinator line: current pass, batch size, aggregate rate;
* the candidate-bound ETA — the Geerts–Goethals–Van den Bussche bound
  published by the miner divided by the observed aggregate rate is a
  provable upper bound on the next pass's counting time.

The console is read-only and lock-free (seqlock snapshots); attaching,
detaching, or killing it cannot perturb the mine.  ``--frames N`` caps
the refresh count (``--frames 1`` prints one plain frame and exits —
scripts and tests use this), ``--no-ansi`` disables cursor control for
dumb terminals and log capture.

``--serve SOCKET`` additionally (or instead) polls a running ``pincer
serve`` daemon's ``stats`` op each frame and renders the query plane:
windowed qps and p50/p95/p99 latency, rejection and cache-hit rates,
in-flight cost against the admission budget, and the daemon vitals the
``stats`` op carries.  With both a segment name and ``--serve``, the
serve panel renders above the worker rows.

Run as a module::

    python -m repro.obs.top pincer-live --interval 0.5
    python -m repro.obs.top --serve /tmp/pincer.sock --frames 1 --no-ansi
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

from .telemetry import STATE_COUNTING, HeartbeatRecord, TelemetryReader

__all__ = ["TopConsole", "format_frame", "format_serve_frame", "main"]

_BAR_WIDTH = 16
_ANSI_HOME = "\x1b[H"
_ANSI_CLEAR = "\x1b[2J"
_ANSI_ERASE_LINE = "\x1b[K"


def _human_rate(rate: float) -> str:
    if rate >= 1e6:
        return "%.1fM/s" % (rate / 1e6)
    if rate >= 1e3:
        return "%.1fk/s" % (rate / 1e3)
    return "%.0f/s" % rate


def _human_kb(kb: int) -> str:
    if kb >= 1 << 20:
        return "%.1fGB" % (kb / float(1 << 20))
    if kb >= 1 << 10:
        return "%.1fMB" % (kb / float(1 << 10))
    return "%dkB" % kb


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


class TopConsole:
    """Stateful frame renderer: keeps per-slot samples to derive rates."""

    def __init__(self, reader: TelemetryReader) -> None:
        self._reader = reader
        # slot -> (mono_ts, candidates_done)
        self._prev: Dict[int, tuple] = {}

    def sample(self, now: Optional[float] = None) -> Dict[str, Any]:
        """One snapshot of every slot plus derived per-shard rates."""
        if now is None:
            now = time.monotonic()
        coordinator = self._reader.coordinator()
        workers = self._reader.workers()
        rates: List[float] = []
        for record in workers:
            rate = 0.0
            if record is not None:
                previous = self._prev.get(record.slot)
                if previous is not None:
                    prev_ts, prev_candidates = previous
                    dt = record.mono_ts - prev_ts
                    if dt > 0:
                        rate = (record.candidates_done - prev_candidates) / dt
                self._prev[record.slot] = (
                    record.mono_ts, record.candidates_done
                )
            rates.append(rate)
        return {
            "now": now,
            "coordinator": coordinator,
            "workers": workers,
            "rates": rates,
        }

    def render(self, name: str, now: Optional[float] = None) -> str:
        return format_frame(name, self.sample(now))


def format_frame(name: str, sample: Dict[str, Any]) -> str:
    """Render one sample into the multi-line console frame."""
    now = sample["now"]
    coordinator: Optional[HeartbeatRecord] = sample["coordinator"]
    workers: List[Optional[HeartbeatRecord]] = sample["workers"]
    rates: List[float] = sample["rates"]
    lines: List[str] = []
    published = [record for record in workers if record is not None]
    lines.append(
        "pincer top — segment %s — %d/%d workers publishing"
        % (name, len(published), len(workers))
    )
    aggregate = sum(rates)
    if coordinator is not None:
        done = sum(record.candidates_done for record in published)
        total = coordinator.candidates_total or 0
        progress = ""
        if total:
            # candidates_done is cumulative across passes; clamp the
            # in-pass view to the batch size
            in_pass = min(total, max(0, done - coordinator.candidates_done))
            progress = "  batch %d/%d" % (in_pass, total)
        eta = ""
        if coordinator.bound and aggregate > 0:
            eta = "  next pass <= %.2fs (bound %d)" % (
                coordinator.bound / aggregate, coordinator.bound
            )
        lines.append(
            "pass %d  state %s%s  agg %s%s"
            % (
                coordinator.pass_no,
                coordinator.state_name,
                progress,
                _human_rate(aggregate),
                eta,
            )
        )
    else:
        lines.append("coordinator: (no heartbeat yet)")
    peak = max(rates) if any(rates) else 0.0
    for worker_id, record in enumerate(workers):
        if record is None:
            lines.append("  w%-2d (no heartbeat)" % worker_id)
            continue
        rate = rates[worker_id]
        busy = record.state == STATE_COUNTING
        bar = _bar(rate / peak if peak > 0 else (1.0 if busy else 0.0))
        lines.append(
            "  w%-2d %-8s |%s| %9s  cand %-9d rss %-8s age %5.1fs"
            % (
                worker_id,
                record.state_name,
                bar,
                _human_rate(rate),
                record.candidates_done,
                _human_kb(record.rss_kb),
                record.age(now),
            )
        )
    return "\n".join(lines)


def _human_ms(seconds: Any) -> str:
    if not isinstance(seconds, (int, float)):
        return "-"
    if seconds >= 1.0:
        return "%.2fs" % seconds
    return "%.1fms" % (seconds * 1000.0)


def format_serve_frame(socket_path: str, stats: Dict[str, Any]) -> str:
    """Render one ``stats`` reply from a serve daemon as a panel."""
    if not stats.get("ok"):
        return "pincer serve — %s — no stats (%s)" % (
            socket_path, stats.get("error", "unreachable")
        )
    vitals = stats.get("vitals", {})
    slo = stats.get("slo") or {}
    latency = slo.get("latency", {})
    lines = [
        "pincer serve — %s — pid %s — engine %s — up %.0fs"
        % (
            socket_path,
            vitals.get("pid", "?"),
            vitals.get("engine", "?"),
            vitals.get("uptime_seconds", 0.0),
        ),
        "  snapshot %s  served %s  rejected %s"
        % (
            vitals.get("snapshot", "?"),
            stats.get("served", 0),
            stats.get("rejected", 0),
        ),
    ]
    if slo:
        lines.append(
            "  window %ds: qps %.2f  p50 %s  p95 %s  p99 %s"
            % (
                int(slo.get("window_seconds", 0)),
                slo.get("qps", 0.0),
                _human_ms(latency.get("p50")),
                _human_ms(latency.get("p95")),
                _human_ms(latency.get("p99")),
            )
        )
        lines.append(
            "  reject %.1f%%  cache hit %.1f%%  errors %d"
            % (
                100.0 * slo.get("rejection_rate", 0.0),
                100.0 * slo.get("cache_hit_rate", 0.0),
                slo.get("errors", 0),
            )
        )
    budget = vitals.get("cost_budget") or 0
    inflight = vitals.get("inflight_cost", 0)
    rate = vitals.get("counting_rate")
    lines.append(
        "  inflight %s queries / %s cost |%s| budget %s  rate %s"
        % (
            vitals.get("inflight_queries", 0),
            inflight,
            _bar(inflight / budget if budget else 0.0),
            budget,
            _human_rate(rate) if isinstance(rate, (int, float)) else "(uncal)",
        )
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.top`` / ``pincer obs top`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pincer obs top",
        description="live per-shard console over a telemetry segment "
        "and/or a serve daemon",
    )
    parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help="telemetry segment name (logged by the engine, or pinned "
        "with --telemetry NAME)",
    )
    parser.add_argument(
        "--serve", default=None, metavar="SOCKET",
        help="also poll a 'pincer serve' daemon's stats op and render "
        "its query plane (qps, windowed latency, inflight cost)",
    )
    parser.add_argument(
        "--plane", choices=("shm", "file"), default=None,
        help="segment backing plane (default: probe shm, then file)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="refresh interval (default: 0.5)",
    )
    parser.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N frames (0 = until interrupted or the segment "
        "disappears; 1 = print a single frame and exit)",
    )
    parser.add_argument(
        "--no-ansi", action="store_true",
        help="plain frames, no cursor control (logs, dumb terminals)",
    )
    args = parser.parse_args(argv)
    if args.name is None and args.serve is None:
        parser.error("give a telemetry segment name and/or --serve SOCKET")
    reader = None
    console = None
    if args.name is not None:
        try:
            reader = TelemetryReader.attach(args.name, plane=args.plane)
        except (FileNotFoundError, OSError, ValueError) as exc:
            sys.stderr.write(
                "pincer obs top: cannot attach %r: %s\n" % (args.name, exc)
            )
            return 1
        console = TopConsole(reader)

    def serve_panel() -> str:
        from ..serve import request as serve_request

        try:
            stats = serve_request(args.serve, {"op": "stats"}, timeout=5.0)
        except (OSError, ValueError) as exc:
            stats = {"ok": False, "error": str(exc)}
        return format_serve_frame(args.serve, stats)

    use_ansi = not args.no_ansi and args.frames != 1 and sys.stdout.isatty()
    frame = 0
    try:
        if use_ansi:
            sys.stdout.write(_ANSI_CLEAR)
        while True:
            frame += 1
            parts: List[str] = []
            if args.serve is not None:
                parts.append(serve_panel())
            if console is not None:
                parts.append(console.render(args.name))
            rendered = "\n".join(parts)
            if use_ansi:
                rendered = _ANSI_HOME + rendered.replace(
                    "\n", _ANSI_ERASE_LINE + "\n"
                ) + _ANSI_ERASE_LINE
            sys.stdout.write(rendered + "\n")
            sys.stdout.flush()
            if args.frames and frame >= args.frames:
                break
            time.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        if reader is not None:
            reader.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
