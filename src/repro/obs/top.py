"""``pincer obs top`` — live operator console over a serve daemon.

Polls a running ``pincer serve`` daemon's ``stats`` op each frame and
renders the query plane, refreshed in place with ANSI escapes: windowed
qps and p50/p95/p99 latency, rejection and cache-hit rates, in-flight
cost against the admission budget, and the daemon vitals the ``stats``
op carries.

The console is read-only; attaching, detaching, or killing it cannot
perturb the daemon.  ``--frames N`` caps the refresh count (``--frames
1`` prints one plain frame and exits — scripts and tests use this),
``--no-ansi`` disables cursor control for dumb terminals and log
capture.

From the command line::

    pincer obs top --serve /tmp/pincer.sock --frames 1 --no-ansi
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

__all__ = ["format_serve_frame", "main"]

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


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


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
    """``pincer obs top`` entry point."""
    import argparse

    from ..serve import request as serve_request

    parser = argparse.ArgumentParser(
        prog="pincer obs top",
        description="live console over a serve daemon's query plane",
    )
    parser.add_argument(
        "--serve", required=True, metavar="SOCKET",
        help="poll a 'pincer serve' daemon's stats op and render its "
        "query plane (qps, windowed latency, inflight cost)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="refresh interval (default: 0.5)",
    )
    parser.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N frames (0 = until interrupted; 1 = print a "
        "single frame and exit)",
    )
    parser.add_argument(
        "--no-ansi", action="store_true",
        help="plain frames, no cursor control (logs, dumb terminals)",
    )
    args = parser.parse_args(argv)

    use_ansi = not args.no_ansi and args.frames != 1 and sys.stdout.isatty()
    frame = 0
    try:
        if use_ansi:
            sys.stdout.write(_ANSI_CLEAR)
        while True:
            frame += 1
            try:
                stats = serve_request(args.serve, {"op": "stats"}, timeout=5.0)
            except (OSError, ValueError) as exc:
                stats = {"ok": False, "error": str(exc)}
            rendered = format_serve_frame(args.serve, stats)
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
    return 0
