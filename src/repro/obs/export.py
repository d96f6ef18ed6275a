"""Exporters: JSONL traces -> Chrome/Perfetto, metrics -> Prometheus.

The native formats of :mod:`repro.obs` are deliberately minimal (JSONL
spans, one metrics JSON object).  This module converts them into the two
industry-standard formats tooling already exists for:

* **Chrome trace-event JSON** (``--format perfetto``) — loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev.  Each span becomes a
  complete (``"ph": "X"``) event with microsecond timestamps; span attrs
  ride in ``args``.  ``progress`` events become counter (``"ph": "C"``)
  tracks for ``|C_k|`` / ``|MFCS|`` / ``|MFS|``, so the pincer movement
  is visible as two converging curves right above the span rows.
* **Prometheus text exposition** (``--format prometheus``) — counters map
  to ``repro_<name>_total``, gauges to ``repro_<name>``, histograms to
  the summary-style ``_count``/``_sum`` pair plus ``_min``/``_max``/
  ``_stddev``/``_p50``/``_p95``/``_p99`` gauges (the registry keeps
  summaries and a sampling reservoir, not buckets).

From the command line::

    pincer obs export run.jsonl --format perfetto --out run.perfetto.json
    pincer obs export metrics.json --format prometheus
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "load_trace_events",
    "metrics_to_prometheus",
    "trace_to_perfetto",
]

#: progress-event fields rendered as Perfetto counter tracks
_PROGRESS_COUNTERS = ("candidates", "mfcs_size", "mfs_size")


def load_trace_events(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace file into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def trace_to_perfetto(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert trace events into a Chrome trace-event JSON document.

    Timestamps are microseconds relative to the earliest event, keeping
    the numbers small and the viewer's time origin at the run start.
    """
    events = list(events)
    pid = 1
    producer = "repro"
    for event in events:
        if event.get("type") == "meta":
            pid = event.get("pid", 1)
            producer = event.get("producer", "repro")
            break
    starts = [
        event["ts"]
        for event in events
        if event.get("type") in ("span", "progress", "truncated")
        and isinstance(event.get("ts"), (int, float))
    ]
    origin = min(starts) if starts else 0.0

    def micros(ts: float) -> float:
        return round((ts - origin) * 1e6, 3)

    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": {"name": producer},
        }
    ]
    for event in events:
        kind = event.get("type")
        if kind == "span":
            trace_events.append(
                {
                    "name": event["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": micros(event["ts"]),
                    "dur": round(event.get("dur", 0.0) * 1e6, 3),
                    "pid": pid,
                    "tid": 1,
                    "args": dict(event.get("attrs", {})),
                }
            )
        elif kind == "progress":
            for field in _PROGRESS_COUNTERS:
                value = event.get(field)
                if isinstance(value, (int, float)):
                    trace_events.append(
                        {
                            "name": field,
                            "cat": "repro",
                            "ph": "C",
                            "ts": micros(event["ts"]),
                            "pid": pid,
                            "tid": 1,
                            "args": {field: value},
                        }
                    )
        elif kind == "truncated":
            trace_events.append(
                {
                    "name": "trace truncated (%d dropped)"
                    % event.get("dropped", 0),
                    "cat": "repro",
                    "ph": "i",
                    "s": "g",
                    "ts": micros(event.get("ts", origin)),
                    "pid": pid,
                    "tid": 1,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():  # metric names cannot lead digit
        sanitized = "_" + sanitized
    return prefix + sanitized


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def metrics_to_prometheus(
    document: Dict[str, Any], prefix: str = "repro_"
) -> str:
    """Render a metrics document in Prometheus text exposition format."""
    lines: List[str] = []
    for name, value in sorted(document.get("counters", {}).items()):
        metric = _prom_name(name, prefix) + "_total"
        lines.append("# TYPE %s counter" % metric)
        lines.append("%s %s" % (metric, _format_value(value)))
    for name, value in sorted(document.get("gauges", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %s" % (metric, _format_value(value)))
    for name, cells in sorted(document.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append("# TYPE %s summary" % metric)
        lines.append("%s_count %s" % (metric, _format_value(cells["count"])))
        lines.append("%s_sum %s" % (metric, _format_value(cells["total"])))
        for key in ("min", "max", "stddev", "p50", "p95", "p99"):
            if key in cells:
                lines.append(
                    "# TYPE %s_%s gauge" % (metric, key)
                )
                lines.append(
                    "%s_%s %s" % (metric, key, _format_value(cells[key]))
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """``pincer obs export`` — convert traces and metrics."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="pincer obs export",
        description="export repro.obs output to standard formats",
    )
    parser.add_argument(
        "input",
        help="a JSONL trace (perfetto) or metrics JSON document (prometheus)",
    )
    parser.add_argument(
        "--format", required=True, choices=("perfetto", "prometheus"),
        help="perfetto: Chrome trace-event JSON; prometheus: text exposition",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="output file (default: stdout)",
    )
    parser.add_argument(
        "--prefix", default="repro_",
        help="metric name prefix for --format prometheus",
    )
    args = parser.parse_args(argv)
    try:
        if args.format == "perfetto":
            document = trace_to_perfetto(load_trace_events(args.input))
            rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                rendered = metrics_to_prometheus(
                    json.load(handle), prefix=args.prefix
                )
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write("export failed: %s\n" % exc)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        sys.stderr.write("wrote %s\n" % args.out)
    else:
        sys.stdout.write(rendered)
    return 0
