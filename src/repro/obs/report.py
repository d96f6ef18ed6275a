"""Human-readable trace reports: indented span tree + top-N slowest.

``pincer obs report run.jsonl`` renders a recorded JSONL trace as the
tree the tracer's nesting implies, one row per span with wall-clock, CPU
and peak-memory columns (the latter two filled in when the trace was
recorded with ``--profile``)::

    span                            wall(s)    cpu(s)  mem_peak(kb)
    run algorithm=pincer-search      0.1620    0.1570         812.4
      pass k=1                       0.0450    0.0440         301.2
        count                        0.0390    0.0380         280.0
      ...

followed by the top-N slowest spans ranked by *self* time (wall-clock
minus direct children), which is where "where did the time go" questions
actually end.

A trace recorded by ``pincer serve --trace`` interleaves many queries
into one file; every span of a served query carries its ``request_id``
attribute.  ``--requests`` lists the ids present (with span counts and
wall-clock per request), and ``--request ID`` filters the tree down to
one query's spans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .export import load_trace_events

__all__ = [
    "build_span_tree",
    "filter_request",
    "group_requests",
    "render_report",
    "render_requests",
]

#: span attrs worth showing inline in the tree label
_LABEL_ATTRS = ("algorithm", "k", "engine", "miner", "command", "database")


class SpanNode:
    """One span of the trace with resolved children."""

    __slots__ = ("event", "children")

    def __init__(self, event: Dict[str, Any]) -> None:
        self.event = event
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.event["name"]

    @property
    def dur(self) -> float:
        return float(self.event.get("dur", 0.0))

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.event.get("attrs", {})

    @property
    def self_time(self) -> float:
        """Wall-clock not covered by direct children."""
        return max(0.0, self.dur - sum(child.dur for child in self.children))

    def label(self) -> str:
        extras = [
            "%s=%s" % (key, self.attrs[key])
            for key in _LABEL_ATTRS
            if key in self.attrs
        ]
        return self.name + ((" " + " ".join(extras)) if extras else "")


def build_span_tree(
    events: List[Dict[str, Any]],
) -> Tuple[List[SpanNode], List[SpanNode]]:
    """Resolve parent links; returns ``(roots, all nodes)`` in start order."""
    nodes = [
        SpanNode(event) for event in events if event.get("type") == "span"
    ]
    nodes.sort(key=lambda node: node.event.get("ts", 0.0))
    by_id = {node.event["span"]: node for node in nodes}
    roots: List[SpanNode] = []
    for node in nodes:
        parent = by_id.get(node.event.get("parent"))
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots, nodes


def filter_request(
    events: List[Dict[str, Any]], request_id: str
) -> List[Dict[str, Any]]:
    """Only the span events carrying ``request_id`` (plus non-span lines)."""
    return [
        event
        for event in events
        if event.get("type") != "span"
        or event.get("attrs", {}).get("request_id") == request_id
    ]


def group_requests(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-request summary of a serve trace, keyed by request id.

    Each entry reports the span count, the set of root span names (the
    ops the request ran), and the summed wall-clock of its root spans.
    """
    roots, nodes = build_span_tree(events)
    summaries: Dict[str, Dict[str, Any]] = {}
    for node in nodes:
        request_id = node.attrs.get("request_id")
        if not isinstance(request_id, str):
            continue
        summary = summaries.setdefault(
            request_id, {"spans": 0, "roots": [], "wall_s": 0.0, "ts": None}
        )
        summary["spans"] += 1
        if summary["ts"] is None or node.event.get("ts", 0.0) < summary["ts"]:
            summary["ts"] = node.event.get("ts", 0.0)
    for root in roots:
        request_id = root.attrs.get("request_id")
        if not isinstance(request_id, str) or request_id not in summaries:
            continue
        summaries[request_id]["roots"].append(root.name)
        summaries[request_id]["wall_s"] += root.dur
    return summaries


def render_requests(events: List[Dict[str, Any]]) -> str:
    """One row per request id found in the trace."""
    summaries = group_requests(events)
    if not summaries:
        return "no request-scoped spans in this trace"
    lines = ["%-28s %6s %10s  %s" % ("request", "spans", "wall(s)", "roots")]
    lines.append("-" * len(lines[0]))
    for request_id, summary in sorted(
        summaries.items(), key=lambda item: item[1]["ts"] or 0.0
    ):
        lines.append(
            "%-28s %6d %10.4f  %s"
            % (
                request_id,
                summary["spans"],
                summary["wall_s"],
                ",".join(summary["roots"]) or "-",
            )
        )
    return "\n".join(lines)


def _walk(node: SpanNode, depth: int, rows: List[Tuple[int, SpanNode]]) -> None:
    rows.append((depth, node))
    for child in node.children:
        _walk(child, depth + 1, rows)


def render_report(
    events: List[Dict[str, Any]], top: int = 10, max_rows: int = 200
) -> str:
    """Render the tree + top-N slowest-span sections as one string."""
    roots, nodes = build_span_tree(events)
    rows: List[Tuple[int, SpanNode]] = []
    for root in roots:
        _walk(root, 0, rows)

    lines: List[str] = []
    header = "%-44s %10s %10s %14s" % ("span", "wall(s)", "cpu(s)", "mem_peak(kb)")
    lines.append(header)
    lines.append("-" * len(header))
    shown = rows[:max_rows]
    for depth, node in shown:
        cpu = node.attrs.get("cpu_s")
        mem = node.attrs.get("mem_peak_kb")
        lines.append(
            "%-44s %10.4f %10s %14s"
            % (
                ("  " * depth + node.label())[:44],
                node.dur,
                ("%.4f" % cpu) if isinstance(cpu, (int, float)) else "-",
                ("%.1f" % mem) if isinstance(mem, (int, float)) else "-",
            )
        )
    if len(rows) > len(shown):
        lines.append("... %d more spans (raise --max-rows)" % (len(rows) - len(shown)))

    if nodes and top > 0:
        lines.append("")
        lines.append("top %d spans by self time:" % min(top, len(nodes)))
        ranked = sorted(nodes, key=lambda node: -node.self_time)[:top]
        for node in ranked:
            lines.append(
                "  %-30s self %8.4fs  total %8.4fs"
                % (node.label()[:30], node.self_time, node.dur)
            )

    truncated = [e for e in events if e.get("type") == "truncated"]
    if truncated:
        lines.append("")
        lines.append(
            "warning: trace truncated, %d events dropped"
            % sum(e.get("dropped", 0) for e in truncated)
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="pincer obs report",
        description="pretty-print a JSONL trace as an indented span tree",
    )
    parser.add_argument("trace", help="JSONL trace file (--trace output)")
    parser.add_argument(
        "--top", type=int, default=10,
        help="how many slowest spans to rank (0 disables)",
    )
    parser.add_argument(
        "--max-rows", type=int, default=200,
        help="tree row cap for very large traces",
    )
    parser.add_argument(
        "--request", default=None, metavar="ID",
        help="only render spans of one serve request id",
    )
    parser.add_argument(
        "--requests", action="store_true",
        help="list the request ids present in the trace and exit",
    )
    args = parser.parse_args(argv)
    try:
        events = load_trace_events(args.trace)
    except (OSError, ValueError) as exc:
        sys.stderr.write("cannot read trace: %s\n" % exc)
        return 1
    if args.requests:
        sys.stdout.write(render_requests(events) + "\n")
        return 0
    if args.request is not None:
        events = filter_request(events, args.request)
    sys.stdout.write(
        render_report(events, top=args.top, max_rows=args.max_rows) + "\n"
    )
    return 0
