"""Versioned schemas for trace events, metrics documents and access logs.

Everything the observability subsystem writes to disk is JSON with an
explicit schema version (the ``"v"`` field), so traces recorded today can
be read by tomorrow's tooling — and so CI can mechanically reject a run
that emits a malformed line.  The validators here are deliberately
zero-dependency (no ``jsonschema``): each one is a plain function that
raises :class:`SchemaError` with a precise message on the first violation.

Three document families share the version number :data:`SCHEMA_VERSION`,
and the validators accept that version only:

``span`` / ``meta`` events (one JSON object per line of a ``--trace`` file)
    A *trace* is a JSONL stream.  The first line is a ``meta`` event
    naming the schema version and the process that produced the stream;
    every following line is a ``span`` event, emitted when the span
    *closes* (children therefore precede their parents in the file, as in
    most span logs).  Fields of a ``span`` event:

    ============  ======================================================
    ``v``         schema version (int, :data:`SCHEMA_VERSION`)
    ``type``      ``"span"``
    ``span``      span id, unique within the trace (int, > 0)
    ``parent``    id of the enclosing span, or None for a root span
    ``name``      span name (``run``, ``pass``, ``count``, ``mfcs_gen``,
                  ``generate``, ``recover``, ``prune``, ...)
    ``ts``        wall-clock start time (``time.time()``, float seconds)
    ``dur``       duration in float seconds (>= 0)
    ``attrs``     flat mapping of str -> scalar (str/int/float/bool/None)
    ============  ======================================================

    Two more event types may appear: ``progress`` (heartbeat lines
    from :mod:`repro.obs.progress` — ``ts``, a ``phase`` string, and
    flat scalar fields) and ``truncated`` (the single end-of-trace
    marker a size-capped tracer emits instead of growing unboundedly;
    carries the ``dropped`` event count).

``metrics`` documents (the ``--metrics-out`` file)
    A single JSON object::

        {"v": 4, "type": "metrics",
         "counters":   {name: int},
         "gauges":     {name: number},
         "histograms": {name: {"count": int, "total": number,
                               "min": number, "max": number,
                               "sumsq": number, "stddev": number}}}

    Histograms may also carry ``p50``/``p95``/``p99`` reservoir
    percentiles.

``request`` records (one JSONL line per served query)
    The access log :mod:`repro.obs.requestlog` writes for the query
    plane of ``pincer serve``.  Required fields: ``v``, ``type``
    (``"request"``), ``ts``, ``id`` (the wire request id), ``op``
    (``"mine"`` or ``"rules"``), ``ok``, ``admitted`` (bools), and
    ``seconds``.  Optional typed fields cover the admission price
    (``cost``, ``warm``, ``threshold``), queueing (``queue_wait_s``),
    work done (``passes``, ``cache_hits``, ``cache_misses``,
    ``result_size``), the ETA quoted to the client (``eta_s``, nullable
    until the rate estimator calibrates), and ``error``.  All values
    must be flat scalars — one query, one line, greppable forever.

Validate files from the command line (the CI observability smoke job)
with ``pincer obs validate``, which runs :func:`main`::

    pincer obs validate run.jsonl --metrics m.json --requests access.jsonl
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

#: Version stamped into every emitted trace, metrics and access-log
#: document.  v2 added the flight recorder: ``progress`` and
#: ``truncated`` trace-event types, profiler span attrs
#: (``cpu_s``/``mem_peak_kb``), and histogram ``sumsq`` / ``stddev``
#: fields in metrics documents.  v3 added histogram ``p50``/``p95``/
#: ``p99`` reservoir percentiles.  v4 added the query plane: ``request``
#: access-log records and the ``request_id`` span attribute serve
#: queries are grouped by.
SCHEMA_VERSION = 4

#: Versions the validators accept.  No committed artifact holds an older
#: trace, metrics or access-log document, so only the current one.
SUPPORTED_VERSIONS = (SCHEMA_VERSION,)

#: Span names the instrumented miners emit; traces may add new names
#: freely (the validator only checks the *shape*), this list is the
#: documented vocabulary for trace readers.
KNOWN_SPAN_NAMES = (
    "run",
    "pass",
    "count",
    "prune",
    "mfcs_gen",
    "generate",
    "recover",
    "sweep",
    "partition",
    "cell",
    "command",
    "stored",
)

_SCALAR_TYPES = (str, int, float, bool, type(None))


class SchemaError(ValueError):
    """A document does not conform to its declared schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _require_version(document: Dict[str, Any], what: str) -> None:
    _require(isinstance(document, dict), "%s must be a JSON object" % what)
    version = document.get("v")
    _require(
        version in SUPPORTED_VERSIONS,
        "%s has schema version %r, expected one of %s"
        % (what, version, list(SUPPORTED_VERSIONS)),
    )


def _require_scalar_attrs(attrs: Any, what: str) -> None:
    _require(isinstance(attrs, dict), "%s attrs must be an object" % what)
    for key, value in attrs.items():
        _require(isinstance(key, str), "%s attr key %r must be str" % (what, key))
        _require(
            isinstance(value, _SCALAR_TYPES),
            "%s attr %r must be a scalar, got %s" % (what, key, type(value).__name__),
        )


def validate_trace_event(event: Dict[str, Any]) -> None:
    """Validate one line of a trace stream; raises :class:`SchemaError`."""
    _require_version(event, "trace event")
    kind = event.get("type")
    if kind == "meta":
        _require(isinstance(event.get("ts"), (int, float)), "meta ts must be a number")
        _require(isinstance(event.get("pid"), int), "meta pid must be an int")
        _require(isinstance(event.get("producer"), str), "meta producer must be str")
        return
    if kind == "progress":
        _require(
            isinstance(event.get("ts"), (int, float)),
            "progress ts must be a number",
        )
        _require(
            isinstance(event.get("phase"), str) and bool(event["phase"]),
            "progress phase must be a non-empty str",
        )
        _require_scalar_attrs(
            {k: v for k, v in event.items() if k not in ("v", "type")},
            "progress",
        )
        return
    if kind == "truncated":
        _require(
            isinstance(event.get("ts"), (int, float)),
            "truncated ts must be a number",
        )
        _require(
            isinstance(event.get("dropped"), int) and event["dropped"] > 0,
            "truncated dropped must be a positive int",
        )
        return
    _require(
        kind == "span",
        "trace event type must be 'span', 'meta', 'progress' or "
        "'truncated', got %r" % kind,
    )
    _require(
        isinstance(event.get("span"), int) and event["span"] > 0,
        "span id must be a positive int",
    )
    parent = event.get("parent")
    _require(
        parent is None or (isinstance(parent, int) and parent > 0),
        "span parent must be a positive int or null",
    )
    name = event.get("name")
    _require(isinstance(name, str) and bool(name), "span name must be a non-empty str")
    _require(isinstance(event.get("ts"), (int, float)), "span ts must be a number")
    dur = event.get("dur")
    _require(isinstance(dur, (int, float)) and dur >= 0, "span dur must be >= 0")
    _require_scalar_attrs(event.get("attrs", {}), "span")


def validate_metrics_document(document: Dict[str, Any]) -> None:
    """Validate a ``--metrics-out`` JSON document."""
    _require_version(document, "metrics document")
    _require(
        document.get("type") == "metrics",
        "metrics document type must be 'metrics', got %r" % document.get("type"),
    )
    counters = document.get("counters", {})
    _require(isinstance(counters, dict), "counters must be an object")
    for name, value in counters.items():
        _require(
            isinstance(name, str) and isinstance(value, int),
            "counter %r must map str -> int" % (name,),
        )
    gauges = document.get("gauges", {})
    _require(isinstance(gauges, dict), "gauges must be an object")
    for name, value in gauges.items():
        _require(
            isinstance(name, str) and isinstance(value, (int, float)),
            "gauge %r must map str -> number" % (name,),
        )
    histograms = document.get("histograms", {})
    _require(isinstance(histograms, dict), "histograms must be an object")
    for name, cells in histograms.items():
        _require(isinstance(cells, dict), "histogram %r must be an object" % name)
        _require(
            isinstance(cells.get("count"), int) and cells["count"] >= 0,
            "histogram %r count must be an int >= 0" % name,
        )
        for key in ("total", "min", "max", "sumsq", "stddev"):
            _require(
                isinstance(cells.get(key), (int, float)),
                "histogram %r %s must be a number" % (name, key),
            )
        # percentiles (reservoir estimates) are required to be numeric
        # when present, permitted to be absent (a hand-built document
        # may carry summaries only)
        for key in ("p50", "p95", "p99"):
            if key in cells:
                _require(
                    isinstance(cells[key], (int, float)),
                    "histogram %r %s must be a number" % (name, key),
                )


#: The wire ops an access-log record may describe (control ops — ping,
#: stats, metrics, shutdown — are not queries and are not logged).
REQUEST_OPS = ("mine", "rules")

#: Optional ``request`` record fields that must be non-negative ints.
_REQUEST_INT_FIELDS = (
    "cost", "passes", "cache_hits", "cache_misses", "result_size",
    "threshold",
)

#: Optional ``request`` record fields that must be non-negative numbers.
_REQUEST_NUMBER_FIELDS = ("queue_wait_s", "min_support")


def validate_request_record(record: Dict[str, Any]) -> None:
    """Validate one access-log line (``request`` records)."""
    _require_version(record, "request record")
    _require(
        record.get("type") == "request",
        "request record type must be 'request', got %r" % record.get("type"),
    )
    _require(
        isinstance(record.get("ts"), (int, float)),
        "request ts must be a number",
    )
    _require(
        isinstance(record.get("id"), str) and bool(record["id"]),
        "request id must be a non-empty str",
    )
    _require(
        record.get("op") in REQUEST_OPS,
        "request op must be one of %s, got %r"
        % (list(REQUEST_OPS), record.get("op")),
    )
    for key in ("ok", "admitted"):
        _require(
            isinstance(record.get(key), bool),
            "request %s must be a bool" % key,
        )
    seconds = record.get("seconds")
    _require(
        isinstance(seconds, (int, float))
        and not isinstance(seconds, bool)
        and seconds >= 0,
        "request seconds must be a number >= 0",
    )
    for key in _REQUEST_INT_FIELDS:
        if key in record:
            _require(
                isinstance(record[key], int)
                and not isinstance(record[key], bool)
                and record[key] >= 0,
                "request %s must be an int >= 0" % key,
            )
    for key in _REQUEST_NUMBER_FIELDS:
        if key in record:
            _require(
                isinstance(record[key], (int, float))
                and not isinstance(record[key], bool)
                and record[key] >= 0,
                "request %s must be a number >= 0" % key,
            )
    if "eta_s" in record:
        eta = record["eta_s"]
        _require(
            eta is None
            or (
                isinstance(eta, (int, float))
                and not isinstance(eta, bool)
                and eta >= 0
            ),
            "request eta_s must be a number >= 0 or null",
        )
    if "warm" in record:
        _require(isinstance(record["warm"], bool), "request warm must be a bool")
    if "error" in record:
        _require(isinstance(record["error"], str), "request error must be str")
    _require_scalar_attrs(
        {k: v for k, v in record.items() if k not in ("v", "type")},
        "request",
    )


def validate_request_log_lines(lines: Iterable[str]) -> int:
    """Validate a JSONL access log; returns the number of records."""
    count = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError("line %d is not JSON: %s" % (number, exc)) from None
        try:
            validate_request_record(record)
        except SchemaError as exc:
            raise SchemaError("line %d: %s" % (number, exc)) from None
        count += 1
    return count


def validate_request_log_file(path: str) -> int:
    """Validate an access-log file on disk; returns the record count."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_request_log_lines(handle)


def validate_trace_lines(lines: Iterable[str]) -> int:
    """Validate a JSONL trace stream; returns the number of events.

    The first event must be the ``meta`` header.  Raises
    :class:`SchemaError` naming the offending line number.
    """
    count = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError("line %d is not JSON: %s" % (number, exc)) from None
        try:
            validate_trace_event(event)
        except SchemaError as exc:
            raise SchemaError("line %d: %s" % (number, exc)) from None
        if count == 0:
            _require(
                event.get("type") == "meta",
                "line %d: first trace event must be the meta header" % number,
            )
        count += 1
    return count


def validate_trace_file(path: str) -> int:
    """Validate a trace file on disk; returns the number of events."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_trace_lines(handle)


def validate_metrics_file(path: str) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        validate_metrics_document(json.load(handle))


def main(argv: Optional[List[str]] = None) -> int:
    """``pincer obs validate``: check trace, metrics and access-log files.

    Reports each valid file on stdout; returns 1 at the first invalid
    one, after naming the error on stderr.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="pincer obs validate",
        description="validate observability output against the v%d schema"
        % SCHEMA_VERSION,
    )
    parser.add_argument("trace", nargs="*", help="JSONL trace files")
    parser.add_argument(
        "--metrics", action="append", default=[], metavar="PATH",
        help="metrics JSON documents (repeatable)",
    )
    parser.add_argument(
        "--requests", action="append", default=[], metavar="PATH",
        help="JSONL access logs from 'pincer serve' (repeatable)",
    )
    args = parser.parse_args(argv)
    if not args.trace and not args.metrics and not args.requests:
        parser.error("give at least one trace, --metrics or --requests file")
    try:
        for path in args.trace:
            events = validate_trace_file(path)
            sys.stdout.write("%s: %d events ok\n" % (path, events))
        for path in args.metrics:
            validate_metrics_file(path)
            sys.stdout.write("%s: metrics ok\n" % path)
        for path in args.requests:
            records = validate_request_log_file(path)
            sys.stdout.write("%s: %d request records ok\n" % (path, records))
    except (SchemaError, OSError) as exc:
        sys.stderr.write("invalid: %s\n" % exc)
        return 1
    return 0
