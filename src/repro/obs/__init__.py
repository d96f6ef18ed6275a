"""``repro.obs`` — tracing, metrics, and structured run-logging.

Zero-dependency observability for the miners and counting engines:

* :mod:`repro.obs.tracing` — nestable wall-clock spans emitted as JSONL
  (``run > pass > {count, prune, mfcs_gen, generate, recover}``);
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry the
  engines and miners write into;
* :mod:`repro.obs.logsetup` — the stdlib ``repro`` logger hierarchy and
  the ``--log-level`` configuration hook;
* :mod:`repro.obs.schema` — the versioned event schema plus validators
  (also a CLI: ``pincer obs validate run.jsonl``);
* :mod:`repro.obs.instrument` — the :class:`Instrumentation` bundle and
  the shared disabled :data:`NOOP` instance;
* :mod:`repro.obs.resources` — per-span CPU/memory attribution
  (``--profile``) and the folded-stack sampling profiler;
* :mod:`repro.obs.progress` — the per-pass heartbeat reporter
  (``--progress``) with the candidate-upper-bound ETA;
* :mod:`repro.obs.export` — Chrome/Perfetto trace and Prometheus text
  exporters (``pincer obs export``);
* :mod:`repro.obs.report` — the indented span-tree trace report
  (``pincer obs report``);
* :mod:`repro.obs.top` — the ``pincer obs top`` live operator console
  over a serve daemon (``--serve SOCKET``);
* :mod:`repro.obs.requestlog` — the query plane's JSONL access log
  (schema v4 ``request`` records) and the bounded slow-query snapshot
  ring ``pincer serve --access-log`` writes;
* :mod:`repro.obs.slo` — the rolling-window SLO ring (windowed
  p50/p95/p99 latency, QPS, rejection/cache-hit rates) behind the
  serve ``metrics`` wire op.

Everything is off by default and near-zero-cost when disabled; see
DESIGN.md's "Observability" section for the span hierarchy and the event
schema, and README.md for a worked ``--trace`` session.
"""

from .export import load_trace_events, metrics_to_prometheus, trace_to_perfetto
from .instrument import Instrumentation, NOOP, capture
from .logsetup import ROOT_LOGGER_NAME, configure_logging, get_logger
from .progress import NOOP_PROGRESS, NoopProgress, ProgressReporter
from .resources import SamplingProfiler, SpanProfiler
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NullRegistry,
)
from .requestlog import RequestLog, SlowQueryRing
from .schema import (
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    SchemaError,
    validate_metrics_document,
    validate_metrics_file,
    validate_request_log_file,
    validate_request_log_lines,
    validate_request_record,
    validate_trace_event,
    validate_trace_file,
    validate_trace_lines,
)
from .slo import SloWindow
from .tracing import NOOP_SPAN, NOOP_TRACER, NoopSpan, NoopTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NOOP",
    "NOOP_PROGRESS",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NULL_INSTRUMENT",
    "NoopProgress",
    "NoopSpan",
    "NoopTracer",
    "NullRegistry",
    "ProgressReporter",
    "ROOT_LOGGER_NAME",
    "RequestLog",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "SamplingProfiler",
    "SchemaError",
    "SloWindow",
    "SlowQueryRing",
    "Span",
    "SpanProfiler",
    "Tracer",
    "capture",
    "configure_logging",
    "get_logger",
    "load_trace_events",
    "metrics_to_prometheus",
    "trace_to_perfetto",
    "validate_metrics_document",
    "validate_metrics_file",
    "validate_request_log_file",
    "validate_request_log_lines",
    "validate_request_record",
    "validate_trace_event",
    "validate_trace_file",
    "validate_trace_lines",
]
