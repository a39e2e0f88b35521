"""The unified observability plane: identity contract, metrics, tracing, exposition.

Four small modules, one rule: observability measures the run and never steers
it, so enabling any of it cannot perturb bit-identity (the property tests in
``tests/test_obs.py`` assert exactly that across seeds).

* :mod:`repro.obs.identity` — the ``TIMING_FIELDS`` exclusion contract every
  identity comparison shares.
* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram registry with fixed
  deterministic bucket edges.
* :mod:`repro.obs.tracing` — hierarchical ``perf_counter_ns`` stage spans,
  epoch-draining.
* :mod:`repro.obs.exposition` — Prometheus text, JSONL snapshots, and the
  ``serve --metrics-port`` HTTP endpoint.
* :mod:`repro.obs.report` — span JSONL -> self/cumulative stage breakdown
  (``repro.cli perf report``).
"""

from .identity import (
    CHECKPOINT_TIMING_KEYS,
    TIMING_FIELDS,
    comparable,
    comparable_checkpoint,
    comparable_records,
)
from .metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    EpochMetrics,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from .tracing import (
    NULL_TRACER,
    JsonlSpanSink,
    NullTracer,
    Span,
    StageTracer,
    stage_millis,
)
from .exposition import (
    MetricsServer,
    prometheus_text,
    snapshot,
    snapshot_jsonl,
    write_snapshot,
)
from .report import aggregate_spans, load_spans, render_report, report_dict

__all__ = [
    "CHECKPOINT_TIMING_KEYS",
    "TIMING_FIELDS",
    "comparable",
    "comparable_checkpoint",
    "comparable_records",
    "DEFAULT_MS_BUCKETS",
    "Counter",
    "EpochMetrics",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_TRACER",
    "JsonlSpanSink",
    "NullTracer",
    "Span",
    "StageTracer",
    "stage_millis",
    "MetricsServer",
    "prometheus_text",
    "snapshot",
    "snapshot_jsonl",
    "write_snapshot",
    "aggregate_spans",
    "load_spans",
    "render_report",
    "report_dict",
]
