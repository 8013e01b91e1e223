"""Observability: span tracing, metrics, run artifacts, and profiling.

Everything a run can tell you about where it spent time and bytes lives
here, with zero dependencies beyond the standard library and numpy:

* :mod:`repro.obs.trace` — nestable, thread-safe :class:`Span` timers
  producing a per-round tree of phase timings.  The default
  :data:`NULL_TRACER` keeps the disabled path allocation-free, so
  untraced runs (and the benchmarks) pay nothing.
* :mod:`repro.obs.metrics` — named counters / gauges / histograms
  (bytes up/down, update norms, regularizer cost, selection counts).
* :mod:`repro.obs.exporters` — JSONL event streams, a reloadable
  summary JSON, CSV, and human-readable tables for the CLI.
* :mod:`repro.obs.profiler` — opt-in per-layer forward/backward time
  attribution for :class:`repro.nn.Module` trees.

Quickstart::

    from repro.obs import Tracer
    from repro.obs.exporters import write_run_artifacts

    tracer = Tracer()
    history = run_federated(alg, fed, model_fn, config, tracer=tracer)
    write_run_artifacts("runs/demo", history, tracer)
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    Quantile,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.exporters import (
    format_round_table,
    format_span_summary,
    summary_dict,
    write_jsonl,
    write_run_artifacts,
)
from repro.obs.profiler import LayerProfiler
from repro.obs.sysinfo import current_rss_bytes, peak_rss_bytes, record_scale_gauges

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Quantile",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "write_jsonl",
    "summary_dict",
    "write_run_artifacts",
    "format_round_table",
    "format_span_summary",
    "LayerProfiler",
    "current_rss_bytes",
    "peak_rss_bytes",
    "record_scale_gauges",
]
