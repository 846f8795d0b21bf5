"""The telemetry spine: tracing, metrics, and profiling.

Three independent, individually-toggleable layers share one contract —
they observe runs without participating in them.  None of them draws
from a run RNG stream, and traced/profiled runs are bit-identical to
bare ones (aggregates, store bytes, and store keys alike):

* :mod:`repro.telemetry.trace` — versioned JSONL span/event records
  (``REPRO_TRACE`` / ``--trace FILE``), off by default via a null
  tracer whose per-round cost is one branch.
* :mod:`repro.telemetry.registry` — an always-on process-local metrics
  registry with Prometheus-text and JSON exporters.
* :mod:`repro.telemetry.profiler` — phase wall-time breakdowns
  (``REPRO_PROFILE`` / ``--profile`` / ``repro profile``), off by
  default (``current_profiler()`` is ``None``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.telemetry.context": (
            "ENV_PROFILE",
            "ENV_TRACE",
            "configure_logging",
            "current_profiler",
            "current_tracer",
            "reset_telemetry",
            "set_profiling",
            "set_trace_path",
        ),
        "repro.telemetry.profiler": ("PhaseProfiler", "format_profile"),
        "repro.telemetry.registry": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "metrics_registry",
            "reset_metrics",
        ),
        "repro.telemetry.trace": (
            "NULL_TRACER",
            "TRACE_EVENTS",
            "TRACE_SCHEMA_VERSION",
            "JsonlTracer",
            "NullTracer",
            "TraceSchemaError",
            "validate_file",
            "validate_record",
        ),
    },
)
