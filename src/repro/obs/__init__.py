"""Telemetry spine: structured tracing, metrics registry, flight recorder.

Zero-dependency (stdlib-only) observability for the whole engine:

* :mod:`repro.obs.trace` — a process-local :class:`~repro.obs.trace.Tracer`
  emitting JSONL span/event records into a bounded in-memory ring with an
  optional crash-safe file sink.
* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters/gauges/histograms with a Prometheus text exposition, served
  by the HTTP frontend's ``GET /metrics``.
* :mod:`repro.obs.flight` — the per-search
  :class:`~repro.obs.flight.FlightRecorder` (wall/cpu per phase, eval and
  generation counts) and the ``repro-magma trace summarize`` analyzer.

The determinism contract (docs/OBSERVABILITY.md): telemetry observes, never
steers.  All clocks are monotonic, no telemetry value ever reaches a seed or
a payload fingerprint, and every search is bit-identical with tracing on or
off — a property the tier-1 suite asserts for all three eval backends.
"""

from repro.obs.flight import (
    FlightRecorder,
    render_trace_summary,
    summarize_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    render_prometheus,
)
from repro.obs.trace import (
    Tracer,
    configure_tracing,
    get_tracer,
    read_trace,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "configure_tracing",
    "get_metrics",
    "get_tracer",
    "read_trace",
    "render_prometheus",
    "render_trace_summary",
    "summarize_trace",
]
