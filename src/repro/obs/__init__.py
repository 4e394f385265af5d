"""Zero-dependency observability: metrics registry and span tracing.

``repro.obs.metrics`` holds a thread-safe registry of counters, gauges
and fixed-bucket histograms rendered in the Prometheus text exposition
format (served at ``GET /metrics`` on both server backends).

``repro.obs.trace`` records lightweight span trees across the query
pipeline — parse, plan, per-segment scan, join, aggregation, hydration.
Tracing is inert unless a trace root is active, and the whole subsystem
can be switched off with ``REPRO_OBS=0``.
"""

from __future__ import annotations

from .metrics import (
    METRICS_CONTENT_TYPE,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .trace import (
    Span,
    current_span,
    enabled,
    render_span_tree,
    set_enabled,
    start_span,
    start_trace,
    wrap,
)

__all__ = [
    "METRICS_CONTENT_TYPE",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "Span",
    "current_span",
    "enabled",
    "render_span_tree",
    "set_enabled",
    "start_span",
    "start_trace",
    "wrap",
]
