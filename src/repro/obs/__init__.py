"""Process-wide telemetry: counters, gauges, mergeable histograms, spans.

See :mod:`repro.obs.registry` for the instrument model,
:mod:`repro.obs.tracing` for spans and per-request trace recording, and
:mod:`repro.obs.regression` for the histogram tail-regression and
coordinate-accuracy analyzers that back the CI gates,
:mod:`repro.obs.health` for streaming per-epoch coordinate-health
snapshots (relative error, drift, neighbor churn), and
:mod:`repro.obs.events` for the bounded structured event log.

The module-level helpers below operate on one process-wide default
registry, used for coarse engine-level spans and counters; serving
components (stores, daemons, gateways, load runs) construct their own
:class:`~repro.obs.registry.TelemetryRegistry` so concurrent runs never
share instruments.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import EVENT_KINDS, EventLog
from repro.obs.health import (
    DISPLACEMENT_SCHEME,
    ERROR_SCHEME,
    HealthSnapshot,
    HealthTracker,
)
from repro.obs.registry import (
    DEFAULT_SCHEME,
    BucketScheme,
    Counter,
    Gauge,
    LatencyHistogram,
    TelemetryRegistry,
)
from repro.obs.tracing import NOOP_SPAN, TraceRecorder

__all__ = [
    "BucketScheme",
    "Counter",
    "DEFAULT_SCHEME",
    "DISPLACEMENT_SCHEME",
    "ERROR_SCHEME",
    "EVENT_KINDS",
    "EventLog",
    "Gauge",
    "HealthSnapshot",
    "HealthTracker",
    "LatencyHistogram",
    "NOOP_SPAN",
    "TelemetryRegistry",
    "TraceRecorder",
    "get_registry",
    "set_spans_enabled",
    "span",
]

#: The process-wide default registry (spans disabled by default).
_GLOBAL_REGISTRY = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    """The process-wide default registry."""
    return _GLOBAL_REGISTRY


def set_spans_enabled(enabled: bool = True) -> None:
    """Toggle span recording on the process-wide default registry."""
    _GLOBAL_REGISTRY.enable_spans(enabled)


def span(name: str, trace: Any = None, **labels: Any):
    """A span on the process-wide default registry (no-op when disabled)."""
    return _GLOBAL_REGISTRY.span(name, trace=trace, **labels)
