"""Lightweight trace spans for the serving request path.

A span times one named stage of a request::

    with registry.span("query.scatter", shard=3):
        ...

and records the elapsed wall-clock milliseconds into a ``span_ms``
histogram labelled by span name (plus any extra labels).  Two design
points keep this safe to leave in hot paths:

* **Near-zero overhead when disabled.**  When the owning registry has
  ``spans_enabled == False`` and no trace recorder is attached,
  :func:`make_span` returns one shared no-op context manager -- no
  allocation, no clock reads; the cost is a flag check.
* **Explicit trace propagation.**  Per-request tracing hands a
  :class:`TraceRecorder` down the call chain as an argument rather than
  via ``contextvars``, so it reaches exactly the spans of the request
  that carries it, on whatever thread they run.  The daemon answers every
  query on its event loop; only publishes and snapshot dumps cross to its
  executor threads, and those are not traced.  A request carrying
  ``"trace": true`` gets a recorder, every span it passes through appends
  a stage entry, and the stages come back in the response payload.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["TraceRecorder", "make_span"]


class TraceRecorder:
    """Collects per-stage durations for one traced request.

    Appends are guarded only by the GIL; a single request's spans are
    recorded on the one thread serving it (the daemon's event loop, or an
    in-process caller), so entries stay in order.
    """

    __slots__ = ("stages",)

    def __init__(self) -> None:
        self.stages: List[Dict[str, Any]] = []

    def record(self, name: str, labels: Mapping[str, Any], elapsed_ms: float) -> None:
        entry: Dict[str, Any] = {"stage": name}
        entry.update(labels)
        entry["ms"] = round(elapsed_ms, 4)
        self.stages.append(entry)

    def as_payload(self) -> List[Dict[str, Any]]:
        """The JSON-safe stage list attached to traced responses."""
        return list(self.stages)


class _NoopSpan:
    """The shared do-nothing span used whenever recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: times the block, feeds the registry and any trace."""

    __slots__ = ("_registry", "_name", "_trace", "_labels", "_started")

    def __init__(
        self,
        registry: Any,
        name: str,
        trace: Optional[TraceRecorder],
        labels: Mapping[str, Any],
    ) -> None:
        self._registry = registry
        self._name = name
        self._trace = trace
        self._labels = labels
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed_ms = (time.perf_counter() - self._started) * 1e3
        if self._registry.spans_enabled:
            self._registry.histogram(
                "span_ms",
                "Per-stage span durations in milliseconds.",
                span=self._name,
                **self._labels,
            ).observe(elapsed_ms)
        if self._trace is not None:
            self._trace.record(self._name, self._labels, elapsed_ms)


def make_span(
    registry: Any,
    name: str,
    trace: Optional[TraceRecorder],
    labels: Mapping[str, Any],
):
    """Build a span for ``registry`` (no-op unless recording somewhere).

    ``registry`` may be ``None`` (a caller with no telemetry attached):
    the span is then the no-op whatever ``trace`` is.
    """
    if registry is None or (not registry.spans_enabled and trace is None):
        return NOOP_SPAN
    return _Span(registry, name, trace, labels)
