"""The process-wide telemetry registry: counters, gauges, histograms.

The paper's whole evaluation argues about *distributions* -- stability and
accuracy are judged by CDFs and tails, never means -- so the serving
stack's observability layer is built around the same idea: the primary
latency instrument is a **mergeable log-spaced-bucket histogram** rather
than a rolling average.

Three instrument kinds:

* :class:`Counter` -- a monotonic count (requests served, errors, ...).
* :class:`Gauge` -- a point-in-time value (in-flight requests, open
  connections), with a ``update_max`` helper for high-water marks.
* :class:`LatencyHistogram` -- observations bucketed on **fixed**
  log-spaced boundaries shared by every histogram built from the same
  :class:`BucketScheme`.  Because the boundaries are fixed (never adapted
  to the data), two histograms recorded by different runs, shards, or
  processes merge *exactly*: ``merge`` is plain bucket-count addition,
  and ``histogram(A ++ B) == merge(histogram(A), histogram(B))`` bit for
  bit.  Percentiles (p50/p90/p99/p999) are read straight from the bucket
  counts and are within one bucket width of the exact sample percentile
  (cross-checked against :class:`~repro.stats.percentile
  .StreamingPercentile` in the tests).

Instruments are created (or fetched) from a :class:`TelemetryRegistry`
keyed on ``(name, labels)``; every instrument is internally locked, so
any number of serving threads can record concurrently without sharing the
owner's locks.  :meth:`TelemetryRegistry.render_prometheus` renders the
whole registry in the Prometheus text exposition format with fully
deterministic ordering and float formatting: the same recorded values
always produce byte-identical text.

A process-wide default registry backs the module-level helpers in
:mod:`repro.obs`; components that need isolation (one registry per store,
per planner, per load run) construct their own.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "BucketScheme",
    "Counter",
    "DEFAULT_SCHEME",
    "Gauge",
    "LatencyHistogram",
    "TelemetryRegistry",
]


# ----------------------------------------------------------------------
# Bucket scheme
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BucketScheme:
    """Fixed log-spaced bucket boundaries for mergeable histograms.

    Boundaries are ``lo * 10**(i / per_decade)`` for
    ``i in [0, per_decade * decades]`` -- a pure function of the three
    parameters, so every histogram built from an equal scheme has
    *identical* boundaries and merges exactly.  The default (20 buckets
    per decade over 8 decades from 1 microsecond, in milliseconds) gives
    a bucket-width growth factor of ``10**(1/20) ~ 1.122``: bucket-read
    percentiles land within ~12% (one bucket) of the exact value.
    """

    lo: float = 1e-3
    per_decade: int = 20
    decades: int = 8

    def __post_init__(self) -> None:
        if self.lo <= 0.0:
            raise ValueError("lo must be positive")
        if self.per_decade < 1 or self.decades < 1:
            raise ValueError("per_decade and decades must be >= 1")

    @property
    def growth(self) -> float:
        """The multiplicative width of one bucket."""
        return 10.0 ** (1.0 / self.per_decade)

    def boundaries(self) -> Tuple[float, ...]:
        """Upper bucket edges (cached per scheme instance)."""
        cached = getattr(self, "_boundaries", None)
        if cached is None:
            cached = tuple(
                self.lo * 10.0 ** (i / self.per_decade)
                for i in range(self.per_decade * self.decades + 1)
            )
            object.__setattr__(self, "_boundaries", cached)
        return cached

    @property
    def bucket_count(self) -> int:
        """Finite buckets plus the overflow (+Inf) bucket."""
        return len(self.boundaries()) + 1

    def bucket_index(self, value: float) -> int:
        """The bucket holding ``value``: first edge with ``value <= edge``."""
        return bisect_left(self.boundaries(), value)

    def boundaries_array(self) -> "np.ndarray":
        """The boundaries as a float64 array (cached per scheme instance)."""
        cached = getattr(self, "_boundaries_array", None)
        if cached is None:
            cached = np.asarray(self.boundaries(), dtype=np.float64)
            cached.setflags(write=False)
            object.__setattr__(self, "_boundaries_array", cached)
        return cached

    def to_dict(self) -> Dict[str, Any]:
        return {"lo": self.lo, "per_decade": self.per_decade, "decades": self.decades}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BucketScheme":
        return cls(
            lo=float(payload["lo"]),
            per_decade=int(payload["per_decade"]),
            decades=int(payload["decades"]),
        )


#: The repo-wide default: 1 microsecond .. 100 seconds, in milliseconds.
DEFAULT_SCHEME = BucketScheme()


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonic counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; use a Gauge to go down")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def update_max(self, value: float) -> None:
        """High-water-mark update: keep the larger of current and ``value``."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        return self._value


class LatencyHistogram:
    """A mergeable histogram over fixed log-spaced buckets.

    Values land in the bucket whose upper edge is the first boundary
    ``>= value`` (Prometheus ``le`` semantics); values beyond the last
    boundary land in the overflow (+Inf) bucket.  Because the boundaries
    are fixed by the :class:`BucketScheme`, :meth:`merge` is exact bucket
    addition -- shard histograms combine into precisely the histogram a
    single store would have recorded for the union stream.
    """

    __slots__ = ("name", "labels", "scheme", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(
        self,
        name: str = "",
        labels: Tuple[Tuple[str, Any], ...] = (),
        scheme: BucketScheme = DEFAULT_SCHEME,
    ) -> None:
        self.name = name
        self.labels = labels
        self.scheme = scheme
        self._counts = [0] * scheme.bucket_count
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        with self._lock:
            self._counts[self.scheme.bucket_index(value)] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of values under one lock acquisition.

        Buckets, count, and min/max land exactly as per-value
        :meth:`observe` calls would; the running sum uses ``math.fsum``
        over the batch (at least as accurate as sequential addition).
        One lock acquisition amortises the array-sized batches the
        health tracker records per epoch.
        """
        if isinstance(values, np.ndarray):
            array = np.asarray(values, dtype=np.float64).ravel()
        else:
            array = np.asarray([float(value) for value in values], dtype=np.float64)
        if array.size == 0:
            return
        if np.isnan(array).any():
            raise ValueError("cannot observe NaN")
        # searchsorted(side="left") is exactly bisect_left, so buckets land
        # precisely where per-value observe() would put them.
        indices = np.searchsorted(self.scheme.boundaries_array(), array, side="left")
        increments = np.bincount(indices, minlength=len(self._counts))
        low = float(array.min())
        high = float(array.max())
        batch_sum = math.fsum(array.tolist())
        with self._lock:
            counts = self._counts
            for index in np.nonzero(increments)[0]:
                counts[int(index)] += int(increments[index])
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high
            self._count += int(array.size)
            self._sum += batch_sum

    def observe_repeated(self, value: float, count: int) -> None:
        """Record ``count`` copies of ``value`` without materialising them.

        Leaves exactly what ``observe_many([value] * count)`` would: one
        bucket takes the whole count, and ``value * count`` is the
        correctly rounded sum ``math.fsum`` returns for the batch.  This
        is how the health tracker counts the rows a delta did not move
        (displacement exactly 0.0) without touching them.
        """
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        with self._lock:
            self._counts[self.scheme.bucket_index(value)] += count
            self._count += count
            self._sum += value * count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (exact; ``other`` untouched)."""
        if other.scheme != self.scheme:
            raise ValueError(
                "cannot merge histograms with different bucket schemes: "
                f"{self.scheme} vs {other.scheme}"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            low, high = other._min, other._max
        with self._lock:
            for index, bucket in enumerate(counts):
                self._counts[index] += bucket
            self._count += count
            self._sum += total
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high

    # -- reading --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    def bucket_counts(self) -> List[int]:
        """A copy of the per-bucket counts (last entry is the overflow)."""
        return list(self._counts)

    def _edge_of_rank(self, rank: int) -> float:
        """Upper bucket edge of the ``rank``-th (1-indexed) order statistic."""
        boundaries = self.scheme.boundaries()
        cumulative = 0
        for index, bucket in enumerate(self._counts):
            cumulative += bucket
            if cumulative >= rank:
                if index >= len(boundaries):  # overflow bucket
                    return self._max
                return boundaries[index]
        return self._max  # pragma: no cover - rank is clamped by callers

    def percentile(self, percentile: float) -> float:
        """The percentile read from bucket edges (within one bucket width).

        Uses the same rank convention as ``np.percentile`` (linear
        interpolation on ``(n - 1) * p / 100``), with each order statistic
        replaced by its bucket's upper edge, clamped to the observed
        maximum -- so the result is deterministic, merge-stable, and at
        most one multiplicative bucket width above the exact sample
        percentile.
        """
        if self._count == 0:
            raise ValueError("no observations have been recorded yet")
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        position = (self._count - 1) * percentile / 100.0
        lower_rank = int(math.floor(position)) + 1
        upper_rank = int(math.ceil(position)) + 1
        fraction = position - math.floor(position)
        lower = self._edge_of_rank(lower_rank)
        value = lower if fraction == 0.0 else (
            lower * (1.0 - fraction) + self._edge_of_rank(upper_rank) * fraction
        )
        return min(value, self._max)

    def quantile_summary(self) -> Dict[str, Optional[float]]:
        """The tail read-out used in reports: p50 / p90 / p99 / p999.

        A histogram with no observations yields all-``None`` values (JSON
        ``null``) rather than raising or leaking NaN into report JSON --
        report assembly runs unconditionally over whatever instruments
        exist, including ones nothing has recorded into yet.
        """
        if self._count == 0:
            return {"p50": None, "p90": None, "p99": None, "p999": None}
        return {
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }

    # -- wire form ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (sparse bucket counts; exact round-trip)."""
        with self._lock:
            return {
                "scheme": self.scheme.to_dict(),
                "counts": {
                    str(index): bucket
                    for index, bucket in enumerate(self._counts)
                    if bucket
                },
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], *, name: str = "", labels: Tuple[Tuple[str, Any], ...] = ()
    ) -> "LatencyHistogram":
        histogram = cls(name, labels, BucketScheme.from_dict(payload["scheme"]))
        for index, bucket in payload.get("counts", {}).items():
            histogram._counts[int(index)] = int(bucket)
        histogram._count = int(payload["count"])
        histogram._sum = float(payload["sum"])
        if payload.get("min") is not None:
            histogram._min = float(payload["min"])
        if payload.get("max") is not None:
            histogram._max = float(payload["max"])
        return histogram


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _label_key(labels: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_number(value: Any) -> str:
    """Deterministic sample formatting: ints bare, floats via repr."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_labels(labels: Tuple[Tuple[str, Any], ...], extra: str = "") -> str:
    parts = [f'{key}="{_escape_label(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class TelemetryRegistry:
    """A named collection of instruments with deterministic rendering.

    ``spans_enabled`` governs whether :meth:`span` (see
    :mod:`repro.obs.tracing`) records anything: when disabled and no
    explicit trace recorder is passed, a span is a shared no-op context
    manager -- a single attribute check of overhead.
    """

    def __init__(self, *, spans_enabled: bool = False) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Any] = {}
        self._help: Dict[str, str] = {}
        self.spans_enabled = spans_enabled

    # -- instrument factories (get-or-create) ---------------------------
    def _get_or_create(
        self,
        kind: type,
        name: str,
        help: str,
        labels: Mapping[str, Any],
        scheme: BucketScheme = DEFAULT_SCHEME,
    ):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = (
                    kind(name, key[1])
                    if kind is not LatencyHistogram
                    else LatencyHistogram(name, key[1], scheme)
                )
                self._instruments[key] = instrument
                if help and name not in self._help:
                    self._help[name] = help
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"instrument {name!r}{dict(key[1])!r} already registered "
                    f"as {type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", scheme: BucketScheme = DEFAULT_SCHEME, **labels: Any
    ) -> LatencyHistogram:
        histogram = self._get_or_create(LatencyHistogram, name, help, labels, scheme)
        if histogram.scheme != scheme:
            raise ValueError(
                f"histogram {name!r} already registered with a different scheme"
            )
        return histogram

    def span(self, name: str, trace: Any = None, **labels: Any):
        """A timed span context manager (see :mod:`repro.obs.tracing`)."""
        from repro.obs.tracing import make_span

        return make_span(self, name, trace, labels)

    def enable_spans(self, enabled: bool = True) -> None:
        self.spans_enabled = enabled

    # -- introspection --------------------------------------------------
    def instruments(self) -> List[Any]:
        with self._lock:
            return [
                self._instruments[key] for key in sorted(self._instruments, key=repr)
            ]

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe dump of every instrument's current state."""
        payload: Dict[str, Any] = {}
        for instrument in self.instruments():
            entry_key = instrument.name + _render_labels(instrument.labels)
            if isinstance(instrument, LatencyHistogram):
                payload[entry_key] = instrument.to_dict()
            else:
                payload[entry_key] = instrument.value
        return payload

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._help.clear()

    # -- Prometheus text rendering --------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Families sort by name, series by label tuple, and every float
        renders via ``repr`` -- the output is a pure function of the
        recorded values, so identical recordings give byte-identical text
        (the property the telemetry determinism tests pin down).
        """
        families: Dict[str, List[Any]] = {}
        for instrument in self.instruments():
            families.setdefault(instrument.name, []).append(instrument)
        lines: List[str] = []
        for name in sorted(families):
            series = sorted(families[name], key=lambda inst: inst.labels)
            kind = (
                "counter"
                if isinstance(series[0], Counter)
                else "histogram"
                if isinstance(series[0], LatencyHistogram)
                else "gauge"
            )
            help_text = self._help.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for instrument in series:
                if isinstance(instrument, LatencyHistogram):
                    self._render_histogram(lines, instrument)
                else:
                    lines.append(
                        f"{name}{_render_labels(instrument.labels)} "
                        f"{_format_number(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _render_histogram(lines: List[str], histogram: LatencyHistogram) -> None:
        boundaries = histogram.scheme.boundaries()
        with histogram._lock:
            counts = list(histogram._counts)
            total, sum_ = histogram._count, histogram._sum
        cumulative = 0
        for index, bucket in enumerate(counts[:-1]):
            if not bucket:
                continue  # sparse: only edges that gained observations
            cumulative += bucket
            edge = 'le="' + repr(boundaries[index]) + '"'
            lines.append(
                f"{histogram.name}_bucket"
                f"{_render_labels(histogram.labels, edge)} {cumulative}"
            )
        inf_edge = 'le="+Inf"'
        lines.append(
            f"{histogram.name}_bucket"
            f"{_render_labels(histogram.labels, inf_edge)} {total}"
        )
        lines.append(
            f"{histogram.name}_sum{_render_labels(histogram.labels)} "
            f"{_format_number(sum_)}"
        )
        lines.append(
            f"{histogram.name}_count{_render_labels(histogram.labels)} {total}"
        )


def render_prometheus(registry: TelemetryRegistry) -> str:
    """Module-level convenience mirroring the method."""
    return registry.render_prometheus()
