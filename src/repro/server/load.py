"""Closed- and open-loop load generation against a coordinate daemon.

The harness replays the service layer's deterministic workload mixes
(:mod:`repro.service.workload`) over the wire:

* **closed** mode runs N concurrent workers, each issuing its next query
  the moment its previous response arrives -- the classic closed loop
  whose offered load adapts to service rate; throughput is the headline.
* **open** mode fires queries on a fixed arrival schedule (``rate_qps``)
  regardless of completions -- latency under a *given* offered load is
  the headline.  Arrivals that cannot be admitted locally (the in-flight
  cap) wait, and that wait is charged to the recorded latency, so the
  report does not suffer from coordinated omission.

Responses are collected *in query-stream order* (not completion order)
and checksummed with the exact service-layer digest, which is what lets a
replayed mix be compared byte-for-byte against the in-process single
store: ``payload_checksum(load.results) == payload_checksum(oracle)``.

Per-kind latency percentiles are exact (the reservoir capacity is sized
above the query count) and reported in milliseconds.

**Telemetry.** Every run feeds a :class:`~repro.obs.registry
.TelemetryRegistry` (a fresh one per run unless the caller passes its
own): per-kind mergeable latency histograms plus outcome counters.  The
registry renders to Prometheus text for ``repro load --metrics-out``,
and the report's ``telemetry`` section embeds the per-kind histograms so
two runs' distributions can be diffed by :mod:`repro.obs.regression`.

**Deterministic timing.** With ``deterministic_timing=True`` the
recorded per-query latency is a pure hash of ``(position, kind)`` -- a
log-uniform synthetic value -- instead of the wall clock.  Latencies are
folded into the estimators and histograms *in query-stream order* after
the run, independent of async completion interleaving, so a seeded
workload yields byte-identical telemetry (and Prometheus text) on every
run -- the property the histogram determinism tests pin down.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate
from repro.obs.registry import TelemetryRegistry
from repro.server.client import AsyncCoordinateClient
from repro.server.errors import RequestTimeout
from repro.server.protocol import query_to_request
from repro.service.planner import Query
from repro.service.workload import payload_checksum
from repro.stats.percentile import StreamingPercentile

__all__ = [
    "LoadReport",
    "run_load",
    "run_load_async",
    "synthetic_arrays",
    "synthetic_coordinates",
]

#: Load-generation modes.
LOAD_MODES = ("closed", "open")


def deterministic_latency_ms(position: int, kind: str) -> float:
    """A synthetic per-query latency: a pure hash of (position, kind).

    Log-uniform over [0.1, 10) ms.  Being independent of the wall clock
    *and* of async completion order, it makes a seeded workload's whole
    telemetry output reproducible bit for bit.
    """
    digest = hashlib.blake2b(
        f"load-latency:{kind}:{position}".encode(), digest_size=8
    ).digest()
    uniform = int.from_bytes(digest, "big") / 2.0**64
    return 0.1 * 10.0 ** (2.0 * uniform)


def synthetic_arrays(
    n: int, *, seed: int = 7, clusters: int = 12, dims: int = 3
):
    """``(node_ids, components (n, d), heights (n,))`` of a clustered universe.

    Deterministic in ``(n, seed, clusters, dims)``.  The single source of
    the synthetic population: the ``("synthetic", ...)`` store source (the
    CLI's ``--synthetic``), :func:`synthetic_coordinates` and
    ``bench_server.py`` all build from it, so the populations they serve
    are identical by construction.
    """
    if n < 2:
        raise ValueError("synthetic universes need at least two nodes")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-300.0, 300.0, size=(clusters, dims))
    assignments = rng.integers(0, clusters, size=n)
    points = centers[assignments] + rng.normal(scale=25.0, size=(n, dims))
    return [f"node{i:06d}" for i in range(n)], points, np.zeros(n)


def synthetic_coordinates(
    n: int, *, seed: int = 7, clusters: int = 12, dims: int = 3
) -> Dict[str, Coordinate]:
    """The object-mapping view of :func:`synthetic_arrays`."""
    node_ids, points, _ = synthetic_arrays(n, seed=seed, clusters=clusters, dims=dims)
    return {
        node_id: Coordinate(points[row].tolist())
        for row, node_id in enumerate(node_ids)
    }


@dataclass(frozen=True, slots=True)
class LoadReport:
    """Outcome of one load run against a daemon."""

    mode: str
    query_count: int
    ok: int
    errors: int
    overloaded: int
    elapsed_s: float
    #: Per-kind latency summaries: count / p50_ms / p99_ms / exact flag.
    kinds: Dict[str, Dict[str, Any]]
    #: Responses in query-stream order (wire response objects).
    responses: Tuple[Dict[str, Any], ...]
    #: Exact service-layer digest over payloads in stream order.
    checksum: str
    #: Distinct snapshot versions observed across responses.
    versions: Tuple[int, ...]
    #: For open mode: the offered arrival rate (None in closed mode).
    offered_qps: Optional[float] = None
    #: Histogram-backed per-kind tail summary (p50/p99/p999 + buckets).
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: The daemon's coordinate-health payload fetched after the run
    #: (relative-error percentiles, drift, staleness); empty when the
    #: daemon predates the ``health`` op or the fetch was disabled.
    health: Dict[str, Any] = field(default_factory=dict)
    #: Every error counted by kind -- ``timeout``/``transport`` raised
    #: client-side, ``overloaded`` shed by admission, ``server`` error
    #: envelopes, ``health_fetch`` for a failed post-run health fetch.
    #: Nothing is ever silently dropped; the kinds sum to ``errors``
    #: (plus ``health_fetch``, which is not a query failure).
    error_kinds: Dict[str, int] = field(default_factory=dict)
    #: Ok responses that were served degraded (``"partial": true``).
    degraded: int = 0
    #: Per-position latency in ms (None where the request failed).  Kept
    #: off ``as_dict()``: it is raw SLO-evaluation input, not summary.
    latencies_ms: Tuple[Optional[float], ...] = ()

    @property
    def queries_per_s(self) -> float:
        if self.elapsed_s <= 0.0:
            return float("nan")
        return self.query_count / self.elapsed_s

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (responses elided).

        The ``telemetry`` key is additive: every pre-existing key keeps
        its exact meaning, so older report consumers are unaffected (the
        schema-stability test pins this).
        """
        return {
            "mode": self.mode,
            "query_count": self.query_count,
            "ok": self.ok,
            "errors": self.errors,
            "overloaded": self.overloaded,
            "elapsed_s": round(self.elapsed_s, 4),
            "qps": round(self.queries_per_s, 1),
            "offered_qps": self.offered_qps,
            "kinds": self.kinds,
            "checksum": self.checksum,
            "versions": list(self.versions),
            "telemetry": self.telemetry,
            "health": self.health,
            "error_kinds": dict(self.error_kinds),
            "degraded": self.degraded,
        }


async def _fetch_health(
    client: AsyncCoordinateClient, deterministic_timing: bool
) -> Tuple[Dict[str, Any], Optional[str]]:
    """``(health payload, error or None)`` for the report's ``health`` section.

    Under deterministic timing, the wall-clock ``staleness`` section is
    replaced by a deterministic placeholder (the section is still
    present -- the report schema does not depend on the timing mode) so
    seeded runs stay byte-identical end to end.  A failed fetch returns
    an empty section *and* the error string, which the caller counts as
    ``error_kinds["health_fetch"]`` -- never silently swallowed.
    """
    try:
        response = await client.op("health")
    except (ConnectionError, OSError) as exc:
        return {}, f"{type(exc).__name__}: {exc}"
    if not response.get("ok"):
        return {}, str(response.get("error") or "health op failed")
    health = dict(response.get("payload") or {})
    if deterministic_timing and "staleness" in health:
        health["staleness"] = {
            "deterministic_timing": True,
            "generation_age_s": None,
            "publish_to_serve_age_ms": None,
        }
    return health, None


async def run_load_async(
    address: Tuple[str, int],
    queries: Sequence[Query],
    *,
    mode: str = "closed",
    concurrency: int = 8,
    connections: int = 1,
    rate_qps: Optional[float] = None,
    max_in_flight: int = 1024,
    registry: Optional[TelemetryRegistry] = None,
    deterministic_timing: bool = False,
    collect_health: bool = True,
    request_timeout: Optional[float] = None,
    connect=None,
) -> LoadReport:
    """Drive ``queries`` through a running daemon and summarise.

    ``request_timeout`` (seconds) bounds each request individually; an
    expiry is recorded as an ``error_kinds["timeout"]`` failure at that
    stream position and the run continues.  Transport failures likewise
    count under ``error_kinds["transport"]`` instead of aborting the
    whole run -- the chaos harness depends on the load loop surviving a
    daemon that is deliberately misbehaving.

    ``connect`` swaps the transport: an async factory called once per
    connection that returns any client with the
    :class:`AsyncCoordinateClient` request surface (``request``, ``op``,
    ``close``).  The default connects over TCP to ``address``; the HTTP
    gateway passes a :class:`repro.gateway.client.GatewayClient` factory,
    which is how one load harness (and its oracle verification) drives
    both transports.
    """
    if mode not in LOAD_MODES:
        raise ValueError(f"unknown load mode {mode!r}; known: {list(LOAD_MODES)}")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if connections < 1:
        raise ValueError("connections must be >= 1")
    if mode == "open" and (rate_qps is None or rate_qps <= 0.0):
        raise ValueError("open mode needs a positive rate_qps")
    if request_timeout is not None and request_timeout <= 0.0:
        raise ValueError("request_timeout must be positive")
    if registry is None:
        registry = TelemetryRegistry()

    if connect is None:
        async def connect() -> AsyncCoordinateClient:
            return await AsyncCoordinateClient.connect(*address)

    clients = [await connect() for _ in range(connections)]
    responses: List[Optional[Dict[str, Any]]] = [None] * len(queries)
    #: Raw per-query latency in ms, indexed by stream position; folded
    #: into estimators/histograms in stream order after the run so the
    #: telemetry is independent of completion interleaving.
    measured: List[Optional[float]] = [None] * len(queries)
    requests = [query_to_request(query, None) for query in queries]

    async def issue(position: int, client: AsyncCoordinateClient, sent_at: float) -> None:
        # Client-side failures are *counted at their stream position*,
        # never allowed to propagate and abort the gather (which used to
        # silently lose every other in-flight result with them).
        try:
            response = await client.request(
                requests[position], timeout=request_timeout
            )
        except RequestTimeout as exc:
            responses[position] = {
                "ok": False,
                "error": str(exc),
                "client_error": "timeout",
            }
            return
        except (ConnectionError, OSError) as exc:
            responses[position] = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "client_error": "transport",
            }
            return
        measured[position] = (
            deterministic_latency_ms(position, queries[position].kind)
            if deterministic_timing
            else (time.perf_counter() - sent_at) * 1e3
        )
        responses[position] = response

    started = time.perf_counter()
    try:
        if mode == "closed":
            stream = iter(range(len(queries)))

            async def worker(worker_index: int) -> None:
                client = clients[worker_index % connections]
                while True:
                    # No await between next() and issue(): the single-loop
                    # iterator hand-off is race-free.
                    try:
                        position = next(stream)
                    except StopIteration:
                        return
                    await issue(position, client, time.perf_counter())

            await asyncio.gather(*(worker(i) for i in range(concurrency)))
        else:
            interval = 1.0 / float(rate_qps)
            in_flight = asyncio.Semaphore(max_in_flight)
            tasks: List[asyncio.Task] = []

            async def fire(position: int, due: float) -> None:
                # The arrival clock starts at the *scheduled* send time:
                # a stalled loop and any local admission wait are both
                # part of measured latency.
                async with in_flight:
                    await issue(position, clients[position % connections], due)

            for position in range(len(queries)):
                due = started + position * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(fire(position, due)))
            await asyncio.gather(*tasks)
        health, health_error = (
            await _fetch_health(clients[0], deterministic_timing)
            if collect_health
            else ({}, None)
        )
    finally:
        for client in clients:
            await client.close()
    elapsed = time.perf_counter() - started

    ok = sum(1 for response in responses if response and response.get("ok"))
    overloaded = sum(
        1 for response in responses if response and response.get("overloaded")
    )
    errors = len(responses) - ok
    degraded = sum(
        1 for response in responses if response and response.get("partial")
    )

    # Count every failure by kind; the per-kind breakdown is what lets a
    # chaos run distinguish an injected fault's expected errors from a
    # genuine regression.
    error_kinds: Dict[str, int] = {}
    for response in responses:
        if response is None:
            kind = "transport"  # never returned: connection died mid-run
        elif response.get("ok"):
            continue
        elif response.get("client_error"):
            kind = str(response["client_error"])
        elif response.get("overloaded"):
            kind = "overloaded"
        else:
            kind = "server"
        error_kinds[kind] = error_kinds.get(kind, 0) + 1
    if health_error is not None:
        error_kinds["health_fetch"] = error_kinds.get("health_fetch", 0) + 1
    for kind in sorted(error_kinds):
        registry.counter(
            "load_errors_total", "Load-run failures by kind.", kind=kind
        ).inc(error_kinds[kind])

    # Fold latencies in stream order: exact reservoir + registry histogram
    # receive the identical value sequence, so the histogram-derived tails
    # are one bucket width from the exact ones by construction.
    latency = {
        kind: StreamingPercentile(capacity=max(len(queries), 1))
        for kind in ("knn", "nearest", "range", "pairwise", "centroid")
    }
    histograms = {
        kind: registry.histogram(
            "load_latency_ms", "Client-observed query latency.", kind=kind
        )
        for kind in latency
    }
    for position, value in enumerate(measured):
        if value is None:
            continue
        kind = queries[position].kind
        latency[kind].add(value)
        histograms[kind].observe(value)
    registry.counter("load_requests_total", "Load-run responses.", outcome="ok").inc(ok)
    registry.counter("load_requests_total", outcome="error").inc(errors)
    registry.counter(
        "load_overloaded_total", "Responses shed by daemon admission control."
    ).inc(overloaded)

    kinds: Dict[str, Dict[str, Any]] = {}
    telemetry_kinds: Dict[str, Dict[str, Any]] = {}
    for kind, summary in latency.items():
        if summary.count:
            kinds[kind] = {
                "count": summary.count,
                "p50_ms": round(summary.percentile(50.0), 4),
                "p99_ms": round(summary.percentile(99.0), 4),
                "latency_exact": summary.is_exact,
            }
            telemetry_kinds[kind] = {
                "count": summary.count,
                "p50_ms": round(summary.percentile(50.0), 4),
                "p99_ms": round(summary.percentile(99.0), 4),
                "p999_ms": round(summary.percentile(99.9), 4),
                "latency_exact": summary.is_exact,
                "histogram": histograms[kind].to_dict(),
            }
    telemetry = {
        "unit": "ms",
        "deterministic_timing": deterministic_timing,
        "kinds": telemetry_kinds,
    }
    checksum = payload_checksum(
        [
            SimpleNamespace(payload=(response or {}).get("payload"))
            for response in responses
        ]
    )
    versions = sorted(
        {
            int(response["version"])
            for response in responses
            if response and response.get("version") is not None
        }
    )
    return LoadReport(
        mode=mode,
        query_count=len(queries),
        ok=ok,
        errors=errors,
        overloaded=overloaded,
        elapsed_s=elapsed,
        kinds=kinds,
        responses=tuple(response or {} for response in responses),
        checksum=checksum,
        versions=tuple(versions),
        # Only an open loop *offers* a rate; a stray rate_qps passed with
        # closed mode must not masquerade as an offered-load figure.
        offered_qps=float(rate_qps) if mode == "open" and rate_qps else None,
        telemetry=telemetry,
        health=health,
        error_kinds=error_kinds,
        degraded=degraded,
        latencies_ms=tuple(measured),
    )


def run_load(address: Tuple[str, int], queries: Sequence[Query], **kwargs) -> LoadReport:
    """Synchronous wrapper: run the async load harness to completion."""
    return asyncio.run(run_load_async(address, queries, **kwargs))
