"""The traced run: every layer timed from outside, through public functions.

Two parts per workload:

* the **in-process ladder** on a sample of the workload's own stream.
  Each sampled request goes through ``RequestEngine.process`` once as a
  miss and once as a hit, and the benchmark records a span around every
  layer boundary it passes on the way down: ``process`` ->
  ``store.serve`` -> ``ShardGeneration.answer`` -> each shard index's
  ``nearest`` / ``within``.  The lower boundaries are reached by handing
  the layer above a timing proxy through its public parameters
  (``serve(generation=...)``, ``ShardGeneration(shard_indexes=...)``), so
  all rungs of one request are one call and a rung's self time is its
  duration minus what its children cover.  Fixed-size probes of the
  publish path (index build, delta apply, snapshot and sharded
  ``publish_delta``, health observation), of the cache, the frame codec
  and the gateway's pure functions complete the layer list;
* **wire laps** against a server subprocess: untraced laps, laps with
  ``"trace": true`` on every request (the server's own stage breakdown),
  a one-at-a-time pass for attribution, and idle round trips (``ping``,
  ``GET /healthz``) on both transports.

Spans (name, start, end, parent, request id) are kept in memory and
written to the artifact at exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import time
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.gateway.config import TenantQuota
from repro.gateway.http import read_request, render_response
from repro.gateway.ratelimit import TokenBucket
from repro.obs.health import HealthTracker
from repro.server.daemon import RequestEngine
from repro.server.load import synthetic_arrays
from repro.server.protocol import HEADER, decode_frame, encode_frame
from repro.server.sharding import ShardedCoordinateStore, ShardGeneration, shard_of
from repro.service.planner import LRUTTLCache, Query
from repro.service.publish import EpochDelta
from repro.service.snapshot import SnapshotStore

import generator
import stats
from oracle import UniverseOracle
from sut import (
    ADMISSION_LIMIT,
    CACHE_ENTRIES,
    GATEWAY_API_KEY,
    GATEWAY_QUOTA,
    GATEWAY_TENANT,
    INDEX,
    NODES,
    SHARDS,
    UNIVERSE_SEED,
    ServerProcess,
)
from workloads import (
    DELTA_SIGMA_MS,
    KNN_K,
    RANGE_RADIUS_MS,
    DeltaStream,
    Plan,
    Workload,
    make_plan,
    requests_for,
)

#: Requests of the workload's stream that climb the ladder.
SAMPLE = 200
#: Seeded 1% deltas published, after the base delta, on the overlay generation.
OVERLAY_DELTAS = 8
IDLE_ROUND_TRIPS = 200
#: Untraced / traced lap pairs; ``harness.trace_overhead_frac`` is their median.
LAP_PAIRS = 3


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanLog:
    """Spans recorded by the benchmark, in memory until the run ends.

    One request is in flight at a time while the ladder runs, so the
    open spans form a stack even though ``store.serve`` runs on an
    executor thread: the event loop is parked in ``await`` meanwhile.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self.rid: Any = None
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        number = len(self.spans)
        record = {
            "name": name,
            "rid": self.rid,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(number)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._open.pop()
            record["start_us"] = (started - self.origin) * 1e6
            record["end_us"] = (ended - self.origin) * 1e6

    def add_stage(self, name: str, rid: Any, duration_us: float) -> None:
        """A server-reported stage: its duration is known, its start is not."""
        self.spans.append(
            {"name": name, "rid": rid, "parent": None, "duration_us": duration_us}
        )

    def durations_us(self, name: str) -> List[float]:
        return [
            span["end_us"] - span["start_us"]
            for span in self.spans
            if span["name"] == name and "end_us" in span
        ]

    def self_times_us(self, name: str) -> List[float]:
        """Each ``name`` span's duration minus what its child spans cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None and "end_us" in span:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end_us"] - span["start_us"]
                )
        return [
            span["end_us"] - span["start_us"] - covered.get(number, 0.0)
            for number, span in enumerate(self.spans)
            if span["name"] == name and "end_us" in span
        ]

    def children_us(self, name: str) -> List[float]:
        """What the child spans of each ``name`` span cover."""
        return [
            whole - own
            for whole, own in zip(self.durations_us(name), self.self_times_us(name))
        ]


class _TimedIndex:
    """A shard index whose ``nearest`` / ``within`` calls are spans."""

    def __init__(self, index: Any, log: SpanLog) -> None:
        self._index = index
        self._log = log

    def nearest(self, *args: Any, **kwargs: Any) -> Any:
        with self._log.span("service.index"):
            return self._index.nearest(*args, **kwargs)

    def within(self, *args: Any, **kwargs: Any) -> Any:
        with self._log.span("service.index"):
            return self._index.within(*args, **kwargs)


class _TimedGeneration:
    """What ``store.serve`` needs of a generation, with ``answer`` as a span."""

    def __init__(self, generation: ShardGeneration, log: SpanLog) -> None:
        self.version = generation.version
        self._log = log
        self._generation = ShardGeneration(
            generation.version,
            generation.source,
            generation.snapshot,
            tuple(_TimedIndex(index, log) for index in generation.shard_indexes),
            generation.shard_sizes,
            generation.global_seq,
            generation.node_order,
        )

    def answer(self, query: Query, **kwargs: Any) -> Any:
        with self._log.span("server.sharding.answer"):
            return self._generation.answer(query, **kwargs)


def instrument_serve(store: ShardedCoordinateStore, log: SpanLog) -> None:
    """Make ``store.serve`` a span whose generation is a timing proxy."""
    serve = store.serve
    proxies: Dict[int, _TimedGeneration] = {}

    def timed_serve(query: Query, *, generation: Any = None, trace: Any = None) -> Any:
        pinned = generation if generation is not None else store.generation()
        if pinned.version not in proxies:
            proxies[pinned.version] = _TimedGeneration(pinned, log)
        with log.span("server.sharding.serve"):
            return serve(query, generation=proxies[pinned.version], trace=trace)

    store.serve = timed_serve  # type: ignore[method-assign]


def _median(values: Sequence[float]) -> float:
    return stats.summarize(values)["median"] if len(values) else 0.0


def _as_query(workload: Workload, target: str) -> Query:
    if workload.op == "knn":
        return Query.knn(target, k=KNN_K)
    return Query.range(target, RANGE_RADIUS_MS)


# ----------------------------------------------------------------------
# Part A: in-process layers
# ----------------------------------------------------------------------
def publish_path_probes(node_ids, components, heights, seed: int) -> Dict[str, float]:
    """Fixed-size probes of one shard's publish path (25k rows, 1% deltas)."""
    rows = [row for row, node_id in enumerate(node_ids) if shard_of(node_id, SHARDS) == 0]
    shard_ids = [node_ids[row] for row in rows]
    shard_store = SnapshotStore(index_kind=INDEX)
    snapshot = shard_store.publish_epoch(
        shard_ids, components[rows].copy(), heights[rows].copy()
    )
    started = time.perf_counter()
    index = shard_store.index_for(snapshot)
    build_s = time.perf_counter() - started

    rng = np.random.default_rng(seed)
    changed = len(rows) // 100
    apply_ms, publish_ms = [], []
    current = components[rows].copy()
    for _ in range(5):
        picks = rng.choice(len(rows), size=changed, replace=False)
        values = current[picks] + rng.normal(
            scale=DELTA_SIGMA_MS, size=(changed, current.shape[1])
        )
        current[picks] = values
        ids = [shard_ids[pick] for pick in picks]
        started = time.perf_counter()
        index.delta_applied(ids, values, np.zeros(changed))
        apply_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        shard_store.publish_delta(EpochDelta(ids, values, np.zeros(changed)))
        publish_ms.append((time.perf_counter() - started) * 1e3)

    tracker = HealthTracker(seed=0)
    tracker.observe_epoch(node_ids, components, heights, version=1)
    observe_ms = []
    moved = components.copy()
    for version in range(2, 5):
        picks = rng.choice(len(node_ids), size=len(node_ids) // 100, replace=False)
        moved = moved.copy()
        moved[picks] += rng.normal(scale=DELTA_SIGMA_MS, size=(len(picks), moved.shape[1]))
        started = time.perf_counter()
        tracker.observe_epoch(node_ids, moved, heights, version=version)
        observe_ms.append((time.perf_counter() - started) * 1e3)
    return {
        "service.index.build_s": build_s,
        "service.index.delta_apply_ms": _median(apply_ms),
        "service.snapshot.publish_delta_ms": _median(publish_ms),
        "obs.health.observe_epoch_ms": _median(observe_ms),
    }


async def gateway_function_probes(body: bytes) -> Dict[str, float]:
    """The gateway's pure per-request functions on real bytes."""
    head = (
        f"POST /v1/{GATEWAY_TENANT}/query HTTP/1.1\r\n"
        "Host: 127.0.0.1:8080\r\n"
        f"Authorization: Bearer {GATEWAY_API_KEY}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    parse_us, render_us, acquire_us = [], [], []
    bucket = TokenBucket(TenantQuota(**GATEWAY_QUOTA))
    for _ in range(500):
        reader = asyncio.StreamReader()
        reader.feed_data(head + body)
        reader.feed_eof()
        started = time.perf_counter()
        await read_request(reader)
        parse_us.append((time.perf_counter() - started) * 1e6)
        started = time.perf_counter()
        render_response(200, body)
        render_us.append((time.perf_counter() - started) * 1e6)
        started = time.perf_counter()
        bucket.try_acquire()
        acquire_us.append((time.perf_counter() - started) * 1e6)
    return {
        "gateway.http.parse_us": _median(parse_us),
        "gateway.http.render_us": _median(render_us),
        "gateway.ratelimit.acquire_us": _median(acquire_us),
    }


def cache_probe(generation: ShardGeneration, queries: Sequence[Query]) -> Dict[str, float]:
    """``LRUTTLCache.put`` / ``get`` on the workload's own keys and payloads."""
    cache = LRUTTLCache(CACHE_ENTRIES)
    put_us, get_us = [], []
    for query in queries:
        key = (generation.version, query)
        payload = generation.answer(query)
        started = time.perf_counter()
        cache.put(key, payload)
        middle = time.perf_counter()
        cache.get(key)
        ended = time.perf_counter()
        put_us.append((middle - started) * 1e6)
        get_us.append((ended - middle) * 1e6)
    return {
        "service.planner.cache_put_us": _median(put_us),
        "service.planner.cache_get_us": _median(get_us),
    }


def index_probe(generation: ShardGeneration, op: str, targets: Sequence[str]) -> float:
    """Median time of one query's index calls, summed over the shards."""
    took = []
    for target in targets:
        coordinate = generation.snapshot.coordinate_of(target)
        started = time.perf_counter()
        for index in generation.shard_indexes:
            if op == "knn":
                index.nearest(coordinate, KNN_K, exclude=[target])
            else:
                index.within(coordinate, RANGE_RADIUS_MS)
        took.append((time.perf_counter() - started) * 1e6)
    return _median(took)


async def in_process_ladder(
    workload: Workload,
    sample: Sequence[str],
    node_ids,
    components,
    heights,
    seed: int,
    log: SpanLog,
) -> Dict[str, float]:
    store = ShardedCoordinateStore(SHARDS, index_kind=INDEX, cache_entries=CACHE_ENTRIES)
    store.publish_epoch(node_ids, components.copy(), heights.copy(), source="ladder")
    engine = RequestEngine(store, admission_limit=ADMISSION_LIMIT)
    instrument_serve(store, log)
    metrics: Dict[str, float] = {}

    async def climb() -> None:
        """Each request through ``process`` twice: first a miss, then a hit."""
        for number, target in enumerate(sample):
            for path in ("miss", "hit"):
                log.rid = f"{path}-{number}"
                with log.span(f"server.daemon.process.{path}"):
                    response = await engine.process(
                        {"id": number, **workload.request(target)}
                    )
                if not response.get("ok") or response["cached"] != (path == "hit"):
                    raise RuntimeError(f"ladder {path} #{number} went wrong: {response}")
        log.rid = None

    gc.collect()
    try:
        base = store.generation()
        if not workload.publishes:
            # Before the probes below touch the same targets: the ladder
            # meets each target cold, as the server under test does.
            await climb()
            metrics.update(
                cache_probe(base, [_as_query(workload, target) for target in sample])
            )
        metrics["service.index.knn_us"] = index_probe(base, "knn", sample)
        metrics["service.index.within_us"] = index_probe(base, "range", sample)
        # The overlay generation: the churning rows moved once (what the
        # publish workload's set-up does), then 8 seeded 1% deltas.
        deltas = DeltaStream(components, seed)
        publish_ms = []
        for number in range(OVERLAY_DELTAS + 1):
            rows, values = deltas.base() if number == 0 else next(deltas)
            delta = EpochDelta([node_ids[row] for row in rows], values, np.zeros(len(rows)))
            started = time.perf_counter()
            store.publish_delta(delta)
            if number:
                publish_ms.append((time.perf_counter() - started) * 1e3)
        metrics["server.sharding.publish_delta_ms"] = _median(publish_ms)
        overlay = store.generation()
        if workload.publishes:
            # Reads of the publish workload run against an overlay.
            await climb()
            metrics.update(
                cache_probe(overlay, [_as_query(workload, target) for target in sample])
            )
        metrics["service.index.overlay_knn_us"] = index_probe(overlay, "knn", sample)
    finally:
        engine.shutdown()
    serve_miss = [
        own
        for own, covered in zip(
            log.self_times_us("server.sharding.serve"),
            log.children_us("server.sharding.serve"),
        )
        if covered > 0.0
    ]
    serve_hit = [
        whole
        for whole, covered in zip(
            log.durations_us("server.sharding.serve"),
            log.children_us("server.sharding.serve"),
        )
        if covered == 0.0
    ]
    metrics.update(
        {
            "server.sharding.answer_self_us": _median(
                log.self_times_us("server.sharding.answer")
            ),
            "server.sharding.serve_miss_self_us": _median(serve_miss),
            "server.sharding.serve_hit_us": _median(serve_hit),
            "server.daemon.process_self_us": _median(
                log.self_times_us("server.daemon.process.miss")
                + log.self_times_us("server.daemon.process.hit")
            ),
            # Not contract metrics; the attribution needs them.
            "_index_us": _median(log.children_us("server.sharding.answer")),
            "_process_hit_self_us": _median(
                log.self_times_us("server.daemon.process.hit")
            ),
            "_process_miss_self_us": _median(
                log.self_times_us("server.daemon.process.miss")
            ),
        }
    )
    return metrics


def codec_probe(exchanges: Sequence[Tuple[dict, dict]]) -> Dict[str, float]:
    """``encode_frame`` / ``decode_frame`` on a lap's real objects."""
    encode_us, decode_us, sizes = [], [], []
    for request, response in exchanges:
        # Ids depend on which connection carried the request; fix them so
        # the byte count repeats exactly for a fixed seed.
        request = {**request, "id": 0}
        response = {**response, "id": 0}
        started = time.perf_counter()
        request_frame = encode_frame(request)
        response_frame = encode_frame(response)
        middle = time.perf_counter()
        decode_frame(request_frame[HEADER.size :])
        decode_frame(response_frame[HEADER.size :])
        ended = time.perf_counter()
        encode_us.append((middle - started) * 1e6)
        decode_us.append((ended - middle) * 1e6)
        sizes.append(len(response_frame))
    return {
        "server.protocol.encode_us": _median(encode_us),
        "server.protocol.decode_us": _median(decode_us),
        "server.protocol.response_bytes": sum(sizes) / len(sizes),
    }


# ----------------------------------------------------------------------
# Part B: wire laps
# ----------------------------------------------------------------------
async def one_at_a_time(client: Any, requests: List[dict]) -> generator.PhaseResult:
    return await generator.closed_phase([client], requests)


def _stage_us(response: dict, stage: str) -> float:
    return sum(
        entry["ms"] * 1e3 for entry in response.get("trace", ()) if entry["stage"] == stage
    )


_STAGES = {
    "server.daemon.span.request_us": "daemon.request",
    "server.daemon.span.admission_us": "daemon.admission",
    "server.daemon.span.store_cache_us": "store.cache",
    "server.daemon.span.store_serve_us": "store.serve",
    "server.daemon.span.scatter_us": "query.scatter",
    "server.daemon.span.merge_us": "query.merge",
}


async def healthz_round_trips(server: ServerProcess, count: int) -> List[float]:
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    request = f"GET /healthz HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n".encode("ascii")
    took = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            writer.write(request)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            await reader.readexactly(length)
            took.append((time.perf_counter() - started) * 1e6)
            if not head.startswith(b"HTTP/1.1 200"):
                raise RuntimeError(f"/healthz answered {head[:40]!r}")
    finally:
        writer.close()
        await writer.wait_closed()
    return took


async def idle_and_hot_probes(
    server: ServerProcess, clients: Sequence[Any], workload: Workload, plan: Plan
) -> Dict[str, float]:
    """Idle round trips and the hot stream, one request in flight."""
    knn = dataclasses.replace(workload, op="knn")
    await generator.closed_phase(clients, requests_for(knn, plan.hot_set))
    draws = np.random.default_rng(plan.seed).integers(0, len(plan.hot_set), size=SAMPLE)
    hot = await one_at_a_time(
        clients[0], requests_for(knn, [plan.hot_set[draw] for draw in draws])
    )
    if any(not response.get("cached") for response in hot.responses):
        raise RuntimeError("hot probe saw a cache miss")
    result = {"hot_p50_us": stats.percentile(hot.latencies_ms, 50.0) * 1e3}
    if server.transport == "tcp":
        pings = await one_at_a_time(clients[0], [{"op": "ping"}] * IDLE_ROUND_TRIPS)
        result["server.client.ping_rtt_us"] = stats.percentile(pings.latencies_ms, 50.0) * 1e3
    else:
        result["gateway.app.healthz_rtt_us"] = _median(
            await healthz_round_trips(server, IDLE_ROUND_TRIPS)
        )
    return result


async def run_traced(workload: Workload, seed: int, *, max_seconds: float) -> Dict[str, Any]:
    node_ids, components, heights = synthetic_arrays(NODES, seed=UNIVERSE_SEED)
    # Laps alternate untraced / traced; the last lap's targets are the
    # sample that climbs the ladder in process and one at a time over the
    # wire.  No target repeats, so every first touch is a miss.
    plan = make_plan(workload, node_ids, seed, 2 * LAP_PAIRS + 1)
    sample = list(dict.fromkeys(plan.laps[-1].closed))[:SAMPLE]
    fresh = list(dict.fromkeys(plan.laps[-1].open))[:SAMPLE]
    log = SpanLog()
    oracle = UniverseOracle(node_ids, components, heights)
    metrics: Dict[str, float] = {}

    metrics.update(publish_path_probes(node_ids, components, heights, seed))
    metrics.update(
        await in_process_ladder(workload, sample, node_ids, components, heights, seed, log)
    )

    probes: Dict[str, Dict[str, float]] = {}
    plain: List[Tuple[generator.PhaseResult, generator.PhaseResult]] = []
    traced: List[Tuple[generator.PhaseResult, generator.PhaseResult]] = []
    rig = await generator.set_up(plan, components, node_ids, max_seconds=max_seconds)
    try:
        clients, publisher = rig.clients, rig.publisher
        lap_publisher = publisher if workload.publishes else None

        async def lap(targets, trace: bool):
            extra = {"trace": True} if trace else {}
            closed = await generator.closed_phase(
                clients,
                [{**request, **extra} for request in requests_for(workload, targets.closed)],
                publisher=lap_publisher,
                publish_every=workload.closed_publish_every,
            )
            opened = await generator.open_phase(
                clients,
                [{**request, **extra} for request in requests_for(workload, targets.open)],
                workload.open_rate,
                publisher=lap_publisher,
                publish_every=workload.open_publish_every,
            )
            gc.collect()
            return closed, opened

        gc.collect()
        for pair in range(LAP_PAIRS):
            publisher.deltas.reseed(seed + pair)
            plain.append(await lap(plan.laps[2 * pair], trace=False))
            traced.append(await lap(plan.laps[2 * pair + 1], trace=True))
        wire = await one_at_a_time(clients[0], requests_for(workload, sample))
        # Fresh targets again, this time with the server's own stage
        # breakdown: what is left of a round trip outside the engine.
        wire_traced = await one_at_a_time(
            clients[0],
            [{**request, "trace": True} for request in requests_for(workload, fresh)],
        )
        probes[workload.transport] = await idle_and_hot_probes(
            rig.server, clients, workload, plan
        )
    finally:
        await rig.close()

    other = ServerProcess("http" if workload.transport == "tcp" else "tcp", max_seconds=max_seconds)
    try:
        other.start()
        other_clients = await generator.connect_clients(other)
        try:
            probes[other.transport] = await idle_and_hot_probes(
                other, other_clients, workload, plan
            )
        finally:
            await generator.close_clients(other_clients)
    finally:
        other.stop()

    # -- per-layer metrics from the wire -----------------------------------
    plain_exchanges = [pair for closed, opened in plain for pair in closed.exchanges + opened.exchanges]
    traced_exchanges = [pair for closed, opened in traced for pair in closed.exchanges + opened.exchanges]
    metrics.update(
        codec_probe(
            [(request, {k: v for k, v in response.items() if k != "trace"})
             for request, response in wire.exchanges]
        )
    )
    metrics.update(await gateway_function_probes(encode_frame(plain_exchanges[0][0])[HEADER.size :]))
    cached = [bool(response.get("cached")) for _, response in plain_exchanges + traced_exchanges]
    metrics["service.planner.cache_hit_ratio"] = sum(cached) / len(cached)
    for number, (_, response) in enumerate(traced_exchanges):
        for stage in _STAGES.values():
            log.add_stage(stage, f"wire-{number}", _stage_us(response, stage))
    for name, stage in _STAGES.items():
        metrics[name] = _median(
            [_stage_us(response, stage) for _, response in traced_exchanges]
        )
    metrics["server.daemon.wire_residual_us"] = _median(
        [
            latency * 1e3 - _stage_us(response, "daemon.request")
            for latency, response in zip(wire_traced.latencies_ms, wire_traced.responses)
        ]
    )
    metrics["server.client.ping_rtt_us"] = probes["tcp"]["server.client.ping_rtt_us"]
    metrics["gateway.app.healthz_rtt_us"] = probes["http"]["gateway.app.healthz_rtt_us"]
    metrics["gateway.app.overhead_us"] = probes["http"]["hot_p50_us"] - probes["tcp"]["hot_p50_us"]
    metrics["harness.gen_late_p99_ms"] = _median(
        [stats.percentile(opened.lateness_ms, 99.0) for _, opened in plain]
    )
    metrics["harness.client_cpu_ms_per_op"] = _median(
        [closed.client_cpu_s * 1e3 / closed.ops for closed, _ in plain]
    )
    metrics["harness.calib_ms"] = generator.calibration_ms()
    metrics["harness.trace_overhead_frac"] = _median(
        [
            1.0 - (with_trace[0].ops / with_trace[0].elapsed_s)
            / (without[0].ops / without[0].elapsed_s)
            for without, with_trace in zip(plain, traced)
        ]
    )
    # As the end-to-end run computes ``p99_ms``: the open phases pooled.
    open_rows = [{"latencies_ms": opened.latencies_ms} for _, opened in plain]
    metrics["tail.p99_ms"] = stats.pooled_percentile(
        open_rows, range(len(open_rows)), "latencies_ms", 99.0
    )["value"]

    # -- attribution: do the rungs explain the wire p50? ---------------------
    wire_p50_us = stats.percentile(wire.latencies_ms, 50.0) * 1e3
    hit_path = workload.hot and not workload.publishes
    codec_us = metrics["server.protocol.encode_us"] + metrics["server.protocol.decode_us"]
    rungs = {
        "service.index": 0.0 if hit_path else metrics["_index_us"],
        "server.sharding.answer_self": (
            0.0 if hit_path else metrics["server.sharding.answer_self_us"]
        ),
        "server.sharding.serve_self": (
            metrics["server.sharding.serve_hit_us"]
            if hit_path
            else metrics["server.sharding.serve_miss_self_us"]
        ),
        "server.daemon.process_self": metrics[
            "_process_hit_self_us" if hit_path else "_process_miss_self_us"
        ],
        "server.protocol.codec": codec_us,
        # The rest of a round trip outside the engine: socket, framing or
        # HTTP handling, loop scheduling on both sides.
        "wire": max(0.0, metrics["server.daemon.wire_residual_us"] - codec_us),
    }
    attributed = sum(rungs.values())
    metrics["harness.wire_p50_us"] = wire_p50_us
    metrics["harness.unattributed_us"] = max(0.0, wire_p50_us - attributed)
    for key in [key for key in metrics if key.startswith("_")]:
        del metrics[key]
    # The engine as the server itself timed it on those round trips.  What
    # it exceeds the in-process rungs by is the price of running in situ
    # (cold caches, the collector, a generator on the other core), which
    # no rung can claim.
    in_situ_request_us = _median(
        [_stage_us(response, "daemon.request") for response in wire_traced.responses]
    )

    publish_failures = oracle.record_publishes(publisher.records)
    exchanges = (
        rig.warm_exchanges + plain_exchanges + traced_exchanges
        + wire.exchanges + wire_traced.exchanges
    )
    problems = oracle.audit(exchanges)
    attempted = len(exchanges) + len(publisher.records)
    failed = len(problems) + publish_failures
    return {
        "mode": "traced",
        "workload": workload.name,
        "seed": seed,
        "laps": 2 * LAP_PAIRS,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "ladder": {
            "wire_p50_us": wire_p50_us,
            "rungs_us": rungs,
            "attributed_us": attributed,
            "attributed_frac": attributed / wire_p50_us,
            "in_situ_request_us": in_situ_request_us,
        },
        "spans": log.spans,
    }
