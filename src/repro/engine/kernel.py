"""The serial execution kernel: one :class:`ScenarioSpec` -> one result.

This is the single code path shared by every execution strategy: the
engine's worker processes call :func:`run_scenario` on their shard exactly
as the serial fallback does, which is what makes parallel output
byte-identical to serial output.  The kernel is a pure function of the
spec: datasets, traces, protocol RNG and workload RNG are all derived from
the spec's seed, so re-running a spec in a different process (or on a
different worker count) reproduces the same numbers.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.harness import ExperimentScale, build_dataset, build_trace
from repro.core.coordinate import Coordinate
from repro.latency.planetlab import PlanetLabDataset
from repro.metrics.collector import MetricsCollector
from repro.netsim.replay import replay_trace
from repro.netsim.runner import SimulationConfig, run_simulation
from repro.netsim.network import NetworkConfig
from repro.netsim.protocol import ProtocolConfig
from repro.obs import get_registry, span
from repro.overlay.knn import CoordinateIndex
from repro.scenarios.spec import ScenarioSpec
from repro.stats.sampling import derive_rng

from repro.engine.results import ScenarioResult

__all__ = ["run_scenario", "ScenarioRun"]


class ScenarioRun:
    """A result plus the live collector it was derived from.

    ``collector`` is a :class:`~repro.metrics.collector.MetricsCollector`
    for the scalar paths and the duck-typed
    :class:`~repro.netsim.batch.BatchMetrics` for the vectorized backend;
    both answer the same queries.  ``profile`` holds per-phase wall-clock
    timings when the caller asked for them: the batch engine's tick phases
    (vectorized runs) and, for ``queries`` workloads on any backend, the
    snapshot-publish and query-serving phases -- timing is wall-clock and
    therefore never part of the result itself.
    """

    __slots__ = ("result", "collector", "profile")

    def __init__(
        self,
        result: ScenarioResult,
        collector: MetricsCollector,
        profile: Optional[Dict[str, float]] = None,
    ) -> None:
        self.result = result
        self.collector = collector
        self.profile = profile


def run_scenario(spec: ScenarioSpec, *, collect_profile: bool = False) -> ScenarioRun:
    """Execute one scenario and return its result and metrics collector."""
    started = time.perf_counter()
    profile: Optional[Dict[str, float]] = None
    parameters = spec.network.to_parameters()
    measurement_start_s = spec.resolved_measurement_start_s()
    # Coarse phase spans on the process-wide registry: no-ops unless the
    # caller enabled spans (repro.obs.set_spans_enabled), so deterministic
    # results and hot-path cost are untouched by default.
    with span("kernel.build_dataset", nodes=spec.network.nodes):
        dataset = build_dataset(
            spec.network.nodes, seed=spec.seed, parameters=parameters
        )

    counters: Dict[str, Optional[float]] = {}
    workload_payload: Dict[str, Any] = {}
    #: (host_ids, components, heights) of the final application-level
    #: coordinates when the run produced them as arrays (vectorized
    #: backend); lets the queries workload stay in array land end to end.
    coordinate_arrays: Optional[Tuple[List[str], Any, Any]] = None
    #: Live-serving harness (queries-live workload): created before the
    #: simulation so epochs stream into the running daemon, consumed by
    #: the workload stage, and closed on every path out of this function.
    live_harness = None

    if spec.mode == "replay":
        scale = ExperimentScale(
            nodes=spec.network.nodes,
            duration_s=spec.duration_s,
            ping_interval_s=spec.ping_interval_s,
            neighbors_per_node=spec.neighbors_per_node,
            seed=spec.seed,
        )
        trace = build_trace(scale, parameters=parameters)
        on_record, finish_drift = _drift_probe(spec, dataset, measurement_start_s)
        with span("kernel.simulate", backend="replay"):
            replay = replay_trace(
                trace,
                spec.node_config(),
                measurement_start_s=measurement_start_s,
                on_record=on_record,
            )
        collector = replay.collector
        counters["records_processed"] = float(replay.records_processed)
        final_coordinates = replay.application_coordinates()
        if finish_drift is not None:
            workload_payload.update(finish_drift())
    else:
        config = SimulationConfig(
            nodes=spec.network.nodes,
            duration_s=spec.duration_s,
            measurement_start_s=measurement_start_s,
            node_config=spec.node_config(),
            protocol=(
                ProtocolConfig(sampling_interval_s=spec.sampling_interval_s)
                if spec.sampling_interval_s is not None
                else ProtocolConfig()
            ),
            network=NetworkConfig(loss_probability=spec.loss_probability),
            dataset=parameters,
            churn=spec.churn.to_config() if spec.churn is not None else None,
            bootstrap_neighbors=spec.bootstrap_neighbors,
            seed=spec.seed,
        )
        if spec.backend == "vectorized":
            from repro.netsim.batch import run_batch_simulation
            from repro.obs.health import HealthTracker

            publish_kwargs: Dict[str, Any] = {}
            if spec.workload.kind == "queries-live":
                # The live-serving daemon must be up before the first
                # epoch streams out of the simulation; it stays up (and
                # under load) until the workload stage finishes with it.
                live_harness = _build_live_harness(spec)
                live_harness.__enter__()
                publish_kwargs = live_harness.publish_kwargs()
            # Streaming coordinate health against the dataset's RTT
            # oracle: everything it records is a pure function of the
            # spec's seed and the (deterministic) epoch stream, so the
            # health_* metrics below stay byte-identical across worker
            # counts like every other scenario metric.
            ticks = max(1, int(config.duration_s // config.protocol.sampling_interval_s))
            health_tracker = HealthTracker(
                seed=spec.seed, true_rtt=dataset.true_rtt_ms
            )
            publish_kwargs["health"] = health_tracker
            publish_kwargs["health_every_ticks"] = max(1, ticks // 8)
            try:
                with span("kernel.simulate", backend="vectorized"):
                    sim = run_batch_simulation(
                        config,
                        dataset=dataset,
                        backend="vectorized",
                        collect_profile=collect_profile,
                        **publish_kwargs,
                    )
            except BaseException:
                if live_harness is not None:
                    live_harness.__exit__(None, None, None)
                    live_harness = None
                raise
            collector = sim.metrics
            counters["samples_attempted"] = float(sim.samples_attempted)
            counters["samples_completed"] = float(sim.samples_completed)
            counters["ticks"] = float(sim.ticks)
            counters["churn_transitions"] = float(sim.churn_transitions)
            counters.update(health_tracker.metrics_summary())
            workload_payload["health"] = health_tracker.summary()
            final_coordinates = sim.application_coordinates()
            if sim.final_application_arrays is not None:
                components, heights = sim.final_application_arrays
                coordinate_arrays = (sim.host_ids, components, heights)
            profile = sim.profile if collect_profile else None
            if spec.strict_equivalence:
                oracle = run_batch_simulation(config, dataset=dataset, backend="scalar")
                _assert_strict_equivalence(spec, sim, oracle)
                counters["strict_equivalence"] = 1.0
        else:
            with span("kernel.simulate", backend="scalar"):
                sim = run_simulation(config, dataset=dataset)
            collector = sim.collector
            counters["samples_attempted"] = float(sim.samples_attempted)
            counters["samples_completed"] = float(sim.samples_completed)
            counters["events_processed"] = float(sim.events_processed)
            counters["churn_transitions"] = float(sim.churn_transitions)
            final_coordinates = sim.application_coordinates()

    metrics: Dict[str, Optional[float]] = dict(asdict(collector.system_snapshot()))
    metrics.update(counters)
    workload_profile: Optional[Dict[str, float]] = {} if collect_profile else None
    try:
        with span("kernel.workload", kind=spec.workload.kind):
            metrics.update(
                _run_workload(
                    spec,
                    dataset,
                    final_coordinates,
                    workload_payload,
                    coordinate_arrays=coordinate_arrays,
                    profile=workload_profile,
                    live_harness=live_harness,
                )
            )
    finally:
        if live_harness is not None:
            live_harness.__exit__(None, None, None)
    if collect_profile and workload_profile:
        profile = dict(profile) if profile else {}
        profile.update(workload_profile)

    per_node = {
        "median_application_error": collector.per_node_median_error(level="application"),
        "p95_application_error": collector.per_node_error_percentile(
            95.0, level="application"
        ),
        "p95_system_error": collector.per_node_error_percentile(95.0, level="system"),
        "application_instability": collector.per_node_instability(level="application"),
    }

    result = ScenarioResult(
        name=spec.name,
        spec_hash=spec.spec_hash(),
        seed=spec.seed,
        mode=spec.mode,
        metrics=metrics,
        per_node=per_node,
        workload=workload_payload,
        elapsed_s=time.perf_counter() - started,
    )
    get_registry().counter(
        "kernel_scenarios_total", "Scenarios executed in this process.", mode=spec.mode
    ).inc()
    return ScenarioRun(result, collector, profile)


# ----------------------------------------------------------------------
# Strict backend equivalence (the vectorized backend's safety net)
# ----------------------------------------------------------------------
def _assert_strict_equivalence(spec, vectorized, oracle) -> None:
    """Fail loudly unless the two batch backends produced identical output.

    "Identical" means byte-identical: the same system snapshot, the same
    per-node error and instability distributions, and bit-equal final
    coordinates at both levels.  Anything less would let a vectorization
    bug silently shift published numbers.
    """
    from repro.engine.results import canonical_json

    problems = []
    snap_v = canonical_json(asdict(vectorized.metrics.system_snapshot()))
    snap_o = canonical_json(asdict(oracle.metrics.system_snapshot()))
    if snap_v != snap_o:
        problems.append("system snapshots differ")
    for label, query in (
        ("median application error", lambda m: m.per_node_median_error(level="application")),
        ("p95 system error", lambda m: m.per_node_error_percentile(95.0, level="system")),
        ("application instability", lambda m: m.per_node_instability(level="application")),
    ):
        if query(vectorized.metrics) != query(oracle.metrics):
            problems.append(f"per-node {label} distributions differ")
    for level, left, right in (
        ("system", vectorized.final_system, oracle.final_system),
        ("application", vectorized.final_application, oracle.final_application),
    ):
        for host_id, coord_v, coord_o in zip(vectorized.host_ids, left, right):
            if (
                tuple(coord_v.components) != tuple(coord_o.components)
                or coord_v.height != coord_o.height
            ):
                problems.append(
                    f"{level} coordinate of {host_id} diverged: "
                    f"{coord_v.components} (h={coord_v.height}) != "
                    f"{coord_o.components} (h={coord_o.height})"
                )
                break
    if problems:
        raise ValueError(
            f"scenario {spec.name!r}: vectorized backend diverged from the "
            "scalar oracle under strict_equivalence: " + "; ".join(problems)
        )


# ----------------------------------------------------------------------
# Drift probe (the Figure 7 methodology)
# ----------------------------------------------------------------------
def _drift_probe(spec, dataset, measurement_start_s):
    """Build the per-region coordinate tracker for the drift workload.

    Returns ``(on_record, finish)``: the replay hook and a closure
    producing the workload payload, or ``(None, None)`` for other
    workloads.  Mirrors ``fig07_drift`` exactly -- one tracked node per
    region, snapshots every ``snapshot_interval_s`` once the measurement
    window opens -- so the ported scenario reproduces the figure's numbers.
    """
    if spec.workload.kind != "drift":
        return None, None
    snapshot_interval_s = float(spec.workload.param("snapshot_interval_s"))
    topology = dataset.topology
    tracked_ids: Dict[str, str] = {}
    for region in topology.regions():
        hosts = topology.hosts_in_region(region)
        if hosts:
            tracked_ids[hosts[0]] = region

    snapshots: Dict[str, List[Tuple[float, Coordinate]]] = {nid: [] for nid in tracked_ids}
    next_snapshot: Dict[str, float] = {nid: measurement_start_s for nid in tracked_ids}

    def on_record(time_s: float, node) -> None:
        node_id = node.node_id
        if node_id not in tracked_ids:
            return
        if time_s >= next_snapshot[node_id]:
            snapshots[node_id].append((time_s, node.system_coordinate))
            next_snapshot[node_id] = time_s + snapshot_interval_s

    def finish() -> Dict[str, Any]:
        tracked: List[Dict[str, Any]] = []
        for node_id, region in tracked_ids.items():
            track = snapshots[node_id]
            if len(track) < 2:
                continue
            path = sum(
                track[i][1].euclidean_distance(track[i + 1][1])
                for i in range(len(track) - 1)
            )
            net = track[0][1].euclidean_distance(track[-1][1])
            tracked.append(
                {
                    "node_id": node_id,
                    "region": region,
                    "net_displacement_ms": float(net),
                    "path_length_ms": float(path),
                    "consistency": float(net / path) if path > 0.0 else 0.0,
                }
            )
        return {"tracked": tracked}

    return on_record, finish


# ----------------------------------------------------------------------
# Application-level workloads over the final coordinates
# ----------------------------------------------------------------------
def _build_live_harness(spec: ScenarioSpec):
    """The queries-live serving harness configured from the workload spec."""
    from repro.server.live import LiveServingHarness

    workload = spec.workload
    return LiveServingHarness(
        shards=int(workload.param("shards")),
        index_kind=str(workload.param("index")),
        publish_every_ticks=int(workload.param("publish_every_ticks")),
        live_count=int(workload.param("live_count")),
        measured_count=int(workload.param("count")),
        mix=str(workload.param("mix")),
        k=int(workload.param("k")),
        radius_ms=float(workload.param("radius_ms")),
        concurrency=int(workload.param("concurrency")),
        cache_entries=int(workload.param("cache_entries")),
        seed=spec.seed,
        source=spec.name,
        chaos_spec=str(workload.param("chaos")),
    )


def _run_workload(
    spec: ScenarioSpec,
    dataset: PlanetLabDataset,
    coordinates: Dict[str, Coordinate],
    workload_payload: Dict[str, Any],
    *,
    coordinate_arrays: Optional[Tuple[List[str], Any, Any]] = None,
    profile: Optional[Dict[str, float]] = None,
    live_harness=None,
) -> Dict[str, Optional[float]]:
    kind = spec.workload.kind
    if kind == "queries-live":
        assert live_harness is not None, "queries-live runs need a live harness"
        live_metrics, live_payload = live_harness.finish(profile)
        workload_payload.update(live_payload)
        return live_metrics
    if kind == "drift":
        tracked = workload_payload.get("tracked", [])
        if not tracked:
            return {"drift_mean_net_displacement_ms": None, "drift_mean_consistency": None}
        return {
            "drift_mean_net_displacement_ms": float(
                sum(t["net_displacement_ms"] for t in tracked) / len(tracked)
            ),
            "drift_mean_consistency": float(
                sum(t["consistency"] for t in tracked) / len(tracked)
            ),
        }
    if kind == "knn":
        return _knn_workload(spec, dataset, coordinates)
    if kind == "placement":
        return _placement_workload(spec, dataset, coordinates)
    if kind == "queries":
        return _queries_workload(
            spec,
            coordinates,
            workload_payload,
            coordinate_arrays=coordinate_arrays,
            profile=profile,
        )
    return {}


def _knn_workload(spec, dataset, coordinates) -> Dict[str, Optional[float]]:
    """kNN queries: how well do coordinate-space neighbors match true RTTs?

    Reports the mean overlap between the coordinate-predicted and the true
    ``k`` nearest sets, and the mean latency stretch of the predicted set
    (mean true RTT of predicted neighbors over mean true RTT of the
    optimal ones; 1.0 = perfect).
    """
    hosts = sorted(coordinates)
    k = min(int(spec.workload.param("k")), len(hosts) - 1)
    queries = int(spec.workload.param("queries"))
    if k < 1 or queries < 1:
        return {"knn_mean_overlap": None, "knn_mean_stretch": None}

    index = CoordinateIndex()
    index.update_many(coordinates)
    end_time = spec.duration_s
    rng = derive_rng(spec.seed, "workload-knn")

    overlaps: List[float] = []
    stretches: List[float] = []
    for _ in range(queries):
        target = hosts[int(rng.integers(0, len(hosts)))]
        predicted = [node_id for node_id, _ in index.nearest_to_node(target, k=k)]
        by_true_rtt = sorted(
            (dataset.true_rtt_ms(target, other, end_time), other)
            for other in hosts
            if other != target
        )
        true_best = [other for _, other in by_true_rtt[:k]]
        optimal_mean = sum(rtt for rtt, _ in by_true_rtt[:k]) / k
        predicted_mean = (
            sum(dataset.true_rtt_ms(target, other, end_time) for other in predicted) / k
        )
        overlaps.append(len(set(predicted) & set(true_best)) / k)
        stretches.append(predicted_mean / optimal_mean if optimal_mean > 0.0 else 1.0)
    return {
        "knn_mean_overlap": float(sum(overlaps) / len(overlaps)),
        "knn_mean_stretch": float(sum(stretches) / len(stretches)),
    }


def _queries_workload(
    spec: ScenarioSpec,
    coordinates: Dict[str, Coordinate],
    workload_payload: Dict[str, Any],
    *,
    coordinate_arrays: Optional[Tuple[List[str], Any, Any]] = None,
    profile: Optional[Dict[str, float]] = None,
) -> Dict[str, Optional[float]]:
    """Serve a deterministic query mix from the coordinate query service.

    The final coordinates are published into a one-shard
    :class:`~repro.server.sharding.ShardedCoordinateStore` and a seeded
    query stream is driven through its batch path twice -- once on the
    configured spatial index and once on the linear oracle -- so the cell
    reports both the service's behaviour (cache hit rate, per-kind counts)
    and an end-to-end index/oracle agreement check.  The store's timer
    and the workload clock are pinned to a logical zero so every reported
    number is a pure function of the spec: engine results stay
    byte-identical across worker counts and cache states.

    When the run produced its coordinates as arrays (vectorized backend),
    the indexed leg publishes them through the array path
    (``publish_epoch``) -- with the ``dense`` index the whole dataset ->
    simulation -> snapshot -> answered-workload pipeline never
    materialises per-node objects.  The oracle leg always uses the
    object-based ingest (``from_coordinates``), so whenever the indexed
    leg served from arrays the agreement check also guards the array
    bridge -- including the ``index='linear'`` configuration, where the
    two legs differ only in ingest path.  ``profile`` (when given)
    receives the snapshot-publish and query-serving wall-clock phases.
    """
    from repro.server.sharding import ShardedCoordinateStore
    from repro.service.workload import generate_queries, run_workload

    hosts = sorted(coordinates)
    if len(hosts) < 2:
        return {"query_count": None, "query_cache_hit_rate": None}
    workload = spec.workload
    queries = generate_queries(
        hosts,
        int(workload.param("count")),
        mix=str(workload.param("mix")),
        seed=spec.seed,
        k=int(workload.param("k")),
        radius_ms=float(workload.param("radius_ms")),
    )

    def record_phase(phase: str, seconds: float) -> None:
        if profile is not None:
            profile[phase] = round(profile.get(phase, 0.0) + seconds, 6)

    def serve(index_kind: str, *, use_arrays: bool):
        started = time.perf_counter()
        options = {
            "shards": 1,
            "index_kind": index_kind,
            "cache_entries": int(workload.param("cache_entries")),
            "timer": lambda: 0.0,
        }
        if use_arrays and coordinate_arrays is not None:
            store = ShardedCoordinateStore(**options)
            store.publish_epoch(*coordinate_arrays, source=spec.name)
        else:
            store = ShardedCoordinateStore.from_coordinates(
                coordinates, source=spec.name, **options
            )
        record_phase("snapshot_publish_s", time.perf_counter() - started)
        started = time.perf_counter()
        report = run_workload(
            store,
            queries,
            batch_size=int(workload.param("batch_size")),
            timer=lambda: 0.0,
        )
        record_phase(
            "query_serve_s" if use_arrays else "oracle_serve_s",
            time.perf_counter() - started,
        )
        return report

    index_kind = str(workload.param("index"))
    served_from_arrays = coordinate_arrays is not None
    indexed = serve(index_kind, use_arrays=True)
    # With the linear index configured AND no array bridge in play, the
    # oracle run would compare the linear scan with itself; skip the
    # duplicate work.  When the indexed leg served from arrays, the
    # object-ingest oracle leg is what validates the bridge, so it runs
    # even for index='linear'.
    oracle = (
        indexed
        if index_kind == "linear" and not served_from_arrays
        else serve("linear", use_arrays=False)
    )
    if profile is not None:
        profile["query_count"] = float(indexed.query_count)
    neighbor_rtts = [
        neighbor["predicted_rtt_ms"]
        for query, result in zip(queries, indexed.results)
        if query.kind in ("knn", "nearest")
        for neighbor in result.payload["neighbors"]
    ]
    workload_payload.update(
        {
            "index_kind": index_kind,
            "checksum": indexed.checksum,
            "stats": dict(indexed.stats),
        }
    )
    return {
        "query_count": float(indexed.query_count),
        "query_cache_hit_rate": float(indexed.cache_hit_rate),
        "query_index_linear_agreement": float(indexed.checksum == oracle.checksum),
        "query_mean_neighbor_rtt_ms": (
            float(sum(neighbor_rtts) / len(neighbor_rtts)) if neighbor_rtts else None
        ),
    }


def _placement_workload(spec, dataset, coordinates) -> Dict[str, Optional[float]]:
    """Operator placement: choose hosts by coordinates, score by true RTTs.

    For each synthetic operator (a set of endpoint hosts), the host
    minimising the *predicted* endpoint cost is selected and scored
    against the host minimising the *true* endpoint cost.
    """
    hosts = sorted(coordinates)
    operators = int(spec.workload.param("operators"))
    endpoints = min(int(spec.workload.param("endpoints")), len(hosts))
    if operators < 1 or endpoints < 1:
        return {"placement_mean_stretch": None, "placement_mean_cost_ms": None}

    end_time = spec.duration_s
    rng = derive_rng(spec.seed, "workload-placement")

    def true_cost(host: str, endpoint_hosts: List[str]) -> float:
        return sum(
            dataset.true_rtt_ms(host, endpoint, end_time)
            for endpoint in endpoint_hosts
            if endpoint != host
        )

    stretches: List[float] = []
    costs: List[float] = []
    for _ in range(operators):
        chosen_indexes = rng.choice(len(hosts), size=endpoints, replace=False)
        endpoint_hosts = [hosts[int(i)] for i in chosen_indexes]
        chosen = min(
            hosts,
            key=lambda host: sum(
                coordinates[host].distance(coordinates[endpoint])
                for endpoint in endpoint_hosts
            ),
        )
        chosen_cost = true_cost(chosen, endpoint_hosts)
        optimal_cost = min(true_cost(host, endpoint_hosts) for host in hosts)
        costs.append(chosen_cost)
        stretches.append(chosen_cost / optimal_cost if optimal_cost > 0.0 else 1.0)
    return {
        "placement_mean_stretch": float(sum(stretches) / len(stretches)),
        "placement_mean_cost_ms": float(sum(costs) / len(costs)),
    }
