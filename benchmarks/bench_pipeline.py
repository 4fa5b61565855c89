"""End-to-end array-native pipeline benchmark: sim -> snapshot -> queries.

Exercises the three seams this repo keeps in array land and records their
speedups into ``BENCH_pipeline.json`` at the repo root:

1. **Simulation** -- the full paper configuration (MP filter + RELATIVE
   heuristic + height-augmented coordinates) on the vectorized batch
   backend vs the scalar per-node oracle, with the byte-identical
   coordinate check.  This is the configuration the vectorized backend
   used to *reject*; the acceptance bar is >= 10x scalar ticks/sec at
   5,000 nodes.
2. **Snapshot ingest** -- publishing a whole population into a
   :class:`~repro.service.snapshot.SnapshotStore` through the zero-copy
   array path (``publish_epoch``) vs the object path (materialise
   per-node ``Coordinate`` objects, then ``from_coordinates``).
3. **Query serving** -- a 500-query same-version k-NN batch on the
   ``dense`` index: one batched planner flush vs per-query planner
   execution, with the results checked *identical* (floats, ordering,
   ties) to both the per-query path and the linear-scan oracle.  Both
   legs run the index's one pruned kernel -- a batch of 500 against 500
   batches of one -- so the ratio is what batching saves in per-query
   overhead.  The acceptance bar is >= 1x at 50,000 nodes.

Run directly::

    PYTHONPATH=src python benchmarks/bench_pipeline.py          # full
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke  # CI-sized

``--smoke`` shrinks every stage so the script finishes in seconds; the
artifact is tagged ``"smoke": true`` and the acceptance bars are reported
but not enforced.  The CI regression gate compares the artifact's
hardware-independent speedup *ratios* against the committed baseline in
``benchmarks/baselines/BENCH_pipeline_smoke.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import NodeConfig
from repro.core.coordinate import Coordinate
from repro.core.vivaldi import VivaldiConfig
from repro.latency.planetlab import PlanetLabDataset
from repro.netsim.batch import BatchSimulationResult, run_batch_simulation
from repro.netsim.runner import SimulationConfig
from repro.service.planner import Query, QueryPlanner
from repro.service.snapshot import SnapshotStore
from repro.service.workload import payload_checksum

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_pipeline.json"

#: (nodes, ticks) for the simulation stage.  96+ ticks wherever the scalar
#: oracle can afford them so the RELATIVE windows (2 * 32 observations)
#: become ready and the locale-scaled trigger actually fires.
FULL_SIM_SIZES: Tuple[Tuple[int, int], ...] = ((500, 96), (5_000, 24))
SMOKE_SIM_SIZES: Tuple[Tuple[int, int], ...] = ((200, 80), (600, 12))

#: Node count for the ingest + query stages.
FULL_SERVICE_NODES = 50_000
SMOKE_SERVICE_NODES = 5_000

QUERY_BATCH = 500
QUERY_K = 5
INGEST_REPEATS = 5

SAMPLING_INTERVAL_S = 5.0
SIM_ACCEPTANCE_NODES = 5_000
SIM_ACCEPTANCE_SPEEDUP = 10.0
#: Batched over per-query at the full size: batching must not lose.  The
#: per-query leg runs the same kernel with a batch of one; measured
#: 1.2-2.2x (median ~1.5x) over ten runs on a 2-vCPU host.
QUERY_ACCEPTANCE_SPEEDUP = 1.0


def paper_config() -> NodeConfig:
    """The headline paper pipeline: MP filter, RELATIVE updates, heights."""
    return NodeConfig.preset("mp_relative", vivaldi=VivaldiConfig(use_height=True))


# ----------------------------------------------------------------------
# Stage 1: simulation (RELATIVE + height, scalar vs vectorized)
# ----------------------------------------------------------------------
def _coords_identical(a: BatchSimulationResult, b: BatchSimulationResult) -> bool:
    for left, right in zip(a.final_system, b.final_system):
        if tuple(left.components) != tuple(right.components):
            return False
        if left.height != right.height:
            return False
    return True


def bench_simulation(nodes: int, ticks: int, *, seed: int = 0) -> Dict[str, object]:
    config = SimulationConfig(
        nodes=nodes,
        duration_s=ticks * SAMPLING_INTERVAL_S,
        node_config=paper_config(),
        seed=seed,
    )
    dataset = PlanetLabDataset.generate(nodes, seed=seed, parameters=config.dataset)
    vectorized = run_batch_simulation(config, backend="vectorized", dataset=dataset)
    scalar = run_batch_simulation(config, backend="scalar", dataset=dataset)
    identical = _coords_identical(scalar, vectorized)
    speedup = (
        vectorized.ticks_per_s / scalar.ticks_per_s
        if scalar.ticks_per_s > 0
        else float("inf")
    )
    print(
        f"  sim {nodes:>6} nodes x {ticks:>3} ticks: scalar "
        f"{scalar.ticks_per_s:8.2f} t/s, vectorized {vectorized.ticks_per_s:8.1f} t/s "
        f"-> {speedup:6.1f}x (identical={identical})"
    )
    return {
        "nodes": nodes,
        "ticks": ticks,
        "preset": "mp_relative + use_height",
        "scalar_ticks_per_s": round(scalar.ticks_per_s, 2),
        "vectorized_ticks_per_s": round(vectorized.ticks_per_s, 2),
        "speedup": round(speedup, 2),
        "coords_byte_identical": identical,
    }


# ----------------------------------------------------------------------
# Stage 2: snapshot ingest (zero-copy arrays vs per-node objects)
# ----------------------------------------------------------------------
def _synthetic_population(nodes: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    node_ids = [f"host{i:06d}" for i in range(nodes)]
    components = rng.normal(scale=60.0, size=(nodes, 3))
    heights = np.where(
        np.arange(nodes) % 5 == 0, np.abs(rng.normal(scale=3.0, size=nodes)), 0.0
    )
    return node_ids, components, heights


def bench_ingest(nodes: int) -> Dict[str, object]:
    node_ids, components, heights = _synthetic_population(nodes)

    def array_leg() -> float:
        started = time.perf_counter()
        SnapshotStore.from_arrays(node_ids, components.copy(), heights.copy())
        return time.perf_counter() - started

    def object_leg() -> float:
        # The object path starts from the same arrays, so the Coordinate
        # materialisation it forces is part of its cost.
        started = time.perf_counter()
        coordinates = {
            node_id: Coordinate(row.tolist(), float(height))
            for node_id, row, height in zip(node_ids, components, heights)
        }
        SnapshotStore.from_coordinates(coordinates)
        return time.perf_counter() - started

    array_s = min(array_leg() for _ in range(INGEST_REPEATS))
    object_s = min(object_leg() for _ in range(INGEST_REPEATS))
    speedup = object_s / array_s if array_s > 0 else float("inf")
    print(
        f"  ingest {nodes:>6} nodes: objects {object_s * 1e3:8.2f} ms, arrays "
        f"{array_s * 1e3:8.2f} ms -> {speedup:6.1f}x"
    )
    return {
        "nodes": nodes,
        "object_ingest_s": round(object_s, 6),
        "array_ingest_s": round(array_s, 6),
        "speedup": round(speedup, 2),
    }


# ----------------------------------------------------------------------
# Stage 3: batched dense queries vs per-query execution vs the oracle
# ----------------------------------------------------------------------
def bench_queries(nodes: int) -> Dict[str, object]:
    node_ids, components, heights = _synthetic_population(nodes)
    rng = np.random.default_rng(7)
    targets = [
        node_ids[int(i)]
        for i in rng.choice(nodes, size=min(QUERY_BATCH, nodes), replace=False)
    ]
    queries = [Query.knn(target, k=QUERY_K) for target in targets]

    def dense_planner() -> QueryPlanner:
        store = SnapshotStore.from_arrays(
            node_ids, components.copy(), heights.copy(), index_kind="dense"
        )
        store.index_for()  # build outside the timed region
        return QueryPlanner(store)

    planner = dense_planner()
    started = time.perf_counter()
    for query in queries:
        planner.submit(query)
    batched_results = planner.flush()
    batched_s = time.perf_counter() - started

    planner = dense_planner()
    started = time.perf_counter()
    single_results = [planner.execute(query) for query in queries]
    single_s = time.perf_counter() - started

    coordinates = {
        node_id: Coordinate(row.tolist(), float(height))
        for node_id, row, height in zip(node_ids, components, heights)
    }
    linear_store = SnapshotStore.from_coordinates(coordinates, index_kind="linear")
    linear_planner = QueryPlanner(linear_store)
    started = time.perf_counter()
    linear_results = [linear_planner.execute(query) for query in queries]
    linear_s = time.perf_counter() - started

    batched_checksum = payload_checksum(batched_results)
    speedup = single_s / batched_s if batched_s > 0 else float("inf")
    identical_single = batched_checksum == payload_checksum(single_results)
    identical_linear = batched_checksum == payload_checksum(linear_results)
    print(
        f"  query {nodes:>6} nodes, {len(queries)} knn: batched {batched_s * 1e3:8.1f} ms, "
        f"per-query {single_s * 1e3:8.1f} ms, linear {linear_s * 1e3:9.1f} ms -> "
        f"{speedup:5.1f}x (single={identical_single}, oracle={identical_linear})"
    )
    return {
        "nodes": nodes,
        "queries": len(queries),
        "k": QUERY_K,
        "batched_s": round(batched_s, 6),
        "single_s": round(single_s, 6),
        "linear_s": round(linear_s, 6),
        "batched_queries_per_s": (
            round(len(queries) / batched_s, 1) if batched_s > 0 else float("inf")
        ),
        "batched_over_single": round(speedup, 2),
        "batched_identical_to_single": identical_single,
        "identical_to_linear": identical_linear,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(smoke: bool, out_path: Path) -> int:
    sim_sizes = SMOKE_SIM_SIZES if smoke else FULL_SIM_SIZES
    service_nodes = SMOKE_SERVICE_NODES if smoke else FULL_SERVICE_NODES
    print(f"array-native pipeline benchmark ({'smoke' if smoke else 'full'} mode)")

    simulation: List[Dict[str, object]] = [
        bench_simulation(nodes, ticks) for nodes, ticks in sim_sizes
    ]
    ingest = bench_ingest(service_nodes)
    query = bench_queries(service_nodes)

    sim_bar_nodes = (
        SIM_ACCEPTANCE_NODES if not smoke else max(nodes for nodes, _ in sim_sizes)
    )
    sim_at_bar = next(r for r in simulation if r["nodes"] == sim_bar_nodes)
    met = (
        float(sim_at_bar["speedup"]) >= SIM_ACCEPTANCE_SPEEDUP
        and float(query["batched_over_single"]) >= QUERY_ACCEPTANCE_SPEEDUP
        and all(bool(r["coords_byte_identical"]) for r in simulation)
        and bool(query["batched_identical_to_single"])
        and bool(query["identical_to_linear"])
    )

    payload = {
        "benchmark": "pipeline_array_native",
        "smoke": smoke,
        "sampling_interval_s": SAMPLING_INTERVAL_S,
        "host_cpu_count": os.cpu_count(),
        "simulation": simulation,
        "ingest": ingest,
        "query": query,
        "acceptance": {
            "bar": (
                f"RELATIVE+height sim >= {SIM_ACCEPTANCE_SPEEDUP:.0f}x scalar at "
                f"{sim_bar_nodes} nodes with byte-identical coordinates; "
                f"batched dense >= {QUERY_ACCEPTANCE_SPEEDUP:.1f}x per-query at "
                f"{service_nodes} nodes with oracle-identical results"
            ),
            "sim_speedup": sim_at_bar["speedup"],
            "batched_query_speedup": query["batched_over_single"],
            "met": met,
            "enforced": not smoke,
        },
    }
    out_path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"written: {out_path}")
    if not smoke and not met:
        print("ACCEPTANCE FAILED", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--out", type=Path, default=ARTIFACT, help="artifact path")
    args = parser.parse_args(argv)
    return run(args.smoke, args.out)


if __name__ == "__main__":
    sys.exit(main())
