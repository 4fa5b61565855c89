"""Query-service benchmark: linear scan versus spatial indexes at scale.

Builds synthetic clustered coordinate snapshots at 1k / 10k / 100k nodes,
serves identical k-nearest query streams through the linear oracle, the
vp-tree and the dense index (one query at a time: a batch of one through
its kernel), and records queries/sec plus exact p50/p99
per-query latency (the ``StreamingPercentile`` capacity is sized above the
query count, so the reported tails are exact, not reservoir estimates)
into ``BENCH_service.json`` at the repo root.  A second section reports
end-to-end serving throughput -- the batching planner with its
snapshot-versioned cache on the vp-tree index under the ``mixed``
workload.

Every spatial result is checked for equality against the linear oracle on
the shared query prefix; the artifact records the check.  The acceptance
bar is a >=10x queries/sec advantage for the vp-tree over the linear scan
at the largest size.

Run directly::

    PYTHONPATH=src python benchmarks/bench_service.py          # full (1k/10k/100k)
    PYTHONPATH=src python benchmarks/bench_service.py --smoke  # CI-sized

``--smoke`` shrinks the sizes and query counts so the script finishes in
seconds; the artifact is tagged ``"smoke": true`` and the 10x bar is
reported but not enforced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.coordinate import Coordinate
from repro.overlay.knn import CoordinateIndex
from repro.service.index import build_index
from repro.service.planner import QueryPlanner
from repro.service.snapshot import SnapshotStore
from repro.service.workload import generate_queries, run_workload
from repro.stats.percentile import StreamingPercentile

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_service.json"

#: Full-run sizes and per-kind query counts (linear is too slow at 100k to
#: serve as many queries as the sub-linear indexes; qps normalises).
FULL_SIZES = (1_000, 10_000, 100_000)
SMOKE_SIZES = (1_000, 5_000)
K = 3


def synth_coordinates(n: int, *, seed: int = 7, clusters: int = 12) -> Dict[str, Coordinate]:
    """A clustered 3-D coordinate universe, like a multi-region deployment."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-300.0, 300.0, size=(clusters, 3))
    assignments = rng.integers(0, clusters, size=n)
    points = centers[assignments] + rng.normal(scale=25.0, size=(n, 3))
    return {
        f"node{i:06d}": Coordinate(points[i].tolist()) for i in range(n)
    }


def query_points(coords: Dict[str, Coordinate], count: int, *, seed: int = 11) -> List[Coordinate]:
    """Query targets drawn from the same distribution as the nodes."""
    rng = np.random.default_rng(seed)
    keys = list(coords)
    picked = rng.integers(0, len(keys), size=count)
    jitter = rng.normal(scale=5.0, size=(count, 3))
    return [
        Coordinate(
            [c + j for c, j in zip(coords[keys[int(i)]].components, row)]
        )
        for i, row in zip(picked, jitter)
    ]


def bench_index(index: CoordinateIndex, targets: List[Coordinate]) -> Dict[str, float]:
    """Serve k-NN queries one at a time; exact latency percentiles."""
    latency = StreamingPercentile(capacity=max(len(targets), 1))
    results = []
    started = time.perf_counter()
    for target in targets:
        t0 = time.perf_counter()
        results.append(index.nearest(target, K))
        latency.add((time.perf_counter() - t0) * 1e6)
    elapsed = time.perf_counter() - started
    assert latency.is_exact
    return {
        "queries": len(targets),
        "elapsed_s": round(elapsed, 4),
        "qps": round(len(targets) / elapsed, 1) if elapsed > 0 else float("inf"),
        "p50_us": round(latency.percentile(50.0), 1),
        "p99_us": round(latency.percentile(99.0), 1),
        "results": results,  # stripped before serialisation
    }


def bench_size(nodes: int, *, smoke: bool) -> Dict[str, object]:
    coords = synth_coordinates(nodes)
    # Enough queries for stable numbers, few enough that the linear scan
    # at 100k nodes stays tractable.
    linear_queries = 100 if nodes <= 10_000 else 30
    fast_queries = 500 if not smoke else 200
    if smoke:
        linear_queries = min(linear_queries, 50)
    targets = query_points(coords, max(linear_queries, fast_queries))

    report: Dict[str, object] = {"nodes": nodes, "kinds": {}}
    kinds_report: Dict[str, Dict[str, object]] = report["kinds"]  # type: ignore[assignment]

    linear = CoordinateIndex()
    linear.update_many(coords)
    linear_bench = bench_index(linear, targets[:linear_queries])
    linear_results = linear_bench.pop("results")
    kinds_report["linear"] = linear_bench

    for kind in ("vptree", "dense"):
        index = build_index(kind)
        index.update_many(coords)
        build_start = time.perf_counter()
        index.nearest(targets[0], 1)  # force the lazy build
        build_s = time.perf_counter() - build_start
        bench = bench_index(index, targets[:fast_queries])
        results = bench.pop("results")
        identical = results[:linear_queries] == linear_results
        bench["build_s"] = round(build_s, 3)
        bench["identical_to_linear"] = identical
        bench["speedup_vs_linear"] = round(bench["qps"] / linear_bench["qps"], 2)
        kinds_report[kind] = bench
    return report


def bench_serving(nodes: int, *, smoke: bool) -> Dict[str, object]:
    """End-to-end planner throughput: batching + cache on the vp-tree."""
    coords = synth_coordinates(nodes)
    store = SnapshotStore.from_coordinates(coords, index_kind="vptree", source="bench")
    store.index_for()  # pay the build before timing the serving path
    count = 2_000 if smoke else 20_000
    queries = generate_queries(list(coords), count, mix="mixed", seed=3, k=K)
    planner = QueryPlanner(store)
    report = run_workload(planner, queries, batch_size=128)
    stats = dict(report.stats)
    return {
        "nodes": nodes,
        "mix": "mixed",
        "queries": report.query_count,
        "elapsed_s": round(report.elapsed_s, 3),
        "qps": round(report.queries_per_s, 1),
        "cache_hit_rate": round(report.cache_hit_rate, 4),
        "batches": stats["batches_flushed"],
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes / query counts for CI; 10x bar reported, not enforced",
    )
    parser.add_argument(
        "--out", type=Path, default=ARTIFACT, help="artifact path (BENCH_service.json)"
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    artifact: Dict[str, object] = {
        "benchmark": "service_query_scaling",
        "smoke": args.smoke,
        "k": K,
        "host_cpu_count": os.cpu_count(),
        "sizes": [],
    }
    for nodes in sizes:
        print(f"benchmarking {nodes} nodes...", flush=True)
        entry = bench_size(nodes, smoke=args.smoke)
        artifact["sizes"].append(entry)  # type: ignore[union-attr]
        for kind, numbers in entry["kinds"].items():  # type: ignore[union-attr]
            extras = ""
            if kind != "linear":
                extras = (
                    f"  build {numbers['build_s']}s  "
                    f"speedup {numbers['speedup_vs_linear']}x  "
                    f"identical {numbers['identical_to_linear']}"
                )
            print(
                f"  {kind:<7} {numbers['qps']:>10.1f} q/s  "
                f"p99 {numbers['p99_us']:>8.1f} us{extras}"
            )

    serving_nodes = sizes[-1]
    print(f"serving benchmark (planner + cache, {serving_nodes} nodes)...", flush=True)
    artifact["serving"] = bench_serving(serving_nodes, smoke=args.smoke)
    print(
        f"  planner {artifact['serving']['qps']:>10.1f} q/s  "
        f"cache hit rate {artifact['serving']['cache_hit_rate']:.1%}"
    )

    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"artifact written to {args.out}")

    largest = artifact["sizes"][-1]  # type: ignore[index]
    checks = [
        kinds["identical_to_linear"]
        for size in artifact["sizes"]  # type: ignore[union-attr]
        for name, kinds in size["kinds"].items()
        if name != "linear"
    ]
    if not all(checks):
        print("error: a spatial index diverged from the linear oracle", file=sys.stderr)
        return 1
    speedup = largest["kinds"]["vptree"]["speedup_vs_linear"]
    bar = f"vptree speedup at {largest['nodes']} nodes: {speedup}x (bar: >=10x)"
    if args.smoke:
        print(bar + " [smoke: not enforced]")
        return 0
    print(bar)
    if speedup < 10.0:
        print("error: vp-tree did not clear the 10x bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
