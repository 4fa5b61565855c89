"""Serving-daemon benchmark: throughput and tail latency under shard scaling.

Builds a synthetic clustered coordinate universe, serves it through the
asyncio daemon at 1 / 2 / 4 shards, and drives the closed-loop load
harness over real TCP connections, recording queries/sec and *exact*
p50/p99 per-query-kind latency (the load harness sizes its reservoirs
above the query count) into ``BENCH_server.json`` at the repo root.

Correctness is asserted two ways on every configuration:

* the full response stream at every shard count is checksummed against
  the 1-shard stream (cross-shard scatter-gather identity);
* a query prefix is checksummed against the in-process single-store
  *linear oracle* (end-to-end wire identity) -- the prefix keeps the
  linear scan tractable at 50k nodes.

A second section measures streaming ingest: epochs published into the
daemon while a closed loop keeps querying, recording publish latency and
that serving never failed during rollover.

Scaling caveat: each query's shard legs execute sequentially on one
pool thread and the pure-Python index work is GIL-bound, so qps scaling
with shard count comes only from cross-request overlap and sits well
below the shard count on any host (the artifact records
``host_cpu_count``; this repo's 1-core build host measures < 1x -- what
sharding buys there is the shorter per-shard scan, i.e. tail latency).
The aspirational >=4x figure is therefore *reported*, never
hard-enforced; what the regression gate enforces are the identity
checks and the committed qps ratios -- the same treatment the
engine-scaling benchmark gives 1-core hosts.

Run directly::

    PYTHONPATH=src python benchmarks/bench_server.py          # full (50k nodes)
    PYTHONPATH=src python benchmarks/bench_server.py --smoke  # CI-sized
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

from repro.server.daemon import CoordinateServer
from repro.server.load import run_load, synthetic_arrays
from repro.server.sharding import ShardedCoordinateStore
from repro.service.planner import QueryPlanner
from repro.service.snapshot import SnapshotStore
from repro.service.workload import generate_queries, payload_checksum, run_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_server.json"

SHARD_COUNTS = (1, 2, 4)
FULL_NODES = 50_000
SMOKE_NODES = 2_000
#: Oracle-verified prefix length (the linear scan at 50k nodes bounds it).
ORACLE_PREFIX = 120


def oracle_prefix_checksum(node_ids, components, heights, queries) -> str:
    store = SnapshotStore.from_arrays(
        node_ids, components.copy(), heights.copy(), index_kind="linear"
    )
    planner = QueryPlanner(store, timer=lambda: 0.0)
    report = run_workload(planner, queries, timer=lambda: 0.0)
    return report.checksum


def bench_shards(
    shards: int,
    node_ids,
    components,
    heights,
    queries,
    *,
    concurrency: int,
    connections: int,
    index_kind: str,
) -> Dict[str, object]:
    store = ShardedCoordinateStore(shards, index_kind=index_kind)
    store.publish_epoch(node_ids, components.copy(), heights.copy(), source="bench")
    server = CoordinateServer(store, admission_limit=8192)
    with server.run_in_thread() as handle:
        # One warm lap over a small prefix pays connection setup and any
        # lazy index work before the timed run.
        run_load(handle.address, queries[:64], mode="closed", concurrency=concurrency)
        report = run_load(
            handle.address,
            queries,
            mode="closed",
            concurrency=concurrency,
            connections=connections,
        )
    prefix_checksum = payload_checksum(
        [type("R", (), {"payload": r.get("payload")})() for r in report.responses[:ORACLE_PREFIX]]
    )
    return {
        "shards": shards,
        "queries": report.query_count,
        "errors": report.errors,
        "elapsed_s": round(report.elapsed_s, 4),
        "qps": round(report.queries_per_s, 1),
        "p50_ms": {kind: entry["p50_ms"] for kind, entry in report.kinds.items()},
        "p99_ms": {kind: entry["p99_ms"] for kind, entry in report.kinds.items()},
        "latency_exact": all(entry["latency_exact"] for entry in report.kinds.values()),
        "checksum": report.checksum,
        "prefix_checksum": prefix_checksum,
        # Mergeable latency histograms per query kind; the regression
        # gate's tail analyzer (repro.obs.regression) diffs these against
        # the committed baseline's.
        "telemetry": report.telemetry,
    }


def bench_ingest(
    nodes: int,
    *,
    epochs: int,
    index_kind: str,
    shards: int,
    query_count: int,
    corrupt_fraction: float = 0.0,
) -> Dict[str, object]:
    """Stream epochs into a live daemon while a closed loop queries it.

    ``corrupt_fraction`` > 0 zeroes that fraction of coordinate rows
    (a fixed seed-derived set, the same rows every epoch) before every
    publish after the first -- a fault-injection mode for exercising the
    accuracy gate: serving stays error-free, but the store's coordinate
    health degrades and the artifact's ``health`` section records it.
    """
    import threading

    node_ids, components, heights = synthetic_arrays(nodes)
    store = ShardedCoordinateStore(shards, index_kind=index_kind, history=epochs + 2)
    store.publish_epoch(node_ids, components.copy(), heights.copy(), source="e0")
    queries = generate_queries(node_ids, query_count, mix="mixed", seed=13)
    publish_times: List[float] = []
    corrupt_rows = None
    if corrupt_fraction > 0.0:
        rng = np.random.default_rng(99)
        count = max(1, int(round(nodes * corrupt_fraction)))
        corrupt_rows = rng.choice(nodes, size=count, replace=False)

    def ingest() -> None:
        for epoch in range(1, epochs):
            # Pure translations: distance-preserving, so the health
            # tracker's self-referenced relative error stays ~0 on a
            # clean run -- any degradation the gate sees is injected.
            shifted = components + epoch * 3.0
            shifted_heights = heights.copy()
            if corrupt_rows is not None:
                shifted[corrupt_rows] = 0.0
                shifted_heights[corrupt_rows] = 0.0
            started = time.perf_counter()
            store.publish_epoch(node_ids, shifted, shifted_heights, source=f"e{epoch}")
            publish_times.append(time.perf_counter() - started)

    server = CoordinateServer(store, admission_limit=8192)
    with server.run_in_thread() as handle:
        writer = threading.Thread(target=ingest)
        writer.start()
        report = run_load(handle.address, queries, mode="closed", concurrency=8)
        writer.join()
    return {
        "nodes": nodes,
        "shards": shards,
        "epochs": epochs,
        "corrupt_fraction": corrupt_fraction,
        "mean_publish_s": round(float(np.mean(publish_times)), 6) if publish_times else None,
        "max_publish_s": round(float(np.max(publish_times)), 6) if publish_times else None,
        "queries_during_ingest": report.query_count,
        "errors_during_ingest": report.errors,
        "qps_during_ingest": round(report.queries_per_s, 1),
        "versions_observed": len(report.versions),
        "serving_during_ingest_ok": report.errors == 0,
        "telemetry": report.telemetry,
        # Coordinate health over the publish stream: a pure function of
        # the (seeded) epochs, so it is byte-deterministic run to run --
        # what the accuracy gate diffs against the committed baseline.
        # The timer-based staleness section is deliberately excluded.
        "health": store.health(
            ["generation", "relative_error", "drift", "neighbor_churn"]
        ),
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small universe / query counts for CI",
    )
    parser.add_argument(
        "--out", type=Path, default=ARTIFACT, help="artifact path (BENCH_server.json)"
    )
    parser.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="fault injection: zero this fraction of coordinate rows before "
        "every ingest publish after the first (the accuracy gate must "
        "catch the degradation; 0 disables)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.corrupt < 1.0:
        print("error: --corrupt must be within [0, 1)", file=sys.stderr)
        return 2

    nodes = SMOKE_NODES if args.smoke else FULL_NODES
    query_count = 2_000 if args.smoke else 8_000
    concurrency = 16
    connections = 4
    index_kind = "vptree"

    print(f"building {nodes}-node universe...", flush=True)
    node_ids, components, heights = synthetic_arrays(nodes)
    queries = generate_queries(node_ids, query_count, mix="mixed", seed=29)
    print(
        f"linear-oracle prefix ({ORACLE_PREFIX} queries, single store)...", flush=True
    )
    oracle_checksum = oracle_prefix_checksum(
        node_ids, components, heights, queries[:ORACLE_PREFIX]
    )

    artifact: Dict[str, object] = {
        "benchmark": "server_load",
        "smoke": args.smoke,
        "host_cpu_count": os.cpu_count(),
        "nodes": nodes,
        "queries": query_count,
        "mix": "mixed",
        "index_kind": index_kind,
        "concurrency": concurrency,
        "connections": connections,
        "oracle_prefix": ORACLE_PREFIX,
        "shard_scaling": [],
    }
    base_qps = None
    base_checksum = None
    for shards in SHARD_COUNTS:
        print(f"serving at {shards} shard(s)...", flush=True)
        entry = bench_shards(
            shards,
            node_ids,
            components,
            heights,
            queries,
            concurrency=concurrency,
            connections=connections,
            index_kind=index_kind,
        )
        if base_qps is None:
            base_qps = entry["qps"]
            base_checksum = entry["checksum"]
        entry["qps_ratio_vs_1_shard"] = round(entry["qps"] / base_qps, 3)
        entry["identical_to_1_shard"] = entry["checksum"] == base_checksum
        entry["oracle_prefix_identical"] = entry["prefix_checksum"] == oracle_checksum
        artifact["shard_scaling"].append(entry)  # type: ignore[union-attr]
        print(
            f"  {shards} shard(s): {entry['qps']:>10.1f} q/s "
            f"({entry['qps_ratio_vs_1_shard']}x vs 1 shard)  "
            f"knn p99 {entry['p99_ms'].get('knn', float('nan')):.3f} ms  "
            f"identical {entry['identical_to_1_shard']}  "
            f"oracle {entry['oracle_prefix_identical']}"
        )

    print("streaming-ingest benchmark...", flush=True)
    artifact["ingest"] = bench_ingest(
        nodes,
        epochs=8 if args.smoke else 12,
        index_kind=index_kind,
        shards=2,
        query_count=max(query_count // 2, 500),
        corrupt_fraction=args.corrupt,
    )
    ingest = artifact["ingest"]
    print(
        f"  {ingest['epochs']} epochs at {nodes} nodes: publish mean "
        f"{ingest['mean_publish_s']}s max {ingest['max_publish_s']}s, "
        f"{ingest['qps_during_ingest']} q/s during ingest "
        f"({ingest['versions_observed']} version(s) observed, "
        f"errors {ingest['errors_during_ingest']})"
    )
    health = ingest["health"]
    print(
        "  ingest health: rel err median "
        f"{health['relative_error']['median']}, mean "
        f"{health['relative_error']['mean']}, p95 "
        f"{health['relative_error']['p95']}; drift mean velocity "
        f"{health['drift']['mean_velocity']}"
        + (f"  [corrupt {args.corrupt:.0%}]" if args.corrupt else "")
    )

    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"artifact written to {args.out}")

    checks = [
        entry["identical_to_1_shard"] and entry["oracle_prefix_identical"]
        for entry in artifact["shard_scaling"]  # type: ignore[union-attr]
    ] + [ingest["serving_during_ingest_ok"]]
    if not all(checks):
        print("error: a sharded configuration diverged from the oracle", file=sys.stderr)
        return 1
    last = artifact["shard_scaling"][-1]  # type: ignore[index]
    ratio = last["qps_ratio_vs_1_shard"]
    cores = os.cpu_count() or 1
    # Reported, never hard-enforced: each query's scatter executes its
    # shard legs sequentially on one pool thread, and the pure-Python
    # index legs are GIL-bound, so qps scaling comes only from cross-
    # request overlap and is bounded well below the shard count on any
    # host (the 1-core build host records < 1x; see README).  The gate's
    # committed qps ratios and the identity checks above are the
    # enforced surface; the aspirational 4x figure stays visible here.
    print(
        f"qps scaling 1 -> {last['shards']} shards at {nodes} nodes: {ratio}x "
        f"(aspirational bar: >=4x; host has {cores} core(s); "
        "enforced: identity checks + baselined ratios)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
