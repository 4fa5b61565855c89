"""Chaos-recovery benchmark: serving quality across injected faults.

For each fault kind the harness serves a synthetic clustered universe
from an in-process daemon (2 shards, vptree index) and drives three
single-worker closed-loop legs over real TCP:

1. **pre** -- a healthy leg establishing the baseline throughput;
2. **fault** -- the same query stream with a deterministic
   :class:`~repro.chaos.schedule.FaultSchedule` installed (faults fire
   on request/publish *counts*, never the wall clock);
3. **post** -- after every fault has cleared (kill -> restart, slow ->
   delay removed, burst -> slots released), a healthy leg again.

``qps_recovery_ratio_<kind>`` = post over pre: serving a fault must not
leave throughput damaged once the fault clears.  Each cell also audits
the fault leg for torn reads (every response re-served against the
generation of its claimed version, degraded responses on the healthy
subset they declared) and evaluates the recovery SLOs with
deterministic inputs (``latencies_ms=None``; the wall-clock p99 figures
are reported, not gated here -- the CI chaos-smoke job gates p99 over
the wire).  Emits ``BENCH_chaos.json``; the regression gate enforces
the committed recovery ratios and the per-kind SLO / torn-read /
bounded-error checks.

Run directly::

    PYTHONPATH=src python benchmarks/bench_chaos.py          # full (5k nodes)
    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.chaos.injector import ChaosInjector
from repro.chaos.schedule import FaultSchedule
from repro.chaos.slo import SLOThresholds, evaluate
from repro.server.daemon import CoordinateServer
from repro.server.load import run_load, synthetic_arrays
from repro.server.sharding import ShardedCoordinateStore
from repro.service.workload import generate_queries

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_chaos.json"

SHARDS = 2
#: Small on purpose: the admission-burst schedule saturates it exactly.
ADMISSION_LIMIT = 64

#: One cell per fault kind.  ``publishes`` streams that many epochs into
#: the store during the fault leg (the publish-path faults need traffic
#: to act on); serve faults leave it at 0.
CELLS = (
    {
        "kind": "shard_kill",
        "spec": "shard-kill@50+100:shard=1",
        "publishes": 0,
    },
    {
        "kind": "gray_slow",
        "spec": "shard-slow@50+100:shard=0:delay_ms=1",
        "publishes": 0,
    },
    {
        "kind": "publish_stall",
        "spec": "publish-stall@1+1:delay_ms=5,publish-drop@3+1",
        "publishes": 6,
    },
    {
        "kind": "admission_burst",
        "spec": f"admission-burst@50+40:amount={ADMISSION_LIMIT}",
        "publishes": 0,
    },
)


def _audit_torn_reads(store, queries, responses) -> Dict[str, int]:
    """Re-serve every ok response against its claimed generation.

    Degraded (partial) responses are checked on the healthy subset they
    declared via ``missing_shards``; anything else must match the full
    merge byte for byte.
    """
    audited = torn = degraded = 0
    for query, response in zip(queries, responses):
        if not response.get("ok"):
            continue
        audited += 1
        if response.get("partial"):
            degraded += 1
        generation = store.at(int(response["version"]))
        missing = frozenset(response.get("missing_shards") or ())
        expected = generation.answer(query, exclude_shards=missing)
        if expected != response.get("payload"):
            torn += 1
    return {"audited": audited, "torn": torn, "degraded": degraded}


def bench_cell(
    cell: Dict[str, Any], *, nodes: int, query_count: int
) -> Dict[str, Any]:
    node_ids, components, heights = synthetic_arrays(nodes)
    store = ShardedCoordinateStore(
        SHARDS, index_kind="vptree", history=int(cell["publishes"]) + 4
    )
    store.publish_epoch(node_ids, components.copy(), heights.copy(), source="bench")
    queries = generate_queries(node_ids, query_count, mix="mixed", seed=17)
    schedule = FaultSchedule.parse(cell["spec"], seed=0)
    server = CoordinateServer(store, admission_limit=ADMISSION_LIMIT)
    with server.run_in_thread() as handle:
        # Warm lap (connection setup, lazy index work), then best-of-three
        # healthy legs on each side of the fault: taking the faster leg
        # filters scheduler hiccups on small CI hosts, so the post-over-
        # pre recovery ratio compares steady state to steady state.
        run_load(handle.address, queries, mode="closed", concurrency=1)
        pre_legs = [
            run_load(handle.address, queries, mode="closed", concurrency=1)
            for _ in range(3)
        ]
        pre = max(pre_legs, key=lambda leg: leg.queries_per_s)

        injector = ChaosInjector(schedule, store)
        store.chaos = injector
        publisher: Optional[threading.Thread] = None
        if cell["publishes"]:
            def publish_epochs() -> None:
                for epoch in range(1, int(cell["publishes"]) + 1):
                    # Pure translations keep the geometry exact.
                    store.publish_epoch(
                        node_ids,
                        components + epoch * 3.0,
                        heights.copy(),
                        source=f"e{epoch}",
                    )

            publisher = threading.Thread(target=publish_epochs)
            publisher.start()
        fault = run_load(handle.address, queries, mode="closed", concurrency=1)
        if publisher is not None:
            publisher.join()
        released = injector.finish_serve_faults()
        if released:
            server.engine.release_admission_load(released)
        store.chaos = None

        post_legs = [
            run_load(handle.address, queries, mode="closed", concurrency=1)
            for _ in range(3)
        ]
        post = max(post_legs, key=lambda leg: leg.queries_per_s)

    audit = _audit_torn_reads(store, queries, fault.responses)
    error_positions = [
        position
        for position, response in enumerate(fault.responses)
        if not response.get("ok")
    ]
    slo = evaluate(
        thresholds=SLOThresholds(),
        fault_windows=[
            (event.at, event.clear_at) for event in schedule.serve_events()
        ],
        error_positions=error_positions,
        total_requests=fault.query_count,
        latencies_ms=None,
        torn_reads=audit["torn"],
        generation_recovered=not store.down_shards,
    )
    report = injector.report()
    recovery_ratio = (
        round(post.queries_per_s / pre.queries_per_s, 3)
        if pre.queries_per_s
        else None
    )
    return {
        "kind": cell["kind"],
        "spec": cell["spec"],
        "queries_per_leg": query_count,
        "qps_pre": round(pre.queries_per_s, 1),
        "qps_fault": round(fault.queries_per_s, 1),
        "qps_post": round(post.queries_per_s, 1),
        "qps_recovery_ratio": recovery_ratio,
        "fault_errors": fault.errors,
        "fault_error_kinds": dict(fault.error_kinds),
        "fault_degraded": audit["degraded"],
        "fault_p99_ms": {
            kind: entry["p99_ms"] for kind, entry in fault.kinds.items()
        },
        "torn_reads": audit["torn"],
        "audited": audit["audited"],
        "faults_fired": sum(1 for f in report["faults"] if f["fired"]),
        "faults_cleared": sum(1 for f in report["faults"] if f["cleared"]),
        "dropped_publishes": report["dropped_publishes"],
        "stalled_publishes": report["stalled_publishes"],
        "slo": slo,
        "slo_passed": slo["passed"],
        "no_torn_reads": audit["torn"] == 0,
        "bounded_errors": slo["checks"]["bounded_error_window"]["passed"],
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small universe / query counts for CI"
    )
    parser.add_argument(
        "--out", type=Path, default=ARTIFACT, help="artifact path (BENCH_chaos.json)"
    )
    args = parser.parse_args(argv)

    nodes = 512 if args.smoke else 5_000
    query_count = 400 if args.smoke else 2_000

    artifact: Dict[str, Any] = {
        "benchmark": "chaos_recovery",
        "smoke": args.smoke,
        "host_cpu_count": os.cpu_count(),
        "nodes": nodes,
        "shards": SHARDS,
        "admission_limit": ADMISSION_LIMIT,
        "queries_per_leg": query_count,
        "cells": [],
    }
    for cell in CELLS:
        print(f"chaos cell {cell['kind']} ({cell['spec']})...", flush=True)
        entry = bench_cell(cell, nodes=nodes, query_count=query_count)
        artifact["cells"].append(entry)
        print(
            f"  pre {entry['qps_pre']:>8.1f} q/s  fault {entry['qps_fault']:>8.1f}"
            f"  post {entry['qps_post']:>8.1f}  recovery {entry['qps_recovery_ratio']}x"
            f"  errors {entry['fault_errors']}  degraded {entry['fault_degraded']}"
            f"  torn {entry['torn_reads']}  slo {entry['slo_passed']}"
        )

    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"artifact written to {args.out}")

    failed = [
        cell["kind"]
        for cell in artifact["cells"]
        if not (cell["slo_passed"] and cell["no_torn_reads"] and cell["bounded_errors"])
    ]
    if failed:
        print(
            f"error: recovery SLOs failed for fault kind(s): {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
