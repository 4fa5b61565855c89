"""Publish-latency benchmark: delta generations vs full rebuilds by churn.

The paper's coordinates are stable -- most nodes barely move between
update windows -- so a live store should not pay a full generation
rebuild (mean seconds at 50k nodes, see ``BENCH_server.json``) for an
epoch that changed a fraction of the rows.  This benchmark drives the
same seeded epoch sequence into two :class:`ShardedCoordinateStore`\\ s,
one via :meth:`publish_delta` and one via :meth:`publish_epoch`, across
index kinds and churn fractions, and records:

* median publish seconds per path (steady-state rollover; means and
  maxima expose periodic overlay compactions) and their ratio
  (``speedup``) -- the
  headline: delta publish >=10x faster than the full rebuild at 50k
  nodes and <=5% churn for the ``vptree`` serving default
  (hard-enforced on full runs).  All index kinds are measured and
  reported, but only vptree is gated: a dense full rebuild is already
  a near-free array adoption, so its ratio says nothing about
  the rollover cost the delta path exists to remove;
* the median health pass of a delta publish
  (``median_delta_health_observe_ms``), read from the delta store's own
  ``store_health_observe_ms{mode="delta"}`` histogram (so to bucket
  resolution): the share of each delta publish spent after the swap,
  reported and not gated;
* equivalence booleans -- after every epoch the delta-built generation
  must be byte-identical to the full rebuild (coordinates, sampled
  query payloads including tie order) and the deterministic health
  sections must match at the end of each cell.  Any divergence fails
  the run outright, full or smoke.

The smoke artifact is baselined under ``benchmarks/baselines/`` and
gated by ``check_regression.py``: a >30% speedup regression or any
delta/full divergence fails CI.

Run directly::

    PYTHONPATH=src python benchmarks/bench_publish.py          # full (50k nodes)
    PYTHONPATH=src python benchmarks/bench_publish.py --smoke  # CI-sized
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

from repro.server.load import synthetic_arrays
from repro.server.sharding import HEALTH_SECTIONS, ShardedCoordinateStore
from repro.service.planner import Query
from repro.service.publish import EpochDelta

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_publish.json"

FULL_NODES = 50_000
SMOKE_NODES = 2_000
INDEX_KINDS = ("vptree", "dense")
CHURN_FRACTIONS = (0.005, 0.05, 0.2)
SHARDS = 2
#: The full-run win condition: delta >= this many times faster than the
#: full rebuild at every churn fraction <= LOW_CHURN, for the gated
#: (serving-default) index kind.
SPEEDUP_FLOOR = 10.0
LOW_CHURN = 0.05
GATED_INDEX_KIND = "vptree"

DETERMINISTIC_HEALTH = tuple(s for s in HEALTH_SECTIONS if s != "staleness")


def _sample_queries(node_ids: List[str]) -> List[Query]:
    return [
        Query.knn(node_ids[0], k=7),
        Query.knn(node_ids[len(node_ids) // 3], k=3),
        Query.range(node_ids[-1], 40.0),
        Query.nearest(node_ids[len(node_ids) // 2]),
        Query.pairwise(node_ids[1], node_ids[-2]),
    ]


def bench_cell(
    index_kind: str,
    churn: float,
    node_ids: List[str],
    components: np.ndarray,
    heights: np.ndarray,
    *,
    epochs: int,
) -> Dict[str, object]:
    """One (index kind, churn fraction) cell: timed epochs on both paths."""
    n = len(node_ids)
    changed_count = max(1, int(round(n * churn)))
    delta_store = ShardedCoordinateStore(SHARDS, index_kind=index_kind, history=4)
    full_store = ShardedCoordinateStore(SHARDS, index_kind=index_kind, history=4)
    delta_store.publish_epoch(node_ids, components.copy(), heights.copy(), source="e0")
    full_store.publish_epoch(node_ids, components.copy(), heights.copy(), source="e0")

    rng = np.random.default_rng(101)
    work_components = components.copy()
    work_heights = heights.copy()
    queries = _sample_queries(node_ids)
    delta_times: List[float] = []
    full_times: List[float] = []
    arrays_identical = True
    queries_identical = True
    for epoch in range(1, epochs + 1):
        rows = np.sort(rng.choice(n, size=changed_count, replace=False))
        work_components[rows] += rng.normal(scale=2.0, size=(changed_count, components.shape[1]))
        work_heights[rows] = np.abs(
            work_heights[rows] + rng.normal(scale=0.2, size=changed_count)
        )
        delta = EpochDelta(
            [node_ids[row] for row in rows],
            work_components[rows].copy(),
            work_heights[rows].copy(),
            source=f"e{epoch}",
            epoch=epoch,
        )
        started = time.perf_counter()
        delta_generation = delta_store.publish_delta(delta)
        delta_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        full_generation = full_store.publish_epoch(
            node_ids, work_components.copy(), work_heights.copy(), source=f"e{epoch}"
        )
        full_times.append(time.perf_counter() - started)

        d_ids, d_comps, d_hts = delta_generation.snapshot.arrays()
        f_ids, f_comps, f_hts = full_generation.snapshot.arrays()
        if not (
            d_ids == f_ids
            and np.asarray(d_comps).tobytes() == np.asarray(f_comps).tobytes()
            and np.asarray(d_hts).tobytes() == np.asarray(f_hts).tobytes()
        ):
            arrays_identical = False
        for query in queries:
            d_result, f_result = delta_store.serve(query), full_store.serve(query)
            if d_result.payload != f_result.payload or d_result.version != f_result.version:
                queries_identical = False
    health_identical = delta_store.health(DETERMINISTIC_HEALTH) == full_store.health(
        DETERMINISTIC_HEALTH
    )
    median_delta_s = float(np.median(delta_times))
    median_full_s = float(np.median(full_times))
    health_ms = delta_store.registry.histogram("store_health_observe_ms", mode="delta")
    return {
        "index_kind": index_kind,
        "churn": churn,
        "changed_rows": changed_count,
        "epochs": epochs,
        # The headline ratio uses medians: the steady-state rollover cost
        # the delta path exists to shrink.  Periodic overlay compactions
        # (a full rebuild inside one delta publish) stay visible through
        # the mean and max.
        "median_delta_publish_s": round(median_delta_s, 6),
        "median_full_publish_s": round(median_full_s, 6),
        "mean_delta_publish_s": round(float(np.mean(delta_times)), 6),
        "mean_full_publish_s": round(float(np.mean(full_times)), 6),
        "max_delta_publish_s": round(float(np.max(delta_times)), 6),
        "median_delta_health_observe_ms": round(health_ms.percentile(50.0), 3),
        "speedup": round(median_full_s / median_delta_s, 3) if median_delta_s > 0 else None,
        "arrays_identical": arrays_identical,
        "queries_identical": queries_identical,
        "health_identical": health_identical,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small universe for CI"
    )
    parser.add_argument(
        "--out", type=Path, default=ARTIFACT, help="artifact path (BENCH_publish.json)"
    )
    args = parser.parse_args(argv)

    nodes = SMOKE_NODES if args.smoke else FULL_NODES
    epochs = 4 if args.smoke else 5
    print(f"building {nodes}-node universe...", flush=True)
    node_ids, components, heights = synthetic_arrays(nodes)

    artifact: Dict[str, object] = {
        "benchmark": "publish_delta",
        "smoke": args.smoke,
        "host_cpu_count": os.cpu_count(),
        "nodes": nodes,
        "shards": SHARDS,
        "epochs": epochs,
        "speedup_floor": SPEEDUP_FLOOR,
        "low_churn": LOW_CHURN,
        "cells": [],
    }
    for index_kind in INDEX_KINDS:
        for churn in CHURN_FRACTIONS:
            print(
                f"{index_kind} at {churn:.1%} churn "
                f"({max(1, int(round(nodes * churn)))} rows/epoch)...",
                flush=True,
            )
            cell = bench_cell(
                index_kind, churn, node_ids, components, heights, epochs=epochs
            )
            artifact["cells"].append(cell)  # type: ignore[union-attr]
            print(
                f"  delta {cell['median_delta_publish_s'] * 1e3:>9.2f} ms  "
                f"full {cell['median_full_publish_s'] * 1e3:>9.2f} ms  "
                f"(max delta {cell['max_delta_publish_s'] * 1e3:>9.2f} ms, "
                f"health {cell['median_delta_health_observe_ms']:>6.2f} ms)  "
                f"speedup {cell['speedup']:>8.2f}x  "
                f"identical {cell['arrays_identical'] and cell['queries_identical'] and cell['health_identical']}"
            )

    cells = artifact["cells"]
    low_churn_speedups = [
        cell["speedup"]
        for cell in cells
        if cell["churn"] <= LOW_CHURN and cell["index_kind"] == GATED_INDEX_KIND
    ]
    artifact["win"] = {
        "index_kind": GATED_INDEX_KIND,
        "low_churn_speedup_min": min(low_churn_speedups),
        "threshold": SPEEDUP_FLOOR,
        "enforced": not args.smoke,
    }
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"artifact written to {args.out}")

    diverged = [
        f"{cell['index_kind']}@{cell['churn']}"
        for cell in cells
        if not (
            cell["arrays_identical"]
            and cell["queries_identical"]
            and cell["health_identical"]
        )
    ]
    if diverged:
        print(
            f"error: delta publish diverged from full rebuild: {diverged}",
            file=sys.stderr,
        )
        return 1
    floor_min = artifact["win"]["low_churn_speedup_min"]
    if not args.smoke and floor_min < SPEEDUP_FLOOR:
        print(
            f"error: {GATED_INDEX_KIND} delta speedup at <= {LOW_CHURN:.0%} churn "
            f"is {floor_min}x, below the {SPEEDUP_FLOOR}x win condition at "
            f"{nodes} nodes",
            file=sys.stderr,
        )
        return 1
    print(
        f"{GATED_INDEX_KIND} delta publish at <= {LOW_CHURN:.0%} churn: "
        f">= {floor_min}x faster than full rebuild at {nodes} nodes "
        f"({'enforced' if not args.smoke else 'reported; enforced on full runs'})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
