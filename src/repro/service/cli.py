"""The ``repro serve`` and ``repro query`` command groups.

Usage::

    repro serve mesh-replay --out snapshot.json
    repro serve query-service-mixed --queries 1000 --mix mixed --index vptree

    repro query --snapshot snapshot.json info
    repro query --snapshot snapshot.json knn n0012 --k 5
    repro query --snapshot snapshot.json pairwise n0012 n0040
    repro query --snapshot snapshot.json centroid n0001 n0002 n0003
    repro query --snapshot snapshot.json workload --count 2000 --mix mixed \
        --index vptree --compare-linear

``serve`` runs a registered scenario through the serial kernel, publishes
the final application-level coordinates into a one-shard
:class:`~repro.server.sharding.ShardedCoordinateStore`, optionally writes
the snapshot to disk, and (with ``--queries``) drives a deterministic
workload through the store's batch path, printing per-kind stats.
``query`` answers one-off questions against a saved snapshot, or replays
a whole workload with ``--compare-linear`` verifying the spatial index
against the linear oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.server.sharding import ShardedCoordinateStore
from repro.service.index import INDEX_KINDS
from repro.service.planner import Query, QueryError
from repro.service.snapshot import CoordinateSnapshot
from repro.service.workload import QUERY_MIXES, generate_queries, run_workload

__all__ = ["main"]


def _print_stats(stats: Dict[str, Any]) -> None:
    kinds = stats.get("kinds", {})
    if kinds:
        width = max(len(kind) for kind in kinds)
        header = (
            f"{'kind':<{width}}  {'served':>7}  {'cached':>7}  "
            f"{'p50 us':>9}  {'p99 us':>9}"
        )
        print(header)
        print("-" * len(header))
        for kind, entry in sorted(kinds.items()):
            p50 = entry.get("p50_us")
            p99 = entry.get("p99_us")
            latency = (
                f"{p50:>9.1f}  {p99:>9.1f}" if p50 is not None else f"{'-':>9}  {'-':>9}"
            )
            print(
                f"{kind:<{width}}  {entry['served']:>7}  {entry['cache_hits']:>7}  "
                f"{latency}"
            )
    cache = stats.get("cache", {})
    print(
        f"cache: {cache.get('entries', 0)} entries, {cache.get('hits', 0)} hits, "
        f"{cache.get('misses', 0)} misses, {cache.get('evictions_lru', 0)} lru / "
        f"{cache.get('evictions_rollover', 0)} rollover evictions"
    )


def _run_workload_against(
    store: ShardedCoordinateStore,
    *,
    count: int,
    mix: str,
    seed: int,
    k: int,
    radius_ms: float,
    batch_size: int,
    compare_linear: bool,
) -> int:
    snapshot = store.generation().snapshot
    queries = generate_queries(
        snapshot.node_ids(), count, mix=mix, seed=seed, k=k, radius_ms=radius_ms
    )
    report = run_workload(store, queries, batch_size=batch_size)
    print(
        f"{report.query_count} queries in {report.elapsed_s:.3f}s "
        f"({report.queries_per_s:,.0f} q/s, cache hit rate "
        f"{report.cache_hit_rate:.1%}, checksum {report.checksum[:12]})"
    )
    _print_stats(dict(report.stats))
    if compare_linear:
        linear_store = ShardedCoordinateStore.from_snapshot(
            snapshot, shards=1, index_kind="linear"
        )
        linear_report = run_workload(linear_store, queries, batch_size=batch_size)
        identical = linear_report.checksum == report.checksum
        speedup = (
            linear_report.elapsed_s / report.elapsed_s
            if report.elapsed_s > 0
            else float("nan")
        )
        print(
            f"linear oracle: {linear_report.elapsed_s:.3f}s -> speedup "
            f"{speedup:.2f}x, identical results: {identical}"
        )
        if not identical:
            print("error: spatial index diverged from the linear oracle", file=sys.stderr)
            return 1
    return 0


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import ScenarioSpec

    spec = get_scenario(args.scenario)
    if args.seed is not None:
        spec = ScenarioSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    print(f"running scenario {spec.name!r} ({spec.mode}, {spec.network.nodes} nodes)...")
    store = ShardedCoordinateStore.from_source(
        ("scenario", spec), shards=1, index_kind=args.index, level=args.level
    )
    snapshot = store.generation().snapshot
    print(
        f"snapshot v{snapshot.version}: {len(snapshot)} node coordinates "
        f"({args.level} level, {args.index} index)"
    )
    if args.out is not None:
        snapshot.save(args.out)
        print(f"snapshot written to {args.out}")
    if args.queries > 0:
        return _run_workload_against(
            store,
            count=args.queries,
            mix=args.mix,
            seed=spec.seed,
            k=args.k,
            radius_ms=args.radius,
            batch_size=args.batch_size,
            compare_linear=args.compare_linear,
        )
    return 0


# ----------------------------------------------------------------------
# repro query
# ----------------------------------------------------------------------
def _load_store(args: argparse.Namespace) -> ShardedCoordinateStore:
    return ShardedCoordinateStore.from_source(
        ("snapshot", args.snapshot), shards=1, index_kind=args.index
    )


def _print_payload(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_query_info(args: argparse.Namespace) -> int:
    snapshot = CoordinateSnapshot.load(args.snapshot)
    dimensions = sorted({c.dimensions for c in snapshot.coordinates.values()})
    heights = sum(1 for c in snapshot.coordinates.values() if c.height > 0.0)
    print(
        f"snapshot v{snapshot.version} (source {snapshot.source or '-'}): "
        f"{len(snapshot)} nodes, dimensions {dimensions}, "
        f"{heights} with non-zero height"
    )
    return 0


def _cmd_query_single(args: argparse.Namespace, query: Query) -> int:
    _print_payload(_load_store(args).serve(query).payload)
    return 0


def _cmd_query_workload(args: argparse.Namespace) -> int:
    return _run_workload_against(
        _load_store(args),
        count=args.count,
        mix=args.mix,
        seed=args.seed,
        k=args.k,
        radius_ms=args.radius,
        batch_size=args.batch_size,
        compare_linear=args.compare_linear,
    )


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mix",
        choices=sorted(QUERY_MIXES),
        default="mixed",
        help="query mix served by the workload",
    )
    parser.add_argument("--k", type=int, default=3, help="k for knn queries")
    parser.add_argument(
        "--radius", type=float, default=50.0, help="radius (ms) for range queries"
    )
    parser.add_argument(
        "--batch-size", type=int, default=64, help="queries per serve_batch call"
    )
    parser.add_argument(
        "--compare-linear",
        action="store_true",
        help="replay the workload on the linear oracle and verify identical results",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serve coordinate snapshots and query them.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    serve = groups.add_parser(
        "serve", help="run a scenario and serve its coordinates as a snapshot"
    )
    serve.add_argument("scenario", help="registered scenario name")
    serve.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    serve.add_argument(
        "--index", choices=INDEX_KINDS, default="vptree", help="spatial index kind"
    )
    serve.add_argument(
        "--level",
        choices=("application", "system"),
        default="application",
        help="coordinate level to snapshot",
    )
    serve.add_argument("--out", type=Path, default=None, help="write the snapshot JSON here")
    serve.add_argument(
        "--queries", type=int, default=0, help="serve this many workload queries"
    )
    _add_workload_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    query = groups.add_parser("query", help="query a saved coordinate snapshot")
    query.add_argument(
        "--snapshot", type=Path, required=True, help="snapshot JSON from 'repro serve'"
    )
    query.add_argument(
        "--index", choices=INDEX_KINDS, default="vptree", help="spatial index kind"
    )
    commands = query.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="summarise the snapshot").set_defaults(
        handler=_cmd_query_info
    )

    knn = commands.add_parser("knn", help="k nearest nodes to a node")
    knn.add_argument("target")
    knn.add_argument("--k", type=int, default=3)
    knn.set_defaults(handler=lambda a: _cmd_query_single(a, Query.knn(a.target, k=a.k)))

    nearest = commands.add_parser("nearest", help="single nearest node to a node")
    nearest.add_argument("target")
    nearest.set_defaults(handler=lambda a: _cmd_query_single(a, Query.nearest(a.target)))

    within = commands.add_parser("range", help="all nodes within a predicted RTT")
    within.add_argument("target")
    within.add_argument("--radius", type=float, required=True, help="radius in ms")
    within.set_defaults(
        handler=lambda a: _cmd_query_single(a, Query.range(a.target, a.radius))
    )

    pairwise = commands.add_parser("pairwise", help="predicted RTT between two nodes")
    pairwise.add_argument("a")
    pairwise.add_argument("b")
    pairwise.set_defaults(
        handler=lambda a: _cmd_query_single(a, Query.pairwise(a.a, a.b))
    )

    centroid = commands.add_parser(
        "centroid", help="latency-optimal meeting point of a node group"
    )
    centroid.add_argument("members", nargs="*", help="node ids (default: all)")
    centroid.set_defaults(
        handler=lambda a: _cmd_query_single(a, Query.centroid(tuple(a.members)))
    )

    workload = commands.add_parser("workload", help="serve a deterministic query mix")
    workload.add_argument("--count", type=int, default=1000, help="number of queries")
    workload.add_argument("--seed", type=int, default=0, help="workload seed")
    _add_workload_options(workload)
    workload.set_defaults(handler=_cmd_query_workload)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (QueryError, OSError, ValueError) as exc:
        # Covers every snapshot-loading failure mode (missing file,
        # permission problems, invalid JSON, wrong JSON shape) plus bad
        # query parameters: one clear line on stderr, nonzero exit.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
