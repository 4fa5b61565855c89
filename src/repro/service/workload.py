"""Deterministic query-load generation for the coordinate service.

A workload is a named *mix* of query kinds plus a seed: the generated
query stream is a pure function of ``(node ids, mix, count, seed,
parameters)``, using the repo-wide labelled-RNG derivation, so the same
workload replayed against a linear or a spatial index -- or on another
machine -- issues byte-identical queries.  That is what lets the scenario
engine run the service as a cell workload (results must be deterministic)
and what lets ``bench_service.py`` attribute throughput differences to the
index alone.

Targets are drawn Zipf-like (rank-skewed) rather than uniformly: a few
popular nodes dominate, which is both closer to real lookup traffic and
what gives the store's version-keyed result cache realistic hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Sequence, Tuple

from repro.service.planner import Query
from repro.stats.sampling import derive_rng

if TYPE_CHECKING:  # importing the store here at run time would be a cycle
    from repro.server.sharding import ServeResult, ShardedCoordinateStore

__all__ = ["QUERY_MIXES", "generate_queries", "run_workload", "WorkloadReport", "payload_checksum"]

#: Named query mixes: kind -> weight (normalised at generation time).
QUERY_MIXES: Dict[str, Dict[str, float]] = {
    "knn": {"knn": 1.0},
    "nearest": {"nearest": 1.0},
    "pairwise-latency": {"pairwise": 1.0},
    "centroid": {"centroid": 1.0},
    # Read-path blend: mostly proximity lookups, some latency predictions,
    # the occasional group-meeting-point computation.
    "mixed": {"knn": 0.4, "nearest": 0.25, "range": 0.1, "pairwise": 0.2, "centroid": 0.05},
}


def generate_queries(
    node_ids: Sequence[str],
    count: int,
    *,
    mix: str = "mixed",
    seed: int = 0,
    k: int = 3,
    radius_ms: float = 50.0,
    group_size: int = 5,
    skew: float = 1.1,
) -> List[Query]:
    """A deterministic query stream over ``node_ids``.

    ``skew`` is the Zipf exponent of target popularity (values just above
    1.0 give a heavy but not degenerate head); node popularity rank is the
    node's position in ``node_ids``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if mix not in QUERY_MIXES:
        raise ValueError(f"unknown query mix {mix!r}; known: {sorted(QUERY_MIXES)}")
    nodes = list(node_ids)
    if len(nodes) < 2:
        raise ValueError("query generation needs at least two nodes")
    weights = QUERY_MIXES[mix]
    kinds = sorted(weights)
    total = sum(weights[kind] for kind in kinds)
    cumulative: List[Tuple[float, str]] = []
    acc = 0.0
    for kind in kinds:
        acc += weights[kind] / total
        cumulative.append((acc, kind))

    rng = derive_rng(seed, f"service-workload:{mix}")
    # Zipf-ranked popularity over positions; sampled by inverse CDF.
    ranks = [1.0 / (position + 1) ** skew for position in range(len(nodes))]
    rank_total = sum(ranks)
    popularity: List[float] = []
    acc = 0.0
    for weight in ranks:
        acc += weight / rank_total
        popularity.append(acc)

    def draw_node() -> str:
        u = float(rng.random())
        lo, hi = 0, len(popularity) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if popularity[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return nodes[lo]

    k = min(k, len(nodes) - 1)
    queries: List[Query] = []
    for _ in range(count):
        u = float(rng.random())
        kind = next(kind for threshold, kind in cumulative if u <= threshold)
        if kind == "knn":
            queries.append(Query.knn(draw_node(), k=k))
        elif kind == "nearest":
            queries.append(Query.nearest(draw_node()))
        elif kind == "range":
            queries.append(Query.range(draw_node(), radius_ms))
        elif kind == "pairwise":
            a = draw_node()
            b = draw_node()
            while b == a:
                b = draw_node()
            queries.append(Query.pairwise(a, b))
        else:  # centroid
            size = min(group_size, len(nodes))
            picked = rng.choice(len(nodes), size=size, replace=False)
            queries.append(Query.centroid(tuple(nodes[int(i)] for i in picked)))
    return queries


def payload_checksum(results: Sequence[Any]) -> str:
    """A canonical digest of the results' payloads (order-sensitive).

    Two stores serving the same stream over the same snapshot must
    produce the same checksum regardless of index kind, shard count or
    cache state -- the cheap way to assert "the spatial index changed
    nothing".
    """
    import hashlib
    import json

    digest = hashlib.blake2b(digest_size=16)
    for result in results:
        digest.update(
            json.dumps(result.payload, sort_keys=True, separators=(",", ":")).encode()
        )
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class WorkloadReport:
    """Outcome of driving one query stream through a store."""

    query_count: int
    results: Tuple["ServeResult", ...]
    checksum: str
    cache_hit_rate: float
    stats: Mapping[str, Any]
    elapsed_s: float

    @property
    def queries_per_s(self) -> float:
        if self.elapsed_s <= 0.0:
            return float("nan")
        return self.query_count / self.elapsed_s


def run_workload(
    store: "ShardedCoordinateStore",
    queries: Sequence[Query],
    *,
    batch_size: int = 64,
    timer=None,
) -> WorkloadReport:
    """Drive ``queries`` through ``store.serve_batch`` in chunks and summarise.

    The checksum, hit rate and stats in the report are deterministic for a
    deterministic stream and a store with a deterministic timer; only
    ``elapsed_s`` (and thus ``queries_per_s``) depends on the machine.
    """
    import time as _time

    clock = timer if timer is not None else _time.perf_counter
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    results: List["ServeResult"] = []
    started = clock()
    for offset in range(0, len(queries), batch_size):
        results.extend(store.serve_batch(queries[offset : offset + batch_size]))
    elapsed = clock() - started
    stats = store.stats()
    lookups = stats["cache"]["hits"] + stats["cache"]["misses"]
    return WorkloadReport(
        query_count=len(results),
        results=tuple(results),
        checksum=payload_checksum(results),
        cache_hit_rate=stats["cache"]["hits"] / lookups if lookups else 0.0,
        stats=stats,
        elapsed_s=elapsed,
    )
