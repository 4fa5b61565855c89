"""Query execution and batched planning over coordinate snapshots: the read path.

Coordinates make the application-level questions the paper cares about
geometric:

* ``knn`` -- the k nodes nearest an indexed node (excluding itself);
* ``nearest`` -- the single nearest node to a node (``knn`` with k=1);
* ``range`` -- all nodes within a predicted-RTT radius of a node;
* ``pairwise`` -- the predicted RTT between two nodes;
* ``centroid`` -- the latency-optimal meeting point of a node group and
  the indexed node closest to it.

**One executor.**  :func:`answer_query` is the only code that turns a
:class:`Query` into its payload.  It scatters over a tuple of index
partitions and merges by ``(rtt, insertion order)``; the sharded serving
store (:class:`repro.server.sharding.ShardGeneration`) passes its shard
indexes, and :class:`QueryPlanner` passes the single store's one index --
a single store is the one-partition case, not a second implementation.

Queries are **batched**: :meth:`QueryPlanner.submit` stages work and
:meth:`QueryPlanner.flush` executes the whole batch against a *single*
pinned snapshot version, so one flush is internally consistent even while
ingest keeps committing new versions, and the per-version spatial index is
built once per generation rather than once per query.

When the pinned index is the ``dense`` kind, flush goes further: all
cache-missing knn / nearest / range queries in the batch are grouped (by
``k`` / radius) and answered through the index's batch entry points --
chunked ``(q, n)`` NumPy distance matrices instead of q separate scans --
with byte-identical payloads (shaped by the executor's own helper), cache
writes and per-kind stats.  Everything else in the batch (pairwise,
centroid, unknown targets, duplicates served from the cache, non-dense
indexes) goes through :func:`answer_query`.

Results are **cached** in an LRU map whose key includes the snapshot
version -- a cached answer can therefore never be stale or leak across
coordinate generations; entries from superseded versions simply age out,
and their capacity evictions are counted separately from live-version LRU
evictions (see :class:`LRUTTLCache`) so serving hit rates stay
interpretable under snapshot rollover.  Per-kind **stats** (counts, cache
hits, and service-latency percentiles read from the registry's latency
histogram, within one bucket of exact) make the serving layer observable;
exact percentiles are the load harness's job (``repro load``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.coordinate import Coordinate, centroid
from repro.obs.registry import LatencyHistogram, TelemetryRegistry
from repro.obs.tracing import TraceRecorder, make_span
from repro.service.snapshot import CoordinateSnapshot, SnapshotStore

__all__ = [
    "Query",
    "QueryError",
    "QueryResult",
    "QueryPlanner",
    "LRUTTLCache",
    "QUERY_KINDS",
    "answer_query",
    "latency_percentiles_us",
]

#: Recognised query kinds.
QUERY_KINDS = ("knn", "nearest", "range", "pairwise", "centroid")


class QueryError(ValueError):
    """A query referenced unknown nodes or carried invalid parameters."""


@dataclass(frozen=True, slots=True)
class Query:
    """One proximity question, hashable so it can key the result cache."""

    kind: str
    #: Subject node for knn / nearest / range.
    target: Optional[str] = None
    k: int = 1
    radius_ms: float = 0.0
    #: Node pair for pairwise latency.
    pair: Tuple[str, str] = ("", "")
    #: Node group for centroid queries (empty = all indexed nodes).
    members: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise QueryError(f"unknown query kind {self.kind!r}; known: {list(QUERY_KINDS)}")
        if self.kind in ("knn", "nearest", "range") and not self.target:
            raise QueryError(f"{self.kind} query needs a target node")
        if self.kind == "knn" and self.k < 1:
            raise QueryError("knn query needs k >= 1")
        if self.kind == "range" and self.radius_ms < 0.0:
            raise QueryError("range query needs a non-negative radius_ms")
        if self.kind == "pairwise" and (not self.pair[0] or not self.pair[1]):
            raise QueryError("pairwise query needs two node ids")

    # -- convenience constructors --------------------------------------
    @classmethod
    def knn(cls, target: str, k: int = 3) -> "Query":
        return cls(kind="knn", target=target, k=k)

    @classmethod
    def nearest(cls, target: str) -> "Query":
        return cls(kind="nearest", target=target, k=1)

    @classmethod
    def range(cls, target: str, radius_ms: float) -> "Query":
        return cls(kind="range", target=target, radius_ms=radius_ms)

    @classmethod
    def pairwise(cls, a: str, b: str) -> "Query":
        return cls(kind="pairwise", pair=(a, b))

    @classmethod
    def centroid(cls, members: Tuple[str, ...] = ()) -> "Query":
        return cls(kind="centroid", members=tuple(members))


@dataclass(frozen=True, slots=True)
class QueryResult:
    """The answer to one query, tagged with its provenance.

    ``payload`` is shared and read-only: a miss caches the very object it
    returns and every later hit returns it again, uncopied.
    """

    query: Query
    #: JSON-safe answer payload; shape depends on the query kind.  None
    #: when the query failed (see ``error``).
    payload: Any
    snapshot_version: int
    cached: bool
    #: The failure message for a query that could not be answered inside
    #: a batch (e.g. an unknown node); None on success.
    error: Optional[str] = None


def _coordinate_of(snapshot, node_id: str) -> Coordinate:
    coordinate = snapshot.coordinate_of(node_id)
    if coordinate is None:
        raise QueryError(f"unknown node {node_id!r}")
    return coordinate


def _proximity_payload(query: Query, ranked) -> Dict[str, Any]:
    """The knn / nearest / range payload for ranked ``(node_id, rtt)`` pairs.

    A target is never its own neighbour or hit: kNN scans exclude it up
    front, range scans return it at distance zero and it is dropped here.
    """
    target = query.target
    entries = [
        {"node_id": node_id, "predicted_rtt_ms": rtt}
        for node_id, rtt in ranked
        if node_id != target
    ]
    if query.kind == "range":
        return {"target": target, "radius_ms": query.radius_ms, "hits": entries}
    return {"target": target, "neighbors": entries}


def answer_query(
    query: Query,
    snapshot,
    indexes: Sequence[Any],
    order: Optional[Mapping[str, int]] = None,
    exclude: Sequence[int] = (),
    *,
    registry: Optional[TelemetryRegistry] = None,
    trace: Optional[TraceRecorder] = None,
) -> Any:
    """The payload for ``query`` over one pinned snapshot: the one executor.

    ``indexes`` are the spatial-index partitions that together hold the
    snapshot's population (a single store passes its one index); only
    their ``nearest`` / ``within`` methods are used.  Partial answers
    merge by ``(rtt, order[node_id])``, where ``order`` maps a node id to
    its position in the snapshot's insertion order -- the linear oracle's
    tie-break.  Any node in the global top-k is in its own partition's
    top-k, so merging per-partition top-k lists loses nothing, and one
    partition alone is already in oracle order and needs no ``order``.

    ``exclude`` names partitions to skip (shards that are down): the
    answer is then exactly the full merge minus those partitions'
    members.  Pairwise distance reads the snapshot alone and is never
    affected.
    """
    kind = query.kind
    if kind == "pairwise":
        first, second = query.pair
        a = _coordinate_of(snapshot, first)
        b = _coordinate_of(snapshot, second)
        return {"pair": [first, second], "predicted_rtt_ms": a.distance(b)}
    limit: Optional[int]  # how many merged candidates the answer keeps
    if kind == "centroid":
        members = query.members or snapshot.node_ids()
        if not members:
            raise QueryError("centroid query over an empty snapshot")
        point = centroid([_coordinate_of(snapshot, node_id) for node_id in members])
        limit = 1

        def scan(index):
            return index.nearest(point, 1)

    elif kind == "range":
        point = _coordinate_of(snapshot, query.target)
        limit = None

        def scan(index):
            return index.within(point, query.radius_ms)

    else:
        point = _coordinate_of(snapshot, query.target)
        limit = query.k if kind == "knn" else 1

        def scan(index):
            return index.nearest(point, limit, exclude=[query.target])

    partials = []
    for partition, index in enumerate(indexes):
        if partition in exclude:
            continue
        with make_span(registry, "query.scatter", trace, {"shard": partition}):
            partials.append(scan(index))
    with make_span(registry, "query.merge", trace, {}):
        if len(partials) == 1:
            ranked = partials[0]
        else:
            ranked = [pair for partial in partials for pair in partial]
            ranked.sort(key=lambda pair: (pair[1], order[pair[0]]))
            if limit is not None:
                ranked = ranked[:limit]
    if kind == "centroid":
        host, rtt = ranked[0] if ranked else (None, None)
        return {
            "members": len(members),
            "centroid": list(point.components),
            "nearest_host": host,
            "nearest_rtt_ms": rtt,
        }
    return _proximity_payload(query, ranked)


def latency_percentiles_us(histogram: LatencyHistogram) -> Dict[str, float]:
    """The ``p50_us`` / ``p99_us`` stats keys, read from a latency histogram.

    The registry histogram (milliseconds) is the one owner of
    served-latency percentiles: the read-out is within one bucket (~12%)
    of the exact sample percentile.  Empty until something was observed.
    """
    if not histogram.count:
        return {}
    return {
        "p50_us": histogram.percentile(50.0) * 1e3,
        "p99_us": histogram.percentile(99.0) * 1e3,
    }


_ABSENT = object()


class LRUTTLCache:
    """A bounded LRU result cache.

    Keys carry the snapshot version, so an entry can never be stale and
    nothing expires by age.  (The name predates the removal of the TTL
    it once had; the benchmark contract imports it.)

    Capacity evictions are classified: when the consumer keeps
    :attr:`current_version` up to date (the planner and the serving
    daemon pin it to the snapshot version they serve from), an entry
    evicted while keyed to a *superseded* version counts as a
    ``rollover`` eviction -- it was dead weight the moment the store
    published a newer snapshot -- while an entry keyed to the live
    version counts as a plain ``lru`` eviction (genuine capacity
    pressure).  Live-serving hit rates are only interpretable with this
    split: a low hit rate caused by rollover churn calls for faster
    clients or slower publishing, one caused by LRU pressure calls for a
    bigger cache.
    """

    __slots__ = (
        "max_entries",
        "_entries",
        "hits",
        "misses",
        "current_version",
        "evictions_lru",
        "evictions_rollover",
    )

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: The snapshot version currently being served; entries keyed to
        #: older versions evict as ``rollover`` rather than ``lru``.
        self.current_version: Optional[int] = None
        self.evictions_lru = 0
        self.evictions_rollover = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any, *, count_miss: bool = True) -> Tuple[bool, Any]:
        """(found, value); a hit becomes the most recently used entry.

        ``count_miss=False`` leaves a miss uncounted, for a caller whose
        miss is followed by a counted lookup of the same request.
        """
        value = self._entries.get(key, _ABSENT)
        if value is _ABSENT:
            if count_miss:
                self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def put(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self._classify_eviction(evicted_key)

    def _classify_eviction(self, key: Any) -> None:
        version = (
            key[0]
            if isinstance(key, tuple) and key and isinstance(key[0], int)
            else None
        )
        if (
            self.current_version is not None
            and version is not None
            and version < self.current_version
        ):
            self.evictions_rollover += 1
        else:
            self.evictions_lru += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """The ``cache`` section of a planner's or store's ``stats()``."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions_lru": self.evictions_lru,
            "evictions_rollover": self.evictions_rollover,
        }


class _KindStats:
    """Per-query-kind accounting, all of it in registry instruments.

    Counts and served latency live in the telemetry registry (shared
    with the Prometheus rendering); ``p50_us`` / ``p99_us`` are read from
    the latency histogram.
    """

    __slots__ = ("submitted", "executed", "cache_hits", "errors", "latency_ms")

    def __init__(self, kind: str, registry: TelemetryRegistry) -> None:
        self.submitted = registry.counter(
            "planner_submitted_total", "Queries staged or executed.", kind=kind
        )
        self.executed = registry.counter(
            "planner_executed_total", "Queries answered by the index.", kind=kind
        )
        self.cache_hits = registry.counter(
            "planner_cache_hits_total", "Result-cache hits.", kind=kind
        )
        self.errors = registry.counter(
            "planner_errors_total", "Queries that raised QueryError.", kind=kind
        )
        self.latency_ms = registry.histogram(
            "planner_serve_latency_ms", "Uncached planner serve latency.", kind=kind
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted.value,
            "executed": self.executed.value,
            "cache_hits": self.cache_hits.value,
            "errors": self.errors.value,
            **latency_percentiles_us(self.latency_ms),
        }


class QueryPlanner:
    """Plans, batches, caches and accounts proximity queries."""

    def __init__(
        self,
        store: SnapshotStore,
        *,
        cache_entries: int = 4096,
        timer: Callable[[], float] = time.perf_counter,
        registry: Optional[TelemetryRegistry] = None,
    ) -> None:
        self.store = store
        self.cache = LRUTTLCache(cache_entries)
        self._timer = timer
        self._pending: List[Query] = []
        self.registry = registry if registry is not None else TelemetryRegistry()
        self._stats: Dict[str, _KindStats] = {
            kind: _KindStats(kind, self.registry) for kind in QUERY_KINDS
        }
        self._c_batches = self.registry.counter(
            "planner_batches_flushed_total", "Non-empty batches flushed."
        )

    @property
    def batches_flushed(self) -> int:
        return self._c_batches.value

    # -- batching ------------------------------------------------------
    def submit(self, query: Query) -> None:
        """Stage a query for the next :meth:`flush`."""
        self._stats[query.kind].submitted.inc()
        self._pending.append(query)

    @property
    def pending_queries(self) -> int:
        return len(self._pending)

    def flush(self) -> List[QueryResult]:
        """Execute the staged batch against one pinned snapshot version.

        Results come back in submission order; the whole batch sees the
        same snapshot even if the store commits mid-flush.  A query that
        fails (e.g. an unknown node) yields an error-carrying result in
        its slot instead of poisoning the rest of the batch.

        On a ``dense`` index the knn / nearest / range portion of the
        batch executes through the index's batched NumPy entry points (see
        the module docstring); payloads, cache contents and stats match
        the per-query path exactly, with one documented difference: the
        batched answers' cache insertions happen before the fallback
        portion's, so with a cache smaller than the batch the *eviction*
        order within one flush can differ.
        """
        batch, self._pending = self._pending, []
        if not batch:
            return []
        self._c_batches.inc()
        with self.registry.span("planner.flush"):
            snapshot = self.store.latest()
            self.cache.current_version = snapshot.version
            index = self.store.index_for(snapshot)
            slots: List[Optional[QueryResult]] = [None] * len(batch)
            if len(batch) > 1 and hasattr(index, "knn_batch_by_id"):
                self._flush_batched(batch, snapshot, index, slots)
            results: List[QueryResult] = []
            for position, query in enumerate(batch):
                served = slots[position]
                if served is None:
                    try:
                        served = self._serve(query, snapshot, index)
                    except QueryError as exc:
                        served = QueryResult(
                            query, None, snapshot.version, cached=False, error=str(exc)
                        )
                results.append(served)
            return results

    def _flush_batched(self, batch, snapshot, index, slots) -> None:
        """Answer the batchable portion of ``batch`` in grouped NumPy calls.

        Fills ``slots`` in place; positions left as ``None`` (unbatchable
        kinds, unknown targets, in-batch duplicates awaiting the first
        occurrence's cache write) are served by the per-query fallback.
        Cache-hit accounting mirrors the sequential path: a first
        occurrence misses and executes, duplicates hit the cache.
        """
        knn_groups: Dict[int, List[int]] = {}
        range_groups: Dict[float, List[int]] = {}
        scheduled = set()
        for position, query in enumerate(batch):
            if query.kind in ("knn", "nearest"):
                group_key: Any = query.k if query.kind == "knn" else 1
                groups: Dict[Any, List[int]] = knn_groups
            elif query.kind == "range":
                group_key = query.radius_ms
                groups = range_groups
            else:
                continue
            if query.target not in index:
                continue  # let the per-query path raise the canonical error
            key = (snapshot.version, query)
            if key in scheduled:
                continue  # duplicate: hits the cache in the fallback pass
            stats = self._stats[query.kind]
            found, payload = self.cache.get(key)
            if found:
                stats.cache_hits.inc()
                slots[position] = QueryResult(
                    query, payload, snapshot.version, cached=True
                )
                continue
            scheduled.add(key)
            groups.setdefault(group_key, []).append(position)

        for k, positions in knn_groups.items():
            with self.registry.span("planner.batch", shape="knn"):
                started = self._timer()
                answers = index.knn_batch_by_id(
                    [batch[position].target for position in positions], k
                )
                self._record_batch(
                    batch, snapshot, slots, positions, answers, started
                )
        for radius_ms, positions in range_groups.items():
            with self.registry.span("planner.batch", shape="range"):
                started = self._timer()
                answers = index.range_batch_by_id(
                    [batch[position].target for position in positions], radius_ms
                )
                self._record_batch(
                    batch, snapshot, slots, positions, answers, started
                )

    def _record_batch(
        self, batch, snapshot, slots, positions, answers, started
    ) -> None:
        """Turn one group's batched answers into payloads, cache and stats."""
        per_query_ms = (self._timer() - started) * 1e3 / max(len(positions), 1)
        for position, answer in zip(positions, answers):
            if answer is None:  # unknown target: per-query path reports it
                continue
            query = batch[position]
            payload = _proximity_payload(query, answer)
            stats = self._stats[query.kind]
            stats.latency_ms.observe(per_query_ms)
            stats.executed.inc()
            self.cache.put((snapshot.version, query), payload)
            slots[position] = QueryResult(
                query, payload, snapshot.version, cached=False
            )

    def execute(self, query: Query) -> QueryResult:
        """Serve one query immediately against the latest snapshot.

        Unlike :meth:`flush`, a failing query raises :class:`QueryError`
        here -- the caller asked exactly one question.
        """
        self._stats[query.kind].submitted.inc()
        snapshot = self.store.latest()
        self.cache.current_version = snapshot.version
        return self._serve(query, snapshot, self.store.index_for(snapshot))

    def execute_batch(self, queries: List[Query]) -> List[QueryResult]:
        for query in queries:
            self.submit(query)
        return self.flush()

    # -- stats ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Per-kind counters plus cache-level totals (JSON-safe)."""
        per_kind = {
            kind: stats.as_dict()
            for kind, stats in self._stats.items()
            if stats.submitted.value or stats.executed.value
        }
        return {
            "kinds": per_kind,
            "batches_flushed": self.batches_flushed,
            "cache": self.cache.stats(),
        }

    def cache_hit_rate(self) -> float:
        total = self.cache.hits + self.cache.misses
        return self.cache.hits / total if total else 0.0

    # -- execution ------------------------------------------------------
    def _serve(self, query: Query, snapshot: CoordinateSnapshot, index) -> QueryResult:
        stats = self._stats[query.kind]
        key = (snapshot.version, query)
        found, payload = self.cache.get(key)
        if found:
            stats.cache_hits.inc()
            return QueryResult(query, payload, snapshot.version, cached=True)
        started = self._timer()
        try:
            with self.registry.span("planner.serve", kind=query.kind):
                payload = answer_query(
                    query, snapshot, (index,), registry=self.registry
                )
        except QueryError:
            stats.errors.inc()
            raise
        stats.latency_ms.observe((self._timer() - started) * 1e3)
        stats.executed.inc()
        self.cache.put(key, payload)
        return QueryResult(query, payload, snapshot.version, cached=False)
