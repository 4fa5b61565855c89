"""Sharded live coordinate stores with scatter-gather query routing.

:class:`ShardedCoordinateStore` partitions the node population across N
shards by a stable hash of the node id.  Each shard owns its own
:class:`~repro.service.snapshot.SnapshotStore` (and therefore its own
pluggable spatial index); cross-shard queries scatter to every shard and
merge the partial answers.

**One serving front.** The daemon, the gateway and every in-process
caller answer through this store; an in-process caller that wants a
single store uses ``shards=1``.  A generation answers a query by handing
its shard indexes to :func:`repro.service.planner.answer_query`, the one
payload executor; :meth:`ShardedCoordinateStore.serve_batch` answers a
whole batch from one generation, grouping a one-shard ``dense`` store's
misses into the index's batch calls.  This module owns partitioning,
generations, the cache, batching and the degraded path; it shapes no
payload itself.

**Oracle identity.** Merged answers are byte-identical -- same node sets,
same ``Coordinate.distance`` floats, same ordering including ties -- to a
single un-sharded store serving the same snapshot:

* distances only involve the query point and one node's coordinate, so a
  shard computes exactly the floats the single store would;
* the single-store oracle breaks distance ties by snapshot insertion
  order, so every published generation carries a *global* insertion
  sequence; each shard ingests its nodes in global-order subsequence
  (making shard-local tie order consistent with it) and the merge sorts
  candidates by ``(distance, global sequence)``;
* any node in the global top-k is necessarily in its own shard's top-k
  (the global comparator restricted to one shard is the shard's own
  comparator), so merging per-shard top-k lists loses nothing.

**Generations and torn reads.** Every publish builds a complete immutable
:class:`ShardGeneration` -- per-shard snapshots, per-shard indexes, the
global sequence map -- *before* a single atomic reference swap installs
it.  A request pins the generation reference once and serves the whole
answer from it, so a response can never mix coordinate versions across
shards, and rollover never blocks serving (readers of the old generation
simply finish on it).  This is the router-level analogue of the snapshot
store's own immutability argument.

The store keeps an internal single-store router
:class:`~repro.service.snapshot.SnapshotStore` as the authority on
version numbers and global insertion order; its merge semantics under
incremental object commits are therefore *definitionally* the oracle's.

**The cache across a publish.** Answers are cached under
``(version, query)``.  A delta publish, before its swap, re-keys to the
new version every cached answer of the base version that
:func:`repro.service.planner.survivors` proves unchanged by the delta
(same payload object, counted by ``store_cache_carried_total``) and
frees the rest as ``rollover`` evictions; a full publish frees them all.
The survival test reads only the router snapshot, so a shard that is
down changes nothing about it.

Thread-safety: publishes are serialised by an ingest lock; serving reads
one volatile reference and immutable data plus a small stats lock, so any
number of threads (or event-loop executors) can query concurrently with
ingest.  :meth:`ShardedCoordinateStore.serve_cached` is the part of
serving that never sleeps and does no index work -- a cache hit -- so
the daemon runs it on its event loop and sends only misses to its pool.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate
from repro.obs.events import EventLog
from repro.obs.health import HealthTracker
from repro.obs.registry import Counter, LatencyHistogram, TelemetryRegistry
from repro.obs.tracing import TraceRecorder, make_span
from repro.overlay.knn import CoordinateIndex
from repro.service.index import INDEX_KINDS
from repro.service.planner import (
    LRUTTLCache,
    Query,
    QueryError,
    QUERY_KINDS,
    _proximity_payload,
    answer_query,
    latency_percentiles_us,
    survivors,
)
from repro.service.publish import EpochDelta
from repro.service.snapshot import CoordinateSnapshot, SnapshotStore

__all__ = [
    "HEALTH_SECTIONS",
    "ServeResult",
    "ShardedCoordinateStore",
    "ShardGeneration",
    "shard_of",
]

#: The sections a store health payload can carry, in canonical order.
HEALTH_SECTIONS = (
    "generation",
    "relative_error",
    "drift",
    "neighbor_churn",
    "staleness",
)


class _DeadShardIndex:
    """Placeholder index for a shard that is down.

    Installed in generations built while a shard is killed; any scatter
    that reaches it (i.e. that did not exclude the dead shard) raises a
    counted :class:`QueryError` rather than silently serving nothing.
    """

    __slots__ = ("shard",)

    def __init__(self, shard: int) -> None:
        self.shard = shard

    def __len__(self) -> int:
        return 0

    def nearest(self, *args, **kwargs):
        raise QueryError(f"shard {self.shard} is down")

    def within(self, *args, **kwargs):
        raise QueryError(f"shard {self.shard} is down")


class ServeResult:
    """:meth:`ShardedCoordinateStore.serve`'s return value.

    ``partial`` and ``missing_shards`` describe a degraded answer (the
    daemon's wire envelope carries them).  ``payload`` is shared and
    read-only: a miss caches the very object it returns and every later
    hit returns it again, uncopied.  ``error`` is set only in a
    :meth:`~ShardedCoordinateStore.serve_batch` slot whose query failed;
    its ``payload`` is then None.
    """

    __slots__ = ("payload", "version", "cached", "partial", "missing_shards", "error")

    def __init__(
        self,
        payload: Any,
        version: int,
        cached: bool,
        *,
        partial: bool = False,
        missing_shards: Tuple[int, ...] = (),
        error: Optional[str] = None,
    ) -> None:
        self.payload = payload
        self.version = version
        self.cached = cached
        self.partial = partial
        self.missing_shards = missing_shards
        self.error = error


def shard_of(node_id: str, shards: int) -> int:
    """Stable hash partition of ``node_id`` into ``[0, shards)``.

    blake2b rather than ``hash()``: the assignment must be identical
    across processes and Python releases (PYTHONHASHSEED varies).
    """
    digest = hashlib.blake2b(node_id.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


class ShardGeneration:
    """One immutable, fully built serving generation.

    Everything a request needs -- per-shard indexes, the coordinate
    lookup, the global tie-break order -- is reachable from this object,
    so a request that captured it is untouched by later publishes.
    """

    __slots__ = (
        "version",
        "source",
        "snapshot",
        "shard_indexes",
        "shard_sizes",
        "global_seq",
        "node_order",
    )

    def __init__(
        self,
        version: int,
        source: str,
        snapshot,
        shard_indexes: Tuple[CoordinateIndex, ...],
        shard_sizes: Tuple[int, ...],
        global_seq: Dict[str, int],
        node_order: List[str],
    ) -> None:
        self.version = version
        self.source = source
        #: The un-sharded router snapshot (coordinate lookup + wire dump).
        self.snapshot = snapshot
        self.shard_indexes = shard_indexes
        self.shard_sizes = shard_sizes
        #: node id -> position in the oracle's insertion order.
        self.global_seq = global_seq
        #: Node ids in oracle insertion order.
        self.node_order = node_order

    def __len__(self) -> int:
        return len(self.node_order)

    def answer(
        self,
        query: Query,
        *,
        registry: Optional[TelemetryRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        exclude_shards: Sequence[int] = (),
    ) -> Any:
        """The oracle-identical payload for one service-layer query.

        Scatter, merge and payload shaping are
        :func:`repro.service.planner.answer_query`'s, with the shard
        indexes as its partitions and the global sequence as its
        tie-break.  ``exclude_shards`` restricts the scatter to the
        healthy subset -- the degraded-response path while a shard is
        down.
        """
        return answer_query(
            query,
            self.snapshot,
            self.shard_indexes,
            self.global_seq,
            exclude_shards,
            registry=registry,
            trace=trace,
        )


class _ServeStats:
    """Per-query-kind serving instruments.

    Counts and the mergeable latency histogram live in the store's
    telemetry registry (each instrument carries its own lock), so serving
    threads never touch the store-wide stats lock for bookkeeping, and
    ``p50_us`` / ``p99_us`` in ``stats()`` are read from that histogram.
    """

    __slots__ = ("served", "cache_hits", "errors", "latency_ms")

    def __init__(self, kind: str, registry: TelemetryRegistry) -> None:
        self.served: Counter = registry.counter(
            "store_served_total", "Queries served by the sharded store.", kind=kind
        )
        self.cache_hits: Counter = registry.counter(
            "store_cache_hits_total", "Result-cache hits.", kind=kind
        )
        self.errors: Counter = registry.counter(
            "store_errors_total", "Queries that raised QueryError.", kind=kind
        )
        self.latency_ms: LatencyHistogram = registry.histogram(
            "store_serve_latency_ms",
            "Uncached serve latency in milliseconds.",
            kind=kind,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "served": self.served.value,
            "cache_hits": self.cache_hits.value,
            "errors": self.errors.value,
            **latency_percentiles_us(self.latency_ms),
        }


class ShardedCoordinateStore:
    """N hash-partitioned shard stores behind one scatter-gather router.

    The complete serving engine minus the network: the asyncio daemon
    (:mod:`repro.server.daemon`) is a thin shell over :meth:`serve` and
    the publish methods, which keeps the whole behaviour testable and
    benchmarkable in-process.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        index_kind: str = "vptree",
        history: int = 4,
        cache_entries: int = 8192,
        timer: Callable[[], float] = time.perf_counter,
        registry: Optional[TelemetryRegistry] = None,
        health_seed: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if index_kind not in INDEX_KINDS:
            raise ValueError(
                f"unknown index kind {index_kind!r}; known: {list(INDEX_KINDS)}"
            )
        self.shards = shards
        self.index_kind = index_kind
        self.history = history
        self._timer = timer
        #: All serving/ingest instruments; the daemon adopts this registry
        #: so one ``metrics`` render covers the whole server.
        self.registry = registry if registry is not None else TelemetryRegistry()
        #: Serialises publishes; serving never takes it.
        self._ingest_lock = threading.Lock()
        #: Guards cache + stats bookkeeping (short critical sections).
        self._stats_lock = threading.Lock()
        #: The single-store authority on versions and insertion order.
        #: Its index is never built; it exists for merge semantics, the
        #: coordinate lookup and the wire snapshot dump.
        self._router = SnapshotStore(index_kind="linear", history=history)
        self._shard_stores = tuple(
            SnapshotStore(index_kind=index_kind, history=history) for _ in range(shards)
        )
        empty = ShardGeneration(
            0, "", self._router.latest(), tuple(CoordinateIndex() for _ in range(shards)),
            tuple(0 for _ in range(shards)), {}, [],
        )
        self._generation = empty
        self._generations: Dict[int, ShardGeneration] = {0: empty}
        self.cache = LRUTTLCache(cache_entries)
        self._serve_stats: Dict[str, _ServeStats] = {
            kind: _ServeStats(kind, self.registry) for kind in QUERY_KINDS
        }
        self._c_publishes = self.registry.counter(
            "store_publishes_total", "Generations published."
        )
        self._c_nodes_ingested = self.registry.counter(
            "store_nodes_ingested_total", "Nodes ingested across all publishes."
        )
        self._c_cache_carried = self.registry.counter(
            "store_cache_carried_total",
            "Cached answers re-keyed to the next version by a delta publish.",
        )
        self._g_last_publish_s = self.registry.gauge(
            "store_last_publish_seconds", "Duration of the latest publish."
        )
        # One instrument per publish mode: full rebuilds and incremental
        # delta rollovers live on wildly different latency scales, and a
        # single histogram would bury the millisecond delta path under
        # the multi-second full one.
        self._h_publish_ms = {
            mode: self.registry.histogram(
                "store_publish_ms", "Generation build-and-install time.", mode=mode
            )
            for mode in ("full", "delta")
        }
        # The health pass runs after the swap but still under the ingest
        # lock, so store_publish_ms (which stops at the swap) does not
        # cover it; without this the lock hold has no instrument.
        self._h_health_observe_ms = {
            mode: self.registry.histogram(
                "store_health_observe_ms",
                "Health observation time after the generation swap.",
                mode=mode,
            )
            for mode in ("full", "delta")
        }
        self._g_version = self.registry.gauge(
            "store_version", "Currently served generation version."
        )
        self._g_nodes = self.registry.gauge(
            "store_nodes", "Node count of the current generation."
        )
        #: Structured lifecycle events (epoch published, generation
        #: swapped, admission shed, ...); the daemon serves the tail over
        #: the wire and emits its own admission events into the same log.
        self.events = EventLog()
        #: Streaming coordinate health over the published epoch stream.
        #: Self-referenced (no RTT oracle here): relative error measures
        #: deviation from the first published geometry, i.e. corruption.
        self.health_tracker = HealthTracker(
            seed=health_seed, registry=self.registry, events=self.events
        )
        self._g_generation_age_s = self.registry.gauge(
            "store_generation_age_s",
            "Seconds since the served generation was installed (staleness).",
        )
        self._h_serve_age_ms = self.registry.histogram(
            "store_serve_generation_age_ms",
            "Publish-to-serve age of the generation answering each query.",
        )
        #: Install wall-time per retained generation version (timer units),
        #: pruned alongside the generations themselves.
        self._publish_walls: Dict[int, float] = {}
        #: Shards currently killed by fault injection.  Serving excludes
        #: them from the scatter (degraded partial responses); publishes
        #: skip their shard stores and install a dead-index placeholder.
        #: Written only under the ingest lock; read as one volatile
        #: reference by serving threads.
        self._down_shards: frozenset = frozenset()
        #: A :class:`repro.chaos.injector.ChaosInjector` when a fault
        #: schedule is active; the store consults it at publish entry
        #: (never under the ingest lock -- see the injector's lock-order
        #: note) and for the injected gray-failure delay while serving.
        self.chaos = None

    # ------------------------------------------------------------------
    # Ingest (whole-population epochs and incremental commits)
    # ------------------------------------------------------------------
    def publish_epoch(
        self,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
        *,
        source: str = "",
    ) -> ShardGeneration:
        """Publish one whole-population array epoch as the next generation.

        The full half of the :class:`~repro.service.publish.EpochPublisher`
        protocol, signature-compatible with
        :meth:`repro.service.snapshot.SnapshotStore.publish_epoch`, so a
        running :func:`~repro.netsim.batch.run_batch_simulation` can
        stream epochs straight into a live server via ``publish_store``.
        """
        if self._chaos_publish_gate():
            return self._generation
        with self._ingest_lock:
            started = self._timer()
            snapshot = self._router.publish_epoch(
                node_ids, components, heights, source=source
            )
            ids, comps, hts = snapshot.arrays()
            comps = np.asarray(comps)
            hts = np.asarray(hts)
            generation = self._build_generation_locked(snapshot, ids, comps, hts)
            self._install_locked(
                generation, started, ids, comps, hts,
                mode="full", changed_count=len(ids),
            )
            return generation

    def publish_delta(self, delta: EpochDelta) -> ShardGeneration:
        """Apply an incremental epoch on top of the serving generation.

        The incremental half of the
        :class:`~repro.service.publish.EpochPublisher` protocol.  The
        router applies the delta by copy-on-write of the touched rows
        (the authority on versions and global insertion order), then the
        delta is re-partitioned into per-shard sub-deltas so each shard's
        spatial index derives incrementally from its predecessor instead
        of rebuilding.  Shards the delta never touches receive an empty
        sub-delta, which mints their next version while *sharing* the
        previous snapshot's frozen arrays and index -- zero copy, zero
        build.  The resulting generation is byte-identical (coordinates,
        query results including tie order, health snapshots) to
        publishing the same final population through
        :meth:`publish_epoch`.  Cached answers the delta provably leaves
        unchanged are carried to the new version (see the module
        docstring).
        """
        if not isinstance(delta, EpochDelta):
            raise TypeError(
                f"publish_delta() needs an EpochDelta, got {type(delta).__name__}"
            )
        if self._chaos_publish_gate():
            return self._generation
        with self._ingest_lock:
            started = self._timer()
            base_generation = self._generation
            snapshot = self._router.publish_delta(delta)
            ids, comps, hts = snapshot.arrays()
            comps = np.asarray(comps)
            hts = np.asarray(hts)
            if delta.changed_count and comps.size:
                dims = comps.shape[1]
            else:
                dims = delta.components.shape[1] if delta.components.ndim == 2 else 1
            changed_rows: List[List[int]] = [[] for _ in range(self.shards)]
            for position, node_id in enumerate(delta.node_ids):
                changed_rows[shard_of(node_id, self.shards)].append(position)
            removed_per_shard: List[List[str]] = [[] for _ in range(self.shards)]
            for node_id in delta.removed_ids:
                removed_per_shard[shard_of(node_id, self.shards)].append(node_id)
            shard_indexes: List[CoordinateIndex] = []
            shard_sizes: List[int] = []
            for shard in range(self.shards):
                if shard in self._down_shards:
                    # The shard store missed this delta; restart_shard
                    # repairs it from the router snapshot later.
                    shard_indexes.append(_DeadShardIndex(shard))
                    shard_sizes.append(0)
                    continue
                rows = changed_rows[shard]
                # Fancy indexing copies, so the shard sub-delta is
                # independent of the caller's (possibly reused) arrays.
                sub = EpochDelta(
                    [delta.node_ids[row] for row in rows],
                    delta.components[rows] if rows else np.empty((0, dims)),
                    delta.heights[rows] if rows else np.empty(0),
                    removed_ids=tuple(removed_per_shard[shard]),
                    source=snapshot.source,
                    epoch=delta.epoch,
                )
                store = self._shard_stores[shard]
                shard_snapshot = store.publish_delta(sub)
                # Derived incrementally inside publish_delta when the
                # budget allows; otherwise this compacts via a full build.
                shard_indexes.append(store.index_for(shard_snapshot))
                shard_sizes.append(len(shard_snapshot))
            if delta.removed_ids or any(
                node_id not in base_generation.global_seq
                for node_id in delta.node_ids
            ):
                node_order = list(ids)
                global_seq = {
                    node_id: position for position, node_id in enumerate(node_order)
                }
            else:
                # Population unchanged: the base generation's order maps
                # are immutable and can be shared outright.
                node_order = base_generation.node_order
                global_seq = base_generation.global_seq
            generation = ShardGeneration(
                snapshot.version,
                snapshot.source,
                snapshot,
                tuple(shard_indexes),
                tuple(shard_sizes),
                global_seq,
                node_order,
            )
            self._install_locked(
                generation, started, ids, comps, hts,
                mode="delta", changed_count=delta.changed_count,
                carried=self._survivors(base_generation, generation, delta),
            )
            return generation

    def _survivors(
        self, base: ShardGeneration, generation: ShardGeneration, delta: EpochDelta
    ) -> List[Tuple[Query, Any]]:
        """The base version's cached ``(query, payload)`` entries that
        ``delta`` leaves unchanged, LRU first.

        The entries are copied under the stats lock and tested outside
        it, so serving keeps hitting the cache meanwhile; an entry a
        reader adds after the copy is simply not carried.
        """
        with self._stats_lock:
            entries = self.cache.entries_at(base.version)
        if not entries:
            return []
        keep = survivors(entries, delta, generation.snapshot, generation.global_seq)
        return [entry for entry, kept in zip(entries, keep) if kept]

    def _publish_mapping(
        self, coordinates: Mapping[str, Coordinate], *, source: str = ""
    ) -> ShardGeneration:
        """Commit an object-based update batch as the next generation.

        Incremental semantics are exactly the single store's: existing
        nodes update in place, new nodes append in iteration order.
        """
        if self._chaos_publish_gate():
            return self._generation
        with self._ingest_lock:
            started = self._timer()
            self._router.apply_many(coordinates)
            snapshot = self._router.commit(source=source)
            if snapshot.version == self._generation.version:
                return self._generation  # no-op commit: nothing staged
            order = snapshot.node_ids()
            if order:
                comps = np.asarray(
                    [snapshot.coordinates[node_id].components for node_id in order],
                    dtype=np.float64,
                )
                hts = np.asarray(
                    [snapshot.coordinates[node_id].height for node_id in order],
                    dtype=np.float64,
                )
            else:
                comps = np.empty((0, 1))
                hts = np.empty(0)
            generation = self._build_generation_locked(snapshot, order, comps, hts)
            self._install_locked(
                generation, started, order, comps, hts,
                mode="full", changed_count=len(order),
            )
            return generation

    def ingest_collector(self, collector, *, level: str = "application", source: str = "") -> ShardGeneration:
        """Publish every node's latest coordinate from a metrics collector."""
        return self._publish_mapping(
            collector.latest_coordinates(level=level), source=source
        )

    def _build_generation_locked(
        self,
        snapshot,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: np.ndarray,
    ) -> ShardGeneration:
        """Partition one published snapshot and build every shard index.

        Runs entirely on the publisher's thread while the previous
        generation keeps serving; nothing is visible until the caller's
        atomic install.
        """
        assignments = [shard_of(node_id, self.shards) for node_id in node_ids]
        global_seq = {node_id: position for position, node_id in enumerate(node_ids)}
        dims = components.shape[1] if components.ndim == 2 and components.shape[1] else 1
        shard_indexes: List[CoordinateIndex] = []
        shard_sizes: List[int] = []
        for shard in range(self.shards):
            if shard in self._down_shards:
                shard_indexes.append(_DeadShardIndex(shard))
                shard_sizes.append(0)
                continue
            rows = [row for row, owner in enumerate(assignments) if owner == shard]
            store = self._shard_stores[shard]
            # Fancy indexing copies, so the shard arrays are independent of
            # (and writable regardless of) the frozen router snapshot.
            shard_snapshot = store.publish_epoch(
                [node_ids[row] for row in rows],
                components[rows] if rows else np.empty((0, dims)),
                heights[rows] if rows else np.empty(0),
                source=snapshot.source,
            )
            shard_indexes.append(store.index_for(shard_snapshot))
            shard_sizes.append(len(rows))
        return ShardGeneration(
            snapshot.version,
            snapshot.source,
            snapshot,
            tuple(shard_indexes),
            tuple(shard_sizes),
            global_seq,
            list(node_ids),
        )

    def _install_locked(
        self,
        generation: ShardGeneration,
        started: float,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: np.ndarray,
        *,
        mode: str = "full",
        changed_count: Optional[int] = None,
        carried: Sequence[Tuple[Query, Any]] = (),
    ) -> None:
        if changed_count is None:
            changed_count = len(generation)
        self.events.emit(
            "epoch_published",
            version=generation.version,
            nodes=len(generation),
            source=generation.source,
            changed_count=changed_count,
            mode=mode,
        )
        self._generations[generation.version] = generation
        floor = generation.version - self.history + 1
        for version in [v for v in self._generations if v < floor]:
            self._generations.pop(version, None)
            self._publish_walls.pop(version, None)
        # Before the swap, so the new version's first reader already finds
        # the carried answers; everything else is superseded and freed.
        with self._stats_lock:
            self.cache.rekey(generation.version, carried)
            self.cache.current_version = generation.version
        self._c_cache_carried.inc(len(carried))
        # The swap: a single reference assignment.  Readers see either the
        # whole old generation or the whole new one, never a mixture.
        self._generation = generation
        elapsed_s = self._timer() - started
        self._c_publishes.inc()
        self._c_nodes_ingested.inc(len(generation))
        self._g_last_publish_s.set(elapsed_s)
        self._h_publish_ms[mode].observe(elapsed_s * 1e3)
        self._g_version.set(generation.version)
        self._g_nodes.set(len(generation))
        self._publish_walls[generation.version] = self._timer()
        self.events.emit(
            "generation_swapped",
            version=generation.version,
            retained=len(self._generations),
            shard_sizes=list(generation.shard_sizes),
        )
        # Health observes the same frozen arrays the generation serves;
        # no wall time is passed, so its values stay a pure function of
        # the publish stream (per-epoch drift/error units).
        observe_started = self._timer()
        self.health_tracker.observe_epoch(
            node_ids, components, heights, version=generation.version
        )
        self._h_health_observe_ms[mode].observe(
            (self._timer() - observe_started) * 1e3
        )

    # ------------------------------------------------------------------
    # Fault injection (chaos)
    # ------------------------------------------------------------------
    def _chaos_publish_gate(self) -> bool:
        """Consult the injector before a publish; True means drop it.

        Called at publish entry, *before* the ingest lock, so the lock
        order is always injector-then-ingest and never cycles (the
        injector calls :meth:`kill_shard`/:meth:`restart_shard`, which
        take the ingest lock, while holding its own lock).
        """
        chaos = self.chaos
        if chaos is None:
            return False
        action, delay_ms = chaos.on_publish()
        if action == "drop":
            self.events.emit("publish_dropped", version=self._generation.version)
            return True
        if action == "stall":
            self.events.emit(
                "publish_stalled",
                version=self._generation.version,
                delay_ms=delay_ms,
            )
            time.sleep(delay_ms / 1e3)
        return False

    def kill_shard(self, shard: int) -> None:
        """Drop one shard from the scatter set (fault injection).

        Queries keep being served from the healthy subset as degraded
        partial responses; publishes while down skip the shard's store
        and install a dead-index placeholder.  Idempotent.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} out of range for {self.shards} shards")
        with self._ingest_lock:
            if shard in self._down_shards:
                return
            self._down_shards = self._down_shards | {shard}
            self.events.emit(
                "shard_killed", shard=shard, version=self._generation.version
            )

    def restart_shard(self, shard: int) -> None:
        """Re-admit a killed shard, rebuilding it from the last generation.

        The shard's rows are recovered from the serving generation's
        router snapshot (the authority the shard store may have missed
        publishes of while down), republished into the shard's own
        :class:`SnapshotStore`, and the freshly built index is installed
        into the serving generation by an atomic swap -- the same
        no-torn-reads argument as a publish.  Idempotent.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} out of range for {self.shards} shards")
        with self._ingest_lock:
            if shard not in self._down_shards:
                return
            generation = self._generation
            snapshot = generation.snapshot
            rows = [
                node_id
                for node_id in generation.node_order
                if shard_of(node_id, self.shards) == shard
            ]
            if rows:
                comps = np.asarray(
                    [snapshot.coordinate_of(node_id).components for node_id in rows],
                    dtype=np.float64,
                )
                hts = np.asarray(
                    [snapshot.coordinate_of(node_id).height for node_id in rows],
                    dtype=np.float64,
                )
            else:
                comps = np.empty((0, 1))
                hts = np.empty(0)
            store = self._shard_stores[shard]
            shard_snapshot = store.publish_epoch(
                rows, comps, hts, source=generation.source
            )
            index = store.index_for(shard_snapshot)
            shard_indexes = list(generation.shard_indexes)
            shard_sizes = list(generation.shard_sizes)
            shard_indexes[shard] = index
            shard_sizes[shard] = len(rows)
            rebuilt = ShardGeneration(
                generation.version,
                generation.source,
                snapshot,
                tuple(shard_indexes),
                tuple(shard_sizes),
                generation.global_seq,
                generation.node_order,
            )
            self._generations[generation.version] = rebuilt
            self._generation = rebuilt
            self._down_shards = self._down_shards - {shard}
            self.events.emit(
                "shard_restarted",
                shard=shard,
                version=generation.version,
                nodes=len(rows),
            )

    @property
    def down_shards(self) -> frozenset:
        """The shards currently excluded from the scatter set."""
        return self._down_shards

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def generation(self) -> ShardGeneration:
        """The current serving generation (pin it once per request)."""
        return self._generation

    def at(self, version: int) -> ShardGeneration:
        generation = self._generations.get(version)
        if generation is None:
            raise KeyError(
                f"generation {version} is not retained "
                f"(history={self.history}, latest={self._generation.version})"
            )
        return generation

    @property
    def version(self) -> int:
        return self._generation.version

    def serve_cached(
        self, query: Query, *, trace: Optional[TraceRecorder] = None
    ) -> Optional[ServeResult]:
        """The current generation's cached answer to ``query``, or None.

        Safe to call on an event loop: it takes only the short stats lock
        and does no index work.  A hit is counted exactly as
        :meth:`serve` counts one; a miss is not counted, because the
        caller's next step is :meth:`serve`, which probes again and counts
        what it finds.  Returns None without probing while a chaos
        schedule is installed (the gray-failure delay sleeps inside
        :meth:`serve`) or any shard is down (degraded answers bypass the
        cache).
        """
        if self.chaos is not None or self._down_shards:
            return None
        pinned = self._generation
        hit = self._cached(pinned, query, trace, count_miss=False)
        if hit is not None:
            self._observe_age(pinned)
        return hit

    def _cached(
        self,
        pinned: ShardGeneration,
        query: Query,
        trace: Optional[TraceRecorder],
        *,
        count_miss: bool,
    ) -> Optional[ServeResult]:
        """The one cache-hit branch: probe ``(version, query)``, count a hit."""
        with make_span(self.registry, "store.cache", trace, {"kind": query.kind}):
            with self._stats_lock:
                found, payload = self.cache.get(
                    (pinned.version, query), count_miss=count_miss
                )
        if not found:
            return None
        stats = self._serve_stats[query.kind]
        stats.served.inc()
        stats.cache_hits.inc()
        return ServeResult(payload, pinned.version, True)

    def _observe_age(self, pinned: ShardGeneration) -> None:
        """Record the publish-to-serve age of the generation answering."""
        installed = self._publish_walls.get(pinned.version)
        if installed is not None:
            age_s = self._timer() - installed
            self._h_serve_age_ms.observe(age_s * 1e3)
            self._g_generation_age_s.set(age_s)

    def serve(
        self,
        query: Query,
        *,
        generation: Optional[ShardGeneration] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> ServeResult:
        """Answer one query as a :class:`ServeResult`.

        The whole answer is computed from one pinned generation.  Results
        are cached keyed on ``(version, query)``; an answer crosses into a
        newer version only when :meth:`publish_delta` proved it identical
        to that version's fresh answer (every other entry is dropped at
        the publish).  Failures raise
        :class:`~repro.service.planner.QueryError` after being counted.

        While shards are down (fault injection) scatter queries are
        served *degraded* from the healthy subset: ``result.partial`` is
        true and ``result.missing_shards`` names the excluded shards.
        Degraded answers bypass the cache in both directions -- a partial
        payload must never be replayed once the shard is back, and a
        cached full payload must not masquerade as the degraded answer
        the oracle audit expects.

        Passing a :class:`TraceRecorder` collects per-stage durations
        (cache probe, per-shard scatter, merge) for this one request even
        when the registry's spans are globally disabled.
        """
        pinned = generation if generation is not None else self._generation
        self._observe_age(pinned)
        chaos = self.chaos
        if chaos is not None:
            delay_ms = chaos.serve_delay_ms()
            if delay_ms > 0.0 and query.kind != "pairwise":
                # Injected gray failure: the slow shard's extra service
                # time, charged to every scatter query.
                time.sleep(delay_ms / 1e3)
        down = self._down_shards
        degraded = bool(down) and query.kind != "pairwise"
        if not degraded:
            hit = self._cached(pinned, query, trace, count_miss=True)
            if hit is not None:
                return hit
        stats = self._serve_stats[query.kind]
        started = self._timer()
        try:
            with make_span(self.registry, "store.serve", trace, {"kind": query.kind}):
                payload = pinned.answer(
                    query,
                    registry=self.registry,
                    trace=trace,
                    exclude_shards=down if degraded else (),
                )
        except QueryError:
            stats.errors.inc()
            raise
        elapsed_ms = (self._timer() - started) * 1e3
        if degraded:
            if chaos is not None:
                chaos.note_degraded()
            stats.served.inc()
            stats.latency_ms.observe(elapsed_ms)
            return ServeResult(
                payload,
                pinned.version,
                False,
                partial=True,
                missing_shards=tuple(sorted(down)),
            )
        with self._stats_lock:
            self.cache.put((pinned.version, query), payload)
        stats.served.inc()
        stats.latency_ms.observe(elapsed_ms)
        return ServeResult(payload, pinned.version, False)

    def serve_batch(self, queries: Sequence[Query]) -> List[ServeResult]:
        """Answer ``queries`` in order, all from one pinned generation.

        Accounting is :meth:`serve`'s, query by query: the first
        occurrence of a query misses and later ones in the batch hit.  A
        query that fails yields a result carrying its ``error`` in its
        slot instead of poisoning the rest of the batch.

        On a one-shard store whose index has batch entry points (the
        ``dense`` kind) and no chaos schedule, the batch's cache-missing
        knn / nearest / range queries are answered in grouped NumPy calls
        (by ``k`` / radius) -- same payloads, cache contents and stats as
        per-query :meth:`serve`.  The grouped answers enter the cache
        before the rest of the batch is served, so with a cache smaller
        than the batch the *eviction* order within one call can differ.
        """
        pinned = self._generation
        slots: List[Optional[ServeResult]] = [None] * len(queries)
        index = pinned.shard_indexes[0]
        if (
            len(queries) > 1
            and self.shards == 1
            and self.chaos is None
            and hasattr(index, "knn_batch_by_id")
        ):
            self._serve_grouped(pinned, index, queries, slots)
        results: List[ServeResult] = []
        for query, served in zip(queries, slots):
            if served is None:
                try:
                    served = self.serve(query, generation=pinned)
                except QueryError as exc:
                    served = ServeResult(None, pinned.version, False, error=str(exc))
            results.append(served)
        return results

    def _serve_grouped(
        self,
        pinned: ShardGeneration,
        index,
        queries: Sequence[Query],
        slots: List[Optional[ServeResult]],
    ) -> None:
        """Fill ``slots`` for the batchable part of ``queries``.

        Positions left None (other kinds, unknown targets, in-batch
        duplicates awaiting the first occurrence's cache write) are
        served per query by :meth:`serve_batch`.
        """
        knn_groups: Dict[int, List[int]] = {}
        range_groups: Dict[float, List[int]] = {}
        scheduled = set()
        for position, query in enumerate(queries):
            if query.kind in ("knn", "nearest"):
                groups: Dict[Any, List[int]] = knn_groups
                parameter: Any = query.k if query.kind == "knn" else 1
            elif query.kind == "range":
                groups, parameter = range_groups, query.radius_ms
            else:
                continue
            if query.target not in index:
                continue  # serve() raises the canonical error
            if query in scheduled:
                continue  # a duplicate: hits the cache in the per-query pass
            hit = self._cached(pinned, query, None, count_miss=True)
            if hit is not None:
                self._observe_age(pinned)
                slots[position] = hit
                continue
            scheduled.add(query)
            groups.setdefault(parameter, []).append(position)
        for shape, batch_by_id, grouped in (
            ("knn", index.knn_batch_by_id, knn_groups),
            ("range", index.range_batch_by_id, range_groups),
        ):
            for parameter, positions in grouped.items():
                with make_span(self.registry, "store.batch", None, {"shape": shape}):
                    started = self._timer()
                    answers = batch_by_id(
                        [queries[position].target for position in positions], parameter
                    )
                    per_query_ms = (self._timer() - started) * 1e3 / len(positions)
                for position, answer in zip(positions, answers):
                    if answer is None:  # unknown target: serve() reports it
                        continue
                    query = queries[position]
                    payload = _proximity_payload(query, answer)
                    with self._stats_lock:
                        self.cache.put((pinned.version, query), payload)
                    stats = self._serve_stats[query.kind]
                    stats.served.inc()
                    stats.latency_ms.observe(per_query_ms)
                    self._observe_age(pinned)
                    slots[position] = ServeResult(payload, pinned.version, False)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Serving, cache, ingest and shard-occupancy counters (JSON-safe)."""
        generation = self._generation
        kinds = {
            kind: stats.as_dict()
            for kind, stats in self._serve_stats.items()
            if stats.served.value or stats.errors.value
        }
        with self._stats_lock:
            cache = self.cache.stats()
        ingest = {
            "versions_published": self._c_publishes.value,
            "nodes_ingested": self._c_nodes_ingested.value,
            "last_publish_s": round(self._g_last_publish_s.value, 6),
        }
        return {
            "version": generation.version,
            "nodes": len(generation),
            "source": generation.source,
            "shards": {
                "count": self.shards,
                "index_kind": self.index_kind,
                "sizes": list(generation.shard_sizes),
                "down": sorted(self._down_shards),
            },
            "kinds": kinds,
            "cache": cache,
            "ingest": ingest,
        }

    def health(self, sections: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """The coordinate-health payload served by the ``health`` wire op.

        ``sections`` restricts the payload to the named
        :data:`HEALTH_SECTIONS` (canonical order is preserved; an unknown
        name raises ``ValueError``).  Every section except ``staleness``
        is a pure function of the publish stream -- byte-deterministic
        for a seeded publisher; ``staleness`` reads the store timer
        (generation age, publish-to-serve age quantiles), which is why
        deterministic consumers can ask for the other sections only.
        """
        if sections is None:
            wanted = HEALTH_SECTIONS
        else:
            unknown = [name for name in sections if name not in HEALTH_SECTIONS]
            if unknown:
                raise ValueError(
                    f"unknown health section(s) {unknown!r}; "
                    f"known: {list(HEALTH_SECTIONS)}"
                )
            wanted = tuple(name for name in HEALTH_SECTIONS if name in sections)
        summary = self.health_tracker.summary()
        generation = self._generation
        payload: Dict[str, Any] = {}
        for name in wanted:
            if name == "generation":
                payload[name] = {
                    "version": generation.version,
                    "nodes": len(generation),
                    "source": generation.source,
                    "epochs": summary["epochs"],
                    "mode": summary["mode"],
                }
            elif name == "staleness":
                installed = self._publish_walls.get(generation.version)
                payload[name] = {
                    "generation_age_s": (
                        self._timer() - installed if installed is not None else None
                    ),
                    "publish_to_serve_age_ms": self._h_serve_age_ms.quantile_summary(),
                    "serves_observed": self._h_serve_age_ms.count,
                }
            else:
                payload[name] = summary[name]
        return payload

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls, snapshot, *, shards: int = 2, index_kind: str = "vptree", **kwargs
    ) -> "ShardedCoordinateStore":
        """A store pre-loaded with one snapshot's coordinates.

        The generation is republished (version restarts at 1); use the
        publish methods directly to preserve external version numbering.
        """
        store = cls(shards, index_kind=index_kind, **kwargs)
        store._publish_mapping(dict(snapshot.coordinates), source=snapshot.source)
        return store

    @classmethod
    def from_coordinates(
        cls,
        coordinates: Mapping[str, Coordinate],
        *,
        shards: int = 2,
        index_kind: str = "vptree",
        source: str = "",
        **kwargs,
    ) -> "ShardedCoordinateStore":
        store = cls(shards, index_kind=index_kind, **kwargs)
        store._publish_mapping(coordinates, source=source)
        return store

    @classmethod
    def from_source(
        cls,
        data: Optional[Tuple[str, Any]],
        *,
        shards: int = 2,
        index_kind: str = "vptree",
        level: str = "application",
        **kwargs,
    ) -> "ShardedCoordinateStore":
        """A store populated from one data source.

        ``data`` is None (an empty generation, populated later through
        the publish methods) or one of:

        * ``("synthetic", (n, seed))`` --
          :func:`repro.server.load.synthetic_coordinates`;
        * ``("snapshot", path)`` -- a saved coordinate snapshot (republished
          from version 1);
        * ``("scenario", name_or_spec)`` -- a registered scenario name or a
          :class:`~repro.scenarios.spec.ScenarioSpec`, run through the
          serial kernel; its final ``level`` coordinates are published.
        """
        store = cls(shards, index_kind=index_kind, **kwargs)
        if data is None:
            return store
        kind, value = data
        if kind == "synthetic":
            from repro.server.load import synthetic_coordinates

            n, seed = value
            store.publish_delta(
                EpochDelta.from_coordinates(
                    synthetic_coordinates(n, seed=seed), source=f"synthetic-{n}"
                )
            )
        elif kind == "snapshot":
            snapshot = CoordinateSnapshot.load(value)
            store.publish_delta(
                EpochDelta.from_coordinates(
                    dict(snapshot.coordinates), source=snapshot.source or str(value)
                )
            )
        elif kind == "scenario":
            from repro.engine.kernel import run_scenario
            from repro.scenarios.registry import get_scenario

            spec = get_scenario(value) if isinstance(value, str) else value
            run = run_scenario(spec)
            store.ingest_collector(run.collector, level=level, source=spec.name)
        else:
            raise ValueError(f"unknown data source {kind!r}")
        return store
