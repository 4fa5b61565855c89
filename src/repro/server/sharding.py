"""Sharded live coordinate stores with one index per generation.

:class:`ShardedCoordinateStore` partitions the node population across N
shards by a stable hash of the node id.  A shard is a set of rows, not
an index: each generation holds one whole-population
:class:`~repro.service.snapshot.ArraySnapshot`, a per-row owner array
(the partition) and one pluggable spatial index over the rows of the
shards that are up, and a shard that is down is answered around by an
index over the other shards' rows.

**One serving front.** The daemon, the gateway and every in-process
caller answer through this store; an in-process caller that wants a
single store uses ``shards=1``.  A generation answers a query by handing
its index to :func:`repro.service.planner.answer_query`, the one payload
executor; :meth:`ShardedCoordinateStore.serve_batch` answers a whole
batch from one generation, grouping a ``dense`` store's misses into the
index's batch calls while no shard is down.  This module owns
partitioning, generations, the cache, batching and the degraded path; it
shapes no payload itself.

**Oracle identity: one index in global order.** Answers are
byte-identical -- same node sets, same ``Coordinate.distance`` floats,
same ordering including ties -- to a single un-sharded store serving the
same snapshot, because they *are* that store's answers: the generation's
index holds the snapshot's rows in snapshot order, so its own insertion
order is the linear oracle's tie-break and nothing is merged.

**The healthy-subset rule.** While shards are down, a query is answered
from an index over exactly the rows whose owner is up, still in snapshot
order, so a degraded answer is the full answer minus the down shards'
rows -- nothing re-ranked, no tie order disturbed (what
:mod:`repro.chaos.oracle` checks).  A generation builds the index for an
excluded shard set once, on first use, and keeps it
(:meth:`ShardGeneration.index_for`); :meth:`~ShardedCoordinateStore.kill_shard`
and :meth:`~ShardedCoordinateStore.restart_shard` build the one for the
new down set eagerly, under the ingest lock, so serving never waits for
it.

**Generations and torn reads.** Every publish builds a complete immutable
:class:`ShardGeneration` -- the snapshot, its index, the owner array --
*before* a single atomic reference swap installs it.  A request pins the
generation reference once and serves the whole answer from it, so a
response can never mix coordinate versions, and rollover never blocks
serving (readers of the old generation simply finish on it).

**Generations are the only history.** A full epoch becomes one
``ArraySnapshot``; a delta becomes
:func:`~repro.service.snapshot.apply_delta` of the serving one, the same
function a single store applies, so versions and insertion order are
*definitionally* the oracle's.  Every constructor publishes one delta:
``from_snapshot`` and the synthetic and snapshot-file sources build it
from arrays, with no per-node ``Coordinate``; only the object batches of
``from_coordinates`` and ``ingest_collector`` start from objects.  The
index derives from the previous generation's with one ``delta_applied``
call (while shards are down, the live set's index from the delta's live
rows); when that declines, or for ``linear``,
:func:`~repro.service.index.index_over` builds it over the rows.  A
delta routes every id already served by the owner array and hashes only
the ids that join; one that keeps the population shares the array as is.

**The cache across a publish.** Answers are cached under
``(version, query)``.  A delta publish, before its swap, re-keys to the
new version every cached answer of the base version that
:func:`repro.service.planner.survivors` proves unchanged by the delta
(same payload object, counted by ``store_cache_carried_total``) and
frees the rest as ``rollover`` evictions; a full publish frees them all.
The survival test reads only the snapshot, so a shard that is down
changes nothing about it.

Thread-safety: publishes are serialised by an ingest lock; serving reads
one volatile reference and immutable data plus a small stats lock, so any
number of threads can query concurrently with ingest.
:meth:`ShardedCoordinateStore.serve` never sleeps, so the daemon calls it
on its event loop for every query, hit or miss.
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
from repro.service.index import INDEX_KINDS, index_over
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
from repro.service.snapshot import ArraySnapshot, apply_delta

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

    Everything a request needs -- the snapshot, its one index, the
    per-row owner array, the global tie-break order -- is reachable from
    this object, so a request that captured it is untouched by later
    publishes.
    """

    __slots__ = (
        "version",
        "source",
        "snapshot",
        "shard_indexes",
        "shard_sizes",
        "global_seq",
        "node_order",
        "owners",
        "index_kind",
        "_indexes",
    )

    def __init__(
        self,
        version: int,
        source: str,
        snapshot,
        shard_indexes: Tuple[CoordinateIndex],
        shard_sizes: Tuple[int, ...],
        global_seq: Dict[str, int],
        node_order: List[str],
        *,
        owners: Optional[np.ndarray] = None,
        index_kind: str = "vptree",
        down: frozenset = frozenset(),
    ) -> None:
        self.version = version
        self.source = source
        #: The whole population's snapshot (coordinate lookup + wire dump).
        self.snapshot = snapshot
        #: ``(index,)``: the one index the generation was published with,
        #: over the rows of every shard not in ``down`` (the shards down at
        #: the publish), in snapshot order.
        self.shard_indexes = shard_indexes
        #: Rows each shard owns (``np.bincount`` of ``owners``).
        self.shard_sizes = shard_sizes
        #: node id -> position in the oracle's insertion order (the
        #: snapshot's ``row_index``).
        self.global_seq = global_seq
        #: Node ids in oracle insertion order (the snapshot's id list).
        self.node_order = node_order
        #: The shard of every snapshot row; needed only to build an index
        #: for a shard set other than ``down``.
        self.owners = owners
        self.index_kind = index_kind
        self._indexes: Dict[frozenset, CoordinateIndex] = {
            frozenset(down): shard_indexes[0]
        }

    def __len__(self) -> int:
        return len(self.node_order)

    def index_for(self, exclude_shards: Sequence[int] = ()) -> CoordinateIndex:
        """The index over the rows of every shard not in ``exclude_shards``.

        A set met for the first time gets an index built over exactly
        those rows in snapshot order, kept for every later request; the
        store builds the one for its down set eagerly, under its ingest
        lock, when it kills or restarts a shard.
        """
        excluded = frozenset(exclude_shards)
        index = self._indexes.get(excluded)
        if index is None:
            if self.owners is None:
                raise ValueError("a generation without owners serves only its own set")
            index = _index_over(self.index_kind, self.snapshot, self.owners, excluded)
            self._indexes[excluded] = index
        return index

    def answer(
        self,
        query: Query,
        *,
        registry: Optional[TelemetryRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        exclude_shards: Sequence[int] = (),
    ) -> Any:
        """The oracle-identical payload for one service-layer query.

        Payload shaping is :func:`repro.service.planner.answer_query`'s,
        over :meth:`index_for` ``exclude_shards`` -- the whole population,
        or the healthy subset on the degraded-response path while shards
        are down.
        """
        return answer_query(
            query,
            self.snapshot,
            self.index_for(exclude_shards),
            registry=registry,
            trace=trace,
        )


def _index_over(
    kind: str, snapshot: ArraySnapshot, owners: np.ndarray, excluded: frozenset
) -> CoordinateIndex:
    """A ``kind`` index over ``snapshot``'s rows whose owner is not in
    ``excluded``, in snapshot order; with nothing excluded it adopts the
    snapshot's arrays."""
    node_ids, components, heights = snapshot.arrays()
    if excluded:
        rows = np.flatnonzero(~np.isin(owners, list(excluded)))
        node_ids = [node_ids[row] for row in rows.tolist()]
        components, heights = components[rows], heights[rows]
    return index_over(kind, node_ids, components, heights)


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
    """N hash-partitioned shards of rows behind one index per generation.

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
        if history < 1:
            raise ValueError("history must be >= 1")
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
        #: Shards currently killed by fault injection.  Serving answers
        #: scatter queries from the index over the other shards' rows
        #: (degraded partial responses).  Written only under the ingest
        #: lock; read as one volatile reference by serving threads.
        self._down_shards: frozenset = frozenset()
        empty = self._generation_of(
            ArraySnapshot(0, [], np.empty((0, 1))),
            CoordinateIndex(),
            np.empty(0, dtype=np.intp),
        )
        self._generation = empty
        #: The retained generations by version: the store's only history.
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
        #: A :class:`repro.chaos.injector.ChaosInjector` when a fault
        #: schedule is active; the store consults it at publish entry
        #: (never under the ingest lock -- see the injector's lock-order
        #: note) and counts degraded answers into it.  The gray-failure
        #: delay is the daemon's to wait out, not the store's.
        self.chaos = None

    # ------------------------------------------------------------------
    # Ingest (whole-population epochs and incremental deltas)
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
        The arrays are adopted (and frozen) as the generation's snapshot;
        the index is built over the rows of every shard that is up.
        """
        if self._chaos_publish_gate():
            return self._generation
        with self._ingest_lock:
            started = self._timer()
            base = self._generation
            snapshot = ArraySnapshot(
                base.version + 1,
                node_ids,
                components,
                heights,
                source=source or base.source,
            )
            owners = np.fromiter(
                (shard_of(node_id, self.shards) for node_id in snapshot.arrays()[0]),
                dtype=np.intp,
                count=len(snapshot),
            )
            index = _index_over(self.index_kind, snapshot, owners, self._down_shards)
            generation = self._generation_of(snapshot, index, owners)
            self._install_locked(
                generation, started, mode="full", changed_count=len(snapshot)
            )
            return generation

    def publish_delta(self, delta: EpochDelta) -> ShardGeneration:
        """Apply an incremental epoch on top of the serving generation.

        The incremental half of the
        :class:`~repro.service.publish.EpochPublisher` protocol.  The
        snapshot is :func:`~repro.service.snapshot.apply_delta` of the
        serving one (copy-on-write of the touched rows), and the index
        derives from its predecessor with one ``delta_applied`` call;
        when that declines (compaction, or the ``linear`` kind) it is
        rebuilt over the rows.  While shards are down only the live set's
        index is derived, from the delta's rows of live shards.  The
        resulting generation is byte-identical (coordinates, query
        results including tie order, health snapshots) to publishing the
        same final population through :meth:`publish_epoch`.  Cached
        answers the delta provably leaves unchanged are carried to the
        new version (see the module docstring).
        """
        if not isinstance(delta, EpochDelta):
            raise TypeError(
                f"publish_delta() needs an EpochDelta, got {type(delta).__name__}"
            )
        if self._chaos_publish_gate():
            return self._generation
        with self._ingest_lock:
            started = self._timer()
            base = self._generation
            snapshot = apply_delta(base.snapshot, delta)
            # An id already served keeps the owner of its row; only ids
            # that join are hashed.
            row_of = base.global_seq
            base_rows = np.fromiter(
                (row_of.get(node_id, -1) for node_id in delta.node_ids),
                dtype=np.intp,
                count=len(delta.node_ids),
            )
            known = base_rows >= 0
            joined = np.flatnonzero(~known)
            owner_of = np.empty(len(base_rows), dtype=np.intp)
            owner_of[known] = base.owners[base_rows[known]]
            owner_of[joined] = [
                shard_of(delta.node_ids[position], self.shards)
                for position in joined.tolist()
            ]
            if snapshot.arrays()[0] is base.node_order:
                owners = base.owners  # population unchanged: same rows
            else:
                keep = np.ones(len(base), dtype=bool)
                keep[[row_of[gone] for gone in delta.removed_ids if gone in row_of]] = False
                owners = np.concatenate([base.owners[keep], owner_of[joined]])
            down = self._down_shards
            changed_ids = delta.node_ids
            components, heights = delta.components, delta.heights
            if down:
                # Only the live shards' rows enter the live set's index.
                # Removed ids need no filter: an index ignores absent ids.
                live = np.flatnonzero(~np.isin(owner_of, list(down)))
                changed_ids = [changed_ids[position] for position in live.tolist()]
                components, heights = components[live], heights[live]
            derive = getattr(base.index_for(down), "delta_applied", None)
            index = None
            if derive is not None:
                index = derive(changed_ids, components, heights, delta.removed_ids)
            if index is None:  # compaction, or the linear kind
                index = _index_over(self.index_kind, snapshot, owners, down)
            generation = self._generation_of(snapshot, index, owners)
            self._install_locked(
                generation, started,
                mode="delta", changed_count=delta.changed_count,
                carried=self._survivors(base, generation, delta),
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

    def ingest_collector(
        self, collector, *, level: str = "application", source: str = ""
    ) -> ShardGeneration:
        """Publish every node's latest coordinate from a metrics collector.

        The batch is one delta: existing nodes update in place and new
        nodes append in iteration order, exactly as a single store
        commits them.  An empty batch publishes nothing.
        """
        coordinates = collector.latest_coordinates(level=level)
        if not coordinates:
            return self._generation
        return self.publish_delta(EpochDelta.from_coordinates(coordinates, source=source))

    def _generation_of(
        self, snapshot: ArraySnapshot, index: CoordinateIndex, owners: np.ndarray
    ) -> ShardGeneration:
        """The generation serving ``snapshot`` through ``index``, built
        over the rows of every shard not currently down.

        The order maps are the snapshot's own row map and id list, shared
        rather than rebuilt.
        """
        return ShardGeneration(
            snapshot.version,
            snapshot.source,
            snapshot,
            (index,),
            tuple(np.bincount(owners, minlength=self.shards).tolist()),
            snapshot.row_index,
            snapshot.arrays()[0],
            owners=owners,
            index_kind=self.index_kind,
            down=self._down_shards,
        )

    def _install_locked(
        self,
        generation: ShardGeneration,
        started: float,
        *,
        mode: str,
        changed_count: int,
        carried: Sequence[Tuple[Query, Any]] = (),
    ) -> None:
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
        # Health observes the same frozen arrays the generation serves,
        # and keeps the snapshot's row map rather than a copy of it; no
        # wall time is passed, so its values stay a pure function of the
        # publish stream (per-epoch drift/error units).
        observe_started = self._timer()
        snapshot = generation.snapshot
        self.health_tracker.observe_epoch(
            *snapshot.arrays(), version=generation.version, row_index=snapshot.row_index
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
        """Drop one shard from the answering set (fault injection).

        Queries keep being served from the healthy subset as degraded
        partial responses.  The serving generation's index over the
        healthy shards' rows is built here, before the shard counts as
        down, so no request waits for it; publishes while down derive
        only that live-set index.  Idempotent.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} out of range for {self.shards} shards")
        with self._ingest_lock:
            if shard in self._down_shards:
                return
            down = self._down_shards | {shard}
            self._generation.index_for(down)
            self._down_shards = down
            self.events.emit(
                "shard_killed", shard=shard, version=self._generation.version
            )

    def restart_shard(self, shard: int) -> None:
        """Re-admit a killed shard.

        The serving generation's index over every shard still up -- the
        full index once none is down -- is built over its snapshot's rows
        (picked by the per-row owner array, so no node id is rehashed)
        before the shard counts as up again; the same no-torn-reads
        argument as a publish.  Idempotent.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(f"shard {shard} out of range for {self.shards} shards")
        with self._ingest_lock:
            if shard not in self._down_shards:
                return
            down = self._down_shards - {shard}
            generation = self._generation
            generation.index_for(down)
            self._down_shards = down
            self.events.emit(
                "shard_restarted",
                shard=shard,
                version=generation.version,
                nodes=generation.shard_sizes[shard],
            )

    @property
    def down_shards(self) -> frozenset:
        """The shards currently excluded from answers (degraded serving)."""
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

    def _cached(
        self,
        pinned: ShardGeneration,
        query: Query,
        trace: Optional[TraceRecorder],
    ) -> Optional[ServeResult]:
        """The one cache-hit branch: probe ``(version, query)``, count a hit."""
        with make_span(self.registry, "store.cache", trace, {"kind": query.kind}):
            with self._stats_lock:
                found, payload = self.cache.get((pinned.version, query))
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
        (cache probe, index scan, payload shaping) for this one request even
        when the registry's spans are globally disabled.

        It never sleeps, so an event loop may call it: an injected
        gray-failure delay is waited out by the caller
        (:class:`~repro.server.daemon.RequestEngine`) before it calls this.
        """
        pinned = generation if generation is not None else self._generation
        self._observe_age(pinned)
        down = self._down_shards
        degraded = bool(down) and query.kind != "pairwise"
        if not degraded:
            hit = self._cached(pinned, query, trace)
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
            chaos = self.chaos
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

        While no shard is down and no chaos schedule is installed, a
        store whose index has batch entry points (the ``dense`` kind, at
        any shard count) answers the batch's cache-missing knn / nearest
        / range queries in grouped NumPy calls (by ``k`` / radius) --
        same payloads, cache contents and stats as
        per-query :meth:`serve`.  The grouped answers enter the cache
        before the rest of the batch is served, so with a cache smaller
        than the batch the *eviction* order within one call can differ.
        """
        pinned = self._generation
        slots: List[Optional[ServeResult]] = [None] * len(queries)
        if len(queries) > 1 and not self._down_shards and self.chaos is None:
            index = pinned.index_for(())
            if hasattr(index, "knn_batch_by_id"):
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
            hit = self._cached(pinned, query, None)
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
        """A store pre-loaded with one :class:`ArraySnapshot`'s arrays.

        The generation is republished (version restarts at 1; an empty
        snapshot publishes nothing); use the publish methods directly to
        preserve external version numbering.
        """
        store = cls(shards, index_kind=index_kind, **kwargs)
        if len(snapshot):
            store.publish_delta(EpochDelta(*snapshot.arrays(), source=snapshot.source))
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
        if coordinates:
            store.publish_delta(EpochDelta.from_coordinates(coordinates, source=source))
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
          :func:`repro.server.load.synthetic_arrays`;
        * ``("snapshot", path)`` -- a saved :class:`ArraySnapshot` file
          (republished from version 1);
        * ``("scenario", name_or_spec)`` -- a registered scenario name or a
          :class:`~repro.scenarios.spec.ScenarioSpec`, run through the
          serial kernel; its final ``level`` coordinates are published.
        """
        store = cls(shards, index_kind=index_kind, **kwargs)
        if data is None:
            return store
        kind, value = data
        if kind == "synthetic":
            from repro.server.load import synthetic_arrays

            n, seed = value
            store.publish_delta(
                EpochDelta(*synthetic_arrays(n, seed=seed), source=f"synthetic-{n}")
            )
        elif kind == "snapshot":
            snapshot = ArraySnapshot.load(value)
            store.publish_delta(
                EpochDelta(*snapshot.arrays(), source=snapshot.source or str(value))
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
