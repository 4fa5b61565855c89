"""Query execution over coordinate snapshots: the read path's payload code.

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
partitions and merges by ``(rtt, insertion order)``.  The one serving
front, :class:`repro.server.sharding.ShardedCoordinateStore`, passes its
shard indexes; a single store is its one-shard case, not a second
implementation.  The store's grouped batch path
(:meth:`~repro.server.sharding.ShardedCoordinateStore.serve_batch` on a
``dense`` index) shapes its payloads with this module's
:func:`_proximity_payload` too, so both paths emit the same bytes.

Results are **cached** by the store in an :class:`LRUTTLCache` keyed on
``(version, query)``, so an answer is only ever served under the version
it was computed or proven for.  On a delta publish :func:`survivors` is
the one exact test of which cached answers the delta provably leaves
unchanged; only those are re-keyed to the new version and the rest are
freed at once.  :func:`latency_percentiles_us` reads the ``stats()``
percentiles from the registry's latency histogram (within one bucket of
exact); exact percentiles are the load harness's job (``repro load``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate, centroid
from repro.obs.registry import LatencyHistogram, TelemetryRegistry
from repro.obs.tracing import TraceRecorder, make_span
from repro.service.index import _rtts
from repro.service.publish import EpochDelta

__all__ = [
    "Query",
    "QueryError",
    "LRUTTLCache",
    "QUERY_KINDS",
    "answer_query",
    "latency_percentiles_us",
    "survivors",
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


#: Cells in any one temporary of :func:`survivors`' distance check.
_SURVIVOR_CHUNK_CELLS = 2**15


def survivors(
    entries: Sequence[Tuple[Query, Any]],
    delta: EpochDelta,
    snapshot,
    rows: Mapping[str, int],
) -> List[bool]:
    """Which cached ``(query, payload)`` answers ``delta`` leaves unchanged.

    ``entries`` were answered at the delta's base version; ``snapshot``
    is the array snapshot the delta produced and ``rows`` maps a node id
    to its row in ``snapshot.arrays()``.  An entry marked True equals
    :func:`answer_query`'s answer over ``snapshot``, byte for byte.  With
    ``moved`` the delta's changed and removed ids (an added row counts as
    a changed row at its new position):

    * ``pairwise`` survives when neither endpoint moved;
    * ``knn`` / ``nearest`` / ``range`` survive when neither the target
      nor any member moved and no changed row's new position lies at
      ``target.distance(row) <= r``, where ``r`` is the last neighbour's
      rtt of a full kNN answer (+inf for a short one) or the range
      radius.  Unmoved rows keep their distances and their relative
      insertion order, so only a changed row could enter the answer or
      reorder it, and ``<=`` makes a tie count as entering;
    * ``centroid`` never survives.

    The targets' coordinates are gathered as rows of ``snapshot`` (they
    did not move) and the distance check is :func:`_reached`; no
    ``Coordinate`` is built.
    """
    moved = set(delta.node_ids)
    moved.update(delta.removed_ids)
    keep = [False] * len(entries)
    probes: List[int] = []  # entries left to the distance check
    reach: List[float] = []
    for position, (query, payload) in enumerate(entries):
        kind = query.kind
        if kind == "pairwise":
            keep[position] = moved.isdisjoint(query.pair)
            continue
        if kind == "centroid" or query.target in moved:
            continue
        if kind == "range":
            members = payload["hits"]
            radius = query.radius_ms
        else:
            members = payload["neighbors"]
            limit = query.k if kind == "knn" else 1
            full = len(members) == limit
            radius = members[-1]["predicted_rtt_ms"] if full else math.inf
        if not moved.isdisjoint([member["node_id"] for member in members]):
            continue
        probes.append(position)
        reach.append(radius)
    if probes and delta.node_ids:
        _, components, heights = snapshot.arrays()
        targets = [rows[entries[position][0].target] for position in probes]
        reached = _reached(
            np.asarray(components)[targets],
            np.asarray(heights)[targets],
            np.asarray(reach),
            delta.components,
            delta.heights,
        ).tolist()
    else:
        reached = [False] * len(probes)
    for position, hit in zip(probes, reached):
        keep[position] = not hit
    return keep


def _reached(
    origins: np.ndarray,
    origin_heights: np.ndarray,
    limits: np.ndarray,
    points: np.ndarray,
    point_heights: np.ndarray,
) -> np.ndarray:
    """``out[i]``: some point lies at rtt ``<= limits[i]`` from origin ``i``.

    ``origins`` / ``points`` are ``(n, d)`` rows, each with its height.
    Heights are non-negative, so a point farther than ``r`` from an
    origin along the first axis is farther than ``r`` in rtt.  Origins
    are therefore swept in first-axis order and each meets only the
    window of (sorted) points within its limit on that axis, widened far
    beyond any rounding.  Consecutive origins share one kernel call while
    their joint window fits ``_SURVIVOR_CHUNK_CELLS``; a lone origin
    whose window does not fit takes it in blocks.  The kernel is the
    oracle-exact :func:`repro.service.index._rtts`, fed both sides
    dimension-major -- ``(d, n)``-contiguous arrays passed transposed --
    so every per-axis slice it reads is contiguous.
    """
    sweep = np.argsort(origins[:, 0], kind="stable")
    order = np.argsort(points[:, 0], kind="stable")
    origins_dm = np.ascontiguousarray(origins[sweep].T)
    origin_heights = origin_heights[sweep]
    limits = limits[sweep]
    points_dm = np.ascontiguousarray(points[order].T)
    point_heights = point_heights[order]
    axis, x = points_dm[0], origins_dm[0]
    slack = 1e-9 * (1.0 + np.abs(x) + limits)
    lows = np.searchsorted(axis, x - limits - slack, side="left").tolist()
    highs = np.searchsorted(axis, x + limits + slack, side="right").tolist()
    dims = points_dm.shape[0]
    step = max(1, _SURVIVOR_CHUNK_CELLS // dims)  # points per lone-origin block
    swept = np.zeros(len(limits), dtype=bool)
    start, total = 0, len(lows)
    while start < total:
        low, high, stop = lows[start], highs[start], start + 1
        while stop < total:
            wider_low = low if low < lows[stop] else lows[stop]
            wider_high = high if high > highs[stop] else highs[stop]
            if (stop + 1 - start) * (wider_high - wider_low) * dims > _SURVIVOR_CHUNK_CELLS:
                break
            low, high, stop = wider_low, wider_high, stop + 1
        for block in range(low, high, step):
            end = min(block + step, high)
            rtts = _rtts(
                origins_dm[:, start:stop].T[:, np.newaxis],
                origin_heights[start:stop, np.newaxis],
                points_dm[:, block:end].T[np.newaxis],
                point_heights[np.newaxis, block:end],
            )
            swept[start:stop] |= (rtts <= limits[start:stop, np.newaxis]).any(axis=1)
        start = stop
    out = np.empty_like(swept)
    out[sweep] = swept
    return out


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

    Keys carry the snapshot version, so an entry is only ever served
    under the version it was keyed to, and nothing expires by age.  (The
    name predates the removal of the TTL it once had; the benchmark
    contract imports it.)  :meth:`rekey` is the one way an entry moves
    to a newer version: the sharded store calls it on every publish with
    the entries :func:`survivors` proved unchanged, and it frees the rest.

    Capacity evictions are classified: when the consumer keeps
    :attr:`current_version` up to date (the sharded store pins it to the
    version it serves from at every publish), an entry
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

    def entries_at(self, version: int) -> List[Tuple[Any, Any]]:
        """``(query, value)`` of every ``(version, query)`` key, LRU first."""
        return [
            (key[1], value) for key, value in self._entries.items() if key[0] == version
        ]

    def rekey(self, version: int, carried: Sequence[Tuple[Any, Any]]) -> None:
        """Make ``carried`` -- ``(query, value)`` pairs, LRU first, as
        :meth:`entries_at` lists them -- the whole cache, keyed to ``version``.

        Every other entry is superseded once ``version`` is served, so it
        is dropped now and counted as a ``rollover`` eviction instead of
        holding its payload until capacity pressure.
        """
        kept = OrderedDict(((version, query), value) for query, value in carried)
        self.evictions_rollover += max(0, len(self._entries) - len(kept))
        self._entries = kept

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """The ``cache`` section of the store's ``stats()``."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions_lru": self.evictions_lru,
            "evictions_rollover": self.evictions_rollover,
        }
