"""Sub-linear spatial indexes behind the :class:`CoordinateIndex` contract.

The linear scan in :mod:`repro.overlay.knn` is the correctness oracle; the
implementations here answer the same queries -- k-nearest, range, and the
placement 1-median -- without touching every node:

* :class:`VPTreeIndex` -- a vantage-point tree over the predicted-latency
  metric itself.  The coordinate distance ``||x_i - x_j|| + h_i + h_j``
  satisfies the triangle inequality even with Vivaldi height terms, which
  is all the vp-tree's pruning bounds require.  Queries inspect
  ``O(log n)``-ish nodes on the paper's low-dimensional embeddings.
* :class:`DenseIndex` -- batched brute-force over flat NumPy arrays, for
  batch access.  Every query runs one pruned-and-certified kernel: a
  single query is a batch of one, and the *batch* entry points
  (``knn_batch_by_id`` / ``range_batch_by_id``, used by the store to
  answer a whole same-version batch in one NumPy call) feed it many
  targets at once.  It is the only kind that ingests an array-backed
  snapshot without materialising per-node objects.

Exactness contract: every query returns *identical* results to the linear
oracle -- same node sets, same predicted RTTs (the exact same
``Coordinate.distance`` floats), same ordering.  Ties are broken by
insertion order, matching the oracle's stable sort over its
insertion-ordered dict; the traversals below therefore track a per-node
insertion sequence number and never prune on bound *equality*, only on
strict excess.

Rebuilds are lazy: mutations mark the structure dirty and the next query
rebuilds it, so bulk ``update_many`` loads cost one build, not n.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate, sequential_sum
from repro.overlay.knn import CoordinateIndex

__all__ = ["INDEX_KINDS", "build_index", "VPTreeIndex", "DenseIndex"]

#: Registered index kinds, resolvable through :func:`build_index`.
INDEX_KINDS = ("linear", "vptree", "dense")

#: Rows per vp-tree leaf slice.
_LEAF_SIZE = 12

#: Overlay/compaction policy for delta-derived indexes (see
#: ``delta_applied``).  A derived index absorbs incremental epochs until
#: the cumulative changed-row footprint exceeds
#: ``max(_OVERLAY_COMPACT_MIN, _OVERLAY_COMPACT_FRACTION * n)``; past
#: that, ``delta_applied`` returns ``None`` and the caller compacts by
#: rebuilding from scratch (the overlay's exact-scan cost would start to
#: erode the sub-linear query bounds).  Small indexes always compact --
#: a full rebuild under a few hundred nodes is already microseconds.
_OVERLAY_COMPACT_MIN = 64
_OVERLAY_COMPACT_FRACTION = 0.25


def _overlay_budget(population: int) -> int:
    """Max changed-row footprint a derived index may carry before compaction."""
    return max(_OVERLAY_COMPACT_MIN, int(_OVERLAY_COMPACT_FRACTION * population))


def _changed_coordinates(
    changed_ids: Sequence[str],
    components: np.ndarray,
    heights: np.ndarray,
) -> List[Tuple[str, Coordinate]]:
    """Materialise a delta's rows as ``(node_id, Coordinate)`` pairs."""
    components = np.asarray(components, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64)
    return [
        (node_id, Coordinate(components[position].tolist(), float(heights[position])))
        for position, node_id in enumerate(changed_ids)
    ]


def _loosen(bound: float) -> float:
    """Make a pruning lower bound safe against floating-point rounding.

    Bounds like ``d_v - radius`` are exact in real arithmetic but are
    computed from rounded distances, so they can land a few ulps *above*
    the true distance of a node they are meant to bound -- which would
    prune a node sitting exactly at the k-th-best distance or range
    radius and break the oracle-identity contract on tie-heavy (e.g.
    lattice) inputs.  Loosening by an epsilon that dwarfs accumulated
    rounding error (<= ~1e-15 relative) while staying far below any
    meaningful latency difference means we only ever explore slightly
    more, never less; results stay exact because candidates are always
    scored with the exact ``Coordinate.distance`` floats.
    """
    return bound - 1e-9 * (1.0 + abs(bound))


def _euclidean(components: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Euclidean distance from every ``(..., d)`` row to ``origin``, oracle-exact.

    The one array spelling of ``Coordinate.euclidean_distance``: squared
    component differences accumulated left to right, one rounding per
    addition, then one ``sqrt`` -- so each element is the very float the
    scalar oracle computes for that pair.  ``origin`` broadcasts against
    the leading axes (one point, or one point per row).
    """
    delta = components - origin
    acc = delta[..., 0] * delta[..., 0]
    for j in range(1, delta.shape[-1]):
        acc = acc + delta[..., j] * delta[..., j]
    return np.sqrt(acc)


def _check_dimensions(point: Coordinate, components: np.ndarray) -> None:
    if components.shape[0] and point.dimensions != components.shape[1]:
        raise ValueError(
            "coordinate dimensionality mismatch: "
            f"{components.shape[1]} vs {point.dimensions}"
        )


def _rtts(
    origin: np.ndarray, height, components: np.ndarray, heights: np.ndarray
) -> np.ndarray:
    """``(euclid + origin height) + row height``: ``Coordinate.distance``'s float.

    ``origin`` / ``height`` broadcast like :func:`_euclidean`'s origin.
    """
    return (_euclidean(components, origin) + height) + heights


def _distances_from(
    target: Coordinate, components: np.ndarray, heights: np.ndarray
) -> np.ndarray:
    """``target.distance(row)`` for every row."""
    _check_dimensions(target, components)
    origin = np.asarray(target.components, dtype=np.float64)
    return _rtts(origin, target.height, components, heights)


def _total_costs(
    endpoints: Sequence[Coordinate], components: np.ndarray, heights: np.ndarray
) -> np.ndarray:
    """``sequential_sum(row.distance(e) for e in endpoints)`` for every row.

    ``row.distance(e)`` adds the row height before the endpoint height,
    the mirror image of :func:`_distances_from` (float addition is not
    associative), and endpoints are summed in ``sequential_sum``'s order.
    """
    costs = 0.0
    for endpoint in endpoints:
        _check_dimensions(endpoint, components)
        origin = np.asarray(endpoint.components, dtype=np.float64)
        costs = costs + ((_euclidean(components, origin) + heights) + endpoint.height)
    return costs


def _best_rows(distances: np.ndarray, seqs: np.ndarray, k: int) -> np.ndarray:
    """Rows of the best k by ``(distance, insertion seq)``; +inf rows excluded.

    ``argpartition`` finds the k-th-distance cut and only the candidate
    set at the boundary is sorted.
    """
    n = distances.shape[0]
    if k < n:
        head = np.argpartition(distances, k - 1)[:k]
        tau = distances[head].max()
        candidates = np.nonzero(distances <= tau)[0]
    else:
        candidates = np.arange(n)
    candidates = candidates[distances[candidates] < np.inf]
    order = np.lexsort((seqs[candidates], distances[candidates]))
    return candidates[order[:k]]


def build_index(kind: str = "vptree") -> CoordinateIndex:
    """Construct an empty index of the requested kind."""
    if kind == "linear":
        return CoordinateIndex()
    if kind == "vptree":
        return VPTreeIndex()
    if kind == "dense":
        return DenseIndex()
    raise ValueError(f"unknown index kind {kind!r}; known: {list(INDEX_KINDS)}")


class _SpatialIndex(CoordinateIndex):
    """Shared bookkeeping: insertion sequence numbers and lazy rebuilds."""

    def __init__(self) -> None:
        super().__init__()
        self._seq: Dict[str, int] = {}
        self._next_seq = 0
        self._dirty = True

    # -- maintenance ---------------------------------------------------
    def update(self, node_id: str, coordinate: Coordinate) -> None:
        if node_id not in self._seq:
            self._seq[node_id] = self._next_seq
            self._next_seq += 1
        super().update(node_id, coordinate)
        self._dirty = True

    def remove(self, node_id: str) -> None:
        self._seq.pop(node_id, None)
        super().remove(node_id)
        self._dirty = True

    def _entries(self) -> List[Tuple[int, str, Coordinate]]:
        """(seq, node_id, coordinate), in insertion order."""
        return [
            (self._seq[node_id], node_id, coordinate)
            for node_id, coordinate in self._coordinates.items()
        ]

    def _entry_arrays(
        self,
    ) -> Tuple[List[Tuple[int, str, Coordinate]], np.ndarray, np.ndarray]:
        """:meth:`_entries` and their ``(n, d)`` components / ``(n,)`` heights."""
        entries = self._entries()
        dims = entries[0][2].dimensions if entries else 0
        for _, node_id, coordinate in entries:
            if coordinate.dimensions != dims:
                raise ValueError(
                    f"{type(self).__name__} needs uniform dimensionality; "
                    f"{node_id!r} has {coordinate.dimensions}, expected {dims}"
                )
        components = np.asarray([c.components for _, _, c in entries], dtype=np.float64)
        heights = np.asarray([c.height for _, _, c in entries], dtype=np.float64)
        return entries, components.reshape(len(entries), dims), heights

    def _ensure_built(self) -> None:
        if self._dirty:
            self._rebuild()
            self._dirty = False

    def _rebuild(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _KBest:
    """A bounded best-k collector ordered by (distance, insertion seq)."""

    __slots__ = ("k", "_heap")

    def __init__(self, k: int) -> None:
        self.k = k
        # Max-heap via negated keys: worst surviving candidate on top.
        self._heap: List[Tuple[float, int, str]] = []

    @property
    def threshold(self) -> float:
        """Current k-th best distance (inf until k candidates are held)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def offer(self, distance: float, seq: int, node_id: str) -> None:
        if len(self._heap) < self.k:
            heappush(self._heap, (-distance, -seq, node_id))
            return
        worst_distance, worst_seq = -self._heap[0][0], -self._heap[0][1]
        if distance < worst_distance or (distance == worst_distance and seq < worst_seq):
            heapreplace(self._heap, (-distance, -seq, node_id))

    def sorted_results(self) -> List[Tuple[str, float]]:
        ranked = sorted((-d, -seq, node_id) for d, seq, node_id in self._heap)
        return [(node_id, distance) for distance, _, node_id in ranked]


# ----------------------------------------------------------------------
# Vantage-point tree
# ----------------------------------------------------------------------
class _VPNode:
    __slots__ = ("seq", "node_id", "coordinate", "mu", "radius", "children", "lo", "hi")

    def __init__(self) -> None:
        self.seq = 0
        self.node_id = ""
        self.coordinate: Optional[Coordinate] = None
        self.mu = 0.0
        #: Max distance from the vantage to any point in this subtree.
        self.radius = 0.0
        #: Inner nodes only; a leaf (no coordinate) is leaf-array rows [lo, hi).
        self.children: List[Optional["_VPNode"]] = [None, None]
        self.lo = self.hi = 0


class VPTreeIndex(_SpatialIndex):
    """Vantage-point tree over the predicted-latency metric.

    The vantage of every subtree is its earliest-inserted entry, so the
    structure -- and therefore traversal order and results -- is a pure
    function of the index contents.

    Only the pruning walk over inner nodes is scalar (one
    ``Coordinate.distance`` per vantage).  A leaf is a ``[lo, hi)`` slice
    of four flat arrays in leaf order (``_leaf_ids``, ``_leaf_components``,
    ``_leaf_heights``, ``_leaf_seqs``), scored by the oracle-exact array
    kernel: once per leaf for ``nearest`` / ``min_cost_host``, once over
    all reached leaves for ``within``.

    Incremental epochs (:meth:`delta_applied`) never restructure the
    tree: a derived index shares its base's tree and leaf arrays, masks
    stale entries with a *tombstone* set and carries the changed rows in
    an *overlay* of four arrays of the same shape, scored the same way.
    Results stay byte-identical to a from-scratch rebuild because every
    float is ``Coordinate.distance``'s own and overlay rows keep their
    original insertion sequence (relative order is all the tie-break
    needs).
    """

    def __init__(self) -> None:
        super().__init__()
        self._root: Optional[_VPNode] = None
        #: Node ids whose tree entry is stale (changed or removed).
        self._tombstones: frozenset = frozenset()
        self._leaf_ids: List[str] = []
        self._leaf_components = np.empty((0, 0), dtype=np.float64)
        self._leaf_heights = np.empty(0, dtype=np.float64)
        self._leaf_seqs = np.empty(0, dtype=np.int64)
        self._clear_overlay()

    def _clear_overlay(self) -> None:
        #: Changed/added rows, scanned exactly; empty means no overlay.
        self._ov_ids: List[str] = []
        self._ov_components = np.empty((0, 0), dtype=np.float64)
        self._ov_heights = np.empty(0, dtype=np.float64)
        self._ov_seqs = np.empty(0, dtype=np.int64)

    def _rebuild(self) -> None:
        self._tombstones = frozenset()
        self._clear_overlay()
        entries, components, heights = self._entry_arrays()
        self._root = None
        if not entries:
            return
        leaves: List[np.ndarray] = []
        filled = 0
        root_holder: List[Optional[_VPNode]] = [None, None]
        stack: List[Tuple[np.ndarray, List[Optional[_VPNode]], int]] = [
            (np.arange(len(entries)), root_holder, 0)
        ]
        while stack:
            rows, holder, slot = stack.pop()
            node = _VPNode()
            holder[slot] = node
            if len(rows) > _LEAF_SIZE:
                vantage = entries[rows[0]]
                rest = rows[1:]
                distances = _distances_from(vantage[2], components[rest], heights[rest])
                median = (len(rest) - 1) // 2
                mu = float(np.partition(distances, median)[median])
                far = distances > mu
                # No far side means no split progress (duplicate-heavy
                # group): finish as a leaf instead of chaining one
                # vantage per level.
                if far.any():
                    node.seq, node.node_id, node.coordinate = vantage
                    node.mu = mu
                    node.radius = float(distances.max())
                    stack.append((rest[~far], node.children, 0))
                    stack.append((rest[far], node.children, 1))
                    continue
            node.lo, node.hi = filled, filled + len(rows)
            filled = node.hi
            leaves.append(rows)
        self._root = root_holder[0]
        order = np.concatenate(leaves).tolist()
        self._leaf_ids = [entries[row][1] for row in order]
        self._leaf_seqs = np.asarray([entries[row][0] for row in order], dtype=np.int64)
        self._leaf_components = components[order]
        self._leaf_heights = heights[order]

    # -- incremental epochs --------------------------------------------
    def delta_applied(
        self,
        changed_ids: Sequence[str],
        changed_components: np.ndarray,
        changed_heights: np.ndarray,
        removed_ids: Sequence[str] = (),
    ) -> Optional["VPTreeIndex"]:
        """A new index with the delta applied, or ``None`` to compact.

        The returned index shares this one's tree; this index is not
        mutated and keeps answering queries for its own generation.
        """
        self._ensure_built()
        if not changed_ids and not removed_ids:
            return self
        if self._root is None:
            return None
        changed_components = np.asarray(changed_components, dtype=np.float64)
        changed_heights = np.asarray(changed_heights, dtype=np.float64)
        held = len(self._ov_ids)
        ov_ids = list(self._ov_ids)
        ov_seqs = self._ov_seqs.tolist()
        slot_of = {node_id: slot for slot, node_id in enumerate(ov_ids)}
        # Overlay slot each changed row lands in (overwrite or append).
        slots: List[int] = []
        tombstones = set(self._tombstones)
        coordinates = dict(self._coordinates)
        seqs = dict(self._seq)
        next_seq = self._next_seq
        for node_id, coordinate in _changed_coordinates(
            changed_ids, changed_components, changed_heights
        ):
            seq = seqs.get(node_id)
            if seq is None:
                seq = next_seq
                next_seq += 1
            # Mask any tree entry for this node; harmless when the node
            # was never in the tree (overlay entries bypass tombstones).
            tombstones.add(node_id)
            coordinates[node_id] = coordinate
            seqs[node_id] = seq
            slot = slot_of.get(node_id)
            if slot is None:
                slot = slot_of[node_id] = len(ov_ids)
                ov_ids.append(node_id)
                ov_seqs.append(seq)
            slots.append(slot)
        for node_id in removed_ids:
            if node_id not in seqs:
                continue
            tombstones.add(node_id)
            slot_of.pop(node_id, None)
            del coordinates[node_id]
            del seqs[node_id]
        # ``tombstones`` is exactly the distinct touched-node footprint
        # (every changed or removed id lands there once); the overlay is a
        # subset of it, so counting both would double-charge changed rows.
        if len(tombstones) > _overlay_budget(len(coordinates)):
            return None
        dims = changed_components.shape[1] if slots else self._ov_components.shape[1]
        ov_components = np.empty((len(ov_ids), dims), dtype=np.float64)
        ov_heights = np.empty(len(ov_ids), dtype=np.float64)
        if held:
            ov_components[:held] = self._ov_components
            ov_heights[:held] = self._ov_heights
        if slots:
            ov_components[slots] = changed_components
            ov_heights[slots] = changed_heights
        ov_seqs = np.asarray(ov_seqs, dtype=np.int64)
        if len(slot_of) != len(ov_ids):
            # Removals hit overlay rows: compact them out.
            keep = sorted(slot_of.values())
            ov_ids = [ov_ids[slot] for slot in keep]
            ov_components = ov_components[keep]
            ov_heights = ov_heights[keep]
            ov_seqs = ov_seqs[keep]
        clone = VPTreeIndex()
        clone._coordinates = coordinates
        clone._seq = seqs
        clone._next_seq = next_seq
        clone._root = self._root
        clone._leaf_ids = self._leaf_ids
        clone._leaf_components = self._leaf_components
        clone._leaf_heights = self._leaf_heights
        clone._leaf_seqs = self._leaf_seqs
        clone._tombstones = frozenset(tombstones)
        clone._ov_ids = ov_ids
        clone._ov_components = ov_components
        clone._ov_heights = ov_heights
        clone._ov_seqs = ov_seqs
        clone._dirty = False
        return clone

    # -- queries -------------------------------------------------------
    def nearest(
        self,
        target: Coordinate,
        k: int = 1,
        *,
        exclude: Iterable[str] = (),
    ) -> List[Tuple[str, float]]:
        if k < 1:
            raise ValueError("k must be >= 1")
        self._ensure_built()
        if self._root is None:
            return []
        excluded = set(exclude)
        tombstones = self._tombstones
        best = _KBest(k)

        def offer(distance: float, seq: int, node_id: str) -> None:
            if node_id not in excluded and node_id not in tombstones:
                best.offer(distance, seq, node_id)

        # Overlay first: its exact distances tighten the pruning
        # threshold before the tree walk starts.  At most |excluded| of
        # the overlay's best k + |excluded| rows are skipped, so the k
        # that could survive are all among them.
        if self._ov_ids:
            distances = _distances_from(target, self._ov_components, self._ov_heights)
            for row in _best_rows(distances, self._ov_seqs, k + len(excluded)).tolist():
                node_id = self._ov_ids[row]
                if node_id not in excluded:
                    best.offer(float(distances[row]), int(self._ov_seqs[row]), node_id)
        stack: List[Tuple[_VPNode, float]] = [(self._root, 0.0)]
        while stack:
            node, bound = stack.pop()
            if bound > best.threshold:
                continue
            if node.coordinate is None:
                lo, hi = node.lo, node.hi
                distances = _distances_from(
                    target, self._leaf_components[lo:hi], self._leaf_heights[lo:hi]
                )
                threshold = best.threshold
                for distance, seq, node_id in zip(
                    distances.tolist(), self._leaf_seqs[lo:hi].tolist(), self._leaf_ids[lo:hi]
                ):
                    if distance <= threshold:
                        offer(distance, seq, node_id)
                continue
            d_v = target.distance(node.coordinate)
            offer(d_v, node.seq, node.node_id)
            near_bound = _loosen(max(0.0, d_v - node.mu))
            far_bound = _loosen(max(0.0, node.mu - d_v, d_v - node.radius))
            near, far = node.children
            # Push the more promising side last so it is explored first
            # and tightens the threshold early.
            order = ((far, far_bound), (near, near_bound))
            if d_v > node.mu:
                order = ((near, near_bound), (far, far_bound))
            for child, child_bound in order:
                if child_bound <= best.threshold:
                    stack.append((child, child_bound))
        return best.sorted_results()

    def within(self, target: Coordinate, radius_ms: float) -> List[Tuple[str, float]]:
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        self._ensure_built()
        if self._root is None:
            return []
        tombstones = self._tombstones
        hits: List[Tuple[float, int, str]] = []
        if self._ov_ids:
            distances = _distances_from(target, self._ov_components, self._ov_heights)
            for row in np.flatnonzero(distances <= radius_ms).tolist():
                hits.append(
                    (float(distances[row]), int(self._ov_seqs[row]), self._ov_ids[row])
                )
        reached: List[np.ndarray] = []  # leaf rows, scored after the walk
        stack: List[_VPNode] = [self._root]
        while stack:
            node = stack.pop()
            if node.coordinate is None:
                reached.append(np.arange(node.lo, node.hi))
                continue
            d_v = target.distance(node.coordinate)
            if d_v <= radius_ms and node.node_id not in tombstones:
                hits.append((d_v, node.seq, node.node_id))
            near, far = node.children
            if _loosen(max(0.0, d_v - node.mu)) <= radius_ms:
                stack.append(near)
            if _loosen(max(0.0, node.mu - d_v, d_v - node.radius)) <= radius_ms:
                stack.append(far)
        if reached:  # every reached leaf row scored in one call
            rows = np.concatenate(reached)
            distances = _distances_from(
                target, self._leaf_components[rows], self._leaf_heights[rows]
            )
            inside = distances <= radius_ms
            rows = rows[inside]
            for row, distance, seq in zip(
                rows.tolist(), distances[inside].tolist(), self._leaf_seqs[rows].tolist()
            ):
                node_id = self._leaf_ids[row]
                if node_id not in tombstones:
                    hits.append((distance, seq, node_id))
        hits.sort()
        return [(node_id, distance) for distance, _, node_id in hits]

    def min_cost_host(self, endpoints: Sequence[Coordinate]) -> Tuple[str, float]:
        if not endpoints:
            raise ValueError("min_cost_host needs at least one endpoint")
        self._ensure_built()
        if self._root is None:
            raise ValueError("cannot run min_cost_host on an empty index")
        tombstones = self._tombstones
        best_cost = float("inf")
        best_seq = -1
        best_host: Optional[str] = None

        def offer(cost: float, seq: int, node_id: str) -> None:
            nonlocal best_cost, best_seq, best_host
            if cost < best_cost or (cost == best_cost and seq < best_seq):
                best_cost, best_seq, best_host = cost, seq, node_id

        if self._ov_ids:
            costs = _total_costs(endpoints, self._ov_components, self._ov_heights)
            cheapest = np.flatnonzero(costs == costs.min())
            row = int(cheapest[np.argmin(self._ov_seqs[cheapest])])
            offer(float(costs[row]), int(self._ov_seqs[row]), self._ov_ids[row])
        stack: List[Tuple[_VPNode, float]] = [(self._root, 0.0)]
        while stack:
            node, bound = stack.pop()
            if bound > best_cost:
                continue
            if node.coordinate is None:
                lo, hi = node.lo, node.hi
                costs = _total_costs(
                    endpoints, self._leaf_components[lo:hi], self._leaf_heights[lo:hi]
                )
                for cost, seq, node_id in zip(
                    costs.tolist(), self._leaf_seqs[lo:hi].tolist(), self._leaf_ids[lo:hi]
                ):
                    if cost <= best_cost and node_id not in tombstones:
                        offer(cost, seq, node_id)
                continue
            per_endpoint = [node.coordinate.distance(endpoint) for endpoint in endpoints]
            if node.node_id not in tombstones:
                offer(sequential_sum(per_endpoint), node.seq, node.node_id)
            near, far = node.children
            near_bound = _loosen(sum(max(0.0, d - node.mu) for d in per_endpoint))
            if near_bound <= best_cost:
                stack.append((near, near_bound))
            far_bound = _loosen(
                sum(max(0.0, node.mu - d, d - node.radius) for d in per_endpoint)
            )
            if far_bound <= best_cost:
                stack.append((far, far_bound))
        if best_host is None:
            # Every tree entry tombstoned and no overlay survivors: the
            # live population is empty, same failure as the oracle's.
            raise ValueError("cannot run min_cost_host on an empty index")
        return best_host, best_cost


# ----------------------------------------------------------------------
# Dense (batched brute-force) index
# ----------------------------------------------------------------------
#: Queries per chunk of the pruning matrix: at most 32 (a cache-resident
#: working set; larger chunks measurably regress) and at most 2**17 cells,
#: which keeps each sgemm under OpenBLAS's multithreading cut-over -- on a
#: shared 2-vCPU host a threaded call stalls ~15 ms waking its workers.
_BATCH_CHUNK = 32
_BATCH_CELLS = 1 << 17


def _chunk_rows(columns: int) -> int:
    """Queries per kernel chunk against ``columns`` base rows."""
    return max(1, min(_BATCH_CHUNK, _BATCH_CELLS // max(columns, 1)))


class DenseIndex(_SpatialIndex):
    """Flat-array brute force: every query scans every node, vectorized.

    The whole snapshot lives in three aligned arrays -- node ids, ``(n, d)``
    components and ``(n,)`` heights -- so a query is a handful of NumPy
    expressions over contiguous memory instead of a tree walk.

    One kernel answers every query: :meth:`nearest`, :meth:`within` and
    :meth:`nearest_to_node` are a batch of one, and
    :meth:`knn_batch_by_id` / :meth:`range_batch_by_id` answer q queries
    against one snapshot version with chunked ``(q, n)`` matrices,
    amortising all per-query Python overhead.  On the paper's
    low-dimensional embeddings a single query still loses asymptotically
    to the vp-tree; batches are where the kind wins.

    Tie-order guarantee: results are ordered by ``(predicted RTT,
    insertion sequence)``, with the insertion sequence of an array-ingested
    snapshot being its row order -- exactly the linear oracle's stable sort
    over its insertion-ordered dict, so dense results (batched or not) are
    byte-identical to the oracle, ties included.

    :meth:`ingest_arrays` adopts snapshot arrays directly (no per-node
    object materialisation); later ``update``/``remove`` calls hydrate the
    object-based maintenance state first, keeping the mutable API intact.
    """

    def __init__(self) -> None:
        super().__init__()
        self._ids: List[str] = []
        self._components = np.empty((0, 0), dtype=np.float64)
        self._heights = np.empty(0, dtype=np.float64)
        self._row_seq = np.empty(0, dtype=np.int64)
        self._row_of: Optional[Dict[str, int]] = None
        self._array_only = False
        #: Lazily built float32 pruning twins (see the batch kernels).
        self._prune = None
        # -- incremental-epoch overlay state (see delta_applied) -------
        # ``_components``/``_heights`` stay the *base* arrays (rows
        # ``[0, _n_base)`` of ``_ids``); changed/added rows live in the
        # overlay arrays appended logically after them, stale base rows
        # are listed in ``_masked_rows``, and dropped ids in ``_removed``.
        self._n_base = 0
        self._ov_ids: List[str] = []
        self._ov_components = np.empty((0, 0), dtype=np.float64)
        self._ov_heights = np.empty(0, dtype=np.float64)
        #: Overlay ids that are genuinely new (not overrides), in
        #: insertion order -- what node_ids() appends after the base.
        self._ov_added: Tuple[str, ...] = ()
        self._removed: frozenset = frozenset()
        self._masked_rows = np.empty(0, dtype=np.int64)
        #: Lazily built {id: base row} over _ids[:_n_base]; shared with
        #: derived clones (the base section never changes between them).
        self._base_rows: Optional[Dict[str, int]] = None

    def _clear_overlay(self) -> None:
        self._n_base = len(self._ids)
        self._ov_ids = []
        self._ov_components = np.empty((0, self._components.shape[1]), dtype=np.float64)
        self._ov_heights = np.empty(0, dtype=np.float64)
        self._ov_added = ()
        self._removed = frozenset()
        self._masked_rows = np.empty(0, dtype=np.int64)
        self._base_rows = None

    # -- array ingestion (the zero-copy path) --------------------------
    def ingest_arrays(
        self,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
    ) -> None:
        """Adopt snapshot arrays as the index contents (no copy).

        Replaces any previous contents.  Insertion sequence becomes the
        row order.  The arrays are referenced, not copied; callers must
        treat them as frozen afterwards.
        """
        components = np.asarray(components, dtype=np.float64)
        if components.ndim != 2:
            raise ValueError("components must be a (n, d) array")
        ids = list(node_ids)
        if len(ids) != components.shape[0]:
            raise ValueError(
                f"{len(ids)} node ids for {components.shape[0]} coordinate rows"
            )
        if heights is None:
            heights = np.zeros(len(ids), dtype=np.float64)
        else:
            heights = np.asarray(heights, dtype=np.float64)
            if heights.shape != (len(ids),):
                raise ValueError("heights must be a (n,) array aligned with node_ids")
        self._ids = ids
        self._components = components
        self._heights = heights
        self._row_seq = np.arange(len(ids), dtype=np.int64)
        self._row_of = None
        self._prune = None
        self._coordinates.clear()
        self._seq.clear()
        self._next_seq = 0
        self._array_only = True
        self._dirty = False
        self._clear_overlay()

    @classmethod
    def from_arrays(
        cls,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
    ) -> "DenseIndex":
        index = cls()
        index.ingest_arrays(node_ids, components, heights)
        return index

    # -- incremental epochs --------------------------------------------
    def _base_row_index(self) -> Dict[str, int]:
        if self._base_rows is None:
            self._base_rows = {
                node_id: row for row, node_id in enumerate(self._ids[: self._n_base])
            }
        return self._base_rows

    def delta_applied(
        self,
        changed_ids: Sequence[str],
        changed_components: np.ndarray,
        changed_heights: np.ndarray,
        removed_ids: Sequence[str] = (),
    ) -> Optional["DenseIndex"]:
        """A new index with the delta applied, or ``None`` to compact.

        The clone shares this index's base arrays (and float32 pruning
        cache) untouched; the changed rows live in small overlay arrays
        merged exactly at query time.  Compaction is near-free for the
        dense kind -- :meth:`ingest_arrays` adopts the new snapshot's
        arrays without copying -- so the overlay budget mainly bounds the
        kernel's exact per-target overlay scoring.
        """
        self._ensure_built()
        if not changed_ids and not removed_ids:
            return self
        if not self._array_only or self._n_base == 0:
            return None
        changed_components = np.asarray(changed_components, dtype=np.float64)
        changed_heights = np.asarray(changed_heights, dtype=np.float64)
        if len(changed_ids) and changed_components.shape[1] != self._components.shape[1]:
            return None
        base_rows = self._base_row_index()
        overlay: Dict[str, Tuple[int, np.ndarray, float]] = {}
        for position, node_id in enumerate(self._ov_ids):
            overlay[node_id] = (
                int(self._row_seq[self._n_base + position]),
                self._ov_components[position],
                float(self._ov_heights[position]),
            )
        removed = set(self._removed)
        masked = {int(row) for row in self._masked_rows}
        added = list(self._ov_added)
        next_seq = int(self._row_seq.max()) + 1 if self._row_seq.size else 0
        for position, node_id in enumerate(changed_ids):
            row = changed_components[position].copy()
            height = float(changed_heights[position])
            held = overlay.get(node_id)
            if held is not None:
                overlay[node_id] = (held[0], row, height)
                continue
            base = base_rows.get(node_id)
            if base is not None and node_id not in removed:
                masked.add(base)
                overlay[node_id] = (int(self._row_seq[base]), row, height)
            else:
                if node_id in removed:
                    # Re-add after removal: the base row stays masked and
                    # the node re-enters as an append, like a rebuild.
                    removed.discard(node_id)
                overlay[node_id] = (next_seq, row, height)
                next_seq += 1
                added.append(node_id)
        for node_id in removed_ids:
            held = overlay.pop(node_id, None)
            base = base_rows.get(node_id)
            if held is None and (base is None or node_id in removed):
                continue
            if held is not None and node_id in added:
                added.remove(node_id)
            if base is not None:
                masked.add(base)
                removed.add(node_id)
        if len(overlay) + len(removed) > _overlay_budget(self._n_base):
            return None
        clone = DenseIndex()
        clone._array_only = True
        clone._dirty = False
        clone._components = self._components
        clone._heights = self._heights
        clone._prune = self._prune
        clone._n_base = self._n_base
        ov_ids = list(overlay)
        clone._ov_ids = ov_ids
        dims = self._components.shape[1]
        if ov_ids:
            clone._ov_components = np.asarray(
                [overlay[node_id][1] for node_id in ov_ids], dtype=np.float64
            )
            clone._ov_heights = np.asarray(
                [overlay[node_id][2] for node_id in ov_ids], dtype=np.float64
            )
        else:
            clone._ov_components = np.empty((0, dims), dtype=np.float64)
            clone._ov_heights = np.empty(0, dtype=np.float64)
        clone._ov_added = tuple(added)
        clone._removed = frozenset(removed)
        clone._masked_rows = np.asarray(sorted(masked), dtype=np.int64)
        clone._ids = self._ids[: self._n_base] + ov_ids
        clone._row_seq = np.concatenate(
            [
                self._row_seq[: self._n_base],
                np.asarray([overlay[node_id][0] for node_id in ov_ids], dtype=np.int64),
            ]
        )
        clone._row_of = None
        clone._base_rows = base_rows
        return clone

    def _hydrate_objects(self) -> None:
        """Materialise the object-based maintenance state from the arrays.

        Overlay rows keep their original seqs; the flat arrays go stale.
        """
        if not self._array_only:
            return
        for node_id in self.node_ids():
            self._seq[node_id] = int(self._row_seq[self._row_index[node_id]])
            self._coordinates[node_id] = self.coordinate_of(node_id)
        self._next_seq = (max(self._seq.values()) + 1) if self._seq else 0
        self._clear_overlay()
        self._array_only = False
        self._dirty = True

    # -- maintenance ---------------------------------------------------
    def update(self, node_id: str, coordinate: Coordinate) -> None:
        self._hydrate_objects()
        super().update(node_id, coordinate)

    def remove(self, node_id: str) -> None:
        self._hydrate_objects()
        super().remove(node_id)

    def _rebuild(self) -> None:
        entries, self._components, self._heights = self._entry_arrays()
        self._ids = [node_id for _, node_id, _ in entries]
        self._row_seq = np.asarray([seq for seq, _, _ in entries], dtype=np.int64)
        self._row_of = None
        self._prune = None
        self._clear_overlay()

    @property
    def _row_index(self) -> Dict[str, int]:
        if self._row_of is None:
            self._row_of = {node_id: row for row, node_id in enumerate(self._ids)}
        return self._row_of

    # -- accessors (array-backed when object state is absent) ----------
    def __len__(self) -> int:
        if self._array_only:
            # Masked rows are exactly the overridden-or-removed base
            # rows, so combined length minus them is the live count.
            return len(self._ids) - int(self._masked_rows.size)
        return len(self._coordinates)

    def __contains__(self, node_id: str) -> bool:
        if self._array_only:
            return node_id in self._row_index and node_id not in self._removed
        return node_id in self._coordinates

    def coordinate_of(self, node_id: str) -> Optional[Coordinate]:
        if self._array_only:
            row = self._row_index.get(node_id)
            if row is None or node_id in self._removed:
                return None
            if row >= self._n_base:
                position = row - self._n_base
                return Coordinate(
                    self._ov_components[position].tolist(),
                    float(self._ov_heights[position]),
                )
            return Coordinate(
                self._components[row].tolist(), float(self._heights[row])
            )
        return self._coordinates.get(node_id)

    def node_ids(self) -> List[str]:
        if self._array_only:
            if not (self._ov_ids or self._removed):
                return list(self._ids)
            # Overridden ids keep their base position (matching what a
            # from-scratch rebuild of the snapshot would hold); only
            # genuinely new ids append at the end -- a base id removed and
            # re-added among them, so it is listed there and not at its
            # base position.
            hidden = self._removed.union(self._ov_added)
            live = [
                node_id
                for node_id in self._ids[: self._n_base]
                if node_id not in hidden
            ]
            live.extend(self._ov_added)
            return live
        return list(self._coordinates)

    def _targets_at(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Components and heights of combined rows (base or overlay)."""
        components = np.empty((rows.size, self._components.shape[1]), dtype=np.float64)
        heights = np.empty(rows.size, dtype=np.float64)
        base = rows < self._n_base
        components[base] = self._components[rows[base]]
        heights[base] = self._heights[rows[base]]
        overlay = rows[~base] - self._n_base
        components[~base] = self._ov_components[overlay]
        heights[~base] = self._ov_heights[overlay]
        return components, heights

    def _by_id(self, target_ids: Sequence[str], kernel):
        """``kernel(components, heights, rows)`` over the live targets' rows.

        Element ``i`` answers ``target_ids[i]``; ``None`` marks an unknown
        target (the caller decides how to fail it).
        """
        self._ensure_built()
        results: List[Optional[List[Tuple[str, float]]]] = [None] * len(target_ids)
        row_of = self._row_index
        known = [
            (position, row_of[node_id])
            for position, node_id in enumerate(target_ids)
            if node_id in row_of and node_id not in self._removed
        ]
        rows = np.asarray([row for _, row in known], dtype=np.int64)
        components, heights = self._targets_at(rows)
        for (position, _), answer in zip(known, kernel(components, heights, rows)):
            results[position] = answer
        return results

    def _ranked(self, rows: np.ndarray, distances: np.ndarray) -> List[Tuple[str, float]]:
        """``(node_id, rtt)`` pairs for parallel row / distance arrays."""
        return [
            (self._ids[row], distance)
            for row, distance in zip(rows.tolist(), distances.tolist())
        ]

    # -- queries: a batch of one ---------------------------------------
    def _one(self, target: Coordinate) -> Tuple[np.ndarray, np.ndarray]:
        """``target`` as a one-row batch of components and heights."""
        _check_dimensions(target, self._components)
        return np.asarray([target.components], dtype=np.float64), np.asarray([target.height])

    def nearest(
        self,
        target: Coordinate,
        k: int = 1,
        *,
        exclude: Iterable[str] = (),
    ) -> List[Tuple[str, float]]:
        if k < 1:
            raise ValueError("k must be >= 1")
        self._ensure_built()
        if not self._ids:
            return []
        row_of = self._row_index
        excluded = [row_of[node_id] for node_id in exclude if node_id in row_of]
        (answer,) = self._knn(*self._one(target), [excluded], k)
        return answer

    def within(self, target: Coordinate, radius_ms: float) -> List[Tuple[str, float]]:
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        self._ensure_built()
        if not self._ids:
            return []
        (answer,) = self._range(*self._one(target), radius_ms)
        return answer

    def nearest_to_node(self, node_id: str, k: int = 1) -> List[Tuple[str, float]]:
        (answer,) = self.knn_batch_by_id([node_id], k)
        if answer is None:
            raise KeyError(f"{node_id!r} is not in the index")
        return answer

    def min_cost_host(self, endpoints: Sequence[Coordinate]) -> Tuple[str, float]:
        if not endpoints:
            raise ValueError("min_cost_host needs at least one endpoint")
        self._ensure_built()
        if not self._ids or len(self) == 0:
            raise ValueError("cannot run min_cost_host on an empty index")
        cost = _total_costs(endpoints, self._components, self._heights)
        if self._ov_ids:
            overlay = _total_costs(endpoints, self._ov_components, self._ov_heights)
            cost = np.concatenate([cost, overlay])
        if self._masked_rows.size:
            cost[self._masked_rows] = np.inf
        best = cost.min()
        ties = np.nonzero(cost == best)[0]
        row = int(ties[np.argmin(self._row_seq[ties])])
        return self._ids[row], float(best)

    # -- queries: many indexed targets (the store's batch path) --------
    def knn_batch_by_id(
        self, target_ids: Sequence[str], k: int
    ) -> List[Optional[List[Tuple[str, float]]]]:
        """k-nearest for many indexed targets, self-excluded, in one sweep.

        Answers are identical -- floats, ordering, ties -- to
        ``nearest(coord, k, exclude=[id])`` per target; ``None`` marks an
        unknown one.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._by_id(
            target_ids,
            lambda components, heights, rows: self._knn(
                components, heights, [[row] for row in rows.tolist()], k
            ),
        )

    def range_batch_by_id(
        self, target_ids: Sequence[str], radius_ms: float
    ) -> List[Optional[List[Tuple[str, float]]]]:
        """Range query for many indexed targets in one sweep.

        Answers match ``within(coord, radius_ms)`` per target exactly;
        note the payload builder (not the index) drops the target itself
        from range payloads, mirroring the single-query code path.
        """
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        return self._by_id(
            target_ids,
            lambda components, heights, _: self._range(components, heights, radius_ms),
        )

    # -- the kernel ----------------------------------------------------
    #
    # Stage one PRUNES the base rows in a *shifted squared* space:
    # ``g(x) = |x|^2 - 2 t.x`` (the norms identity minus the per-target
    # ``|t|^2``) comes out of one float32 sgemm against a cached
    # ``[X^T; |x|^2]``, with masked and excluded base rows forced to +inf
    # before any threshold.  For kNN a strided column sample estimates a
    # per-target threshold keeping roughly ``4 * (k + pad)`` candidates.
    # Stage two RESCORES only those candidates, plus the overlay rows,
    # with :func:`_rtts`, so every emitted float is the linear oracle's.
    #
    # The kNN *selection* is certified per target: with ``err2`` bounding
    # the float32 error of g, a base row left out has Euclidean distance
    # above ``sqrt(tau + |t|^2 - err2)``, and heights (never negative)
    # add the target's and the row's on top.  Every live row left out is
    # such a base row -- overlay rows are all scored -- so an answer
    # stands only when that cut strictly exceeds its k-th candidate;
    # otherwise (too few candidates, a tie within the error bound) the
    # target falls back to :meth:`_scan`.  Range queries need no
    # certificate: the threshold over-approximates and the rescore
    # filters.  A target whose threshold overflowed float32 is scanned.

    #: Candidate padding beyond k for the pruning stage.
    _PRUNE_PAD = 32
    #: float32 machine epsilon with a generous safety factor for the
    #: handful of roundings in the norms identity (input rounding, the
    #: dot product, the sum, the cancellation-exposed subtraction).
    _PRUNE_EPS = 64.0 * 1.1920929e-07
    #: Columns sampled (deterministic stride) for the threshold estimate.
    _PRUNE_SAMPLE = 1024
    #: Base rows up to which :meth:`_scan` beats the pruning stage's fixed
    #: per-chunk cost, single queries and batches alike (crossover 2-5k, 3-d).
    _SCAN_ROWS = 3072

    def _scan(self, origin: np.ndarray, height: float, excluded=()) -> np.ndarray:
        """Exact RTTs to every combined row, stale and excluded rows +inf.

        The one exact full scan: small indexes and uncertified targets.
        """
        distances = _rtts(origin, height, self._components, self._heights)
        if self._ov_ids:
            overlay = _rtts(origin, height, self._ov_components, self._ov_heights)
            distances = np.concatenate([distances, overlay])
        distances[self._masked_rows] = np.inf
        if excluded:
            distances[list(excluded)] = np.inf
        return distances

    def _pruning_cache(self):
        """Cached float32 ``[X^T; |x|^2]`` augmented matrix and max norm."""
        if self._prune is None:
            components32 = self._components.astype(np.float32)
            norms32 = (components32 * components32).sum(axis=1)
            # C order: the sgemm against vstack's Fortran-ordered result
            # measured ~500x slower (32 x 5000 rows, 2-vCPU host).
            augmented = np.ascontiguousarray(np.vstack([components32.T, norms32[None, :]]))
            self._prune = (augmented, float(norms32.max()) if norms32.size else 0.0)
        return self._prune

    def _shifted_squared(
        self, targets: np.ndarray, excluded=(), out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """``g = |x|^2 - 2 t.x`` per (target, base row), plus ``|t|^2`` and err2.

        ``|g - g_true| <= err2`` for every entry: each term of the norms
        identity is bounded by ``m2`` and the whole evaluation takes a
        handful of float32 roundings, covered by the safety factor in
        ``_PRUNE_EPS``.  Masked base rows, and each target's ``excluded``
        base rows, come out +inf.  ``out`` (a ``(>= q, n)`` float32
        scratch buffer) lets chunked callers reuse one allocation.
        """
        augmented, norm_max = self._pruning_cache()
        q, d = targets.shape
        lhs = np.empty((q, d + 1), dtype=np.float32)
        lhs[:, :d] = -2.0 * targets
        lhs[:, d] = 1.0
        shifted = np.matmul(lhs, augmented, out=None if out is None else out[:q])
        if self._masked_rows.size:
            shifted[:, self._masked_rows] = np.inf
        for local, rows in enumerate(excluded):
            shifted[local, [row for row in rows if row < self._n_base]] = np.inf
        target_norms = (targets * targets).sum(axis=1)
        m2 = 2.0 * (float(target_norms.max()) if q else 0.0) + 2.0 * norm_max
        err2 = self._PRUNE_EPS * max(m2, 1.0)
        return shifted, target_norms, err2

    def _candidates(self, shifted, tau, targets, heights, excluded, keep_overlay):
        """Candidate rows and exact RTTs, grouped by target, best first.

        The base rows with ``shifted <= tau`` plus the overlay rows
        ``keep_overlay`` selects from each target's exact overlay RTTs
        (``excluded`` ones at +inf).  Returns combined rows and RTTs,
        ordered by (target, RTT, insertion seq), and the per-target
        ``[begin, end)`` bounds into them.
        """
        # flatnonzero + divmod is an order of magnitude faster than
        # 2-D nonzero on a sparse (q, n) mask.
        flat = np.flatnonzero((shifted <= tau[:, None]).ravel())
        local_rows, cols = np.divmod(flat, shifted.shape[1])
        exact = _rtts(
            targets[local_rows], heights[local_rows],
            self._components[cols], self._heights[cols],
        )
        if self._ov_ids:
            overlay = _rtts(
                targets[:, None, :], heights[:, None],
                self._ov_components, self._ov_heights,
            )
            for local, rows in enumerate(excluded):
                overlay[local, [row - self._n_base for row in rows if row >= self._n_base]] = np.inf
            ov_locals, ov_cols = np.nonzero(keep_overlay(overlay))
            local_rows = np.concatenate([local_rows, ov_locals])
            cols = np.concatenate([cols, ov_cols + self._n_base])
            exact = np.concatenate([exact, overlay[ov_locals, ov_cols]])
        order = np.lexsort((self._row_seq[cols], exact, local_rows))
        bounds = np.searchsorted(local_rows[order], np.arange(len(targets) + 1))
        return cols[order], exact[order], bounds

    def _knn(self, targets, heights, excluded, k: int):
        """The best k rows per target row; ``excluded[i]`` lists rows it skips."""
        answers: List[Optional[List[Tuple[str, float]]]] = [None] * len(targets)
        n = self._n_base
        target_count = max(2 * (k + self._PRUNE_PAD), 96)
        step = _chunk_rows(n)
        chunks = range(0, len(targets), step) if n > max(self._SCAN_ROWS, 2 * target_count) else ()
        if chunks:
            sample = slice(0, n, max(1, n // self._PRUNE_SAMPLE))
            sampled = len(range(n)[sample])
            rank = min(sampled - 1, max(1, (target_count * sampled) // n))
            scratch = np.empty((min(step, len(targets)), n), dtype=np.float32)

        def k_best_overlay(rtts):
            # Each target's k best overlay rows, k-th ties kept; the rest lose k times.
            kth = np.partition(rtts, k - 1, axis=1)[:, k - 1 : k] if rtts.shape[1] > k else np.inf
            return (rtts <= kth) & (rtts < np.inf)

        for offset in chunks:
            span = slice(offset, offset + step)
            shifted, target_norms, err2 = self._shifted_squared(
                targets[span], excluded[span], out=scratch
            )
            # Per-target candidate threshold from a strided column sample:
            # the rank is chosen so roughly target_count columns survive.
            tau = np.partition(shifted[:, sample], rank, axis=1)[:, rank]
            cols, exact, bounds = self._candidates(
                shifted, tau, targets[span], heights[span], excluded[span], k_best_overlay
            )
            cut = _loosen(
                np.sqrt(np.maximum(tau.astype(np.float64) + target_norms - err2, 0.0))
                + heights[span]
            )
            for local, (begin, end) in enumerate(zip(bounds[:-1], bounds[1:])):
                top = slice(begin, begin + k)
                if end - begin >= k and tau[local] < np.inf and cut[local] > exact[begin + k - 1]:
                    answers[offset + local] = self._ranked(cols[top], exact[top])
        for position, answer in enumerate(answers):
            if answer is None:
                distances = self._scan(targets[position], heights[position], excluded[position])
                best = _best_rows(distances, self._row_seq, k)
                answers[position] = self._ranked(best, distances[best])
        return answers

    def _range(self, targets, heights, radius_ms: float):
        """Every row within ``radius_ms`` of each target row, ranked."""
        answers: List[Optional[List[Tuple[str, float]]]] = [None] * len(targets)
        step = _chunk_rows(self._n_base)
        for offset in range(0, len(targets), step) if self._n_base > self._SCAN_ROWS else ():
            span = slice(offset, offset + step)
            shifted, target_norms, err2 = self._shifted_squared(targets[span])
            # Every true hit has euclid <= dist <= radius, hence g <=
            # radius^2 - |t|^2 + err2; the rescore drops the excess.  Rounded
            # *up* to float32, the comparison stays in float32 (no (q, n)
            # float64 temporary) without ever tightening it.
            tau = (radius_ms * radius_ms - target_norms) + err2
            tau32 = np.nextafter(tau.astype(np.float32), np.float32(np.inf))
            cols, exact, bounds = self._candidates(
                shifted, tau32, targets[span], heights[span], (),
                lambda rtts: rtts <= radius_ms,
            )
            for local, (begin, end) in enumerate(zip(bounds[:-1], bounds[1:])):
                if tau32[local] < np.inf:
                    # Ranked by RTT, so the hits are a prefix of the slice.
                    stop = begin + int(np.searchsorted(exact[begin:end], radius_ms, side="right"))
                    answers[offset + local] = self._ranked(cols[begin:stop], exact[begin:stop])
        for position, answer in enumerate(answers):
            if answer is None:
                distances = self._scan(targets[position], heights[position])
                hits = np.flatnonzero(distances <= radius_ms)
                hits = hits[np.lexsort((self._row_seq[hits], distances[hits]))]
                answers[position] = self._ranked(hits, distances[hits])
        return answers
