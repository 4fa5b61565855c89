"""Sub-linear spatial indexes behind the :class:`CoordinateIndex` contract.

The linear scan in :mod:`repro.overlay.knn` is the correctness oracle; the
implementations here answer the same queries -- k-nearest, range, and the
placement 1-median -- without touching every node:

* :class:`VPTreeIndex` -- a vantage-point tree over the predicted-latency
  metric itself.  The coordinate distance ``||x_i - x_j|| + h_i + h_j``
  satisfies the triangle inequality even with Vivaldi height terms, which
  is all the vp-tree's pruning bounds require.  Queries inspect
  ``O(log n)``-ish nodes on the paper's low-dimensional embeddings.
* :class:`GridIndex` -- a uniform grid over the Euclidean components with
  per-cell minimum-height bounds, searched in expanding shells.  Cheaper
  to rebuild than the tree; best for dense, frequently refreshed
  snapshots.
* :class:`DenseIndex` -- batched brute-force over flat NumPy arrays.  Every
  query touches every node, but as one array expression; it is the only
  kind with *batch* entry points (``knn_batch_by_id`` / ``range_batch_by_id``,
  used by the planner to answer a whole same-version batch in one NumPy
  call) and the only kind that ingests an array-backed snapshot without
  materialising per-node objects.

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

import itertools
import math
from heapq import heappush, heapreplace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate, sequential_sum
from repro.overlay.knn import CoordinateIndex

__all__ = ["INDEX_KINDS", "build_index", "VPTreeIndex", "GridIndex", "DenseIndex"]

#: Registered index kinds, resolvable through :func:`build_index`.
INDEX_KINDS = ("linear", "vptree", "grid", "dense")

#: Rows per vp-tree leaf slice / target entries per grid cell.
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


def _distances_from(
    target: Coordinate, components: np.ndarray, heights: np.ndarray
) -> np.ndarray:
    """``target.distance(row)`` for every row: ``(euclid + target.height) + row height``."""
    _check_dimensions(target, components)
    origin = np.asarray(target.components, dtype=np.float64)
    return (_euclidean(components, origin) + target.height) + heights


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
    if kind == "grid":
        return GridIndex()
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
# Uniform grid
# ----------------------------------------------------------------------
class GridIndex(_SpatialIndex):
    """Uniform grid over the Euclidean components, searched shell by shell.

    Cell size targets ``n ** (1/d)`` cells per dimension over the bounding
    box.  Candidate cells are pruned with an exact axis-aligned-box lower
    bound plus the query height and the cell's minimum stored height, so
    results remain identical to the oracle even in height-augmented
    spaces.  The placement 1-median query falls back to the inherited
    linear scan -- use :class:`VPTreeIndex` to accelerate placement.
    """

    def __init__(self) -> None:
        super().__init__()
        self._cells: Dict[Tuple[int, ...], List[Tuple[int, str, Coordinate]]] = {}
        self._cell_min_height: Dict[Tuple[int, ...], float] = {}
        self._origin: Tuple[float, ...] = ()
        self._cell_size = 1.0
        self._dims = 0
        self._cells_per_dim = 1
        self._min_height = 0.0
        #: Per-axis bounds over the occupied cell keys.  The shell search
        #: clamps its center into this box; the pruning bounds' validity
        #: needs the box to contain every occupied key, which delta
        #: derivations maintain by expanding it for out-of-box inserts.
        self._key_low: Tuple[int, ...] = ()
        self._key_high: Tuple[int, ...] = ()
        #: Cumulative rows moved by delta derivations since the last full
        #: rebuild; past the overlay budget the geometry is refreshed.
        self._delta_moved = 0

    def _rebuild(self) -> None:
        self._cells.clear()
        self._cell_min_height.clear()
        self._delta_moved = 0
        entries, matrix, heights = self._entry_arrays()
        if not entries:
            self._dims = 0
            return
        dims = matrix.shape[1]
        lows = matrix.min(axis=0)
        extent = float((matrix.max(axis=0) - lows).max())
        cells_per_dim = max(1, math.ceil(len(entries) ** (1.0 / dims) / 2.0))
        self._dims = dims
        self._origin = tuple(lows.tolist())
        self._cell_size = (extent / cells_per_dim) if extent > 0.0 else 1.0
        self._cells_per_dim = cells_per_dim
        self._min_height = float(heights.min())
        # Cell assignment for the whole population in one array expression
        # (bit-identical to the scalar _cell_key: same subtraction, same
        # division, same floor).
        cell_keys = np.floor((matrix - lows[None, :]) / self._cell_size).astype(np.int64)
        for entry, key_row, height in zip(entries, cell_keys, heights):
            key = tuple(key_row.tolist())
            self._cells.setdefault(key, []).append(entry)
            held = self._cell_min_height.get(key)
            if held is None or height < held:
                self._cell_min_height[key] = float(height)
        self._key_low = tuple(cell_keys.min(axis=0).tolist())
        self._key_high = tuple(cell_keys.max(axis=0).tolist())

    # -- incremental epochs --------------------------------------------
    def delta_applied(
        self,
        changed_ids: Sequence[str],
        changed_components: np.ndarray,
        changed_heights: np.ndarray,
        removed_ids: Sequence[str] = (),
    ) -> Optional["GridIndex"]:
        """A new index with the delta applied, or ``None`` to compact.

        Cell moves are O(changed): the clone shares every untouched cell
        bucket with this index (copy-on-write per bucket) and keeps the
        base geometry.  A stale bounding box only costs pruning
        efficiency, never correctness -- cell bounds stay exact and the
        shell search reaches out-of-box cells -- so the geometry is only
        refreshed when the cumulative churn exceeds the overlay budget.
        """
        self._ensure_built()
        if not changed_ids and not removed_ids:
            return self
        if not self._cells:
            return None
        moved = self._delta_moved + len(changed_ids) + len(removed_ids)
        if moved > _overlay_budget(len(self._coordinates)):
            return None
        changed = _changed_coordinates(changed_ids, changed_components, changed_heights)
        if any(coordinate.dimensions != self._dims for _, coordinate in changed):
            return None
        clone = GridIndex()
        clone._coordinates = dict(self._coordinates)
        clone._seq = dict(self._seq)
        clone._next_seq = self._next_seq
        clone._origin = self._origin
        clone._cell_size = self._cell_size
        clone._dims = self._dims
        clone._cells_per_dim = self._cells_per_dim
        clone._cells = dict(self._cells)
        clone._cell_min_height = dict(self._cell_min_height)
        clone._key_low = self._key_low
        clone._key_high = self._key_high
        clone._delta_moved = moved
        clone._dirty = False
        writable: set = set()
        touched: set = set()

        def bucket_for(key: Tuple[int, ...]) -> List[Tuple[int, str, Coordinate]]:
            bucket = clone._cells.get(key)
            if bucket is None:
                bucket = []
                clone._cells[key] = bucket
                writable.add(key)
            elif key not in writable:
                bucket = list(bucket)
                clone._cells[key] = bucket
                writable.add(key)
            return bucket

        def drop_entry(key: Tuple[int, ...], node_id: str) -> None:
            bucket = bucket_for(key)
            for position, (_, entry_id, _) in enumerate(bucket):
                if entry_id == node_id:
                    del bucket[position]
                    break
            touched.add(key)

        for node_id, coordinate in changed:
            previous = clone._coordinates.get(node_id)
            if previous is not None:
                drop_entry(clone._cell_key(previous.components), node_id)
                seq = clone._seq[node_id]
            else:
                seq = clone._next_seq
                clone._next_seq += 1
            key = clone._cell_key(coordinate.components)
            bucket_for(key).append((seq, node_id, coordinate))
            touched.add(key)
            clone._key_low = tuple(min(a, b) for a, b in zip(clone._key_low, key))
            clone._key_high = tuple(max(a, b) for a, b in zip(clone._key_high, key))
            clone._coordinates[node_id] = coordinate
            clone._seq[node_id] = seq
        for node_id in removed_ids:
            previous = clone._coordinates.pop(node_id, None)
            if previous is None:
                continue
            clone._seq.pop(node_id, None)
            drop_entry(clone._cell_key(previous.components), node_id)
        for key in touched:
            bucket = clone._cells.get(key)
            if not bucket:
                clone._cells.pop(key, None)
                clone._cell_min_height.pop(key, None)
            else:
                clone._cell_min_height[key] = min(
                    coordinate.height for _, _, coordinate in bucket
                )
        clone._min_height = (
            min(clone._cell_min_height.values()) if clone._cell_min_height else 0.0
        )
        return clone

    def _cell_key(self, components: Sequence[float]) -> Tuple[int, ...]:
        return tuple(
            int(math.floor((value - origin) / self._cell_size))
            for value, origin in zip(components, self._origin)
        )

    def _box_lower_bound(self, target: Coordinate, key: Tuple[int, ...]) -> float:
        """Exact lower bound on predicted RTT to any point stored in ``key``."""
        gap_sq = 0.0
        for axis, cell in enumerate(key):
            low = self._origin[axis] + cell * self._cell_size
            high = low + self._cell_size
            value = target.components[axis]
            if value < low:
                gap_sq += (low - value) ** 2
            elif value > high:
                gap_sq += (value - high) ** 2
        return _loosen(math.sqrt(gap_sq) + target.height + self._cell_min_height[key])

    def _shells(self, target: Coordinate):
        """Yield (shell_rank, cell_keys) rings around the target, nearest first."""
        center = tuple(
            min(max(index, low), high)
            for index, low, high in zip(
                self._cell_key(target.components), self._key_low, self._key_high
            )
        )
        occupied = set(self._cells)
        remaining = len(occupied)
        shell = 0
        while remaining > 0:
            keys = []
            if shell == 0:
                candidates: Iterable[Tuple[int, ...]] = (center,)
            else:
                candidates = (
                    tuple(c + o for c, o in zip(center, offsets))
                    for offsets in itertools.product(
                        range(-shell, shell + 1), repeat=self._dims
                    )
                    if max(abs(o) for o in offsets) == shell
                )
            for key in candidates:
                if key in occupied:
                    keys.append(key)
            remaining -= len(keys)
            yield shell, keys
            shell += 1

    def _shell_lower_bound(self, target: Coordinate, shell: int) -> float:
        """Lower bound on predicted RTT to anything in shell ``shell`` or beyond."""
        return _loosen(
            max(0.0, (shell - 1) * self._cell_size) + target.height + self._min_height
        )

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
        if not self._cells:
            return []
        excluded = set(exclude)
        best = _KBest(k)
        for shell, keys in self._shells(target):
            if self._shell_lower_bound(target, shell) > best.threshold:
                break
            for key in keys:
                if self._box_lower_bound(target, key) > best.threshold:
                    continue
                for seq, node_id, coordinate in self._cells[key]:
                    if node_id in excluded:
                        continue
                    best.offer(target.distance(coordinate), seq, node_id)
        return best.sorted_results()

    def within(self, target: Coordinate, radius_ms: float) -> List[Tuple[str, float]]:
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        self._ensure_built()
        if not self._cells:
            return []
        hits: List[Tuple[float, int, str]] = []
        for shell, keys in self._shells(target):
            if self._shell_lower_bound(target, shell) > radius_ms:
                break
            for key in keys:
                if self._box_lower_bound(target, key) > radius_ms:
                    continue
                for seq, node_id, coordinate in self._cells[key]:
                    distance = target.distance(coordinate)
                    if distance <= radius_ms:
                        hits.append((distance, seq, node_id))
        hits.sort()
        return [(node_id, distance) for distance, _, node_id in hits]


# ----------------------------------------------------------------------
# Dense (batched brute-force) index
# ----------------------------------------------------------------------
#: Queries per chunk of the batched pruning matrix.  Small enough that the
#: ``chunk * n`` float32 working set (32 x 100k = 12.8 MB) stays cache-
#: resident across the kernel's passes; larger chunks measurably regress.
_BATCH_CHUNK = 32


class DenseIndex(_SpatialIndex):
    """Flat-array brute force: every query scans every node, vectorized.

    The whole snapshot lives in three aligned arrays -- node ids, ``(n, d)``
    components and ``(n,)`` heights -- so a query is a handful of NumPy
    expressions over contiguous memory instead of a tree walk.  On the
    paper's low-dimensional embeddings that loses asymptotically to the
    vp-tree for *single* queries but wins decisively for *batches*:
    :meth:`knn_batch_by_id` / :meth:`range_batch_by_id` answer q queries
    against one snapshot version with chunked ``(q, n)`` distance matrices,
    amortising all per-query Python overhead.

    Tie-order guarantee: results are ordered by ``(predicted RTT,
    insertion sequence)``, with the insertion sequence of an array-ingested
    snapshot being its row order -- exactly the linear oracle's stable sort
    over its insertion-ordered dict, so dense results (batched or not) are
    byte-identical to the oracle, ties included.  The selection uses
    ``argpartition`` for the k-th-distance cut and only sorts the candidate
    set at the boundary.

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

    @property
    def _overlay_active(self) -> bool:
        return bool(self._ov_ids) or bool(self._removed)

    def _clear_overlay(self) -> None:
        self._n_base = len(self._ids)
        self._ov_ids = []
        self._ov_components = np.empty((0, 0), dtype=np.float64)
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
        arrays without copying -- so the overlay budget mainly protects
        the batched kernels, which fall back to per-target exact scans
        while an overlay is active.
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
            if not self._overlay_active:
                return list(self._ids)
            # Overridden ids keep their base position (matching what a
            # from-scratch rebuild of the snapshot would hold); only
            # genuinely new ids append at the end.
            removed = self._removed
            live = [
                node_id
                for node_id in self._ids[: self._n_base]
                if node_id not in removed
            ]
            live.extend(self._ov_added)
            return live
        return list(self._coordinates)

    def nearest_to_node(self, node_id: str, k: int = 1) -> List[Tuple[str, float]]:
        self._ensure_built()
        coordinate = self.coordinate_of(node_id)
        if coordinate is None:
            raise KeyError(f"{node_id!r} is not in the index")
        return self.nearest(coordinate, k, exclude=[node_id])

    # -- distance kernels ----------------------------------------------
    def _query_distances(self, target: Coordinate) -> np.ndarray:
        """Predicted RTTs over all combined rows; stale rows forced to +inf."""
        distances = _distances_from(target, self._components, self._heights)
        if not self._overlay_active:
            return distances
        if self._masked_rows.size:
            distances[self._masked_rows] = np.inf
        if self._ov_ids:
            overlay = _distances_from(target, self._ov_components, self._ov_heights)
            distances = np.concatenate([distances, overlay])
        return distances

    def _top_k(self, distances: np.ndarray, k: int) -> List[Tuple[str, float]]:
        """Best-k rows by ``(distance, insertion seq)``; +inf rows excluded."""
        return [
            (self._ids[int(row)], float(distances[row]))
            for row in _best_rows(distances, self._row_seq, k)
        ]

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
        if not self._ids:
            return []
        distances = self._query_distances(target)
        excluded_rows = [
            row
            for row in (self._row_index.get(node_id) for node_id in exclude)
            if row is not None
        ]
        if excluded_rows:
            distances[excluded_rows] = np.inf
        return self._top_k(distances, k)

    def within(self, target: Coordinate, radius_ms: float) -> List[Tuple[str, float]]:
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        self._ensure_built()
        if not self._ids:
            return []
        distances = self._query_distances(target)
        hits = np.nonzero(distances <= radius_ms)[0]
        order = np.lexsort((self._row_seq[hits], distances[hits]))
        return [(self._ids[int(row)], float(distances[row])) for row in hits[order]]

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

    # -- batch entry points (the planner's one-NumPy-call path) --------
    #
    # The batched kernels run in two stages.  Stage one PRUNES in a
    # *shifted squared* space: ``g(x) = |x|^2 - 2 t.x`` (the norms
    # identity minus the per-row constant ``|t|^2``) comes out of one
    # float32 sgemm against a cached augmented matrix ``[X^T; |x|^2]``,
    # and a deterministic column sample estimates a per-row threshold
    # that keeps roughly ``4 * (k + pad)`` candidates -- no per-row
    # argpartition over all n columns.  Stage two RESCORES only the
    # surviving candidates with the exact float64 expression of
    # :func:`_distances_from`, so every emitted float is bit-identical to
    # the single-query (and linear oracle) answer.
    #
    # Exactness of the *selection* is certified per row, not assumed:
    # with ``err2`` a conservative bound on the float32 error of g, an
    # excluded row provably has Euclidean distance above
    # ``cut = sqrt(tau + |t|^2 - err2)`` -- and heights only add on top.
    # A row's batch answer is only kept when ``cut`` strictly exceeds its
    # k-th exact candidate distance; otherwise (too few candidates, tie
    # within the error bound, height-dominated neighborhoods) that row
    # falls back to an exact full scan.  Range queries need no fallback:
    # the threshold over-approximates and the exact rescore filters.

    #: Candidate padding beyond k for the pruning stage.
    _PRUNE_PAD = 32
    #: float32 machine epsilon with a generous safety factor for the
    #: handful of roundings in the norms identity (input rounding, the
    #: dot product, the sum, the cancellation-exposed subtraction).
    _PRUNE_EPS = 64.0 * 1.1920929e-07
    #: Columns sampled (deterministic stride) for the threshold estimate.
    _PRUNE_SAMPLE = 1024

    def _pruning_cache(self):
        """Cached float32 ``[X^T; |x|^2]`` augmented matrix and norms."""
        if self._prune is None:
            components32 = self._components.astype(np.float32)
            norms32 = (components32 * components32).sum(axis=1)
            augmented = np.vstack([components32.T, norms32[None, :]])
            norms64 = (self._components * self._components).sum(axis=1)
            self._prune = (
                components32,
                augmented,
                norms64,
                float(norms32.max()) if norms32.size else 0.0,
            )
        return self._prune

    def _shifted_squared(
        self, rows: np.ndarray, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """``g = |x|^2 - 2 t.x`` per (row, column), plus ``|t|^2`` and err2.

        ``|g - g_true| <= err2`` for every entry: each term of the norms
        identity is bounded by ``m2`` and the whole evaluation takes a
        handful of float32 roundings, covered by the safety factor in
        ``_PRUNE_EPS``.  ``out`` (a ``(>= q, n)`` float32 scratch buffer)
        lets chunked callers reuse one allocation.
        """
        components32, augmented, norms64, norm_max = self._pruning_cache()
        q = rows.shape[0]
        d = components32.shape[1]
        lhs = np.empty((q, d + 1), dtype=np.float32)
        np.multiply(components32[rows], np.float32(-2.0), out=lhs[:, :d])
        lhs[:, d] = 1.0
        if out is not None:
            shifted = np.matmul(lhs, augmented, out=out[:q])
        else:
            shifted = lhs @ augmented
        target_norms = norms64[rows]
        m2 = 2.0 * (float(target_norms.max()) if target_norms.size else 0.0) + 2.0 * norm_max
        err2 = self._PRUNE_EPS * max(m2, 1.0)
        return shifted, target_norms, err2

    def _exact_candidate_distances(
        self, rows: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Exact predicted RTTs row->candidate, same floats as the oracle."""
        comps = self._components
        euclid = _euclidean(comps[candidates], comps[rows][:, None, :])
        return (euclid + self._heights[rows][:, None]) + self._heights[candidates]

    def _exact_row_distances(self, row: int) -> np.ndarray:
        """Exact predicted RTTs from one row to every row (fallback path)."""
        euclid = _euclidean(self._components, self._components[row])
        return (euclid + self._heights[row]) + self._heights

    def _resolve_rows(self, target_ids: Sequence[str]) -> List[Tuple[int, int]]:
        return [
            (position, row)
            for position, row in (
                (position, self._row_index.get(node_id))
                for position, node_id in enumerate(target_ids)
            )
            if row is not None
        ]

    def knn_batch_by_id(
        self, target_ids: Sequence[str], k: int
    ) -> List[Optional[List[Tuple[str, float]]]]:
        """k-nearest for many indexed targets, self-excluded, in one sweep.

        Element ``i`` answers ``target_ids[i]``; ``None`` marks an unknown
        target (the caller decides how to fail it).  Answers are identical
        -- floats, ordering, ties -- to ``nearest(coord, k, exclude=[id])``
        per target.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        self._ensure_built()
        results: List[Optional[List[Tuple[str, float]]]] = [None] * len(target_ids)
        if not self._ids:
            return results
        if self._overlay_active:
            # Overlay generations answer per target through the exact
            # single-query path (contract-identical); the pruned batch
            # kernel returns after the next compaction.
            for position, node_id in enumerate(target_ids):
                coordinate = self.coordinate_of(node_id)
                if coordinate is not None:
                    results[position] = self.nearest(coordinate, k, exclude=[node_id])
            return results
        known = self._resolve_rows(target_ids)
        n = len(self._ids)
        target_count = max(2 * (k + self._PRUNE_PAD), 96)
        if target_count * 2 >= n:
            # Too small for pruning to exclude much: exact scans.
            for position, row in known:
                distances = self._exact_row_distances(row)
                distances[row] = np.inf
                results[position] = self._top_k(distances, k)
            return results
        row_ids = self._row_seq
        sample_cols = np.arange(0, n, max(1, n // self._PRUNE_SAMPLE), dtype=np.int64)
        rank = min(
            sample_cols.size - 1,
            max(1, (target_count * sample_cols.size) // n),
        )
        scratch = np.empty((min(_BATCH_CHUNK, len(known)), n), dtype=np.float32)
        for offset in range(0, len(known), _BATCH_CHUNK):
            chunk = known[offset : offset + _BATCH_CHUNK]
            rows = np.asarray([row for _, row in chunk], dtype=np.int64)
            q = rows.shape[0]
            shifted, target_norms, err2 = self._shifted_squared(rows, out=scratch)
            shifted[np.arange(q), rows] = np.inf  # self-exclusion
            # Per-row candidate threshold from a strided column sample:
            # the rank is chosen so roughly target_count columns survive.
            tau = np.partition(shifted[:, sample_cols], rank, axis=1)[:, rank]
            # flatnonzero + divmod is an order of magnitude faster than
            # 2-D nonzero on a sparse (q, n) mask.
            flat = np.flatnonzero((shifted <= tau[:, None]).ravel())
            local_rows, cols = np.divmod(flat, n)
            exact = (
                self._exact_candidate_distances(rows[local_rows], cols[:, None]).ravel()
                if cols.size
                else np.empty(0)
            )
            order = np.lexsort((row_ids[cols], exact, local_rows))
            local_rows = local_rows[order]
            cols = cols[order]
            exact = exact[order]
            boundaries = np.searchsorted(local_rows, np.arange(q + 1))
            # An excluded column's Euclidean distance provably exceeds
            # cut = sqrt(tau + |t|^2 - err2); heights only add to it.
            cut = np.sqrt(
                np.maximum(tau.astype(np.float64) + target_norms - err2, 0.0)
            )
            for local, (position, row) in enumerate(chunk):
                begin, end = boundaries[local], boundaries[local + 1]
                count = end - begin
                certified = (
                    count >= k and cut[local] > exact[begin + k - 1]
                )
                if certified:
                    results[position] = [
                        (self._ids[int(node_row)], float(distance))
                        for node_row, distance in zip(
                            cols[begin : begin + k], exact[begin : begin + k]
                        )
                    ]
                else:
                    distances = self._exact_row_distances(row)
                    distances[row] = np.inf
                    results[position] = self._top_k(distances, k)
        return results

    def range_batch_by_id(
        self, target_ids: Sequence[str], radius_ms: float
    ) -> List[Optional[List[Tuple[str, float]]]]:
        """Range query for many indexed targets in one sweep.

        Answers match ``within(coord, radius_ms)`` per target exactly;
        note the planner (not the index) drops the target itself from
        range payloads, mirroring the single-query code path.
        """
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        self._ensure_built()
        results: List[Optional[List[Tuple[str, float]]]] = [None] * len(target_ids)
        if not self._ids:
            return results
        if self._overlay_active:
            for position, node_id in enumerate(target_ids):
                coordinate = self.coordinate_of(node_id)
                if coordinate is not None:
                    results[position] = self.within(coordinate, radius_ms)
            return results
        known = self._resolve_rows(target_ids)
        row_ids = self._row_seq
        for offset in range(0, len(known), _BATCH_CHUNK):
            chunk = known[offset : offset + _BATCH_CHUNK]
            rows = np.asarray([row for _, row in chunk], dtype=np.int64)
            shifted, target_norms, err2 = self._shifted_squared(rows)
            # Every true hit has euclid <= dist <= radius, hence
            # g <= radius^2 - |t|^2 + err2; the exact rescore below
            # discards the over-approximation, so no fallback is needed.
            tau = (radius_ms * radius_ms - target_norms) + err2
            # Rounded *up* to float32 so the comparison stays in float32
            # (no (q, n) float64 temporary) without ever tightening the
            # over-approximation.
            tau32 = np.nextafter(
                tau.astype(np.float32), np.float32(np.inf)
            )
            flat = np.flatnonzero((shifted <= tau32[:, None]).ravel())
            local_rows, cols = np.divmod(flat, shifted.shape[1])
            exact = (
                self._exact_candidate_distances(
                    rows[local_rows], cols[:, None]
                ).ravel()
                if cols.size
                else np.empty(0)
            )
            keep = exact <= radius_ms
            local_rows, cols, exact = local_rows[keep], cols[keep], exact[keep]
            order = np.lexsort((row_ids[cols], exact, local_rows))
            local_rows, cols, exact = (
                local_rows[order],
                cols[order],
                exact[order],
            )
            boundaries = np.searchsorted(local_rows, np.arange(rows.shape[0] + 1))
            for local, (position, _) in enumerate(chunk):
                begin, end = boundaries[local], boundaries[local + 1]
                results[position] = [
                    (self._ids[int(node_row)], float(distance))
                    for node_row, distance in zip(cols[begin:end], exact[begin:end])
                ]
        return results
