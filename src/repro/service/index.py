"""Sub-linear spatial indexes behind the :class:`CoordinateIndex` contract.

The linear scan in :mod:`repro.overlay.knn` is the correctness oracle; the
implementations here answer the same queries -- k-nearest, range, and the
placement 1-median -- without touching every node:

* :class:`VPTreeIndex` -- a vantage-point tree over the predicted-latency
  metric itself.  The coordinate distance ``||x_i - x_j|| + h_i + h_j``
  satisfies the triangle inequality even with Vivaldi height terms, which
  is all the vp-tree's pruning bounds require.  Queries inspect
  ``O(log n)``-ish nodes on the paper's low-dimensional embeddings.
  The tree is one flat node table walked without touching a
  ``Coordinate``; its leaves are ``_LEAF_SIZE``-row slices of flat arrays
  scored by the same array kernel as the dense index.
* :class:`DenseIndex` -- batched brute-force over flat NumPy arrays, for
  batch access.  Every query runs one pruned-and-certified kernel: a
  single query is a batch of one, and the *batch* entry points
  (``knn_batch_by_id`` / ``range_batch_by_id``, used by the store to
  answer a whole same-version batch in one NumPy call) feed it many
  targets at once.

Both kinds are built from arrays and hold no ``Coordinate`` per row: a
snapshot's rows go straight into the build (:func:`index_over`), and
lookups make a ``Coordinate`` on demand.

Exactness contract: every query returns *identical* results to the linear
oracle -- same node sets, same predicted RTTs (the exact same
``Coordinate.distance`` floats), same ordering.  Ties are broken by
insertion order, matching the oracle's stable sort over its
insertion-ordered dict; the traversals below therefore track a per-node
insertion sequence number and never prune on bound *equality*, only on
strict excess.

Mutations (``update`` / ``remove``) edit a ``{node_id: Coordinate}`` map
and the next query feeds it through the same array build, so bulk
``update_many`` loads cost one build, not n.
"""

from __future__ import annotations

from heapq import heapify, heappush, heapreplace, merge
from math import inf, sqrt
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate
from repro.overlay.knn import CoordinateIndex

__all__ = ["INDEX_KINDS", "build_index", "index_over", "VPTreeIndex", "DenseIndex"]

#: Registered index kinds, resolvable through :func:`build_index`.
INDEX_KINDS = ("linear", "vptree", "dense")

#: Max rows per vp-tree leaf slice, from a per-shard sweep (25k 3-d rows,
#: k=3, radius 20 ms, 2-vCPU host): kNN was flat from 32 to 96 rows and
#: 1.2x slower at 12; range gained up to 128.  Each leaf is one array call.
_LEAF_SIZE = 64

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


def _checked_rows(
    node_ids: Sequence[str],
    components: np.ndarray,
    heights: Optional[np.ndarray] = None,
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """``node_ids`` as a list and the rows as float64 arrays, checked.

    Refuses what ``Coordinate`` would refuse of any row -- no dimensions,
    a negative or non-finite height, a non-finite component -- with one
    vectorised test per case.  ``heights`` defaults to zeros.
    """
    ids = list(node_ids)
    components = np.asarray(components, dtype=np.float64)
    if components.ndim != 2:
        raise ValueError("components must be a (n, d) array")
    if len(ids) != components.shape[0]:
        raise ValueError(f"{len(ids)} node ids for {components.shape[0]} coordinate rows")
    if heights is None:
        heights = np.zeros(len(ids), dtype=np.float64)
    else:
        heights = np.asarray(heights, dtype=np.float64)
        if heights.shape != (len(ids),):
            raise ValueError("heights must be a (n,) array aligned with node_ids")
    if ids and components.shape[1] == 0:
        raise ValueError("a coordinate needs at least one dimension")
    for bad, refusal in (
        (heights < 0.0, "height must be non-negative"),
        (~np.isfinite(components).all(axis=1), "coordinate components must be finite"),
        (~np.isfinite(heights), "height must be finite"),
    ):
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(
                f"{refusal}: {ids[row]!r} has components {components[row].tolist()}, "
                f"height {heights[row]}"
            )
    return ids, components, heights


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
    squares = delta * delta
    acc = squares[..., 0]
    for j in range(1, delta.shape[-1]):
        acc = acc + squares[..., j]
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


def _origins(endpoints: Sequence[Coordinate], components: np.ndarray) -> list:
    """Each endpoint as ``(components array, height)``, checked against the rows."""
    for endpoint in endpoints:
        _check_dimensions(endpoint, components)
    return [(np.asarray(e.components, dtype=np.float64), e.height) for e in endpoints]


def _total_costs(origins: list, components: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """``sequential_sum(row.distance(e) for e in endpoints)`` for every row.

    ``origins`` are the endpoints as :func:`_origins` gives them.
    ``row.distance(e)`` adds the row height before the endpoint height,
    the mirror image of :func:`_distances_from` (float addition is not
    associative), and endpoints are summed in ``sequential_sum``'s order.
    """
    costs = 0.0
    for origin, height in origins:
        costs = costs + ((_euclidean(components, origin) + heights) + height)
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


def index_over(
    kind: str,
    node_ids: Sequence[str],
    components: np.ndarray,
    heights: np.ndarray,
) -> CoordinateIndex:
    """A finished ``kind`` index over aligned rows, inserted in row order.

    The spatial kinds build straight from the arrays, with no
    ``Coordinate`` per row, and refuse any row a ``Coordinate`` would:
    ``dense`` adopts them without copying (pass frozen ones) and
    ``vptree`` gathers its leaf arrays from them.  The linear oracle
    materialises one ``Coordinate`` per row.  The index is finalised
    eagerly, so concurrent readers of a published index never trigger
    (and race on) a lazy rebuild.
    """
    index = build_index(kind)
    if isinstance(index, _SpatialIndex):
        index.ingest_arrays(node_ids, components, heights)
        return index
    rows = np.asarray(components, dtype=np.float64).tolist()
    index.update_many({
        node_id: Coordinate(row, height)
        for node_id, row, height in zip(
            node_ids, rows, np.asarray(heights, dtype=np.float64).tolist()
        )
    })
    return index


class _SpatialIndex(CoordinateIndex):
    """One array ingest, one hydrate and lazy rebuilds for the spatial kinds.

    A built index (``_array_only``) holds its rows only in its subclass's
    arrays, each with an insertion sequence number, and ``_coordinates``
    is empty.  Every build goes through :meth:`_build`, from a snapshot's
    arrays (:meth:`ingest_arrays`) or from objects.  ``update`` /
    ``remove`` first hydrate ``_coordinates`` from the arrays (live ids in
    sequence order) and then edit it as the linear oracle does, so its
    order *is* the insertion order; the next query builds from it, with
    positions as sequence numbers.
    """

    def __init__(self) -> None:
        super().__init__()
        self._array_only = False

    @classmethod
    def from_arrays(
        cls,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
    ) -> "_SpatialIndex":
        index = cls()
        index.ingest_arrays(node_ids, components, heights)
        return index

    def ingest_arrays(
        self,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
    ) -> None:
        """Replace the contents with aligned rows, inserted in row order.

        Rows are checked as ``Coordinate`` checks them.  ``dense``
        references the arrays, so callers must treat them as frozen
        afterwards; ``vptree`` keeps gathered copies.
        """
        self._adopt(*_checked_rows(node_ids, components, heights))

    def _adopt(
        self, node_ids: List[str], components: np.ndarray, heights: np.ndarray
    ) -> None:
        self._coordinates = {}
        self._array_only = True
        self._build(node_ids, components, heights)

    def _build(
        self, node_ids: List[str], components: np.ndarray, heights: np.ndarray
    ) -> None:  # pragma: no cover - abstract
        """Replace the contents with these rows, their row numbers as sequences."""
        raise NotImplementedError

    def _hydrate_objects(self) -> None:
        """Materialise ``_coordinates`` from the arrays, before a mutation."""
        if self._array_only:
            self._coordinates = {
                node_id: self.coordinate_of(node_id) for node_id in self.node_ids()
            }
            self._array_only = False

    # -- maintenance ---------------------------------------------------
    def update(self, node_id: str, coordinate: Coordinate) -> None:
        self._hydrate_objects()
        super().update(node_id, coordinate)

    def remove(self, node_id: str) -> None:
        self._hydrate_objects()
        super().remove(node_id)

    def _entry_arrays(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``_coordinates`` as ids, ``(n, d)`` components and ``(n,)`` heights."""
        coordinates = list(self._coordinates.values())
        dims = coordinates[0].dimensions if coordinates else 0
        for node_id, coordinate in self._coordinates.items():
            if coordinate.dimensions != dims:
                raise ValueError(
                    f"{type(self).__name__} needs uniform dimensionality; "
                    f"{node_id!r} has {coordinate.dimensions}, expected {dims}"
                )
        components = np.asarray([c.components for c in coordinates], dtype=np.float64)
        heights = np.asarray([c.height for c in coordinates], dtype=np.float64)
        return list(self._coordinates), components.reshape(len(coordinates), dims), heights

    def _ensure_built(self) -> None:
        if not self._array_only:
            self._adopt(*self._entry_arrays())


# ----------------------------------------------------------------------
# Vantage-point tree
# ----------------------------------------------------------------------
class _VPTable(NamedTuple):
    """A vp-tree as parallel per-node lists; node 0 is the root.

    An inner node has a vantage point (its components as a tuple of
    floats), height, insertion seq and id, the split distance ``mu``,
    the ``radius`` (max distance from the vantage to any point below it)
    and the ``near`` / ``far`` child nodes.  A leaf has ``None`` for a
    point and is the leaf-array rows ``[lo, hi)``.
    """

    points: List[Optional[Tuple[float, ...]]]
    heights: List[float]
    seqs: List[int]
    ids: List[str]
    mus: List[float]
    radii: List[float]
    lo: List[int]
    hi: List[int]
    near: List[int]
    far: List[int]


class VPTreeIndex(_SpatialIndex):
    """Vantage-point tree over the predicted-latency metric.

    The vantage of every subtree is its earliest-inserted entry, so the
    structure -- and therefore traversal order and results -- is a pure
    function of the index contents.

    The tree is one flat node table (:class:`_VPTable`, ``_table``),
    built eagerly with the index.  Only the pruning walk over inner nodes
    is scalar: each vantage distance is computed inline from the table's
    float tuples, in ``Coordinate.distance``'s own operations and operand
    order, and no walk touches a ``Coordinate``.  A leaf is a ``[lo, hi)``
    slice of four flat arrays in leaf order (``_leaf_ids``,
    ``_leaf_components``, ``_leaf_heights``, ``_leaf_seqs``) of up to
    ``_LEAF_SIZE`` rows, scored by the oracle-exact array kernel: once
    per leaf for ``nearest`` / ``min_cost_host``, once over all reached
    leaves for ``within``.

    Built, the index holds no ``Coordinate``: besides the table and the
    leaf arrays it keeps one ``{node_id: seq}`` map (``_seq``, in sequence
    order) and a per-seq placement array (``_where``: the entry's leaf
    row, or ``~node`` for a vantage), from which ``coordinate_of`` makes
    a ``Coordinate`` on demand.  Sequence numbers are build row numbers.

    Incremental epochs (:meth:`delta_applied`) never restructure the
    tree: a derived index shares its base's node table, leaf arrays,
    ``_seq`` and ``_where`` (which then describe the tree only), masks
    stale tree entries with a *tombstone* set and carries the changed
    rows in an *overlay* of four arrays of the same shape, scored the
    same way.  The lookups (``coordinate_of``, ``in``, ``len``,
    ``node_ids``) resolve the overlay first.  Results stay byte-identical
    to a from-scratch rebuild because every float is
    ``Coordinate.distance``'s own and overlay rows keep their original
    insertion sequence (relative order is all the tie-break needs).
    """

    def __init__(self) -> None:
        super().__init__()
        self._table: Optional[_VPTable] = None
        #: Tree entries that are stale (their node changed or left).
        self._tombstones: frozenset = frozenset()
        #: Tree entry id -> insertion seq, in seq order.
        self._seq: Dict[str, int] = {}
        #: Per tree seq: its leaf row, or ``~node`` for a vantage.
        self._where = np.empty(0, dtype=np.int64)
        self._next_seq = 0
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
        #: node id -> overlay slot.
        self._ov_slot: Dict[str, int] = {}
        #: Overlay rows whose node has no tree entry at all.
        self._ov_fresh = 0

    # -- lookups (overlay first) ---------------------------------------
    def __len__(self) -> int:
        if not self._array_only:
            return super().__len__()
        # Tombstones are tree entries, none of them live; overlay rows
        # are all live and none is a live tree entry.
        return len(self._seq) - len(self._tombstones) + len(self._ov_ids)

    def __contains__(self, node_id: str) -> bool:
        if not self._array_only:
            return super().__contains__(node_id)
        if node_id in self._ov_slot:
            return True
        return node_id not in self._tombstones and node_id in self._seq

    def coordinate_of(self, node_id: str) -> Optional[Coordinate]:
        if not self._array_only:
            return super().coordinate_of(node_id)
        slot = self._ov_slot.get(node_id)
        if slot is not None:
            return Coordinate(
                self._ov_components[slot].tolist(), float(self._ov_heights[slot])
            )
        seq = None if node_id in self._tombstones else self._seq.get(node_id)
        if seq is None:
            return None
        row = int(self._where[seq])
        if row < 0:
            return Coordinate(self._table.points[~row], self._table.heights[~row])
        return Coordinate(self._leaf_components[row].tolist(), float(self._leaf_heights[row]))

    def node_ids(self) -> List[str]:
        """Live ids in insertion-sequence order (a rebuild's order)."""
        if not self._array_only:
            return super().node_ids()
        if not (self._ov_ids or self._tombstones):
            return list(self._seq)
        tombstones = self._tombstones
        # The tree map is in sequence order already.
        tree = (
            (seq, node_id)
            for node_id, seq in self._seq.items()
            if node_id not in tombstones
        )
        order = np.argsort(self._ov_seqs, kind="stable").tolist()
        overlay = ((int(self._ov_seqs[slot]), self._ov_ids[slot]) for slot in order)
        return [node_id for _, node_id in merge(tree, overlay)]

    def _build(
        self, node_ids: List[str], components: np.ndarray, heights: np.ndarray
    ) -> None:
        self._tombstones = frozenset()
        self._clear_overlay()
        self._seq = dict(zip(node_ids, range(len(node_ids))))
        self._next_seq = len(node_ids)
        where = np.empty(len(node_ids), dtype=np.int64)
        nodes: List[tuple] = []  # the table's rows up to ``near`` / ``far``
        near: List[int] = []
        far: List[int] = []
        leaves: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        filled = 0
        # (rows, parent node, the parent's child links to fill in)
        stack: List[Tuple[np.ndarray, int, List[int]]] = (
            [(np.arange(len(node_ids)), -1, near)] if node_ids else []
        )
        while stack:
            rows, parent, links = stack.pop()
            node = len(nodes)
            if parent >= 0:
                links[parent] = node
            near.append(-1)
            far.append(-1)
            if len(rows) > _LEAF_SIZE:
                vantage = int(rows[0])
                rest = rows[1:]
                distances = _rtts(
                    components[vantage], heights[vantage], components[rest], heights[rest]
                )
                median = (len(rest) - 1) // 2
                mu = float(np.partition(distances, median)[median])
                beyond = distances > mu
                # No far side means no split progress (duplicate-heavy
                # group): finish as a leaf instead of chaining one
                # vantage per level.
                if beyond.any():
                    where[vantage] = ~node
                    nodes.append((
                        tuple(components[vantage].tolist()), float(heights[vantage]),
                        vantage, node_ids[vantage], mu, float(distances.max()), 0, 0,
                    ))
                    stack.append((rest[~beyond], node, near))
                    stack.append((rest[beyond], node, far))
                    continue
            nodes.append((None, 0.0, -1, "", 0.0, 0.0, filled, filled + len(rows)))
            filled += len(rows)
            leaves.append(rows)
        columns = (list(column) for column in zip(*nodes))
        self._table = _VPTable(*columns, near, far) if nodes else None
        order = np.concatenate(leaves)
        where[order] = np.arange(len(order))
        self._where = where
        self._leaf_ids = [node_ids[row] for row in order.tolist()]
        self._leaf_seqs = order
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

        The returned index shares this one's node table, leaf arrays,
        ``_seq`` and ``_where``; its own state is the cumulative overlay and
        tombstones, so deriving costs the delta plus a copy of that state,
        not the population.
        This index is not mutated and keeps answering queries for its
        own generation.
        """
        self._ensure_built()
        if not changed_ids and not removed_ids:
            return self
        if self._table is None:
            return None
        changed_components = np.asarray(changed_components, dtype=np.float64)
        changed_heights = np.asarray(changed_heights, dtype=np.float64)
        tree_seq = self._seq
        held = len(self._ov_ids)
        slot_of = dict(self._ov_slot)
        # Tree entries this delta hides, beyond the inherited tombstones.
        stale = set()
        fresh = self._ov_fresh
        appended_ids: List[str] = []
        appended_seqs: List[int] = []
        next_seq = self._next_seq
        # Overlay slot each changed row lands in (overwrite or append).
        slots = np.empty(len(changed_ids), dtype=np.intp)
        for position, node_id in enumerate(changed_ids):
            slot = slot_of.get(node_id)
            if slot is None:
                seq = None
                if node_id not in self._tombstones and node_id not in stale:
                    seq = tree_seq.get(node_id)
                if seq is not None:
                    stale.add(node_id)
                else:
                    # New, or back after a removal: an append, as in a
                    # rebuild.
                    seq, next_seq = next_seq, next_seq + 1
                    fresh += node_id not in tree_seq
                slot = slot_of[node_id] = held + len(appended_ids)
                appended_ids.append(node_id)
                appended_seqs.append(seq)
            slots[position] = slot
        dropped: List[int] = []
        for node_id in removed_ids:
            slot = slot_of.pop(node_id, None)
            if slot is not None:
                dropped.append(slot)
                fresh -= node_id not in tree_seq
            if node_id in tree_seq and node_id not in self._tombstones:
                stale.add(node_id)
        tombstones = self._tombstones.union(stale) if stale else self._tombstones
        # The footprint is every distinct touched node: hidden tree
        # entries plus overlay rows with no tree entry.
        live = len(tree_seq) - len(tombstones) + len(slot_of)
        if len(tombstones) + fresh > _overlay_budget(live):
            return None
        ov_ids = self._ov_ids + appended_ids
        dims = (
            changed_components.shape[1]
            if len(changed_ids)
            else self._ov_components.shape[1]
        )
        ov_components = np.empty((len(ov_ids), dims), dtype=np.float64)
        ov_heights = np.empty(len(ov_ids), dtype=np.float64)
        if held:
            ov_components[:held] = self._ov_components
            ov_heights[:held] = self._ov_heights
        if len(changed_ids):
            ov_components[slots] = changed_components
            ov_heights[slots] = changed_heights
        ov_seqs = np.concatenate(
            [self._ov_seqs, np.asarray(appended_seqs, dtype=np.int64)]
        )
        if dropped:
            # Removals hit overlay rows: compact them out.
            keep = np.ones(len(ov_ids), dtype=bool)
            keep[dropped] = False
            ov_ids = [node_id for node_id, kept in zip(ov_ids, keep.tolist()) if kept]
            ov_components = ov_components[keep]
            ov_heights = ov_heights[keep]
            ov_seqs = ov_seqs[keep]
            slot_of = {node_id: slot for slot, node_id in enumerate(ov_ids)}
        clone = VPTreeIndex()
        clone._array_only = True
        clone._seq = tree_seq
        clone._where = self._where
        clone._next_seq = next_seq
        clone._table = self._table
        clone._leaf_ids = self._leaf_ids
        clone._leaf_components = self._leaf_components
        clone._leaf_heights = self._leaf_heights
        clone._leaf_seqs = self._leaf_seqs
        clone._tombstones = tombstones
        clone._ov_ids = ov_ids
        clone._ov_components = ov_components
        clone._ov_heights = ov_heights
        clone._ov_seqs = ov_seqs
        clone._ov_slot = slot_of
        clone._ov_fresh = fresh
        return clone

    # -- queries -------------------------------------------------------
    # Each vantage distance is ``Coordinate.distance``'s float, inline:
    # squares summed left to right, ``sqrt``, then the two heights in its
    # order.  Dimensions are checked up front (``zip`` would truncate).
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
        table = self._table
        if table is None:
            return []
        _check_dimensions(target, self._leaf_components)
        excluded = set(exclude)
        tombstones = self._tombstones
        # Max-heap of the best k via negated keys: worst survivor on top.
        heap: List[Tuple[float, int, str]] = []
        # Overlay first: its exact distances tighten the pruning
        # threshold before the tree walk starts.  At most |excluded| of
        # the overlay's best k + |excluded| rows are skipped, so the k
        # that could survive are all among them.
        if self._ov_ids:
            distances = _distances_from(target, self._ov_components, self._ov_heights)
            for row in _best_rows(distances, self._ov_seqs, k + len(excluded)).tolist():
                node_id = self._ov_ids[row]
                if node_id not in excluded and len(heap) < k:
                    heap.append((-float(distances[row]), -int(self._ov_seqs[row]), node_id))
            heapify(heap)
        threshold = -heap[0][0] if len(heap) == k else inf
        points, vantage_heights, seqs, ids, mus, radii, los, his, nears, fars = table
        leaf_ids, leaf_seqs = self._leaf_ids, self._leaf_seqs
        leaf_components, leaf_heights = self._leaf_components, self._leaf_heights
        point_t, height_t = target.components, target.height
        origin = np.asarray(point_t, dtype=np.float64)
        stack: List[Tuple[int, float]] = [(0, 0.0)]
        while stack:
            node, bound = stack.pop()
            if bound > threshold:
                continue
            point = points[node]
            if point is None:
                lo = los[node]
                hi = his[node]
                distances = _rtts(origin, height_t, leaf_components[lo:hi], leaf_heights[lo:hi])
                candidates = [
                    (distance, int(leaf_seqs[row]), leaf_ids[row])
                    for row, distance in enumerate(distances.tolist(), lo)
                    if distance <= threshold
                ]
            else:
                acc = 0.0
                for a, b in zip(point_t, point):
                    delta = a - b
                    acc += delta * delta
                d_v = (sqrt(acc) + height_t) + vantage_heights[node]
                candidates = [(d_v, seqs[node], ids[node])] if d_v <= threshold else ()
            for distance, seq, node_id in candidates:
                if node_id in excluded or node_id in tombstones:
                    continue
                entry = (-distance, -seq, node_id)
                if len(heap) < k:
                    heappush(heap, entry)
                elif entry > heap[0]:
                    heapreplace(heap, entry)
                else:
                    continue
                if len(heap) == k:
                    threshold = -heap[0][0]
            if point is None:
                continue
            mu = mus[node]
            near_bound = d_v - mu
            far_bound = mu - d_v if d_v <= mu else d_v - radii[node]
            # ``_loosen`` inline; unclamped, a negative bound prunes nothing.
            near_bound -= 1e-9 * (1.0 + near_bound)
            far_bound -= 1e-9 * (1.0 + far_bound)
            near, far = nears[node], fars[node]
            if d_v > mu:  # the far side is the more promising one
                near, far, near_bound, far_bound = far, near, far_bound, near_bound
            # Push the more promising side (``near`` from here) last so it
            # is explored first and tightens the threshold early.
            if far_bound <= threshold:
                stack.append((far, far_bound))
            if near_bound <= threshold:
                stack.append((near, near_bound))
        ranked = sorted(heap, reverse=True)
        return [(node_id, -distance) for distance, _, node_id in ranked]

    def within(self, target: Coordinate, radius_ms: float) -> List[Tuple[str, float]]:
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        self._ensure_built()
        table = self._table
        if table is None:
            return []
        _check_dimensions(target, self._leaf_components)
        tombstones = self._tombstones
        hits: List[Tuple[float, int, str]] = []
        if self._ov_ids:
            distances = _distances_from(target, self._ov_components, self._ov_heights)
            for row in np.flatnonzero(distances <= radius_ms).tolist():
                hits.append(
                    (float(distances[row]), int(self._ov_seqs[row]), self._ov_ids[row])
                )
        points, vantage_heights, seqs, ids, mus, radii, los, his, nears, fars = table
        point_t, height_t = target.components, target.height
        reached: List[np.ndarray] = []  # leaf rows, scored after the walk
        stack: List[int] = [0]
        while stack:
            node = stack.pop()
            point = points[node]
            if point is None:
                reached.append(np.arange(los[node], his[node]))
                continue
            acc = 0.0
            for a, b in zip(point_t, point):
                delta = a - b
                acc += delta * delta
            d_v = (sqrt(acc) + height_t) + vantage_heights[node]
            if d_v <= radius_ms and ids[node] not in tombstones:
                hits.append((d_v, seqs[node], ids[node]))
            mu = mus[node]
            near_bound = d_v - mu
            far_bound = mu - d_v if d_v <= mu else d_v - radii[node]
            # ``_loosen`` inline; unclamped, a negative bound prunes nothing.
            if near_bound - 1e-9 * (1.0 + near_bound) <= radius_ms:
                stack.append(nears[node])
            if far_bound - 1e-9 * (1.0 + far_bound) <= radius_ms:
                stack.append(fars[node])
        if reached:  # every reached leaf row scored in one call
            rows = np.concatenate(reached)
            distances = _rtts(
                np.asarray(point_t, dtype=np.float64), height_t,
                self._leaf_components[rows], self._leaf_heights[rows],
            )
            inside = distances <= radius_ms
            rows = rows[inside]
            leaf_ids = self._leaf_ids
            hits += [
                (distance, seq, leaf_ids[row])
                for row, distance, seq in zip(
                    rows.tolist(), distances[inside].tolist(), self._leaf_seqs[rows].tolist()
                )
                if leaf_ids[row] not in tombstones
            ]
        hits.sort()
        return [(node_id, distance) for distance, _, node_id in hits]

    def min_cost_host(self, endpoints: Sequence[Coordinate]) -> Tuple[str, float]:
        if not endpoints:
            raise ValueError("min_cost_host needs at least one endpoint")
        self._ensure_built()
        table = self._table
        if table is None:
            raise ValueError("cannot run min_cost_host on an empty index")
        origins = _origins(endpoints, self._leaf_components)
        tombstones = self._tombstones
        best_cost = inf
        best_seq = -1
        best_host: Optional[str] = None
        if self._ov_ids:
            ov_origins = _origins(endpoints, self._ov_components)
            costs = _total_costs(ov_origins, self._ov_components, self._ov_heights)
            cheapest = np.flatnonzero(costs == costs.min())
            row = int(cheapest[np.argmin(self._ov_seqs[cheapest])])
            best_cost, best_seq = float(costs[row]), int(self._ov_seqs[row])
            best_host = self._ov_ids[row]
        points, vantage_heights, seqs, ids, mus, radii, los, his, nears, fars = table
        leaf_ids, leaf_seqs = self._leaf_ids, self._leaf_seqs
        leaf_components, leaf_heights = self._leaf_components, self._leaf_heights
        ends = [(endpoint.components, endpoint.height) for endpoint in endpoints]
        stack: List[Tuple[int, float]] = [(0, 0.0)]
        while stack:
            node, bound = stack.pop()
            if bound > best_cost:
                continue
            point = points[node]
            if point is None:
                lo = los[node]
                hi = his[node]
                costs = _total_costs(origins, leaf_components[lo:hi], leaf_heights[lo:hi])
                for row, cost in enumerate(costs.tolist(), lo):
                    if cost <= best_cost and leaf_ids[row] not in tombstones:
                        seq = int(leaf_seqs[row])
                        if cost < best_cost or seq < best_seq:
                            best_cost, best_seq, best_host = cost, seq, leaf_ids[row]
                continue
            # ``Coordinate.distance`` from the vantage: its height first.
            vantage_height, mu, radius = vantage_heights[node], mus[node], radii[node]
            cost = near_bound = far_bound = 0.0
            for point_e, height_e in ends:
                acc = 0.0
                for a, b in zip(point, point_e):
                    delta = a - b
                    acc += delta * delta
                d = (sqrt(acc) + vantage_height) + height_e
                cost += d
                near_bound += max(0.0, d - mu)
                far_bound += max(0.0, mu - d, d - radius)
            if cost <= best_cost and ids[node] not in tombstones:
                seq = seqs[node]
                if cost < best_cost or seq < best_seq:
                    best_cost, best_seq, best_host = cost, seq, ids[node]
            near_bound = _loosen(near_bound)
            if near_bound <= best_cost:
                stack.append((nears[node], near_bound))
            far_bound = _loosen(far_bound)
            if far_bound <= best_cost:
                stack.append((fars[node], far_bound))
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

    :meth:`ingest_arrays` adopts snapshot arrays as they are, without a
    copy; ``update`` / ``remove`` hydrate objects first (see
    :class:`_SpatialIndex`).
    """

    def __init__(self) -> None:
        super().__init__()
        self._ids: List[str] = []
        self._components = np.empty((0, 0), dtype=np.float64)
        self._heights = np.empty(0, dtype=np.float64)
        self._row_seq = np.empty(0, dtype=np.int64)
        self._row_of: Optional[Dict[str, int]] = None
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

    def _build(
        self, node_ids: List[str], components: np.ndarray, heights: np.ndarray
    ) -> None:
        self._ids = node_ids
        self._components = components
        self._heights = heights
        self._row_seq = np.arange(len(node_ids), dtype=np.int64)
        self._row_of = None
        self._prune = None
        self._clear_overlay()

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
        if self._n_base == 0:
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
        origins = _origins(endpoints, self._components)
        cost = _total_costs(origins, self._components, self._heights)
        if self._ov_ids:
            overlay = _total_costs(origins, self._ov_components, self._ov_heights)
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
