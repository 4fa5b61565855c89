"""Coordinate-based nearest-neighbor queries.

Once nodes have coordinates, "who is closest to X" becomes a geometric
query instead of a measurement campaign.  :class:`CoordinateIndex` is a
small in-memory index over the application-level coordinates of a set of
nodes supporting k-nearest-neighbor, range and minimum-cost-host queries.
A linear scan is used: the systems in the paper have hundreds of nodes,
where a scan is both faster and simpler than a spatial tree.

At query-service scale the scan is the bottleneck, so this class doubles
as the *pluggable query contract*: the sub-linear spatial implementations
in :mod:`repro.service.index` subclass it, inherit the maintenance API,
and override the query methods.  The linear scan stays the correctness
oracle -- any implementation must return exactly what this class returns,
including ordering (ties are broken by insertion order, matching the
stable sort over the insertion-ordered backing dict).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.coordinate import Coordinate, sequential_sum

__all__ = ["CoordinateIndex"]


class CoordinateIndex:
    """An updatable index of node coordinates supporting proximity queries."""

    def __init__(self) -> None:
        self._coordinates: Dict[str, Coordinate] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update(self, node_id: str, coordinate: Coordinate) -> None:
        """Insert or refresh a node's coordinate."""
        self._coordinates[node_id] = coordinate

    def update_many(self, coordinates: Dict[str, Coordinate]) -> None:
        for node_id, coordinate in coordinates.items():
            self.update(node_id, coordinate)

    def remove(self, node_id: str) -> None:
        self._coordinates.pop(node_id, None)

    def __len__(self) -> int:
        return len(self._coordinates)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._coordinates

    def coordinate_of(self, node_id: str) -> Optional[Coordinate]:
        return self._coordinates.get(node_id)

    def node_ids(self) -> List[str]:
        return list(self._coordinates)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nearest(
        self,
        target: Coordinate,
        k: int = 1,
        *,
        exclude: Iterable[str] = (),
    ) -> List[Tuple[str, float]]:
        """The ``k`` nodes closest to ``target``: (node_id, predicted RTT)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        excluded = set(exclude)
        candidates = [
            (node_id, target.distance(coordinate))
            for node_id, coordinate in self._coordinates.items()
            if node_id not in excluded
        ]
        candidates.sort(key=lambda pair: pair[1])
        return candidates[:k]

    def nearest_to_node(self, node_id: str, k: int = 1) -> List[Tuple[str, float]]:
        """The ``k`` nodes closest to an indexed node (excluding itself)."""
        coordinate = self.coordinate_of(node_id)
        if coordinate is None:
            raise KeyError(f"{node_id!r} is not in the index")
        return self.nearest(coordinate, k, exclude=[node_id])

    def within(self, target: Coordinate, radius_ms: float) -> List[Tuple[str, float]]:
        """All nodes with predicted RTT to ``target`` at most ``radius_ms``."""
        if radius_ms < 0.0:
            raise ValueError("radius_ms must be non-negative")
        hits = [
            (node_id, distance)
            for node_id, coordinate in self._coordinates.items()
            if (distance := target.distance(coordinate)) <= radius_ms
        ]
        hits.sort(key=lambda pair: pair[1])
        return hits

    def min_cost_host(self, endpoints: Sequence[Coordinate]) -> Tuple[str, float]:
        """The indexed node minimising total predicted RTT to ``endpoints``.

        This is the 1-median query behind operator placement: the returned
        host minimises ``sum(host.distance(e) for e in endpoints)``.  Ties
        are broken toward the earliest-inserted host (the first strict
        minimum encountered in insertion order), which spatial subclasses
        must reproduce exactly.
        """
        if not endpoints:
            raise ValueError("min_cost_host needs at least one endpoint")
        best_host: Optional[str] = None
        best_cost = float("inf")
        for node_id, coordinate in self._coordinates.items():
            cost = sequential_sum(
                [coordinate.distance(endpoint) for endpoint in endpoints]
            )
            if cost < best_cost:
                best_cost = cost
                best_host = node_id
        if best_host is None:
            raise ValueError("cannot run min_cost_host on an empty index")
        return best_host, best_cost
