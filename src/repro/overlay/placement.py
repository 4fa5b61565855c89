"""Coordinate-driven operator placement for a stream-processing overlay.

This is the application that motivated the paper: operators of a streaming
query should run on hosts that minimise network latency between producers
and consumers.  Placement decisions are driven entirely by network
coordinates; when a node's coordinate changes, the placement is
re-evaluated and the operator may migrate -- a "heavyweight" action whose
frequency is exactly the cost of coordinate instability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.coordinate import Coordinate, centroid, sequential_sum
from repro.overlay.knn import CoordinateIndex

__all__ = ["PlacementDecision", "OperatorPlacement"]


@dataclass(frozen=True, slots=True)
class PlacementDecision:
    """Outcome of one placement evaluation."""

    operator_id: str
    chosen_host: str
    predicted_cost_ms: float
    previous_host: Optional[str]
    migrated: bool


class OperatorPlacement:
    """Places stream operators onto hosts using network coordinates.

    Parameters
    ----------
    index:
        The coordinate index of candidate hosts (typically fed with
        application-level coordinates).  Any :class:`CoordinateIndex`
        implementation works; the spatial indexes in
        :mod:`repro.service.index` answer the placement query sub-linearly
        with results identical to the linear scan.
    migration_hysteresis_ms:
        A new host must beat the current placement's predicted cost by at
        least this margin before a migration is triggered.  ``0`` migrates
        on any improvement, maximising sensitivity to coordinate noise.
    """

    def __init__(self, index: CoordinateIndex, *, migration_hysteresis_ms: float = 0.0) -> None:
        if migration_hysteresis_ms < 0.0:
            raise ValueError("migration_hysteresis_ms must be non-negative")
        self.index = index
        self.migration_hysteresis_ms = migration_hysteresis_ms
        self._placements: Dict[str, str] = {}
        self._endpoints: Dict[str, List[str]] = {}
        self._migrations = 0
        self._evaluations = 0

    # ------------------------------------------------------------------
    # Operator management
    # ------------------------------------------------------------------
    @property
    def migrations(self) -> int:
        """Total migrations performed across all operators."""
        return self._migrations

    @property
    def evaluations(self) -> int:
        """Total placement evaluations performed."""
        return self._evaluations

    def current_host(self, operator_id: str) -> Optional[str]:
        return self._placements.get(operator_id)

    def register_operator(self, operator_id: str, endpoint_hosts: Sequence[str]) -> None:
        """Declare an operator and the producer/consumer hosts it connects."""
        if not endpoint_hosts:
            raise ValueError("an operator needs at least one endpoint host")
        self._endpoints[operator_id] = list(endpoint_hosts)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _placement_cost(self, host_coordinate: Coordinate, endpoints: Sequence[Coordinate]) -> float:
        """Total predicted RTT between the host and every endpoint."""
        return sequential_sum(
            [host_coordinate.distance(endpoint) for endpoint in endpoints]
        )

    def evaluate(self, operator_id: str) -> PlacementDecision:
        """Re-evaluate one operator's placement against current coordinates."""
        if operator_id not in self._endpoints:
            raise KeyError(f"operator {operator_id!r} is not registered")
        self._evaluations += 1
        endpoint_ids = self._endpoints[operator_id]
        endpoint_coordinates = [
            coordinate
            for endpoint in endpoint_ids
            if (coordinate := self.index.coordinate_of(endpoint)) is not None
        ]
        if not endpoint_coordinates:
            raise ValueError(
                f"none of the endpoints of {operator_id!r} have known coordinates"
            )

        # Delegated to the index so spatial implementations can answer the
        # 1-median query sub-linearly; the linear base class reproduces the
        # historical first-strict-minimum scan exactly.
        best_host, best_cost = self.index.min_cost_host(endpoint_coordinates)

        previous = self._placements.get(operator_id)
        migrated = False
        if previous is None:
            self._placements[operator_id] = best_host
        elif best_host != previous:
            previous_coordinate = self.index.coordinate_of(previous)
            previous_cost = (
                self._placement_cost(previous_coordinate, endpoint_coordinates)
                if previous_coordinate is not None
                else float("inf")
            )
            if previous_cost - best_cost > self.migration_hysteresis_ms:
                self._placements[operator_id] = best_host
                self._migrations += 1
                migrated = True
            else:
                best_host = previous
                best_cost = previous_cost
        return PlacementDecision(
            operator_id=operator_id,
            chosen_host=self._placements[operator_id],
            predicted_cost_ms=best_cost,
            previous_host=previous,
            migrated=migrated,
        )

    def evaluate_all(self) -> List[PlacementDecision]:
        """Re-evaluate every registered operator (e.g. after coordinate updates)."""
        return [self.evaluate(operator_id) for operator_id in self._endpoints]

    def ideal_meeting_point(self, operator_id: str) -> Coordinate:
        """The centroid of the operator's endpoints (the latency-optimal point)."""
        endpoints = [
            coordinate
            for endpoint in self._endpoints[operator_id]
            if (coordinate := self.index.coordinate_of(endpoint)) is not None
        ]
        if not endpoints:
            raise ValueError(f"no endpoint coordinates known for {operator_id!r}")
        return centroid(endpoints)
