"""Tests for the overlay application substrate (knn, placement, triggers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordinate import Coordinate
from repro.overlay.knn import CoordinateIndex
from repro.overlay.placement import OperatorPlacement
from repro.overlay.triggers import MigrationCost, UpdateTriggerAccountant
from repro.service.index import VPTreeIndex, build_index


def _point(x: float, y: float = 0.0) -> Coordinate:
    return Coordinate([x, y, 0.0])


@pytest.fixture()
def index() -> CoordinateIndex:
    idx = CoordinateIndex()
    idx.update("a", _point(0.0))
    idx.update("b", _point(10.0))
    idx.update("c", _point(100.0))
    idx.update("d", _point(50.0, 50.0))
    return idx


class TestCoordinateIndex:
    def test_membership_and_len(self, index):
        assert len(index) == 4
        assert "a" in index
        assert "zzz" not in index

    def test_update_overwrites(self, index):
        index.update("a", _point(500.0))
        assert index.coordinate_of("a").components[0] == 500.0

    def test_remove(self, index):
        index.remove("a")
        assert "a" not in index
        index.remove("not-there")  # must not raise

    def test_nearest_returns_sorted_matches(self, index):
        results = index.nearest(_point(1.0), k=2)
        assert [node for node, _ in results] == ["a", "b"]
        assert results[0][1] <= results[1][1]

    def test_nearest_respects_exclusions(self, index):
        results = index.nearest(_point(0.0), k=1, exclude=["a"])
        assert results[0][0] == "b"

    def test_nearest_to_node_excludes_itself(self, index):
        assert index.nearest_to_node("a", k=1)[0][0] == "b"

    def test_nearest_to_unknown_node_raises(self, index):
        with pytest.raises(KeyError):
            index.nearest_to_node("zzz")

    def test_k_validation(self, index):
        with pytest.raises(ValueError):
            index.nearest(_point(0.0), k=0)

    def test_within_radius(self, index):
        hits = index.within(_point(0.0), radius_ms=15.0)
        assert [node for node, _ in hits] == ["a", "b"]

    def test_within_negative_radius_rejected(self, index):
        with pytest.raises(ValueError):
            index.within(_point(0.0), radius_ms=-1.0)

    def test_update_many(self):
        idx = CoordinateIndex()
        idx.update_many({"x": _point(1.0), "y": _point(2.0)})
        assert len(idx) == 2

    def test_min_cost_host_matches_manual_scan(self, index):
        endpoints = [_point(0.0), _point(100.0)]
        host, cost = index.min_cost_host(endpoints)
        expected = {
            node_id: sum(index.coordinate_of(node_id).distance(e) for e in endpoints)
            for node_id in index.node_ids()
        }
        assert cost == min(expected.values())
        assert expected[host] == cost

    def test_min_cost_host_validation(self, index):
        with pytest.raises(ValueError):
            index.min_cost_host([])
        with pytest.raises(ValueError):
            CoordinateIndex().min_cost_host([_point(0.0)])


def _triangle_index() -> CoordinateIndex:
    """Three endpoints forming a triangle plus a central 'hub' host.

    With three (or more) endpoints a central host strictly beats placing the
    operator on any endpoint (with only two endpoints every point on the
    segment between them is equally good, so no unique optimum exists).
    """
    idx = CoordinateIndex()
    idx.update("p1", _point(0.0, 0.0))
    idx.update("p2", _point(100.0, 0.0))
    idx.update("p3", _point(50.0, 87.0))
    idx.update("hub", _point(50.0, 29.0))
    return idx


class TestOperatorPlacement:
    def test_places_operator_at_latency_optimal_host(self):
        index = _triangle_index()
        placement = OperatorPlacement(index)
        placement.register_operator("op", ["p1", "p2", "p3"])
        decision = placement.evaluate("op")
        assert decision.chosen_host == "hub"
        assert decision.previous_host is None
        assert not decision.migrated

    def test_unregistered_operator_rejected(self, index):
        with pytest.raises(KeyError):
            OperatorPlacement(index).evaluate("ghost")

    def test_empty_endpoints_rejected(self, index):
        with pytest.raises(ValueError):
            OperatorPlacement(index).register_operator("op", [])

    def test_migration_when_coordinates_shift(self):
        index = _triangle_index()
        # The hub starts far away, so the operator lands on an endpoint.
        index.update("hub", _point(5000.0, 5000.0))
        placement = OperatorPlacement(index)
        placement.register_operator("op", ["p1", "p2", "p3"])
        first = placement.evaluate("op")
        assert first.chosen_host in {"p1", "p2", "p3"}
        # The hub's coordinate moves to the centre: migration is triggered.
        index.update("hub", _point(50.0, 29.0))
        decision = placement.evaluate("op")
        assert decision.chosen_host == "hub"
        assert decision.migrated
        assert placement.migrations == 1

    def test_hysteresis_suppresses_marginal_migrations(self):
        index = _triangle_index()
        index.update("hub", _point(5000.0, 5000.0))
        placement = OperatorPlacement(index, migration_hysteresis_ms=10_000.0)
        placement.register_operator("op", ["p1", "p2", "p3"])
        first = placement.evaluate("op")
        index.update("hub", _point(50.0, 29.0))
        decision = placement.evaluate("op")
        assert not decision.migrated
        assert decision.chosen_host == first.chosen_host

    def test_evaluate_all_covers_every_operator(self, index):
        placement = OperatorPlacement(index)
        placement.register_operator("op1", ["a", "b"])
        placement.register_operator("op2", ["c", "d"])
        decisions = placement.evaluate_all()
        assert {d.operator_id for d in decisions} == {"op1", "op2"}

    def test_ideal_meeting_point_is_endpoint_centroid(self, index):
        placement = OperatorPlacement(index)
        placement.register_operator("op", ["a", "c"])
        meeting = placement.ideal_meeting_point("op")
        assert meeting.components[0] == pytest.approx(50.0)

    def test_negative_hysteresis_rejected(self, index):
        with pytest.raises(ValueError):
            OperatorPlacement(index, migration_hysteresis_ms=-1.0)


class TestUpdateTriggerAccountant:
    def test_first_update_costs_one_evaluation(self):
        accountant = UpdateTriggerAccountant()
        cost = accountant.record_update(0.0, "a", _point(0.0))
        assert cost == accountant.cost_model.evaluation_cost
        assert accountant.migration_count() == 0

    def test_large_move_triggers_migration_cost(self):
        accountant = UpdateTriggerAccountant(MigrationCost(migration_threshold_ms=5.0))
        accountant.record_update(0.0, "a", _point(0.0))
        cost = accountant.record_update(1.0, "a", _point(100.0))
        assert cost == pytest.approx(
            accountant.cost_model.evaluation_cost + accountant.cost_model.migration_cost
        )
        assert accountant.migration_count("a") == 1

    def test_small_move_does_not_migrate(self):
        accountant = UpdateTriggerAccountant(MigrationCost(migration_threshold_ms=50.0))
        accountant.record_update(0.0, "a", _point(0.0))
        accountant.record_update(1.0, "a", _point(10.0))
        assert accountant.migration_count() == 0

    def test_totals_and_per_node_costs(self):
        accountant = UpdateTriggerAccountant()
        accountant.record_update(0.0, "a", _point(0.0))
        accountant.record_update(1.0, "b", _point(0.0))
        accountant.record_update(2.0, "a", _point(200.0))
        assert accountant.update_count() == 3
        assert accountant.update_count("a") == 2
        per_node = accountant.cost_per_node()
        assert per_node["a"] > per_node["b"]
        assert accountant.total_cost == pytest.approx(sum(per_node.values()))

    def test_cost_rate(self):
        accountant = UpdateTriggerAccountant()
        accountant.record_update(0.0, "a", _point(0.0))
        assert accountant.cost_rate(10.0) == pytest.approx(accountant.total_cost / 10.0)
        with pytest.raises(ValueError):
            accountant.cost_rate(0.0)

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            MigrationCost(evaluation_cost=-1.0)
        with pytest.raises(ValueError):
            MigrationCost(migration_threshold_ms=-1.0)

    def test_events_are_recorded_in_order(self):
        accountant = UpdateTriggerAccountant()
        accountant.record_update(0.0, "a", _point(0.0))
        accountant.record_update(5.0, "a", _point(1.0))
        events = accountant.events()
        assert [t for t, _, _ in events] == [0.0, 5.0]

    def test_pluggable_index_tracks_last_coordinates(self):
        accountant = UpdateTriggerAccountant(index=VPTreeIndex())
        accountant.record_update(0.0, "a", _point(0.0))
        accountant.record_update(1.0, "b", _point(100.0))
        accountant.record_update(2.0, "a", _point(10.0))
        assert accountant.index.coordinate_of("a") == _point(10.0)
        assert accountant.nodes_near(_point(12.0), k=1)[0][0] == "a"
        # Costs are unaffected by the index choice.
        reference = UpdateTriggerAccountant()
        for time_s, node_id, point in ((0.0, "a", 0.0), (1.0, "b", 100.0), (2.0, "a", 10.0)):
            reference.record_update(time_s, node_id, _point(point))
        assert accountant.total_cost == reference.total_cost


class TestPlacementWithSpatialIndexes:
    """The pluggable spatial indexes must not change placement behaviour."""

    @pytest.mark.parametrize("kind", ["vptree", "dense"])
    def test_decisions_identical_to_linear_oracle(self, kind):
        rng = np.random.default_rng(17)
        coordinates = {
            f"h{i:03d}": Coordinate(rng.normal(scale=40.0, size=3).tolist())
            for i in range(80)
        }
        operators = {
            f"op{j}": [f"h{int(i):03d}" for i in rng.choice(80, size=3, replace=False)]
            for j in range(12)
        }

        def run(index):
            index.update_many(coordinates)
            placement = OperatorPlacement(index, migration_hysteresis_ms=5.0)
            decisions = []
            for operator_id, endpoints in operators.items():
                placement.register_operator(operator_id, endpoints)
            decisions.extend(placement.evaluate_all())
            # Shift some coordinates and re-evaluate: migration decisions
            # must match too, not just initial placements.
            for i in range(0, 80, 7):
                index.update(
                    f"h{i:03d}", Coordinate(rng.normal(scale=40.0, size=3).tolist())
                )
            decisions.extend(placement.evaluate_all())
            return decisions, placement.migrations

        linear_decisions, linear_migrations = run(CoordinateIndex())
        rng = np.random.default_rng(17)  # regenerate identical universe
        coordinates = {
            f"h{i:03d}": Coordinate(rng.normal(scale=40.0, size=3).tolist())
            for i in range(80)
        }
        operators = {
            f"op{j}": [f"h{int(i):03d}" for i in rng.choice(80, size=3, replace=False)]
            for j in range(12)
        }
        spatial_decisions, spatial_migrations = run(build_index(kind))
        assert spatial_decisions == linear_decisions
        assert spatial_migrations == linear_migrations
