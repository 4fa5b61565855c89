"""Unit and property tests for the coordinate algebra."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinate import Coordinate, centroid, sequential_sum

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
vectors_3d = st.lists(finite_floats, min_size=3, max_size=3)


class TestConstruction:
    def test_components_are_stored_as_floats(self):
        coord = Coordinate([1, 2, 3])
        assert coord.components == (1.0, 2.0, 3.0)

    def test_origin_has_zero_components(self):
        assert Coordinate.origin(3).components == (0.0, 0.0, 0.0)

    def test_origin_is_origin(self):
        assert Coordinate.origin(4).is_origin()

    def test_non_origin_detected(self):
        assert not Coordinate([0.0, 0.1]).is_origin()

    def test_dimension_property(self):
        assert Coordinate([1.0, 2.0]).dimensions == 2

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            Coordinate([])

    def test_zero_dimension_origin_rejected(self):
        with pytest.raises(ValueError):
            Coordinate.origin(0)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            Coordinate([1.0], height=-1.0)

    def test_nan_component_rejected(self):
        with pytest.raises(ValueError):
            Coordinate([float("nan"), 0.0])

    def test_infinite_component_rejected(self):
        with pytest.raises(ValueError):
            Coordinate([float("inf"), 0.0])

    def test_coordinates_are_immutable(self):
        coord = Coordinate([1.0, 2.0])
        with pytest.raises(Exception):
            coord.height = 5.0  # type: ignore[misc]


class TestAlgebra:
    def test_addition(self):
        assert (Coordinate([1.0, 2.0]) + Coordinate([3.0, 4.0])).components == (4.0, 6.0)

    def test_subtraction(self):
        assert (Coordinate([5.0, 7.0]) - Coordinate([2.0, 3.0])).components == (3.0, 4.0)

    def test_scale(self):
        assert Coordinate([1.0, -2.0]).scale(3.0).components == (3.0, -6.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Coordinate([1.0]) + Coordinate([1.0, 2.0])

    def test_displaced_moves_along_direction(self):
        origin = Coordinate.origin(2)
        moved = origin.displaced(Coordinate([1.0, 0.0]), 5.0)
        assert moved.components == (5.0, 0.0)

    def test_with_height_replaces_height(self):
        coord = Coordinate([1.0, 1.0], height=2.0)
        assert coord.with_height(7.0).height == 7.0
        assert coord.with_height(7.0).components == coord.components

    def test_height_subtraction_clamps_at_zero(self):
        a = Coordinate([0.0], height=1.0)
        b = Coordinate([0.0], height=5.0)
        assert (a - b).height == 0.0

    def test_iteration_and_indexing(self):
        coord = Coordinate([1.0, 2.0, 3.0])
        assert list(coord) == [1.0, 2.0, 3.0]
        assert coord[1] == 2.0
        assert len(coord) == 3


class TestMetric:
    def test_euclidean_distance_matches_hand_computation(self):
        assert Coordinate([0.0, 0.0]).euclidean_distance(Coordinate([3.0, 4.0])) == 5.0

    def test_distance_includes_heights(self):
        a = Coordinate([0.0, 0.0], height=2.0)
        b = Coordinate([3.0, 4.0], height=1.0)
        assert a.distance(b) == pytest.approx(8.0)

    def test_distance_to_self_is_height_only(self):
        a = Coordinate([1.0, 1.0], height=3.0)
        assert a.distance(a) == pytest.approx(6.0)

    def test_unit_vector_has_unit_norm(self):
        u = Coordinate([3.0, 4.0]).unit_vector_toward(Coordinate([0.0, 0.0]))
        assert u.magnitude() == pytest.approx(1.0)

    def test_unit_vector_points_from_other_to_self(self):
        u = Coordinate([2.0, 0.0]).unit_vector_toward(Coordinate([0.0, 0.0]))
        assert u.components == pytest.approx((1.0, 0.0))

    def test_unit_vector_for_identical_points_uses_fallback(self):
        u = Coordinate([1.0, 1.0]).unit_vector_toward(Coordinate([1.0, 1.0]))
        assert u.magnitude() == pytest.approx(1.0)

    def test_unit_vector_for_identical_points_uses_supplied_direction(self):
        u = Coordinate([1.0, 1.0]).unit_vector_toward(
            Coordinate([1.0, 1.0]), rng_direction=[0.0, 2.0]
        )
        assert u.components == pytest.approx((0.0, 1.0))

    def test_unit_vector_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            Coordinate([1.0]).unit_vector_toward(Coordinate([1.0]), rng_direction=[0.0])

    def test_unit_vector_rejects_mismatched_direction(self):
        with pytest.raises(ValueError):
            Coordinate([1.0, 1.0]).unit_vector_toward(
                Coordinate([1.0, 1.0]), rng_direction=[1.0]
            )


class TestCentroid:
    def test_centroid_of_single_point_is_the_point(self):
        point = Coordinate([1.0, 2.0, 3.0])
        assert centroid([point]).components == point.components

    def test_centroid_is_arithmetic_mean(self):
        points = [Coordinate([0.0, 0.0]), Coordinate([2.0, 4.0])]
        assert centroid(points).components == (1.0, 2.0)

    def test_centroid_averages_heights(self):
        points = [Coordinate([0.0], height=2.0), Coordinate([0.0], height=4.0)]
        assert centroid(points).height == pytest.approx(3.0)

    def test_centroid_of_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_centroid_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            centroid([Coordinate([1.0]), Coordinate([1.0, 2.0])])


class TestMetricProperties:
    """Hypothesis property tests: the space must actually be a metric."""

    @given(vectors_3d, vectors_3d)
    @settings(max_examples=60, deadline=None)
    def test_distance_symmetry(self, a, b):
        ca, cb = Coordinate(a), Coordinate(b)
        assert ca.euclidean_distance(cb) == pytest.approx(cb.euclidean_distance(ca))

    @given(vectors_3d, vectors_3d, vectors_3d)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ca, cb, cc = Coordinate(a), Coordinate(b), Coordinate(c)
        assert ca.euclidean_distance(cc) <= (
            ca.euclidean_distance(cb) + cb.euclidean_distance(cc) + 1e-6
        )

    @given(vectors_3d)
    @settings(max_examples=60, deadline=None)
    def test_distance_to_self_is_zero(self, a):
        coord = Coordinate(a)
        assert coord.euclidean_distance(coord) == 0.0

    @given(vectors_3d, vectors_3d)
    @settings(max_examples=60, deadline=None)
    def test_distance_non_negative(self, a, b):
        assert Coordinate(a).euclidean_distance(Coordinate(b)) >= 0.0

    @given(vectors_3d, vectors_3d)
    @settings(max_examples=60, deadline=None)
    def test_addition_then_subtraction_roundtrips(self, a, b):
        ca, cb = Coordinate(a), Coordinate(b)
        roundtrip = (ca + cb) - cb
        for got, expected in zip(roundtrip.components, ca.components):
            assert got == pytest.approx(expected, abs=1e-6)

    @given(st.lists(vectors_3d, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_centroid_lies_within_bounding_box(self, vectors):
        points = [Coordinate(v) for v in vectors]
        mid = centroid(points)
        for dim in range(3):
            values = [p[dim] for p in points]
            assert min(values) - 1e-9 <= mid[dim] <= max(values) + 1e-9


class TestSequentialAccumulation:
    """The scalar oracle adds left to right on every interpreter.

    Builtin ``sum()`` is Neumaier-compensated on CPython >= 3.12, which
    moves the last bit of about one 3-d distance in ten; the array
    kernels checked byte-for-byte against this class accumulate column
    by column, uncompensated.
    """

    def test_sequential_sum_is_uncompensated(self):
        # A compensated sum recovers the 1.0 the first addition absorbs.
        assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
        assert sequential_sum([]) == 0.0
        assert sequential_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3

    def test_euclidean_distance_is_the_left_to_right_formula(self):
        rng = random.Random(20261004)
        for _ in range(20000):
            a = [rng.gauss(0.0, 50.0) for _ in range(3)]
            b = [rng.gauss(0.0, 50.0) for _ in range(3)]
            acc = (a[0] - b[0]) * (a[0] - b[0])
            acc = acc + (a[1] - b[1]) * (a[1] - b[1])
            acc = acc + (a[2] - b[2]) * (a[2] - b[2])
            ca, cb = Coordinate(a), Coordinate(b)
            assert ca.euclidean_distance(cb) == math.sqrt(acc)
            norm = math.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])
            assert ca.magnitude() == norm
            if acc > 0.0:
                unit = ca.unit_vector_toward(cb)
                assert unit.components[0] == (a[0] - b[0]) / math.sqrt(acc)
