"""Tests for the coordinate query service (snapshot store, indexes, serving)."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.coordinate import Coordinate
from repro.overlay.knn import CoordinateIndex
from repro.server.sharding import ShardedCoordinateStore
from repro.service.index import (
    _LEAF_SIZE,
    INDEX_KINDS,
    DenseIndex,
    VPTreeIndex,
    build_index,
)
from repro.service.planner import LRUTTLCache, Query, QueryError
from repro.service.publish import EpochDelta
from repro.service.snapshot import ArraySnapshot, CoordinateSnapshot, SnapshotStore
from repro.service.workload import (
    QUERY_MIXES,
    generate_queries,
    payload_checksum,
    run_workload,
)


def _random_coordinates(rng, n, *, with_heights=False):
    coordinates = {}
    for i in range(n):
        height = float(abs(rng.normal(scale=3.0))) if with_heights and i % 5 == 0 else 0.0
        coordinates[f"n{i:05d}"] = Coordinate(
            rng.normal(scale=60.0, size=3).tolist(), height=height
        )
    return coordinates


# ----------------------------------------------------------------------
# Spatial indexes vs the linear oracle
# ----------------------------------------------------------------------
class TestIndexesMatchOracle:
    """Randomized equivalence: spatial results must be identical to linear.

    The acceptance bar is 1000 randomized k-nearest trials per spatial
    index kind, spread over several universes (with and without height
    terms) plus range and placement queries.
    """

    UNIVERSES = ((100, False), (250, True), (400, False))
    TRIALS_PER_UNIVERSE = 334  # x3 universes > 1k trials per kind

    @pytest.mark.parametrize("kind", ["vptree", "dense"])
    def test_knn_identical_over_1k_random_trials(self, kind):
        rng = np.random.default_rng(42)
        for nodes, with_heights in self.UNIVERSES:
            coordinates = _random_coordinates(rng, nodes, with_heights=with_heights)
            oracle = CoordinateIndex()
            oracle.update_many(coordinates)
            index = build_index(kind)
            index.update_many(coordinates)
            for _ in range(self.TRIALS_PER_UNIVERSE):
                target = Coordinate(rng.normal(scale=70.0, size=3).tolist())
                k = int(rng.integers(1, 10))
                assert index.nearest(target, k) == oracle.nearest(target, k)

    @pytest.mark.parametrize("kind", ["vptree", "dense"])
    def test_within_identical(self, kind):
        rng = np.random.default_rng(43)
        coordinates = _random_coordinates(rng, 300, with_heights=True)
        oracle = CoordinateIndex()
        oracle.update_many(coordinates)
        index = build_index(kind)
        index.update_many(coordinates)
        for _ in range(200):
            target = Coordinate(rng.normal(scale=70.0, size=3).tolist())
            radius = float(rng.uniform(0.0, 120.0))
            assert index.within(target, radius) == oracle.within(target, radius)

    def test_min_cost_host_identical(self):
        rng = np.random.default_rng(44)
        coordinates = _random_coordinates(rng, 300, with_heights=True)
        names = sorted(coordinates)
        oracle = CoordinateIndex()
        oracle.update_many(coordinates)
        index = VPTreeIndex()
        index.update_many(coordinates)
        for _ in range(200):
            picked = rng.choice(len(names), size=int(rng.integers(1, 6)), replace=False)
            endpoints = [coordinates[names[int(i)]] for i in picked]
            assert index.min_cost_host(endpoints) == oracle.min_cost_host(endpoints)

    @pytest.mark.parametrize("kind", ["vptree", "dense"])
    def test_lattice_ties_identical_to_oracle(self, kind):
        # Regression: integer-lattice coordinates create many exact
        # distance ties, and pruning bounds computed from rounded floats
        # can land one ulp above a tied node's true distance.  Without
        # float-safe (loosened) bounds the vp-tree pruned nodes sitting
        # exactly at the k-th-best distance or the range radius.
        rng = np.random.default_rng(42)
        coordinates = {
            f"n{i:03d}": Coordinate(
                [float(int(v)) for v in rng.integers(-8, 9, size=2)]
            )
            for i in range(120)
        }
        oracle = CoordinateIndex()
        oracle.update_many(coordinates)
        index = build_index(kind)
        index.update_many(coordinates)
        for _ in range(400):
            target = Coordinate([float(int(v)) for v in rng.integers(-10, 11, size=2)])
            k = int(rng.integers(1, 12))
            assert index.nearest(target, k) == oracle.nearest(target, k)
            radius = float(int(rng.integers(0, 8)))
            assert index.within(target, radius) == oracle.within(target, radius)
        if kind == "vptree":
            names = sorted(coordinates)
            for _ in range(100):
                picked = rng.choice(len(names), size=3, replace=False)
                endpoints = [coordinates[names[int(i)]] for i in picked]
                assert index.min_cost_host(endpoints) == oracle.min_cost_host(endpoints)

    @pytest.mark.parametrize("kind", ["vptree", "dense"])
    def test_duplicate_coordinates_tie_break_matches_oracle(self, kind):
        # Exact ties must resolve by insertion order, like the oracle's
        # stable sort over its insertion-ordered dict.
        point = Coordinate([5.0, 5.0, 5.0])
        coordinates = {f"dup{i}": point for i in range(40)}
        coordinates["far"] = Coordinate([500.0, 0.0, 0.0])
        oracle = CoordinateIndex()
        oracle.update_many(coordinates)
        index = build_index(kind)
        index.update_many(coordinates)
        target = Coordinate([4.0, 5.0, 5.0])
        for k in (1, 3, 17, 41):
            assert index.nearest(target, k) == oracle.nearest(target, k)
        assert index.within(target, 10.0) == oracle.within(target, 10.0)

    @pytest.mark.parametrize("kind", ["vptree", "dense"])
    def test_exclusions_and_updates(self, kind):
        rng = np.random.default_rng(45)
        coordinates = _random_coordinates(rng, 120)
        oracle = CoordinateIndex()
        oracle.update_many(coordinates)
        index = build_index(kind)
        index.update_many(coordinates)
        target = coordinates["n00003"]
        exclude = ["n00003", "n00010", "n00042"]
        assert index.nearest(target, 5, exclude=exclude) == oracle.nearest(
            target, 5, exclude=exclude
        )
        # Mutations invalidate and rebuild lazily.
        moved = Coordinate([1000.0, 0.0, 0.0])
        for store in (oracle, index):
            store.update("n00007", moved)
            store.remove("n00001")
        assert index.nearest(moved, 4) == oracle.nearest(moved, 4)
        assert len(index) == len(oracle) == 119

    def test_empty_index_queries(self):
        for kind in ("vptree", "dense"):
            index = build_index(kind)
            assert index.nearest(Coordinate([0.0, 0.0, 0.0]), 3) == []
            assert index.within(Coordinate([0.0, 0.0, 0.0]), 10.0) == []

    def test_dense_min_cost_host_identical(self):
        rng = np.random.default_rng(46)
        coordinates = _random_coordinates(rng, 300, with_heights=True)
        names = sorted(coordinates)
        oracle = CoordinateIndex()
        oracle.update_many(coordinates)
        index = build_index("dense")
        index.update_many(coordinates)
        for _ in range(200):
            picked = rng.choice(len(names), size=int(rng.integers(1, 6)), replace=False)
            endpoints = [coordinates[names[int(i)]] for i in picked]
            assert index.min_cost_host(endpoints) == oracle.min_cost_host(endpoints)

    def test_build_index_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown index kind"):
            build_index("btree")

    @pytest.mark.parametrize("kind", ["vptree", "dense"])
    def test_rejects_mixed_dimensionality(self, kind):
        # The check lives in the shared _SpatialIndex._entry_arrays.
        index = build_index(kind)
        index.update("a", Coordinate([1.0, 2.0, 3.0]))
        index.update("b", Coordinate([1.0, 2.0]))
        with pytest.raises(ValueError, match="uniform dimensionality"):
            index.nearest(Coordinate([0.0, 0.0, 0.0]), 1)


# ----------------------------------------------------------------------
# vp-tree leaves as slices of flat arrays
# ----------------------------------------------------------------------
def _inner_nodes(index):
    """The vp-tree's inner nodes in build (stack) order, and its leaves."""
    inner, leaves, stack = [], [], [index._root]
    while stack:
        node = stack.pop()
        if node.coordinate is None:
            leaves.append(node)
        else:
            inner.append(node)
            stack.extend(node.children)
    return inner, leaves


def _reference_splits(entries):
    """``(vantage id, mu, radius)`` per split, built one scalar distance at a time."""
    splits, stack = [], [entries]
    while stack:
        group = stack.pop()
        if len(group) <= _LEAF_SIZE:
            continue
        _, node_id, vantage = group[0]
        rest = group[1:]
        distances = [vantage.distance(coordinate) for _, _, coordinate in rest]
        ranked = sorted(distances)
        mu = ranked[(len(ranked) - 1) // 2]
        far = [entry for entry, d in zip(rest, distances) if d > mu]
        if not far:
            continue
        splits.append((node_id, mu, ranked[-1]))
        stack.append([entry for entry, d in zip(rest, distances) if d <= mu])
        stack.append(far)
    return splits


class TestVPTreeFlatLeaves:
    def _universes(self):
        rng = np.random.default_rng(5)
        yield _random_coordinates(rng, 300, with_heights=True)
        # A 2-d integer lattice: ties and duplicate points everywhere.
        yield {
            f"l{i:03d}": Coordinate(rng.integers(-4, 5, size=2).astype(float).tolist())
            for i in range(200)
        }
        # 1-d with heavy duplication: exercises the no-split-progress leaf.
        yield {
            f"d{i:03d}": Coordinate([float(i % 3)], height=float(i % 2))
            for i in range(90)
        }

    def _built(self, coordinates):
        index = VPTreeIndex()
        index.update_many(coordinates)
        index._ensure_built()
        return index

    def test_leaf_slices_tile_the_leaf_arrays_and_cover_every_row(self):
        for coordinates in self._universes():
            index = self._built(coordinates)
            inner, leaves = _inner_nodes(index)
            spans = sorted((leaf.lo, leaf.hi) for leaf in leaves)
            assert spans[0][0] == 0 and spans[-1][1] == len(index._leaf_ids)
            assert all(lo < hi for lo, hi in spans)
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            # Leaf rows plus the inner nodes' vantages: every built id once.
            held = index._leaf_ids + [node.node_id for node in inner]
            assert sorted(held) == sorted(coordinates)
            for row, node_id in enumerate(index._leaf_ids):
                coordinate = coordinates[node_id]
                assert index._leaf_components[row].tolist() == list(coordinate.components)
                assert index._leaf_heights[row] == coordinate.height
                assert index._leaf_seqs[row] == index._seq[node_id]

    def test_build_matches_a_scalar_reference_builder(self):
        for coordinates in self._universes():
            index = self._built(coordinates)
            inner, _ = _inner_nodes(index)
            assert inner, "each universe is large enough to split"
            built = [(node.node_id, node.mu, node.radius) for node in inner]
            entries = [(seq, node_id, c) for seq, (node_id, c) in enumerate(coordinates.items())]
            assert built == _reference_splits(entries)

    def test_delta_clone_shares_the_tree_and_the_four_leaf_arrays(self):
        index = self._built(next(self._universes()))
        clone = index.delta_applied(["n00001"], np.asarray([[1.0, 2.0, 3.0]]), np.zeros(1))
        assert clone is not None and clone is not index
        assert clone._root is index._root
        for name in ("_leaf_ids", "_leaf_components", "_leaf_heights", "_leaf_seqs"):
            assert getattr(clone, name) is getattr(index, name), name


# ----------------------------------------------------------------------
# Dense batch entry points and the array snapshot bridge
# ----------------------------------------------------------------------
class TestDenseBatchAndArrays:
    def _universe(self, n=300, seed=50):
        rng = np.random.default_rng(seed)
        ids = [f"n{i:05d}" for i in range(n)]
        components = rng.normal(scale=60.0, size=(n, 3))
        heights = np.where(
            np.arange(n) % 5 == 0, np.abs(rng.normal(scale=3.0, size=n)), 0.0
        )
        coordinates = {
            node_id: Coordinate(row.tolist(), float(height))
            for node_id, row, height in zip(ids, components, heights)
        }
        return ids, components, heights, coordinates, rng

    def test_batch_entry_points_match_single_queries(self):
        ids, components, heights, coordinates, rng = self._universe()
        oracle = CoordinateIndex()
        oracle.update_many(coordinates)
        index = DenseIndex.from_arrays(ids, components, heights)
        targets = [ids[int(i)] for i in rng.integers(0, len(ids), size=150)]
        for k in (1, 4):
            for target, answer in zip(targets, index.knn_batch_by_id(targets, k)):
                assert answer == oracle.nearest(
                    coordinates[target], k, exclude=[target]
                )
        for target, answer in zip(targets, index.range_batch_by_id(targets, 60.0)):
            assert answer == oracle.within(coordinates[target], 60.0)

    def test_batch_unknown_targets_are_none(self):
        ids, components, heights, _, _ = self._universe(n=20)
        index = DenseIndex.from_arrays(ids, components, heights)
        answers = index.knn_batch_by_id(["nope", ids[0]], 2)
        assert answers[0] is None and answers[1] is not None

    def test_array_snapshot_read_api_matches_object_snapshot(self):
        ids, components, heights, coordinates, _ = self._universe(n=40)
        objectified = CoordinateSnapshot(3, coordinates, source="obj")
        arrayified = ArraySnapshot(3, ids, components, heights, source="arr")
        assert len(arrayified) == len(objectified)
        assert arrayified.node_ids() == objectified.node_ids()
        assert (ids[7] in arrayified) and ("nope" not in arrayified)
        assert arrayified.coordinate_of(ids[7]) == objectified.coordinate_of(ids[7])
        assert arrayified.coordinate_of("nope") is None
        assert dict(arrayified.items()) == dict(objectified.items())
        assert (
            arrayified.to_dict()["coordinates"] == objectified.to_dict()["coordinates"]
        )

    def test_array_snapshot_arrays_are_frozen(self):
        ids, components, heights, _, _ = self._universe(n=10)
        snapshot = ArraySnapshot(1, ids, components, heights)
        _, frozen, _ = snapshot.arrays()
        with pytest.raises(ValueError):
            frozen[0, 0] = 1.0

    def test_publish_arrays_versions_and_dense_adoption(self):
        ids, components, heights, _, _ = self._universe(n=60)
        store = SnapshotStore(index_kind="dense")
        snapshot = store.publish_epoch(ids, components, heights, source="epoch1")
        assert snapshot.version == 1 and store.version == 1
        index = store.index_for()
        # Zero-copy adoption: the dense index holds the snapshot's arrays.
        _, snap_components, snap_heights = snapshot.arrays()
        assert index._components is snap_components
        assert index._heights is snap_heights
        later = store.publish_epoch(ids, components + 1.0, heights, source="epoch2")
        assert later.version == 2
        assert store.at(1) is snapshot

    def test_publish_arrays_refuses_staged_object_updates(self):
        ids, components, heights, _, _ = self._universe(n=4)
        store = SnapshotStore()
        store.apply("x", Coordinate([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="staged"):
            store.publish_epoch(ids, components, heights)

    def test_object_commit_on_top_of_array_epoch(self):
        ids, components, heights, _, _ = self._universe(n=12)
        store = SnapshotStore.from_arrays(ids, components, heights)
        store.apply(ids[0], Coordinate([0.0, 0.0, 0.0]))
        merged = store.commit()
        assert merged.version == 2
        assert merged.coordinate_of(ids[0]) == Coordinate([0.0, 0.0, 0.0])
        assert merged.coordinate_of(ids[1]) == Coordinate(
            components[1].tolist(), float(heights[1])
        )

    @pytest.mark.parametrize("kind", ["dense", "vptree"])
    def test_batched_flush_identical_to_single_queries(self, kind):
        """Batch-vs-single identity: one ``serve_batch`` call must answer
        exactly like per-query ``serve`` -- results, tie order and cache
        behaviour -- for the grouped dense path and the per-query kinds."""
        ids, components, heights, coordinates, _ = self._universe(n=250)
        queries = generate_queries(sorted(ids), 400, mix="mixed", seed=3)

        def store():
            if kind == "dense":
                served = ShardedCoordinateStore(1, index_kind=kind, timer=lambda: 0.0)
                served.publish_epoch(ids, components, heights)
                return served
            return ShardedCoordinateStore.from_coordinates(
                coordinates, shards=1, index_kind=kind, timer=lambda: 0.0
            )

        batched = run_workload(store(), queries, batch_size=64, timer=lambda: 0.0)
        single_store = store()
        singles = [single_store.serve(query) for query in queries]
        assert payload_checksum(singles) == batched.checksum
        cache = single_store.stats()["cache"]
        assert cache["hits"] / (cache["hits"] + cache["misses"]) == batched.cache_hit_rate
        # The linear oracle agrees end to end as well.
        linear = run_workload(
            ShardedCoordinateStore.from_coordinates(
                coordinates, shards=1, index_kind="linear", timer=lambda: 0.0
            ),
            queries,
            batch_size=64,
            timer=lambda: 0.0,
        )
        assert linear.checksum == batched.checksum
        assert linear.stats["kinds"] == batched.stats["kinds"]


# ----------------------------------------------------------------------
# Snapshot store
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_versions_advance_only_on_commit(self):
        store = SnapshotStore()
        assert store.version == 0
        store.apply("a", Coordinate([1.0, 0.0]))
        assert store.version == 0
        assert store.pending_updates == 1
        snapshot = store.commit()
        assert snapshot.version == 1
        assert store.pending_updates == 0
        assert snapshot.coordinate_of("a") == Coordinate([1.0, 0.0])

    def test_noop_commit_mints_no_version(self):
        store = SnapshotStore()
        store.apply("a", Coordinate([1.0, 0.0]))
        store.commit()
        assert store.commit().version == 1

    def test_open_snapshot_is_immutable_under_later_commits(self):
        store = SnapshotStore()
        store.apply("a", Coordinate([1.0, 0.0]))
        store.commit()
        held = store.latest()
        store.apply("a", Coordinate([9.0, 0.0]))
        store.apply("b", Coordinate([2.0, 0.0]))
        store.commit()
        assert held.version == 1
        assert held.coordinate_of("a") == Coordinate([1.0, 0.0])
        assert "b" not in held
        assert store.latest().coordinate_of("a") == Coordinate([9.0, 0.0])
        with pytest.raises(TypeError):
            held.coordinates["a"] = Coordinate([0.0, 0.0])  # read-only proxy

    def test_retire_removes_on_next_commit(self):
        store = SnapshotStore.from_coordinates(
            {"a": Coordinate([1.0]), "b": Coordinate([2.0])}
        )
        store.retire("a")
        snapshot = store.commit()
        assert "a" not in snapshot
        assert "b" in snapshot

    def test_history_eviction(self):
        store = SnapshotStore(history=2)
        for i in range(4):
            store.apply("a", Coordinate([float(i)]))
            store.commit()
        assert store.at(4).coordinate_of("a") == Coordinate([3.0])
        assert store.at(3) is not None
        with pytest.raises(KeyError, match="not retained"):
            store.at(1)

    def test_index_memoised_per_version(self):
        store = SnapshotStore.from_coordinates(
            {"a": Coordinate([1.0, 0.0]), "b": Coordinate([5.0, 0.0])}
        )
        first = store.index_for()
        assert store.index_for() is first
        store.apply("c", Coordinate([2.0, 0.0]))
        store.commit()
        second = store.index_for()
        assert second is not first
        assert len(second) == 3

    def test_index_for_evicted_version_is_not_memoised(self):
        store = SnapshotStore(history=2)
        store.apply("a", Coordinate([1.0, 0.0]))
        held = store.commit()
        for i in range(4):
            store.apply("a", Coordinate([float(i + 2), 0.0]))
            store.commit()
        # Version 1 fell out of the history window; a slow reader can
        # still build an index over its snapshot, but the store must not
        # retain it (nothing would ever sweep it).
        assert store.index_for(held) is not None
        assert 1 not in store._indexes
        assert store.index_for(held) is not store.index_for(held)

    def test_ingest_collector_level_selection(self):
        from repro.metrics.collector import MetricsCollector

        collector = MetricsCollector()
        collector.record_sample(
            1.0,
            "host1",
            system_coordinate=Coordinate([1.0, 1.0]),
            application_coordinate=Coordinate([2.0, 2.0]),
        )
        store = SnapshotStore()
        store.ingest_collector(collector)
        snapshot = store.commit()
        assert snapshot.coordinate_of("host1") == Coordinate([2.0, 2.0])
        system_store = SnapshotStore()
        system_store.ingest_collector(collector, level="system")
        assert system_store.commit().coordinate_of("host1") == Coordinate([1.0, 1.0])

    def test_from_snapshot_preserves_the_saved_version(self):
        snapshot = CoordinateSnapshot(
            5, {"a": Coordinate([1.0]), "b": Coordinate([2.0])}, source="artifact"
        )
        store = SnapshotStore.from_snapshot(snapshot)
        assert store.version == 5
        assert store.latest().version == 5
        assert store.index_for().nearest(Coordinate([1.0]), 1) == [("a", 0.0)]
        store.apply("c", Coordinate([3.0]))
        assert store.commit().version == 6

    def test_snapshot_json_roundtrip(self, tmp_path):
        snapshot = CoordinateSnapshot(
            3,
            {"a": Coordinate([1.5, -2.5], height=0.5), "b": Coordinate([0.0, 4.0])},
            source="roundtrip",
        )
        path = tmp_path / "snap.json"
        snapshot.save(path)
        loaded = CoordinateSnapshot.load(path)
        assert loaded.version == 3
        assert loaded.source == "roundtrip"
        assert dict(loaded.coordinates) == dict(snapshot.coordinates)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            SnapshotStore(index_kind="nope")
        with pytest.raises(ValueError):
            SnapshotStore(history=0)


class TestConcurrentIngest:
    """Updates arriving mid-query must not bleed into an open snapshot."""

    def test_open_view_stable_while_writer_hammers_commits(self):
        rng = np.random.default_rng(7)
        store = SnapshotStore.from_coordinates(_random_coordinates(rng, 80))
        held = store.latest()
        frozen = {node_id: coordinate for node_id, coordinate in held.items()}
        held_index = store.index_for(held)
        stop = threading.Event()
        committed = []

        def writer():
            generation = 0
            while not stop.is_set():
                generation += 1
                store.apply_many(
                    {
                        f"n{i:05d}": Coordinate([float(generation), float(i), 0.0])
                        for i in range(0, 80, 3)
                    }
                )
                store.apply(f"new{generation}", Coordinate([0.5, 0.5, 0.5]))
                committed.append(store.commit().version)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            target = Coordinate([10.0, 10.0, 10.0])
            baseline = held_index.nearest(target, 5)
            for _ in range(300):
                # The open view and its index never change, no matter how
                # many versions the writer publishes underneath.
                assert held_index.nearest(target, 5) == baseline
                assert dict(held.items()) == frozen
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert held.version == 1
        assert not thread.is_alive()
        assert committed, "writer thread never committed"
        assert store.version == committed[-1]
        assert store.latest().version > held.version

    def test_flush_pins_one_version_per_batch(self):
        # dense takes serve_batch's grouped path, linear the per-query one.
        for kind in ("linear", "dense"):
            self._pins_one_version_per_batch(kind)

    @staticmethod
    def _pins_one_version_per_batch(kind):
        # A writer publishes a delta before every per-query serve inside
        # each batch, so every batch spans several published versions; it
        # must still be answered from one generation, each answer exactly
        # that generation's.
        coordinates = _random_coordinates(np.random.default_rng(8), 60)
        store = ShardedCoordinateStore.from_coordinates(
            coordinates, shards=1, index_kind=kind, history=256
        )
        generations = {store.version: store.generation()}
        serve = store.serve

        def publish_then_serve(query, **kwargs):
            step = len(generations)
            moved = {
                f"n{i:05d}": Coordinate([float(step), float(i), 0.0])
                for i in range(step % 3, 60, 7)
            }
            generation = store.publish_delta(EpochDelta.from_coordinates(moved))
            generations[generation.version] = generation
            return serve(query, **kwargs)

        store.serve = publish_then_serve
        queries = [Query.knn(f"n{i:05d}", k=3) for i in range(0, 60, 4)] + [
            Query.range("n00001", 40.0),
            Query.pairwise("n00002", "n00003"),
            Query.centroid(("n00004", "n00005")),
        ]
        for _ in range(5):
            results = store.serve_batch(queries)
            (version,) = {result.version for result in results}
            assert version < store.version  # the writer moved on meanwhile
            pinned = generations[version]
            assert [result.payload for result in results] == [
                pinned.answer(query) for query in queries
            ]
        # The batch after a publish sees the new version.
        del store.serve
        store.publish_delta(
            EpochDelta.from_coordinates({"n00099": Coordinate([0.0, 0.0, 0.0])})
        )
        (result,) = store.serve_batch([Query.nearest("n00099")])
        assert result.version == store.version


# ----------------------------------------------------------------------
# Serving: cache, batching, stats
# ----------------------------------------------------------------------
class TestLRUTTLCache:
    def test_entries_never_expire_and_the_ttl_knobs_are_gone(self):
        # Keys carry the snapshot version, so an entry cannot go stale:
        # nothing reads a clock and there is no expiry to configure.
        cache = LRUTTLCache(max_entries=8)
        cache.put("k", None)  # a stored None is a hit, not a miss
        assert cache.get("k") == (True, None)
        assert cache.get("absent") == (False, None)
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1,
            "evictions_lru": 0, "evictions_rollover": 0,
        }
        for knob in ({"ttl_s": 10.0}, {"clock": lambda: 0.0}):
            with pytest.raises(TypeError):
                LRUTTLCache(8, **knob)
        assert not hasattr(cache, "expirations")

    def test_lru_eviction_order(self):
        cache = LRUTTLCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a")[0]  # refresh a; b is now least-recent
        cache.put("c", 3)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUTTLCache(max_entries=0)

    def test_capacity_evictions_classified_lru_vs_rollover(self):
        cache = LRUTTLCache(max_entries=2)
        cache.current_version = 2
        cache.put((1, "stale-a"), 1)  # superseded version
        cache.put((2, "live-a"), 2)
        cache.put((2, "live-b"), 3)  # evicts the stale entry
        assert cache.evictions_rollover == 1 and cache.evictions_lru == 0
        cache.put((2, "live-c"), 4)  # evicts a live entry
        assert cache.evictions_rollover == 1 and cache.evictions_lru == 1

    def test_unversioned_keys_always_classify_as_lru(self):
        cache = LRUTTLCache(max_entries=1)
        cache.current_version = 5
        cache.put("plain", 1)
        cache.put("other", 2)
        assert cache.evictions_lru == 1 and cache.evictions_rollover == 0

    def test_rollover_requires_known_current_version(self):
        cache = LRUTTLCache(max_entries=1)
        cache.put((1, "a"), 1)
        cache.put((2, "b"), 2)
        # Without current_version the cache cannot call it rollover.
        assert cache.evictions_lru == 1 and cache.evictions_rollover == 0


class TestStoreServing:
    """The one serving front as an in-process one-shard store."""

    @pytest.fixture()
    def coordinates(self):
        return _random_coordinates(np.random.default_rng(9), 40)

    @pytest.fixture()
    def store(self, coordinates):
        return ShardedCoordinateStore.from_coordinates(coordinates, shards=1)

    def test_cache_key_includes_snapshot_version(self, store):
        query = Query.knn("n00001", k=3)
        first = store.serve(query)
        second = store.serve(query)
        assert not first.cached and second.cached
        assert first.payload == second.payload
        # A new generation that moves the target must miss the cache.
        store.publish_delta(
            EpochDelta.from_coordinates({"n00001": Coordinate([999.0, 999.0, 999.0])})
        )
        third = store.serve(query)
        assert not third.cached
        assert third.payload != first.payload

    def test_stats_account_per_kind(self, store):
        store.serve_batch(
            [Query.knn("n00001", k=2), Query.knn("n00001", k=2), Query.pairwise("n00001", "n00002")]
        )
        stats = store.stats()
        assert stats["kinds"]["knn"]["served"] == 2
        assert stats["kinds"]["knn"]["cache_hits"] == 1
        assert stats["kinds"]["pairwise"]["served"] == 1
        assert "latency_exact" not in stats["kinds"]["knn"]
        assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 2

    def test_stats_split_rollover_from_lru_evictions(self, coordinates):
        # A cache of 3 entries serving across a full publish: the old
        # generation's entries are freed as 'rollover', same-version
        # capacity pressure evicts as 'lru'.
        store = ShardedCoordinateStore.from_coordinates(
            coordinates, shards=1, cache_entries=3
        )
        batch = [Query.knn(f"n{i:05d}", k=2) for i in range(1, 4)]
        store.serve_batch(batch)
        ids = list(coordinates)
        store.publish_epoch(
            ids,
            np.asarray([coordinates[node_id].components for node_id in ids]) + 1.0,
            np.zeros(len(ids)),
        )
        store.serve_batch(batch)
        stats = store.stats()["cache"]
        assert stats["evictions_rollover"] == 3
        assert stats["evictions_lru"] == 0
        # Same-version overflow now evicts as plain LRU.
        store.serve_batch([Query.knn("n00004", k=2)])
        stats = store.stats()["cache"]
        assert stats["evictions_lru"] == 1
        assert stats["evictions_rollover"] == 3

    def test_query_kinds_answer_shapes(self, store):
        knn = store.serve(Query.knn("n00000", k=4)).payload
        assert len(knn["neighbors"]) == 4
        assert knn["neighbors"][0]["node_id"] != "n00000"
        nearest = store.serve(Query.nearest("n00000")).payload
        assert nearest["neighbors"][0] == knn["neighbors"][0]
        rng_payload = store.serve(Query.range("n00000", 80.0)).payload
        assert all(hit["predicted_rtt_ms"] <= 80.0 for hit in rng_payload["hits"])
        pair = store.serve(Query.pairwise("n00000", "n00001")).payload
        snapshot = store.generation().snapshot
        assert pair["predicted_rtt_ms"] == snapshot.coordinate_of("n00000").distance(
            snapshot.coordinate_of("n00001")
        )
        centroid_payload = store.serve(
            Query.centroid(("n00000", "n00001", "n00002"))
        ).payload
        assert centroid_payload["members"] == 3
        assert centroid_payload["nearest_host"] in snapshot.node_ids()

    def test_serve_batch_isolates_failing_queries(self, coordinates):
        # One bad request must not poison the batch: good queries before
        # and after it still get answers, the bad slot carries the error.
        # dense takes the grouped path, vptree the per-query one.
        for kind in ("vptree", "dense"):
            store = ShardedCoordinateStore.from_coordinates(
                coordinates, shards=1, index_kind=kind
            )
            results = store.serve_batch(
                [
                    Query.knn("n00001", k=2),
                    Query.knn("ghost", k=2),
                    Query.pairwise("n00001", "ghost"),
                    Query.knn("n00002", k=2),
                ]
            )
            assert [r.error is None for r in results] == [True, False, False, True]
            assert results[0].payload["neighbors"]
            assert results[1].payload is None and results[2].payload is None
            assert "unknown node" in results[1].error
            assert "unknown node" in results[2].error
            assert results[3].payload["neighbors"]
            kinds = store.stats()["kinds"]
            assert kinds["knn"]["errors"] == 1 and kinds["pairwise"]["errors"] == 1

    def test_unknown_nodes_raise_query_error(self, store):
        with pytest.raises(QueryError, match="unknown node"):
            store.serve(Query.knn("ghost"))
        with pytest.raises(QueryError, match="unknown node"):
            store.serve(Query.pairwise("n00000", "ghost"))
        assert store.stats()["kinds"]["knn"]["errors"] == 1

    def test_query_validation(self):
        with pytest.raises(QueryError):
            Query(kind="teleport")
        with pytest.raises(QueryError):
            Query.knn("a", k=0)
        with pytest.raises(QueryError):
            Query(kind="knn")  # no target
        with pytest.raises(QueryError):
            Query(kind="pairwise", pair=("a", ""))


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
class TestWorkload:
    def test_streams_are_deterministic(self):
        nodes = [f"n{i}" for i in range(30)]
        first = generate_queries(nodes, 100, mix="mixed", seed=5)
        second = generate_queries(nodes, 100, mix="mixed", seed=5)
        assert first == second
        assert generate_queries(nodes, 100, mix="mixed", seed=6) != first

    def test_mix_controls_kinds(self):
        nodes = [f"n{i}" for i in range(10)]
        for mix, kind in (
            ("knn", "knn"),
            ("nearest", "nearest"),
            ("pairwise-latency", "pairwise"),
            ("centroid", "centroid"),
        ):
            queries = generate_queries(nodes, 25, mix=mix, seed=1)
            assert {query.kind for query in queries} == {kind}
        mixed_kinds = {q.kind for q in generate_queries(nodes, 300, mix="mixed", seed=1)}
        assert mixed_kinds == set(QUERY_MIXES["mixed"])

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown query mix"):
            generate_queries(["a", "b"], 10, mix="write-heavy")

    def test_checksum_identical_across_index_kinds(self):
        rng = np.random.default_rng(11)
        coordinates = _random_coordinates(rng, 150, with_heights=True)
        queries = generate_queries(sorted(coordinates), 400, mix="mixed", seed=2)
        checksums = set()
        for kind in INDEX_KINDS:
            store = ShardedCoordinateStore.from_coordinates(
                coordinates, shards=1, index_kind=kind
            )
            report = run_workload(store, queries)
            checksums.add(report.checksum)
            assert report.query_count == 400
        assert len(checksums) == 1

    def test_zipf_skew_produces_cache_hits(self):
        rng = np.random.default_rng(12)
        coordinates = _random_coordinates(rng, 100)
        store = ShardedCoordinateStore.from_coordinates(coordinates, shards=1)
        queries = generate_queries(sorted(coordinates), 500, mix="knn", seed=3)
        report = run_workload(store, queries)
        assert report.cache_hit_rate > 0.2
        assert payload_checksum(report.results) == report.checksum


# ----------------------------------------------------------------------
# Scenario integration
# ----------------------------------------------------------------------
class TestQueriesScenarioWorkload:
    def test_queries_workload_runs_and_agrees_with_oracle(self):
        from repro.engine.kernel import run_scenario
        from repro.scenarios.spec import ScenarioSpec, WorkloadSpec

        spec = ScenarioSpec(
            name="queries-tiny",
            mode="replay",
            preset="mp",
            duration_s=120.0,
            network=__import__("repro.scenarios.spec", fromlist=["NetworkSpec"]).NetworkSpec(
                nodes=8
            ),
            workload=WorkloadSpec(kind="queries", params={"count": 64, "mix": "mixed"}),
            seed=1,
        )
        result = run_scenario(spec).result
        assert result.metrics["query_count"] == 64.0
        assert result.metrics["query_index_linear_agreement"] == 1.0
        assert 0.0 <= result.metrics["query_cache_hit_rate"] <= 1.0
        assert result.workload["checksum"]
        # Deterministic: a re-run reproduces the canonical payload exactly.
        rerun = run_scenario(spec).result
        assert rerun.canonical_json() == result.canonical_json()

    def test_spec_validates_mix_and_index(self):
        from repro.scenarios.spec import ScenarioError, ScenarioSpec, WorkloadSpec

        with pytest.raises(ScenarioError, match="workload.mix"):
            ScenarioSpec(
                name="bad-mix",
                workload=WorkloadSpec(kind="queries", params={"mix": "write-heavy"}),
            )
        with pytest.raises(ScenarioError, match="workload.index"):
            ScenarioSpec(
                name="bad-index",
                workload=WorkloadSpec(kind="queries", params={"index": "btree"}),
            )
        # The deleted grid kind is rejected by name, with the known kinds.
        with pytest.raises(
            ScenarioError,
            match=r"workload.index must be one of \['linear', 'vptree', 'dense'\], got 'grid'",
        ):
            ScenarioSpec(
                name="grid-index",
                workload=WorkloadSpec(kind="queries", params={"index": "grid"}),
            )


# ----------------------------------------------------------------------
# CLI: repro serve / repro query
# ----------------------------------------------------------------------
class TestServiceCli:
    @pytest.fixture()
    def snapshot_path(self, tmp_path):
        rng = np.random.default_rng(21)
        snapshot = CoordinateSnapshot(
            1, _random_coordinates(rng, 30), source="cli-test"
        )
        path = tmp_path / "snap.json"
        snapshot.save(path)
        return path

    def test_query_info(self, capsys, snapshot_path):
        from repro.analysis.cli import main

        assert main(["query", "--snapshot", str(snapshot_path), "info"]) == 0
        out = capsys.readouterr().out
        assert "30 nodes" in out

    def test_query_knn_prints_neighbors(self, capsys, snapshot_path):
        from repro.analysis.cli import main

        assert (
            main(["query", "--snapshot", str(snapshot_path), "knn", "n00004", "--k", "2"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "n00004"
        assert len(payload["neighbors"]) == 2

    def test_malformed_snapshot_file_is_a_readable_error(self, capsys, tmp_path):
        from repro.analysis.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["query", "--snapshot", str(bad), "info"]) == 2
        assert "malformed snapshot" in capsys.readouterr().err
        bad.write_text(json.dumps({"coordinates": {"a": {"height": 1.0}}}))
        assert main(["query", "--snapshot", str(bad), "info"]) == 2
        assert "no 'components'" in capsys.readouterr().err
        bad.write_text(json.dumps({"coordinates": {"a": {"components": [None, 2.0]}}}))
        assert main(["query", "--snapshot", str(bad), "info"]) == 2
        assert "malformed snapshot" in capsys.readouterr().err

    def test_unparseable_and_missing_snapshots_are_one_line_errors(
        self, capsys, tmp_path
    ):
        # Every failure mode must exit 2 with a single clear stderr line
        # (never a traceback): missing file, invalid JSON, valid JSON of
        # the wrong shape, a directory path, and a bad version field.
        from repro.analysis.cli import main

        missing = tmp_path / "nope.json"
        assert main(["query", "--snapshot", str(missing), "info"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not exist" in err
        assert len(err.strip().splitlines()) == 1

        bad = tmp_path / "bad.json"
        bad.write_text("{not json at all")
        assert main(["query", "--snapshot", str(bad), "info"]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and len(err.strip().splitlines()) == 1

        bad.write_text("[1, 2, 3]")
        assert main(["query", "--snapshot", str(bad), "info"]) == 2
        err = capsys.readouterr().err
        assert "must be an object" in err and len(err.strip().splitlines()) == 1

        assert main(["query", "--snapshot", str(tmp_path), "info"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

        bad.write_text(json.dumps({"version": "vX", "coordinates": {}}))
        assert main(["query", "--snapshot", str(bad), "info"]) == 2
        err = capsys.readouterr().err
        assert "'version' must be an integer" in err

    def test_serve_daemon_cli_rejects_missing_snapshot_cleanly(self, capsys, tmp_path):
        from repro.analysis.cli import main

        missing = tmp_path / "nope.json"
        assert main(["serve-daemon", "--snapshot", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_query_unknown_node_is_an_error(self, capsys, snapshot_path):
        from repro.analysis.cli import main

        assert main(["query", "--snapshot", str(snapshot_path), "knn", "ghost"]) == 2
        assert "unknown node" in capsys.readouterr().err

    def test_query_workload_compare_linear(self, capsys, snapshot_path):
        from repro.analysis.cli import main

        args = [
            "query", "--snapshot", str(snapshot_path),
            "workload", "--count", "200", "--mix", "mixed", "--compare-linear",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "identical results: True" in out
        assert "cache hit rate" in out

    def test_serve_writes_snapshot_and_serves_queries(self, capsys, tmp_path):
        from repro.analysis.cli import main
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.registry import _REGISTRY, register

        name = "service-cli-test-tiny"

        def factory() -> ScenarioSpec:
            payload = ScenarioSpec(
                name=name, mode="replay", preset="mp", duration_s=120.0, seed=1
            ).to_dict()
            payload["network"] = {**payload["network"], "nodes": 6}
            return ScenarioSpec.from_dict(payload)

        register(name, factory)
        out_path = tmp_path / "served.json"
        try:
            args = [
                "serve", name,
                "--out", str(out_path),
                "--queries", "50", "--mix", "knn", "--compare-linear",
            ]
            assert main(args) == 0
        finally:
            _REGISTRY.pop(name, None)
        out = capsys.readouterr().out
        assert "snapshot v1: 6 node coordinates" in out
        assert "identical results: True" in out
        snapshot = CoordinateSnapshot.load(out_path)
        assert len(snapshot) == 6
        assert snapshot.source == name
