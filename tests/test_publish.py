"""Incremental epoch publish: the EpochPublisher protocol and delta path.

The load-bearing guarantee under test: a delta-published generation is
**byte-identical** -- coordinates, query results including tie order,
health snapshots -- to publishing the same final population from
scratch.  The sweep drives both a delta-fed store and a full-rebuild
store through the same epoch sequence and compares everything after
every epoch, across all index kinds, including the overlay-compaction
boundary cases (0 changed rows, all rows changed, removals, additions).
The sharded store's cache carry is held to the same standard: every
answer a delta carries to the new version equals the linear oracle's
answer at that version.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinate import Coordinate
from repro.netsim.batch import run_batch_simulation
from repro.netsim.runner import NodeConfig, SimulationConfig
from repro.server.client import AsyncCoordinateClient
from repro.server.daemon import CoordinateServer
from repro.server.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    request_to_publish,
    request_to_query,
    request_version,
)
from repro.server.sharding import HEALTH_SECTIONS, ShardedCoordinateStore
from repro.overlay.knn import CoordinateIndex
from repro.service.index import (
    INDEX_KINDS,
    _LEAF_SIZE,
    DenseIndex,
    VPTreeIndex,
    _overlay_budget,
)
import repro.service.planner as planner_module
from repro.service.planner import Query, QueryError, _reached, answer_query
from repro.service.publish import EpochDelta, EpochPublisher
from repro.service.snapshot import SnapshotStore


# ----------------------------------------------------------------------
# Deterministic epoch-sequence generator (tie-heavy by construction)
# ----------------------------------------------------------------------
def _initial_population(n: int, dims: int, seed: int):
    rng = np.random.default_rng(seed)
    node_ids = [f"node{index:05d}" for index in range(n)]
    # Quantised to a coarse lattice so distance ties are common and the
    # (distance, insertion-seq) tie-break is genuinely exercised.
    components = np.round(rng.normal(scale=20.0, size=(n, dims)) / 5.0) * 5.0
    heights = np.round(rng.uniform(0.0, 4.0, size=n))
    return node_ids, components, heights


def _epoch_deltas(node_ids, components, heights, *, epochs, churn, removals, seed):
    """Yield (delta, final_ids, final_components, final_heights) per epoch.

    The finals are what a from-scratch publish after this delta must
    hold -- the oracle the delta-fed store is compared against.
    """
    rng = np.random.default_rng(seed + 1)
    ids = list(node_ids)
    comps = components.copy()
    hts = heights.copy()
    fresh = 0
    for epoch in range(epochs):
        n = len(ids)
        changed_count = int(round(n * churn))
        if churn > 0.0 and changed_count == 0:
            changed_count = 1
        rows = (
            np.sort(rng.choice(n, size=changed_count, replace=False))
            if changed_count
            else np.empty(0, dtype=np.int64)
        )
        new_comps = np.round(rng.normal(scale=20.0, size=(changed_count, comps.shape[1])) / 5.0) * 5.0
        new_hts = np.round(rng.uniform(0.0, 4.0, size=changed_count))
        changed_ids = [ids[row] for row in rows]
        removed_ids = []
        if removals and epoch % 2 == 1 and n > changed_count + 2:
            victims = [i for i in range(n) if i not in set(rows.tolist())][:2]
            removed_ids = [ids[i] for i in victims]
        added_ids = []
        if removals and epoch % 2 == 0 and epoch > 0:
            added_ids = [f"late{seed}-{fresh}", f"late{seed}-{fresh + 1}"]
            fresh += 2
        all_changed = changed_ids + added_ids
        add_comps = np.round(rng.normal(scale=20.0, size=(len(added_ids), comps.shape[1])) / 5.0) * 5.0
        add_hts = np.round(rng.uniform(0.0, 4.0, size=len(added_ids)))
        delta = EpochDelta(
            all_changed,
            np.concatenate([new_comps, add_comps]) if all_changed else np.empty((0, comps.shape[1])),
            np.concatenate([new_hts, add_hts]) if all_changed else np.empty(0),
            removed_ids=tuple(removed_ids),
            source=f"epoch{epoch + 1}",
            epoch=epoch + 1,
        )
        # Apply to the reference population exactly as documented:
        # update in place, compact removals, append additions.
        if changed_count:
            comps[rows] = new_comps
            hts[rows] = new_hts
        if removed_ids:
            keep = [i for i, node_id in enumerate(ids) if node_id not in set(removed_ids)]
            ids = [ids[i] for i in keep]
            comps = comps[keep]
            hts = hts[keep]
        if added_ids:
            ids = ids + added_ids
            comps = np.concatenate([comps, add_comps])
            hts = np.concatenate([hts, add_hts])
        yield delta, list(ids), comps.copy(), hts.copy()


def _assert_index_identical(derived, rebuilt, node_ids, dims, rng):
    """Query both indexes identically; results must match bit for bit."""
    probes = [
        Coordinate((np.round(rng.normal(scale=20.0, size=dims) / 5.0) * 5.0).tolist(), float(np.round(rng.uniform(0.0, 4.0))))
        for _ in range(4)
    ]
    member_targets = [node_ids[0], node_ids[len(node_ids) // 2], node_ids[-1]]
    for target_id in member_targets:
        a = derived.coordinate_of(target_id)
        b = rebuilt.coordinate_of(target_id)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.components == b.components and a.height == b.height
            probes.append(a)
    for probe in probes:
        assert derived.nearest(probe, k=5) == rebuilt.nearest(probe, k=5)
        assert derived.within(probe, 25.0) == rebuilt.within(probe, 25.0)
    if len(probes) >= 2:
        assert derived.min_cost_host(probes[:2]) == rebuilt.min_cost_host(probes[:2])
    assert len(derived) == len(rebuilt)
    assert sorted(derived.node_ids()) == sorted(rebuilt.node_ids())


class TestDeltaEquivalenceSweep:
    """Delta-published stores are byte-identical to full rebuilds."""

    @pytest.mark.parametrize("index_kind", INDEX_KINDS)
    @pytest.mark.parametrize(
        "n,dims,churn,removals",
        [
            (40, 2, 0.0, False),    # empty deltas: version lockstep only
            (40, 2, 1.0, False),    # all rows changed: always compacts
            (40, 3, 0.2, True),     # small population: over budget, compacts
            (300, 2, 0.05, False),  # overlay survives (budget = 75)
            (300, 2, 0.05, True),   # overlay + removals + additions
            (300, 4, 0.3, False),   # crosses the compaction boundary mid-run
        ],
    )
    def test_snapshot_store_equivalence(self, index_kind, n, dims, churn, removals):
        node_ids, components, heights = _initial_population(n, dims, seed=7)
        delta_store = SnapshotStore(index_kind=index_kind, history=64)
        full_store = SnapshotStore(index_kind=index_kind, history=64)
        delta_store.publish_epoch(node_ids, components.copy(), heights.copy(), source="epoch0")
        full_store.publish_epoch(node_ids, components.copy(), heights.copy(), source="epoch0")
        # Build the base index first so every delta has something to
        # derive from (matches the serving pattern: publish, then query).
        delta_store.index_for()
        rng = np.random.default_rng(1234)
        for delta, final_ids, final_comps, final_hts in _epoch_deltas(
            node_ids, components, heights, epochs=5, churn=churn, removals=removals, seed=7
        ):
            delta_snapshot = delta_store.publish_delta(delta)
            full_snapshot = full_store.publish_epoch(
                final_ids, final_comps, final_hts, source=delta.source
            )
            assert delta_snapshot.version == full_snapshot.version
            assert delta_snapshot.source == full_snapshot.source
            d_ids, d_comps, d_hts = delta_snapshot.arrays()
            f_ids, f_comps, f_hts = full_snapshot.arrays()
            assert d_ids == f_ids == final_ids
            assert d_comps.tobytes() == f_comps.tobytes()
            assert d_hts.tobytes() == f_hts.tobytes()
            derived = delta_store.index_for(delta_snapshot)
            rebuilt = full_store.index_for(full_snapshot)
            _assert_index_identical(derived, rebuilt, d_ids, dims, rng)

    @pytest.mark.parametrize("index_kind", ["vptree", "dense"])
    def test_sharded_store_equivalence_with_health(self, index_kind):
        n, dims = 120, 2
        node_ids, components, heights = _initial_population(n, dims, seed=3)
        delta_store = ShardedCoordinateStore(3, index_kind=index_kind, history=64)
        full_store = ShardedCoordinateStore(3, index_kind=index_kind, history=64)
        delta_store.publish_epoch(node_ids, components.copy(), heights.copy(), source="epoch0")
        full_store.publish_epoch(node_ids, components.copy(), heights.copy(), source="epoch0")
        for delta, final_ids, final_comps, final_hts in _epoch_deltas(
            node_ids, components, heights, epochs=4, churn=0.1, removals=True, seed=3
        ):
            delta_generation = delta_store.publish_delta(delta)
            full_generation = full_store.publish_epoch(
                final_ids, final_comps, final_hts, source=delta.source
            )
            assert delta_generation.version == full_generation.version
            assert delta_generation.node_order == full_generation.node_order
            d_ids, d_comps, d_hts = delta_generation.snapshot.arrays()
            f_ids, f_comps, f_hts = full_generation.snapshot.arrays()
            assert d_ids == f_ids
            assert np.asarray(d_comps).tobytes() == np.asarray(f_comps).tobytes()
            assert np.asarray(d_hts).tobytes() == np.asarray(f_hts).tobytes()
            for query in (
                Query.knn(d_ids[0], k=7),
                Query.range(d_ids[-1], 30.0),
                Query.nearest(d_ids[len(d_ids) // 2]),
                Query.pairwise(d_ids[0], d_ids[1]),
                Query.centroid((d_ids[0], d_ids[2], d_ids[4])),
            ):
                d_result = delta_store.serve(query)
                f_result = full_store.serve(query)
                assert d_result.payload == f_result.payload
                assert d_result.version == f_result.version
        deterministic = tuple(s for s in HEALTH_SECTIONS if s != "staleness")
        assert delta_store.health(deterministic) == full_store.health(deterministic)

    def test_empty_base_delta_bootstraps_population(self):
        store = SnapshotStore(index_kind="dense")
        delta = EpochDelta(
            ["a", "b"], np.asarray([[1.0, 2.0], [3.0, 4.0]]), np.asarray([0.5, 0.0])
        )
        snapshot = store.publish_delta(delta)
        assert snapshot.version == 1
        assert snapshot.node_ids() == ["a", "b"]

    def test_epoch_published_event_carries_changed_count_and_mode(self):
        store = ShardedCoordinateStore(2, index_kind="dense")
        node_ids, components, heights = _initial_population(30, 2, seed=9)
        store.publish_epoch(node_ids, components, heights, source="e0")
        store.publish_delta(
            EpochDelta(
                node_ids[:3],
                components[:3] + 1.0,
                heights[:3],
                removed_ids=(node_ids[-1],),
                source="e1",
            )
        )
        published = [
            event for event in store.events.tail() if event["kind"] == "epoch_published"
        ]
        assert published[0]["mode"] == "full"
        assert published[0]["changed_count"] == 30
        assert published[1]["mode"] == "delta"
        assert published[1]["changed_count"] == 4
        assert published[1]["nodes"] == 29


class TestPublishInstruments:
    def test_health_pass_has_its_own_clock_and_a_rescan_count(self):
        ticks = iter(range(10_000))
        store = ShardedCoordinateStore(
            2, index_kind="vptree", timer=lambda: float(next(ticks))
        )
        node_ids, components, heights = _initial_population(200, 2, seed=9)
        store.publish_epoch(node_ids, components, heights)
        store.publish_delta(EpochDelta(node_ids[:2], components[:2] + 1.0, heights[:2]))
        registry = store.registry
        for mode in ("full", "delta"):
            observed = registry.histogram("store_health_observe_ms", mode=mode)
            # One timer tick (1 s) elapses across the observation.
            assert (observed.count, observed.sum) == (1, 1000.0)
            # The publish clock still stops at the swap: same instrument,
            # same meaning, one sample per publish.
            assert registry.histogram("store_publish_ms", mode=mode).count == 1
        targets = registry.counter("health_knn_targets_total").value
        rescans = registry.counter("health_knn_rescans_total").value
        assert targets == 64 and 32 <= rescans < 64


class TestVPTreeArrayOverlay:
    """The vp-tree's array-scored overlay against the linear oracle."""

    N = 120  # overlay budget 64: small enough to fill, large enough to keep

    def _lattice_point(self, rng, dims=2):
        return Coordinate(
            (np.round(rng.normal(scale=20.0, size=dims) / 5.0) * 5.0).tolist(),
            float(np.round(rng.uniform(0.0, 4.0))),
        )

    def _apply(self, index, oracle, changed, removed=()):
        """One delta through ``delta_applied``, mirrored on the oracle."""
        ids = list(changed)
        derived = index.delta_applied(
            ids,
            np.asarray([changed[i].components for i in ids]).reshape(len(ids), 2),
            np.asarray([changed[i].height for i in ids]),
            tuple(removed),
        )
        assert derived is not None, "chain was sized to stay inside the budget"
        for node_id, coordinate in changed.items():
            oracle.update(node_id, coordinate)
        for node_id in removed:
            oracle.remove(node_id)
        return derived

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "overlay_rows", [1, _LEAF_SIZE, _overlay_budget(N) - 1]
    )
    def test_queries_equal_linear_oracle_after_a_delta_chain(self, overlay_rows, seed):
        rng = np.random.default_rng(seed)
        node_ids, components, heights = _initial_population(self.N, 2, seed)
        oracle, index = CoordinateIndex(), VPTreeIndex()
        for node_id, row, height in zip(node_ids, components, heights):
            coordinate = Coordinate(row.tolist(), float(height))
            oracle.update(node_id, coordinate)
            index.update(node_id, coordinate)
        # The overlay's final members: existing nodes plus, when there is
        # room, one late joiner (a seq past the tree's).
        members = [str(i) for i in rng.permutation(node_ids)[:overlay_rows]]
        if overlay_rows > 1:
            members[-1] = "late-joiner"
        chunks = [
            [str(node_id) for node_id in chunk]
            for chunk in np.array_split(members, min(len(members), 3))
        ]
        for position, chunk in enumerate(chunks):
            changed = {node_id: self._lattice_point(rng) for node_id in chunk}
            if position:
                # A row already in the overlay moves again (overwritten
                # in place, not appended) -- the last time onto another
                # overlay row, so two overlay rows tie at every probe.
                changed[chunks[0][0]] = (
                    changed[chunk[0]]
                    if position == len(chunks) - 1
                    else self._lattice_point(rng)
                )
            index = self._apply(index, oracle, changed)
        if overlay_rows > 2:
            # An overlay row leaves and comes back: its slot is compacted
            # out and it re-enters with a fresh insertion seq, exactly as
            # the oracle's dict re-appends it.
            index = self._apply(index, oracle, {}, removed=[members[1]])
            assert len(index._ov_ids) == overlay_rows - 1
            index = self._apply(index, oracle, {members[1]: self._lattice_point(rng)})
        assert len(index._ov_ids) == overlay_rows
        assert index.node_ids() == oracle.node_ids()

        probes = [self._lattice_point(rng) for _ in range(4)]
        probes += [oracle.coordinate_of(node_id) for node_id in members[:3]]
        for probe in probes:
            closest = [node_id for node_id, _ in oracle.nearest(probe, k=3)]
            for exclude in ((), closest[:1], closest + members[:2]):
                for k in (1, 5, overlay_rows + 3):
                    assert index.nearest(probe, k, exclude=exclude) == oracle.nearest(
                        probe, k, exclude=exclude
                    )
            for radius in (0.0, 10.0, 25.0):
                assert index.within(probe, radius) == oracle.within(probe, radius)
        for endpoints in (probes[:1], probes[:2], probes[:4], probes[4:5]):
            assert index.min_cost_host(endpoints) == oracle.min_cost_host(endpoints)


def _same_answer(index_call, oracle_call):
    """Both calls return equal values, or both raise ``ValueError``."""
    try:
        expected = oracle_call()
    except ValueError:
        with pytest.raises(ValueError):
            index_call()
        return
    assert index_call() == expected


class TestVPTreeFlatLeavesProperty:
    """Flat-leaf vp-tree queries against the linear oracle, tie order included."""

    @given(
        dims=st.integers(1, 4),
        with_heights=st.booleans(),
        n=st.integers(1, 150),
        overlay=st.sampled_from(["none", "one", "leaf", "budget"]),
        removals=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_queries_equal_linear_oracle(self, dims, with_heights, n, overlay, removals, seed):
        rng = np.random.default_rng(seed)

        def point():
            # A 7-wide integer lattice: equal distances and duplicates abound.
            height = float(rng.choice([0.0, 0.5, 1.0])) if with_heights else 0.0
            return Coordinate(rng.integers(-3, 4, size=dims).astype(float).tolist(), height)

        oracle, index = CoordinateIndex(), VPTreeIndex()
        node_ids = [f"n{i:03d}" for i in range(n)]
        for node_id in node_ids:
            coordinate = point()
            oracle.update(node_id, coordinate)
            index.update(node_id, coordinate)
        budget = _overlay_budget(n)
        rows = {"none": 0, "one": 1, "leaf": _LEAF_SIZE, "budget": budget - 1}[overlay]
        # Overlay members: some existing nodes (stale tree entries), the
        # rest late joiners; removals hit other existing nodes.
        existing = [str(i) for i in rng.permutation(node_ids)]
        moved = existing[: int(rng.integers(0, min(rows, n) + 1))]
        members = moved + [f"new{i:03d}" for i in range(rows - len(moved))]
        removed = existing[len(moved) :][: min(removals, budget - rows)]
        # Two deltas: the second overwrites an overlay row in place and
        # carries the removals.
        for chunk, gone in ((members[: rows // 2], ()), (members[rows // 2 :] + members[:1], removed)):
            changed = {node_id: point() for node_id in chunk}
            ids = list(changed)
            derived = index.delta_applied(
                ids,
                np.asarray([changed[i].components for i in ids]).reshape(len(ids), dims),
                np.asarray([changed[i].height for i in ids]),
                tuple(gone),
            )
            assert derived is not None, "sized to stay inside the overlay budget"
            index = derived
            for node_id, coordinate in changed.items():
                oracle.update(node_id, coordinate)
            for node_id in gone:
                oracle.remove(node_id)
        assert len(index._ov_ids) == rows
        assert index.node_ids() == oracle.node_ids()

        live = oracle.node_ids()
        probes = [point() for _ in range(3)] + [oracle.coordinate_of(i) for i in live[:2]]
        for probe in probes:
            closest = [node_id for node_id, _ in oracle.nearest(probe, k=2)]
            for exclude in ((), closest + list(removed[:1]) + members[:1]):
                for k in (1, 4, n + rows + 1):
                    assert index.nearest(probe, k, exclude=exclude) == oracle.nearest(
                        probe, k, exclude=exclude
                    )
            for radius in (0.0, 1.0, 2.5):
                assert index.within(probe, radius) == oracle.within(probe, radius)
        for endpoints in (probes[:1], probes[:3], probes[2:]):
            _same_answer(
                lambda: index.min_cost_host(endpoints),
                lambda: oracle.min_cost_host(endpoints),
            )


class TestDenseOneKernelProperty:
    """Dense queries for targets *outside* the index, overlay generations
    included, against the linear oracle -- tie order included.

    Every dense query runs the one pruned-and-certified kernel (a single
    query is a batch of one), so foreign targets, exclusions and overlay
    rows all pass through it.  Populations up to ``_SCAN_ROWS`` take the
    exact scan; ``pruned`` lowers that threshold to zero so the pruning
    stage runs on universes small enough for the oracle to check quickly.
    """

    @given(
        dims=st.integers(1, 4),
        with_heights=st.booleans(),
        n=st.one_of(st.integers(1, 60), st.integers(200, 420)),
        overlay=st.sampled_from(["none", "one", "budget"]),
        removals=st.integers(0, 3),
        pruned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_queries_equal_linear_oracle(
        self, dims, with_heights, n, overlay, removals, pruned, seed
    ):
        scan_rows = 0 if pruned else DenseIndex._SCAN_ROWS
        with mock.patch.object(DenseIndex, "_SCAN_ROWS", scan_rows):
            self._check(dims, with_heights, n, overlay, removals, seed)

    def test_above_the_scan_threshold_equals_linear_oracle(self):
        # The shipped threshold, crossed: both kernels prune for real.
        self._check(3, True, DenseIndex._SCAN_ROWS + 64, "one", 1, seed=11)

    def test_height_dominated_neighbourhood_is_not_certified(self):
        # Pruning ranks by Euclidean distance alone.  Nine rows in ten sit
        # at Euclid 1 with height 10, the rest at Euclid 3 with height 0:
        # the pruned candidates are all beaten by rows left out, and only
        # the certificate -- which must fail -- keeps the answer exact.
        n = DenseIndex._SCAN_ROWS + 500
        rng = np.random.default_rng(3)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        near = np.arange(n) % 10 != 0
        radii = np.where(near, 1.0, 3.0)
        components = np.column_stack([np.cos(angles), np.sin(angles)]) * radii[:, None]
        heights = np.where(near, 10.0, 0.0)
        node_ids = [f"h{i:05d}" for i in range(n)]
        index = DenseIndex.from_arrays(node_ids, components, heights)
        oracle = CoordinateIndex()
        for node_id, row, height in zip(node_ids, components, heights):
            oracle.update(node_id, Coordinate(row.tolist(), float(height)))
        for probe in (Coordinate([0.0, 0.0]), Coordinate([0.5, 0.0], 0.5)):
            assert index.nearest(probe, 5) == oracle.nearest(probe, 5)
        targets = node_ids[:4]
        assert index.knn_batch_by_id(targets, 5) == [
            oracle.nearest_to_node(node_id, 5) for node_id in targets
        ]

    def _check(self, dims, with_heights, n, overlay, removals, seed):
        rng = np.random.default_rng(seed)

        def point():
            # A 7-wide integer lattice: equal distances and duplicates abound.
            height = float(rng.choice([0.0, 0.5, 1.0])) if with_heights else 0.0
            return Coordinate(rng.integers(-3, 4, size=dims).astype(float).tolist(), height)

        node_ids = [f"n{i:03d}" for i in range(n)]
        base = [point() for _ in node_ids]
        oracle = CoordinateIndex()
        oracle.update_many(dict(zip(node_ids, base)))
        index = DenseIndex.from_arrays(
            node_ids,
            np.asarray([c.components for c in base]).reshape(n, dims),
            np.asarray([c.height for c in base]),
        )
        budget = _overlay_budget(n)
        rows = {"none": 0, "one": 1, "budget": budget - 1}[overlay]
        existing = [str(i) for i in rng.permutation(node_ids)]
        moved = existing[: int(rng.integers(0, min(rows, n) + 1))]
        members = moved + [f"new{i:03d}" for i in range(rows - len(moved))]
        removed = existing[len(moved) :][: min(removals, budget - rows)]
        # Two deltas (the second overwrites an overlay row in place and
        # carries the removals), then an overlay member leaves and comes
        # back: it re-enters at the end, as the oracle's dict re-appends it.
        deltas = [
            ({node_id: point() for node_id in members[: rows // 2]}, ()),
            ({node_id: point() for node_id in members[rows // 2 :] + members[:1]}, removed),
        ]
        if rows > 2:
            deltas += [({}, (members[1],)), ({members[1]: point()}, ())]
        for changed, gone in deltas:
            ids = list(changed)
            derived = index.delta_applied(
                ids,
                np.asarray([changed[i].components for i in ids]).reshape(len(ids), dims),
                np.asarray([changed[i].height for i in ids]),
                tuple(gone),
            )
            assert derived is not None, "sized to stay inside the overlay budget"
            index = derived
            for node_id, coordinate in changed.items():
                oracle.update(node_id, coordinate)
            for node_id in gone:
                oracle.remove(node_id)
        assert len(index._ov_ids) == rows
        assert index.node_ids() == oracle.node_ids()

        live = oracle.node_ids()
        # Foreign targets (fresh lattice points, also off-lattice), plus
        # two members' own coordinates.
        probes = [point() for _ in range(3)]
        probes.append(Coordinate((rng.normal(size=dims) * 2.0).tolist(), 0.25))
        probes += [oracle.coordinate_of(i) for i in live[:2]]
        for probe in probes:
            closest = [node_id for node_id, _ in oracle.nearest(probe, k=2)]
            for exclude in ((), closest + list(removed[:1]) + members[:1]):
                for k in (1, 4, n + rows + 1):
                    assert index.nearest(probe, k, exclude=exclude) == oracle.nearest(
                        probe, k, exclude=exclude
                    )
            for radius in (0.0, 1.0, 2.5):
                assert index.within(probe, radius) == oracle.within(probe, radius)

        # The batch entry points on the same (overlay) generation.
        targets = live[:3] + members[:2] + list(removed[:1]) + ["ghost"]
        for k in (1, 4):
            for target, answer in zip(targets, index.knn_batch_by_id(targets, k)):
                if target in oracle:
                    assert answer == oracle.nearest_to_node(target, k)
                else:
                    assert answer is None
        for target, answer in zip(targets, index.range_batch_by_id(targets, 2.5)):
            if target in oracle:
                assert answer == oracle.within(oracle.coordinate_of(target), 2.5)
            else:
                assert answer is None


def _lattice_queries(rng, node_ids, count):
    """Random queries of every kind over ``node_ids``, tie-prone radii and k."""
    queries = []
    n = len(node_ids)
    for _ in range(count):
        target = str(rng.choice(node_ids))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            queries.append(Query.knn(target, k=int(rng.choice([1, 2, 3, n + 1]))))
        elif kind == 1:
            queries.append(Query.nearest(target))
        elif kind == 2:
            queries.append(Query.range(target, float(rng.choice([0.0, 1.0, 2.5, 4.0]))))
        elif kind == 3:
            queries.append(Query.pairwise(target, str(rng.choice(node_ids))))
        else:
            size = int(rng.integers(0, 4))
            members = rng.choice(node_ids, size=min(size, n), replace=False)
            queries.append(Query.centroid(tuple(str(m) for m in members)))
    return queries


def _oracle_answer(mirror: SnapshotStore, query: Query):
    """``answer_query`` over the linear oracle at the mirror's latest version."""
    snapshot = mirror.latest()
    return answer_query(query, snapshot, (mirror.index_for(snapshot),))


class TestCacheCarriedAcrossADelta:
    """A delta publish re-keys the cached answers it provably leaves unchanged.

    The load-bearing property: after every publish, every entry keyed to
    the new version equals the linear oracle's answer at that version --
    so a carried hit is exactly what a fresh miss would have computed.
    """

    @given(
        dims=st.integers(1, 4),
        with_heights=st.booleans(),
        n=st.integers(1, 40),
        shards=st.integers(1, 4),
        index_kind=st.sampled_from(["vptree", "dense"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_carried_entry_equals_the_oracle(
        self, dims, with_heights, n, shards, index_kind, seed
    ):
        rng = np.random.default_rng(seed)

        def points(count):
            # A 7-wide integer lattice: equal distances and duplicates abound.
            components = rng.integers(-3, 4, size=(count, dims)).astype(float)
            if with_heights:
                return components, rng.choice([0.0, 0.5, 1.0], size=count)
            return components, np.zeros(count)

        node_ids = [f"n{i:03d}" for i in range(n)]
        components, heights = points(n)
        store = ShardedCoordinateStore(shards, index_kind=index_kind)
        mirror = SnapshotStore(index_kind="linear")
        store.publish_epoch(node_ids, components, heights)
        mirror.publish_epoch(node_ids, components, heights)
        fresh = 0
        for _ in range(4):
            live = mirror.latest().node_ids()
            queries = list(dict.fromkeys(_lattice_queries(rng, live, 12)))
            for query in queries:
                store.serve(query)
            # Moves, removals and additions, each absent half the time:
            # an addition-only delta is what a short kNN answer must miss.
            moves = int(rng.choice([0, 0, 0, 1, 2, 3]))
            moved = [str(i) for i in rng.permutation(live)[:moves]]
            rest = [node_id for node_id in live if node_id not in moved]
            # At most two removals, and never the whole population.
            removals = int(rng.choice([0, 0, 1, 2]))
            removals = min(removals, len(rest), len(live) - 1)
            removed = tuple(str(i) for i in rng.permutation(rest)[:removals])
            added = [f"late{fresh + i}" for i in range(int(rng.choice([0, 0, 1, 2])))]
            fresh += len(added)
            changed = moved + added
            values, value_heights = points(len(changed))
            delta = EpochDelta(changed, values, value_heights, removed_ids=removed)
            base_entries = len(store.cache)
            rollover = store.cache.evictions_rollover
            carried_before = store.registry.counter("store_cache_carried_total").value
            generation = store.publish_delta(delta)
            mirror.publish_delta(delta)
            assert generation.version == mirror.version
            carried = store.cache.entries_at(generation.version)
            # Nothing else is left behind, and the counts add up.
            assert len(store.cache) == len(carried)
            assert store.cache.evictions_rollover - rollover == base_entries - len(carried)
            assert (
                store.registry.counter("store_cache_carried_total").value - carried_before
                == len(carried)
            )
            for query, payload in carried:
                assert payload == _oracle_answer(mirror, query), query
            # Served at the new version, a carried answer is a hit.
            carried_queries = {query for query, _ in carried}
            for query in queries:
                try:
                    result = store.serve(query)
                except QueryError:
                    continue  # an endpoint or target was removed
                assert result.cached == (query in carried_queries)
                assert result.payload == _oracle_answer(mirror, query)

    @given(
        dims=st.integers(1, 4),
        origins=st.integers(1, 30),
        points=st.integers(1, 40),
        cells=st.sampled_from([1, 7, 64, 2**15]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_reach_sweep_equals_the_all_pairs_loop(self, dims, origins, points, cells, seed):
        # The sweep and its chunking against ``Coordinate.distance`` over
        # every pair, ties included; tiny cell budgets force lone-origin
        # blocks and one-origin chunks.
        rng = np.random.default_rng(seed)

        def lattice(count):
            return (
                rng.integers(-3, 4, size=(count, dims)).astype(float),
                rng.choice([0.0, 0.5, 1.0], size=count),
            )

        o_comps, o_heights = lattice(origins)
        p_comps, p_heights = lattice(points)
        limits = rng.choice([0.0, 1.0, 2.0, 3.5, np.inf], size=origins)
        with mock.patch.object(planner_module, "_SURVIVOR_CHUNK_CELLS", cells):
            reached = _reached(o_comps, o_heights, limits, p_comps, p_heights)
        expected = [
            any(
                Coordinate(o_comps[i].tolist(), o_heights[i]).distance(
                    Coordinate(p_comps[j].tolist(), p_heights[j])
                )
                <= limits[i]
                for j in range(points)
            )
            for i in range(origins)
        ]
        assert reached.tolist() == expected

    def test_readers_racing_delta_publishes_see_only_oracle_answers(self):
        # Reader threads (more than cores, tiny switch interval) hammer a
        # hot set while small deltas publish: every answer, carried or
        # fresh, must equal its claimed version's own answer.
        node_ids, components, heights = _initial_population(300, 2, seed=12)
        deltas = 30
        store = ShardedCoordinateStore(3, index_kind="vptree", history=deltas + 2)
        store.publish_epoch(node_ids, components, heights)
        hot = [Query.knn(node_id, k=3) for node_id in node_ids[:40]]
        hot += [Query.range(node_id, 12.0) for node_id in node_ids[40:60]]
        records = [[] for _ in range(4)]
        done = threading.Event()

        def read(sink):
            while not done.is_set():
                for query in hot:
                    result = store.serve(query)
                    sink.append((query, result.version, result.payload))

        def publish():
            rng = np.random.default_rng(12)
            for _ in range(deltas):
                rows = rng.choice(len(node_ids), size=3, replace=False)
                store.publish_delta(
                    EpochDelta(
                        [node_ids[row] for row in rows],
                        np.round(rng.normal(scale=20.0, size=(3, 2)) / 5.0) * 5.0,
                        np.zeros(3),
                    )
                )
                time.sleep(0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read, args=(sink,)) for sink in records]
            for reader in readers:
                reader.start()
            publisher = threading.Thread(target=publish)
            publisher.start()
            publisher.join(timeout=60)
            done.set()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not publisher.is_alive() and not any(r.is_alive() for r in readers)
        assert store.version == deltas + 1
        assert store.registry.counter("store_cache_carried_total").value > 0
        for sink in records:
            for query, version, payload in sink:
                assert payload == store.at(version).answer(query), (query, version)

    # -- pinned cases on a 1-D line: node ``n{i}`` sits at x = i ----------
    def _line(self, shards=2, n=10):
        store = ShardedCoordinateStore(shards, index_kind="vptree")
        node_ids = [f"n{i}" for i in range(n)]
        store.publish_epoch(node_ids, np.arange(n, dtype=float).reshape(n, 1))
        return store

    def _move(self, store, node_id, x):
        return store.publish_delta(EpochDelta([node_id], np.asarray([[x]])))

    def test_a_far_move_still_hits_at_the_next_version(self):
        store = self._line()
        first = store.serve(Query.knn("n0", k=2))
        generation = self._move(store, "n9", 100.0)
        again = store.serve(Query.knn("n0", k=2))
        assert again.cached and again.version == generation.version == first.version + 1
        assert again.payload is first.payload
        assert store.registry.counter("store_cache_carried_total").value == 1

    def test_a_moved_member_misses(self):
        store = self._line()
        store.serve(Query.knn("n0", k=2))  # neighbours n1, n2
        self._move(store, "n1", 50.0)
        result = store.serve(Query.knn("n0", k=2))
        assert not result.cached
        assert [e["node_id"] for e in result.payload["neighbors"]] == ["n2", "n3"]

    def test_a_changed_row_exactly_at_the_kth_distance_misses(self):
        store = self._line()
        store.serve(Query.knn("n0", k=2))  # the 2nd neighbour, n2, is at 2.0
        self._move(store, "n9", -2.0)  # a tie at the k-th distance
        assert not store.serve(Query.knn("n0", k=2)).cached

    def test_a_changed_row_exactly_at_the_radius_misses(self):
        store = self._line()
        before = store.serve(Query.range("n0", 3.0))
        self._move(store, "n9", -3.0)
        after = store.serve(Query.range("n0", 3.0))
        assert not after.cached
        assert len(after.payload["hits"]) == len(before.payload["hits"]) + 1

    def test_pairwise_with_unmoved_endpoints_is_carried(self):
        store = self._line()
        kept = store.serve(Query.pairwise("n2", "n5"))
        lost = store.serve(Query.pairwise("n2", "n7"))
        self._move(store, "n7", 40.0)
        assert store.serve(Query.pairwise("n2", "n5")).payload is kept.payload
        again = store.serve(Query.pairwise("n2", "n7"))
        assert not again.cached and again.payload != lost.payload

    def test_centroid_is_never_carried(self):
        store = self._line()
        store.serve(Query.centroid(("n0", "n1")))
        store.serve(Query.centroid(()))
        self._move(store, "n9", 9.0)  # listed, but does not even move
        assert len(store.cache) == 0
        assert not store.serve(Query.centroid(("n0", "n1"))).cached

    def test_a_shard_down_across_the_publish_still_carries_the_oracle_answer(self):
        store = self._line(shards=3)
        store.serve(Query.knn("n4", k=3))
        store.kill_shard(1)
        generation = self._move(store, "n9", 90.0)
        degraded = store.serve(Query.knn("n4", k=3))
        assert degraded.partial and not degraded.cached
        store.restart_shard(1)
        restored = store.serve(Query.knn("n4", k=3))
        assert restored.cached and restored.version == generation.version
        mirror = SnapshotStore(index_kind="linear")
        mirror.publish_epoch([f"n{i}" for i in range(10)], np.arange(10.0).reshape(10, 1))
        mirror.publish_delta(EpochDelta(["n9"], np.asarray([[90.0]])))
        assert restored.payload == _oracle_answer(mirror, Query.knn("n4", k=3))

    def test_a_publish_frees_every_answer_it_does_not_carry(self):
        # Range-heavy: wide radii, so one move in the middle drops most.
        node_ids, components, heights = _initial_population(200, 2, seed=4)
        store = ShardedCoordinateStore(2, index_kind="vptree")
        store.publish_epoch(node_ids, components, heights)
        for node_id in node_ids:
            store.serve(Query.range(node_id, 40.0))
        assert len(store.cache) == 200
        generation = store.publish_delta(
            EpochDelta([node_ids[0]], np.zeros((1, 2)), np.zeros(1))
        )
        carried = len(store.cache.entries_at(generation.version))
        assert 0 < carried < 100
        assert len(store.cache) == carried
        assert store.cache.evictions_rollover == 200 - carried
        assert store.registry.counter("store_cache_carried_total").value == carried
        assert "store_cache_carried_total " + str(carried) in store.registry.render_prometheus()
        # A full publish proves nothing, so it frees everything.
        store.publish_epoch(node_ids, components, heights)
        assert len(store.cache) == 0
        assert store.cache.evictions_rollover == 200


class TestSharedRowMaps:
    """A population-unchanged delta shares its base's id list and row map."""

    def _store(self):
        node_ids, components, heights = _initial_population(30, 2, seed=5)
        store = SnapshotStore(index_kind="vptree")
        base = store.publish_epoch(node_ids, components, heights)
        return store, base, node_ids

    def _assert_coordinates(self, snapshot, expected):
        ids, components, heights = snapshot.arrays()
        assert ids == list(expected)
        for row, node_id in enumerate(ids):
            coordinate = snapshot.coordinate_of(node_id)
            assert coordinate == expected[node_id]
            assert coordinate.components == tuple(components[row].tolist())
            assert coordinate.height == float(heights[row])
        assert snapshot.coordinate_of("ghost") is None

    def test_unchanged_population_shares_and_changed_population_does_not(self):
        store, base, node_ids = self._store()
        expected = {node_id: base.coordinate_of(node_id) for node_id in node_ids}
        moved = Coordinate([7.0, -3.0], 1.0)

        same = store.publish_delta(
            EpochDelta(
                [node_ids[4]],
                np.asarray([moved.components]),
                np.asarray([moved.height]),
                removed_ids=("never-published",),
            )
        )
        expected[node_ids[4]] = moved
        assert same.arrays()[0] is base.arrays()[0]
        assert same._row_index is base._row_index
        self._assert_coordinates(same, expected)
        empty = store.publish_delta(EpochDelta([], np.empty((0, 2))))
        assert empty.arrays()[0] is base.arrays()[0]
        assert empty._row_index is base._row_index

        removal = store.publish_delta(
            EpochDelta([], np.empty((0, 2)), removed_ids=(node_ids[0],))
        )
        del expected[node_ids[0]]
        assert removal.arrays()[0] is not base.arrays()[0]
        assert removal._row_index is not base._row_index
        self._assert_coordinates(removal, expected)

        addition = store.publish_delta(
            EpochDelta(["newcomer"], np.asarray([[1.0, 2.0]]), np.asarray([0.5]))
        )
        expected["newcomer"] = Coordinate([1.0, 2.0], 0.5)
        assert addition.arrays()[0] is not removal.arrays()[0]
        assert addition._row_index is not removal._row_index
        self._assert_coordinates(addition, expected)
        # The base was never written through the shared structures.
        assert base.arrays()[0] == node_ids and len(base._row_index) == 30


class TestEpochDeltaValidation:
    def test_rejects_overlapping_changed_and_removed(self):
        with pytest.raises(ValueError, match="both changed and removed"):
            EpochDelta(["a"], np.asarray([[1.0]]), removed_ids=("a",))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError, match="must match"):
            EpochDelta(["a", "b"], np.asarray([[1.0]]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="unique"):
            EpochDelta(["a", "a"], np.asarray([[1.0], [2.0]]))

    def test_from_coordinates_round_trip(self):
        delta = EpochDelta.from_coordinates(
            {"x": Coordinate([1.0, 2.0], 0.5)}, removed_ids=("y",), source="s", epoch=4
        )
        assert delta.node_ids == ["x"]
        assert delta.components.tolist() == [[1.0, 2.0]]
        assert delta.heights.tolist() == [0.5]
        assert delta.removed_ids == ("y",)
        assert delta.changed_count == 2

    def test_dimensionality_mismatch_is_actionable(self):
        store = SnapshotStore(index_kind="linear")
        store.publish_epoch(["a"], np.asarray([[1.0, 2.0]]), np.asarray([0.0]))
        with pytest.raises(ValueError, match="dimensionality"):
            store.publish_delta(EpochDelta(["a"], np.asarray([[1.0, 2.0, 3.0]])))

    def test_publish_delta_rejects_non_delta(self):
        for store in (SnapshotStore(), ShardedCoordinateStore(2)):
            with pytest.raises(TypeError, match="EpochDelta"):
                store.publish_delta({"node_ids": []})


class TestPublisherProtocol:
    def test_all_three_publishers_satisfy_the_protocol(self):
        assert isinstance(SnapshotStore(), EpochPublisher)
        assert isinstance(ShardedCoordinateStore(2), EpochPublisher)
        from repro.server.live import LiveServingHarness

        assert hasattr(LiveServingHarness, "publish_epoch")
        assert hasattr(LiveServingHarness, "publish_delta")

    def test_deprecated_shims_are_gone(self):
        # One way to publish: the protocol's two entry points.  The
        # object-batch route the shim covered is a delta like any other.
        assert not hasattr(SnapshotStore, "publish_arrays")
        assert not hasattr(ShardedCoordinateStore, "publish_arrays")
        assert not hasattr(ShardedCoordinateStore, "publish_coordinates")
        sharded = ShardedCoordinateStore(2, index_kind="dense")
        sharded.publish_epoch(
            ["a", "b"], np.asarray([[0.0, 0.0], [3.0, 4.0]]), np.asarray([0.0, 1.0])
        )
        generation = sharded.publish_delta(
            EpochDelta.from_coordinates({"c": Coordinate([1.0, 1.0])})
        )
        assert generation.version == 2 and "c" in generation.global_seq

    def test_batch_simulation_rejects_non_publisher(self):
        config = SimulationConfig(
            nodes=8, duration_s=20.0, node_config=NodeConfig.preset("mp"), seed=1
        )
        with pytest.raises(TypeError, match="EpochPublisher"):
            run_batch_simulation(config, publish_store=object())

    def test_publish_every_ticks_error_names_both_parameters(self):
        config = SimulationConfig(
            nodes=8, duration_s=20.0, node_config=NodeConfig.preset("mp"), seed=1
        )
        with pytest.raises(ValueError) as excinfo:
            run_batch_simulation(config, publish_every_ticks=5)
        message = str(excinfo.value)
        assert "publish_every_ticks" in message and "publish_store" in message
        with pytest.raises(ValueError, match=">= 1"):
            run_batch_simulation(
                config, publish_store=SnapshotStore(), publish_every_ticks=0
            )
        with pytest.raises(ValueError, match="publish_mode"):
            run_batch_simulation(
                config, publish_store=SnapshotStore(), publish_mode="bogus"
            )

    def test_batch_delta_mode_matches_full_mode_byte_identically(self):
        config = SimulationConfig(
            nodes=16, duration_s=100.0, node_config=NodeConfig.preset("mp"), seed=3
        )
        delta_store = SnapshotStore(index_kind="dense", history=32)
        full_store = SnapshotStore(index_kind="dense", history=32)
        delta_sim = run_batch_simulation(
            config,
            publish_store=delta_store,
            publish_every_ticks=5,
            publish_mode="delta",
            collect_profile=True,
        )
        full_sim = run_batch_simulation(
            config,
            publish_store=full_store,
            publish_every_ticks=5,
            publish_mode="full",
            collect_profile=True,
        )
        assert delta_sim.snapshots_published == full_sim.snapshots_published
        assert delta_store.version == full_store.version
        for version in range(1, delta_store.version + 1):
            d_ids, d_comps, d_hts = delta_store.at(version).arrays()
            f_ids, f_comps, f_hts = full_store.at(version).arrays()
            assert d_ids == f_ids
            assert d_comps.tobytes() == f_comps.tobytes()
            assert d_hts.tobytes() == f_hts.tobytes()
        # Delta epochs after the first carry only the churned rows.
        assert "delta_rows_published" in delta_sim.profile
        total = delta_sim.profile["delta_rows_published"]
        assert total <= config.nodes * (delta_sim.snapshots_published - 1)


class TestWireProtocolVersioning:
    def test_request_version_parsing(self):
        assert request_version({}) == 1
        assert request_version({"version": 2}) == 2
        with pytest.raises(ProtocolError, match="integer"):
            request_version({"version": "2"})
        with pytest.raises(ProtocolError, match="newer"):
            request_version({"version": PROTOCOL_VERSION + 1})
        with pytest.raises(ProtocolError, match="not valid"):
            request_version({"version": 0})

    def test_delta_publish_requires_version_2(self):
        request = {
            "op": "publish",
            "delta": True,
            "nodes": ["a"],
            "components": [[1.0]],
        }
        with pytest.raises(ProtocolError, match="version 2"):
            request_to_publish(request)
        mode, delta = request_to_publish({**request, "version": 2})
        assert mode == "delta" and isinstance(delta, EpochDelta)

    def test_versionless_full_publish_parses(self):
        mode, parsed = request_to_publish(
            {"op": "publish", "nodes": ["a"], "components": [[1.0, 2.0]], "source": "s"}
        )
        assert mode == "full"
        node_ids, components, heights, source = parsed
        assert node_ids == ["a"] and heights is None and source == "s"
        assert components.tolist() == [[1.0, 2.0]]

    def test_full_publish_rejects_delta_only_fields(self):
        from repro.service.planner import QueryError

        with pytest.raises(QueryError, match="delta"):
            request_to_publish(
                {"op": "publish", "nodes": ["a"], "components": [[1.0]], "removed": ["b"]}
            )

    def test_publish_ops_are_not_queries(self):
        assert request_to_query({"op": "publish"}) is None
        assert request_to_query({"op": "hello"}) is None
        assert "publish" in OPS and "hello" in OPS

    def test_wire_publish_both_ways_is_byte_identical(self):
        n, dims = 40, 2
        node_ids, components, heights = _initial_population(n, dims, seed=11)
        served = ShardedCoordinateStore(2, index_kind="vptree", history=64)
        oracle = ShardedCoordinateStore(2, index_kind="vptree", history=64)
        server = CoordinateServer(served, admission_limit=256)

        changed = node_ids[:4]
        changed_comps = components[:4] + 5.0
        changed_hts = heights[:4]

        async def scenario(address):
            client = await AsyncCoordinateClient.connect(*address)
            try:
                hello = await client.op("hello")
                # Old client: versionless full publish must keep working.
                legacy = await client.publish_full(
                    node_ids, components, heights, source="e0"
                )
                # New client: negotiate and publish the delta form.
                delta = await client.publish_delta(
                    changed,
                    changed_comps,
                    changed_hts,
                    removed_ids=(node_ids[-1],),
                    source="e1",
                    epoch=1,
                )
                # A delta without the negotiated version must be refused.
                refused = await client.request(
                    {
                        "op": "publish",
                        "delta": True,
                        "nodes": list(changed),
                        "components": [[float(v) for v in row] for row in changed_comps],
                    }
                )
                probe = await client.query(Query.knn(node_ids[0], k=5))
                return hello, legacy, delta, refused, probe
            finally:
                await client.close()

        with server.run_in_thread() as handle:
            hello, legacy, delta, refused, probe = asyncio.run(
                scenario(handle.address)
            )

        assert hello["ok"] and hello["payload"]["protocol_version"] == PROTOCOL_VERSION
        assert "publish" in hello["payload"]["ops"]
        assert legacy["ok"] and legacy["payload"]["mode"] == "full"
        assert legacy["payload"]["version"] == 1
        assert delta["ok"] and delta["payload"]["mode"] == "delta"
        assert delta["payload"]["version"] == 2
        assert delta["payload"]["changed"] == 5
        assert delta["payload"]["nodes"] == n - 1
        assert not refused["ok"] and "version 2" in refused["error"]

        # Oracle: the same epochs published in-process, full-rebuild only.
        oracle.publish_epoch(node_ids, components.copy(), heights.copy(), source="e0")
        final_ids = [nid for nid in node_ids if nid != node_ids[-1]]
        keep = [i for i, nid in enumerate(node_ids) if nid != node_ids[-1]]
        final_comps = components[keep].copy()
        final_hts = heights[keep].copy()
        for position, nid in enumerate(changed):
            row = final_ids.index(nid)
            final_comps[row] = changed_comps[position]
            final_hts[row] = changed_hts[position]
        oracle.publish_epoch(final_ids, final_comps, final_hts, source="e1")
        expected = oracle.serve(Query.knn(node_ids[0], k=5))
        assert probe["ok"] and probe["payload"] == expected.payload
        assert probe["version"] == expected.version == 2
