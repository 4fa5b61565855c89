"""Tests for coordinate-health observability (:mod:`repro.obs.health`).

The load-bearing guarantees:

* the health tracker is a pure function of the epoch stream: same seeded
  publishes, byte-identical snapshots, summaries and Prometheus text;
* corruption shows up where it must -- zeroing a few percent of rows
  blows up the *mean* and *p95* relative error (the median alone would
  sleep through it) -- and the accuracy gate fails on exactly that;
* the structured event log is bounded, ordered and deterministic;
* the sim integration observes published epochs without perturbing the
  simulation result.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NodeConfig
from repro.latency.planetlab import PlanetLabDataset
from repro.netsim.batch import run_batch_simulation
from repro.netsim.runner import SimulationConfig
import repro.obs.health as health_module
from repro.obs.events import EVENT_KINDS, EventLog
from repro.obs.health import (
    DISPLACEMENT_SCHEME,
    ERROR_SCHEME,
    HealthSnapshot,
    HealthTracker,
)
from repro.obs.registry import TelemetryRegistry
from repro.obs.regression import (
    AccuracyThresholds,
    collect_health_sections,
    compare_health,
    compare_health_payloads,
)


def make_epochs(n=60, d=3, epochs=5, seed=7, step=2.0):
    """A deterministic epoch stream: pure translations of one universe."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-80.0, 80.0, size=(n, d))
    node_ids = [f"h{i:03d}" for i in range(n)]
    return node_ids, [base + epoch * step for epoch in range(epochs)]


# ----------------------------------------------------------------------
# The event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_emit_assigns_stream_order_sequence_numbers(self):
        log = EventLog()
        for index in range(5):
            event = log.emit("epoch_published", version=index)
        assert event["seq"] == 4
        tail = log.tail()
        assert [event["seq"] for event in tail] == list(range(5))
        assert [event["version"] for event in tail] == list(range(5))
        assert all(event["kind"] == "epoch_published" for event in tail)

    def test_bounded_ring_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for index in range(10):
            log.emit("health_snapshot", epoch=index)
        assert log.emitted == 10 and log.dropped == 7
        tail = log.tail()
        assert [event["epoch"] for event in tail] == [7, 8, 9]
        # Sequence numbers keep counting across drops.
        assert [event["seq"] for event in tail] == [7, 8, 9]
        assert log.stats() == {
            "emitted": 10,
            "retained": 3,
            "dropped": 7,
            "capacity": 3,
        }

    def test_tail_limit_returns_newest_oldest_first(self):
        log = EventLog()
        for index in range(6):
            log.emit("generation_swapped", version=index)
        assert [event["version"] for event in log.tail(2)] == [4, 5]
        assert log.tail(0) == []

    def test_reserved_fields_and_empty_kind_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="kind"):
            log.emit("")
        with pytest.raises(ValueError, match="reserved"):
            log.emit("shard_error", seq=3)
        with pytest.raises(ValueError, match="reserved"):
            log.emit("shard_error", kind="other")

    def test_jsonl_rendering_is_sorted_and_newline_terminated(self, tmp_path):
        log = EventLog()
        log.emit("epoch_published", zulu=1, alpha=2)
        text = log.to_jsonl()
        assert text.endswith("\n")
        (line,) = text.splitlines()
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert list(json.loads(line)) == sorted(json.loads(line))
        path = tmp_path / "deep" / "events.jsonl"
        path.parent.mkdir(parents=True)
        log.write_jsonl(path)
        assert path.read_text() == text

    def test_no_wall_clock_unless_injected(self):
        assert "ts" not in EventLog().emit("epoch_published")
        stamped = EventLog(clock=lambda: 12.5).emit("epoch_published")
        assert stamped["ts"] == 12.5

    def test_known_kinds_cover_the_emitters(self):
        assert set(EVENT_KINDS) == {
            "epoch_published",
            "generation_swapped",
            "admission_shed",
            "shard_error",
            "health_snapshot",
            "fault_injected",
            "fault_cleared",
            "shard_killed",
            "shard_restarted",
            "publish_dropped",
            "publish_stalled",
        }


# ----------------------------------------------------------------------
# The health tracker
# ----------------------------------------------------------------------
class TestHealthTracker:
    def observe_all(self, tracker, node_ids, epochs, dt=None):
        snapshot = None
        for index, components in enumerate(epochs):
            snapshot = tracker.observe_epoch(
                node_ids,
                components,
                np.zeros(len(node_ids)),
                version=index + 1,
                time_s=None if dt is None else index * dt,
            )
        return snapshot

    def test_deterministic_across_runs(self):
        node_ids, epochs = make_epochs()

        def run():
            registry = TelemetryRegistry()
            events = EventLog()
            tracker = HealthTracker(seed=3, registry=registry, events=events)
            self.observe_all(tracker, node_ids, epochs)
            snapshots = json.dumps(
                [snapshot.to_dict() for snapshot in tracker.snapshots],
                sort_keys=True,
            )
            return snapshots, registry.render_prometheus(), events.to_jsonl()

        assert run() == run()

    def test_translation_keeps_error_zero_and_measures_drift(self):
        node_ids, epochs = make_epochs(d=3, step=2.0)
        tracker = HealthTracker(seed=1)
        last = self.observe_all(tracker, node_ids, epochs)
        assert isinstance(last, HealthSnapshot)
        # Distance-preserving epochs: self-referenced error is fp noise.
        assert last.relative_error_p95 < 1e-9
        assert last.relative_error_median < 1e-9
        # Centroid moves 2.0 per component per epoch (dt = 1/epoch).
        assert last.drift_velocity == pytest.approx(2.0 * math.sqrt(3.0))
        # Every node moves by exactly the same translation.
        assert last.displacement_median == pytest.approx(2.0 * math.sqrt(3.0))
        assert last.neighbor_churn == 0.0

    def test_time_scaled_drift_velocity(self):
        node_ids, epochs = make_epochs(d=2, step=3.0)
        tracker = HealthTracker(seed=1)
        # 10 simulated seconds between epochs: velocity is ms per second.
        last = self.observe_all(tracker, node_ids, epochs, dt=10.0)
        assert last.drift_velocity == pytest.approx(3.0 * math.sqrt(2.0) / 10.0)

    def test_oracle_mode_measures_true_relative_error(self):
        n = 40
        rng = np.random.default_rng(5)
        base = rng.uniform(-50.0, 50.0, size=(n, 2))
        node_ids = [f"h{i:03d}" for i in range(n)]
        index = {node_id: row for row, node_id in enumerate(node_ids)}

        def true_rtt(a, b, time_s):
            # The truth is exactly half of every predicted distance, so
            # each pair's relative error is |pred - true| / true = 1.0.
            return 0.5 * float(
                np.linalg.norm(base[index[a]] - base[index[b]])
            )

        tracker = HealthTracker(seed=2, true_rtt=true_rtt)
        snapshot = tracker.observe_epoch(node_ids, base, np.zeros(n))
        assert tracker.summary()["mode"] == "oracle"
        assert snapshot.relative_error_median == pytest.approx(1.0)
        assert snapshot.relative_error_p95 == pytest.approx(1.0)

    def test_corruption_moves_mean_and_p95_not_median(self):
        node_ids, epochs = make_epochs(n=200, epochs=4, seed=11)
        corrupted = [components.copy() for components in epochs]
        rows = np.random.default_rng(99).choice(200, size=10, replace=False)
        for components in corrupted[1:]:
            components[rows] = 0.0

        clean_tracker = HealthTracker(seed=4)
        clean = self.observe_all(clean_tracker, node_ids, epochs)
        corrupt_tracker = HealthTracker(seed=4)
        corrupt = self.observe_all(corrupt_tracker, node_ids, corrupted)

        # 5% of rows touches ~10% of sampled pairs: the median sleeps
        # through it, the mean and p95 do not -- which is exactly why
        # the accuracy gate watches all three.
        assert corrupt.relative_error_median < 1e-9
        assert corrupt.relative_error_mean > 0.01
        assert corrupt.relative_error_p95 > 0.01
        assert clean.relative_error_mean < 1e-9

    def test_churn_detects_neighborhood_reshuffle(self):
        n = 80
        rng = np.random.default_rng(13)
        first = rng.uniform(-60.0, 60.0, size=(n, 3))
        second = rng.uniform(-60.0, 60.0, size=(n, 3))  # unrelated geometry
        node_ids = [f"h{i:03d}" for i in range(n)]
        tracker = HealthTracker(seed=6)
        tracker.observe_epoch(node_ids, first, np.zeros(n))
        snapshot = tracker.observe_epoch(node_ids, second, np.zeros(n))
        assert snapshot.neighbor_churn is not None
        assert snapshot.neighbor_churn > 0.5

    def test_sharded_displacement_histograms_merge_to_single(self):
        node_ids, epochs = make_epochs(n=64, epochs=4)
        single = HealthTracker(seed=8)
        self.observe_all(single, node_ids, epochs)

        # Partition the node population into 4 disjoint trackers and
        # fold their displacement histograms back together.
        parts = [slice(0, 16), slice(16, 32), slice(32, 48), slice(48, 64)]
        shard_trackers = []
        for part in parts:
            tracker = HealthTracker(seed=8)
            for components in epochs:
                tracker.observe_epoch(
                    node_ids[part], components[part], np.zeros(16)
                )
            shard_trackers.append(tracker)
        merged = HealthTracker.merged_displacement(shard_trackers)
        assert merged.scheme == DISPLACEMENT_SCHEME
        assert merged.count == single.displacement_histogram.count
        assert (
            merged.bucket_counts()
            == single.displacement_histogram.bucket_counts()
        )
        assert merged.sum == pytest.approx(
            single.displacement_histogram.sum, rel=1e-12
        )

    def test_metrics_summary_and_instruments(self):
        node_ids, epochs = make_epochs(epochs=3)
        registry = TelemetryRegistry()
        tracker = HealthTracker(seed=9, registry=registry)
        self.observe_all(tracker, node_ids, epochs)
        summary = tracker.metrics_summary()
        assert set(summary) == {
            "health_epochs",
            "health_relative_error_median",
            "health_relative_error_p95",
            "health_drift_velocity",
            "health_drift_mean_velocity",
            "health_displacement_p95",
            "health_neighbor_churn",
        }
        assert summary["health_epochs"] == 3.0
        text = registry.render_prometheus()
        assert "health_relative_error_median" in text
        assert "health_epochs_total 3" in text
        histogram = tracker.error_histogram
        assert histogram.scheme == ERROR_SCHEME

    def test_snapshot_event_emission(self):
        node_ids, epochs = make_epochs(epochs=2)
        events = EventLog()
        tracker = HealthTracker(seed=1, events=events)
        self.observe_all(tracker, node_ids, epochs)
        kinds = [event["kind"] for event in events.tail()]
        assert kinds == ["health_snapshot", "health_snapshot"]
        assert events.tail()[-1]["epoch"] == 2

    def test_validation(self):
        tracker = HealthTracker(seed=0)
        with pytest.raises(ValueError, match="components"):
            tracker.observe_epoch(["a", "b"], np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="heights"):
            tracker.observe_epoch(["a", "b"], np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="sample_pairs"):
            HealthTracker(sample_pairs=0)
        with pytest.raises(ValueError, match="window"):
            HealthTracker(window=0)


# ----------------------------------------------------------------------
# The self-diffing pass equals the pass that skips nothing
# ----------------------------------------------------------------------
# A coarse lattice with a few heights (one tall enough that a target can
# sit farther from itself than from its neighbors): equal-distance ties (a moved row
# landing exactly on a target's k-th neighbor distance) are the common
# case, which is where a skipped scan and a repeated one could disagree.
_AXIS = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_POINT = st.tuples(_AXIS, _AXIS, st.sampled_from([0.0, 0.0, 0.5, 2.0]))


def _ranked(points, target):
    """Rows other than ``target`` by (predicted RTT to it, row)."""
    array = np.asarray(points)
    delta = array[:, :2] - array[target, :2]
    distances = np.sqrt((delta * delta).sum(axis=1)) + array[:, 2] + array[target, 2]
    order = np.lexsort((np.arange(len(points)), distances)).tolist()
    return [row for row in order if row != target]


@st.composite
def _delta_chains(draw):
    """A population and a chain of epochs derived from it.

    Each step is an empty delta, a few rows moving (targets, neighbors
    and outsiders alike -- the rows are drawn blind to the sample),
    every row moving, a removal or an addition -- or a step aimed at a
    sampled target's reserve that leaves the target in place: one of its
    current k nearest moves, a row lands exactly on its k-th neighbor
    (an equal-distance tie at the cut), or its nearest rows leave for
    far away until the reserve can fall below k.  Half the populations
    are small (every reserve holds the whole population); the rest are
    larger than any reserve, so the reserve has a bound to certify
    against.  Returns the epochs as ``(node_ids, components, heights)``
    triples plus tracker arguments.
    """
    seed = draw(st.integers(0, 5))
    knn_k = draw(st.integers(1, 3))
    knn_sample = draw(st.integers(1, 5))
    if draw(st.booleans()):
        points = draw(st.lists(_POINT, min_size=3, max_size=12))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        points = [
            (
                float(rng.integers(0, 4)),
                float(rng.integers(0, 4)),
                float(rng.choice([0.0, 0.0, 0.5, 2.0])),
            )
            for _ in range(int(rng.integers(70, 90)))
        ]
    ids = [f"n{i:02d}" for i in range(len(points))]
    sampler = HealthTracker(seed=seed, knn_sample=knn_sample)
    sampler._materialise_samples(ids)
    targets = sampler._knn_target_ids
    epochs = [(list(ids), list(points))]
    fresh = 0
    far = 0
    for kind in draw(
        st.lists(
            st.sampled_from(
                ["empty", "some", "some", "all", "remove", "add"]
                + ["neighbor", "kth", "drain", "drain"]
            ),
            min_size=1,
            max_size=6,
        )
    ):
        ids, points = list(ids), list(points)
        present = [target for target in targets if target in ids]
        if kind == "some":
            for row in draw(
                st.lists(st.integers(0, len(ids) - 1), min_size=1, max_size=3)
            ):
                points[row] = draw(_POINT)
        elif kind == "all":
            points = [draw(_POINT) for _ in points]
        elif kind == "remove" and len(ids) > 3:
            row = draw(st.integers(0, len(ids) - 1))
            del ids[row], points[row]
        elif kind == "add":
            ids.append(f"late{fresh}")
            points.append(draw(_POINT))
            fresh += 1
        elif kind in ("neighbor", "kth", "drain") and present:
            target = ids.index(draw(st.sampled_from(present)))
            ranked = _ranked(points, target)
            nearest = ranked[: min(knn_k, len(ranked))]
            if kind == "neighbor":
                points[draw(st.sampled_from(nearest))] = draw(_POINT)
            elif kind == "kth":
                points[draw(st.sampled_from(ranked))] = points[nearest[-1]]
            else:
                drained = st.sampled_from([len(ranked) // 2 or 1, len(ranked)])
                for row in ranked[: draw(drained)]:
                    points[row] = (40.0 + far % 4, 40.0, 0.0)
                    far += 1
        epochs.append((ids, points))
    arrays = [
        (
            ids,
            np.asarray([point[:2] for point in points]),
            np.asarray([point[2] for point in points]),
        )
        for ids, points in epochs
    ]
    return arrays, seed, knn_k, knn_sample


def _every_row_moved(components, heights):
    return np.ones(len(heights), dtype=bool)


def _neighbor_sets(tracker):
    return {target: reserve.neighbors for target, reserve in tracker._prev_knn.items()}


def _without_rescan_counter(text):
    return [line for line in text.splitlines() if "health_knn_rescans_total" not in line]


class TestIncrementalEqualsFull:
    @given(_delta_chains())
    @settings(max_examples=200, deadline=None)
    def test_self_diffing_tracker_equals_one_that_rescans_everything(self, chain):
        epochs, seed, knn_k, knn_sample = chain

        def tracker():
            return HealthTracker(
                seed=seed,
                knn_k=knn_k,
                knn_sample=knn_sample,
                sample_pairs=8,
                registry=TelemetryRegistry(),
            )

        incremental, full = tracker(), tracker()
        # No production switch turns the skipping off; the reference
        # tracker is told that every row moved.
        full._moved_rows = lambda components, heights: np.ones(len(heights), dtype=bool)
        for version, (ids, components, heights) in enumerate(epochs, start=1):
            got = incremental.observe_epoch(ids, components, heights, version=version)
            want = full.observe_epoch(ids, components, heights, version=version)
            assert got.to_dict() == want.to_dict()
            assert incremental.summary() == full.summary()
            for name in ("error_histogram", "displacement_histogram"):
                a, b = getattr(incremental, name), getattr(full, name)
                assert a.bucket_counts() == b.bucket_counts()
                assert (a.count, a.sum) == (b.count, b.sum)
            assert _without_rescan_counter(
                incremental.registry.render_prometheus()
            ) == _without_rescan_counter(full.registry.render_prometheus())

    @given(_delta_chains(), st.sampled_from([0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_shallow_reserves_keep_the_neighbor_sets_of_full_rescans(
        self, chain, reserve
    ):
        # A reserve barely deeper than k puts every bound, tie and
        # truncation decision into the neighbor sets themselves.
        epochs, seed, knn_k, knn_sample = chain
        with mock.patch.object(health_module, "_RESERVE", reserve):
            incremental, full = (
                HealthTracker(
                    seed=seed, knn_k=knn_k, knn_sample=knn_sample, sample_pairs=8
                )
                for _ in range(2)
            )
            full._moved_rows = _every_row_moved
            for version, (ids, components, heights) in enumerate(epochs, start=1):
                got = incremental.observe_epoch(
                    ids, components, heights, version=version
                )
                want = full.observe_epoch(ids, components, heights, version=version)
                assert got.to_dict() == want.to_dict()
                assert _neighbor_sets(incremental) == _neighbor_sets(full)

    def test_a_truncated_reserve_forgets_nothing_it_cut(self):
        # Depth k + 1 = 2 around the target at x = 0.  A row joining a
        # full reserve cuts its last row and lowers the bound to the new
        # last one; a later row landing between the two bounds must not
        # join, or it would outrank a cut row once the nearer rows leave.
        ids = [f"n{i}" for i in range(6)]
        sampler = HealthTracker(seed=0, knn_sample=1)
        sampler._materialise_samples(ids)
        target = ids.index(sampler._knn_target_ids[0])
        r1, r2, r3, r4, r5 = [row for row in range(6) if row != target]
        x = {target: 0.0, r1: 1.0, r2: 2.0, r3: 5.0, r4: 6.0, r5: 7.0}
        moves = [{}, {r3: 0.5}, {r4: 1.5}, {r3: 10.0, r5: 1.8}, {r1: 10.0}, {r5: 10.0}]
        with mock.patch.object(health_module, "_RESERVE", 1):
            incremental, full = (
                HealthTracker(
                    seed=0, knn_k=1, knn_sample=1, registry=TelemetryRegistry()
                )
                for _ in range(2)
            )
            full._moved_rows = _every_row_moved
            for version, move in enumerate(moves, start=1):
                x.update(move)
                components = np.asarray([[x[row], 0.0] for row in range(6)])
                for tracker in (incremental, full):
                    tracker.observe_epoch(ids, components, np.zeros(6), version=version)
                assert _neighbor_sets(incremental) == _neighbor_sets(full)
        # The first epoch, and the one that left the reserve empty.
        rescans = incremental.registry.counter("health_knn_rescans_total")
        assert rescans.value == 2
        assert _neighbor_sets(incremental) == {ids[target]: frozenset({ids[r4]})}

    def test_rescan_counters_count_the_skipped_work_and_repeat(self):
        rng = np.random.default_rng(21)
        n = 400
        node_ids = [f"h{i:03d}" for i in range(n)]
        base = rng.uniform(-80.0, 80.0, size=(n, 3))

        def run():
            tracker = HealthTracker(seed=2, registry=TelemetryRegistry())
            targets = tracker.registry.counter("health_knn_targets_total")
            rescans = tracker.registry.counter("health_knn_rescans_total")
            tracker.observe_epoch(node_ids, base, np.zeros(n))
            first = (targets.value, rescans.value)
            tracker.observe_epoch(node_ids, base.copy(), np.zeros(n))  # nothing moved
            unmoved = (targets.value, rescans.value)
            moved = base.copy()
            moved[:4] += 0.25
            tracker.observe_epoch(node_ids, moved, np.zeros(n))
            return first, unmoved, (targets.value, rescans.value)

        first, unmoved, after = run()
        assert first == (32, 32)  # a first epoch scans for every target
        assert unmoved == (64, 32)  # an empty delta scans for none
        assert after[0] == 96 and 32 <= after[1] < 64
        assert run() == (first, unmoved, after)


class TestStoreHealthReadsTheSnapshotRowMap:
    def test_the_tracker_keeps_the_served_row_map_and_its_output(self):
        from repro.server.sharding import ShardedCoordinateStore
        from repro.service.publish import EpochDelta

        rng = np.random.default_rng(13)
        n = 150
        node_ids = [f"h{i:03d}" for i in range(n)]
        base = rng.uniform(-80.0, 80.0, size=(n, 3))
        store = ShardedCoordinateStore(2, index_kind="vptree")
        tracker = store.health_tracker
        # The same stream, fed without the map: the tracker builds its own.
        reference = HealthTracker(seed=tracker.seed, registry=TelemetryRegistry())

        def observed(generation):
            ids, components, heights = generation.snapshot.arrays()
            want = reference.observe_epoch(
                ids, components, heights, version=generation.version
            )
            assert tracker.snapshots[-1].to_dict() == want.to_dict()
            assert tracker.summary() == reference.summary()
            assert tracker._prev_index_of is generation.snapshot.row_index
            return generation.snapshot.row_index

        first = observed(store.publish_epoch(node_ids, base, np.zeros(n)))
        assert reference._prev_index_of is not first  # a copy of its own
        # A delta that keeps the population shares the retained map.
        moved = observed(
            store.publish_delta(EpochDelta(node_ids[:5], base[:5] + 1.5, np.zeros(5)))
        )
        assert moved is first
        # One that changes it carries a new map, read rather than rebuilt.
        changed = observed(
            store.publish_delta(
                EpochDelta(["late"], base[:1] - 2.0, np.zeros(1), removed_ids=(node_ids[7],))
            )
        )
        assert changed is not first and "late" in changed
        # A full publish swaps in its own map, the population unchanged
        # or not, so no retired snapshot's map outlives it.
        restored = observed(store.publish_epoch(node_ids, base + 0.5, np.zeros(n)))
        again = observed(store.publish_epoch(node_ids, base + 1.0, np.zeros(n)))
        assert again is not restored and again == restored == first


# ----------------------------------------------------------------------
# The accuracy regression gate
# ----------------------------------------------------------------------
def health_section(median=0.0, p95=0.0, mean=0.0, velocity=1.0):
    return {
        "relative_error": {"median": median, "p95": p95, "mean": mean},
        "drift": {"mean_velocity": velocity},
    }


class TestAccuracyGate:
    def test_identical_payload_passes(self):
        section = health_section(0.1, 0.3, 0.15)
        assert compare_health(section, section, context="t") == []

    def test_improvement_never_fails(self):
        baseline = health_section(0.2, 0.5, 0.3, velocity=4.0)
        improved = health_section(0.05, 0.1, 0.06, velocity=1.0)
        assert compare_health(baseline, improved, context="t") == []

    def test_degradation_beyond_limit_fails_per_metric(self):
        baseline = health_section(0.1, 0.3, 0.15)
        worse = health_section(0.2, 0.31, 0.15)  # median 2x, p95 within 1.5x
        findings = compare_health(baseline, worse, context="ctx")
        assert len(findings) == 1
        assert "median relative error" in findings[0]
        assert "ctx" in findings[0]

    def test_atol_floor_for_near_zero_baselines(self):
        # A 1e-16 self-reference baseline must not fail on 1e-15 noise,
        # but must fail on genuine degradation.
        baseline = health_section(1e-16, 1e-16, 1e-16)
        noise = health_section(9e-16, 9e-16, 9e-16)
        assert compare_health(baseline, noise, context="t") == []
        corrupt = health_section(1e-16, 0.1, 0.08)
        findings = compare_health(baseline, corrupt, context="t")
        assert len(findings) == 2

    def test_custom_thresholds(self):
        baseline = health_section(0.1, 0.1, 0.1)
        worse = health_section(0.13, 0.1, 0.1)
        strict = AccuracyThresholds(degradation_limit=1.2, atol=1e-9)
        assert compare_health(baseline, worse, context="t") == []
        assert len(compare_health(baseline, worse, context="t", thresholds=strict)) == 1

    def test_none_and_nan_metrics_are_skipped(self):
        baseline = health_section(None, float("nan"), 0.1)
        current = health_section(5.0, 5.0, 0.1)
        assert compare_health(baseline, current, context="t") == []

    def test_collect_walks_nested_documents(self):
        document = {
            "ingest": {"health": health_section(0.1, 0.2, 0.1)},
            "legs": [
                {"health": health_section(0.0, 0.0, 0.0)},
                {"no_health": True},
            ],
            "health": {"not_a_section": True},  # no relative_error mapping
        }
        sections = collect_health_sections(document)
        assert sorted(sections) == ["ingest", "legs[0]"]

    def test_payload_comparison_is_vacuous_without_shared_sections(self):
        findings, compared = compare_health_payloads({"a": 1}, {"b": 2})
        assert findings == [] and compared == 0

    def test_payload_comparison_matches_sections_by_path(self):
        baseline = {"ingest": {"health": health_section(1e-16, 1e-16, 1e-16)}}
        corrupt = {"ingest": {"health": health_section(1e-16, 0.11, 0.08)}}
        findings, compared = compare_health_payloads(baseline, corrupt)
        assert compared == 1
        assert len(findings) == 2
        assert all("ingest" in finding for finding in findings)


# ----------------------------------------------------------------------
# Simulation integration
# ----------------------------------------------------------------------
class TestBatchSimHealth:
    def make_config(self, **overrides):
        parameters = {
            "nodes": 16,
            "duration_s": 100.0,
            "node_config": NodeConfig.preset("mp"),
            "seed": 3,
        }
        parameters.update(overrides)
        return SimulationConfig(**parameters)

    def test_health_observes_published_epochs_without_perturbing_sim(self):
        from repro.service.snapshot import SnapshotStore

        config = self.make_config()
        dataset = PlanetLabDataset.generate(
            config.nodes, seed=config.seed, parameters=config.dataset
        )
        plain = run_batch_simulation(config, backend="vectorized", dataset=dataset)

        store = SnapshotStore(index_kind="dense", history=32)
        tracker = HealthTracker(seed=config.seed, true_rtt=dataset.true_rtt_ms)
        observed = run_batch_simulation(
            config,
            backend="vectorized",
            dataset=dataset,
            publish_store=store,
            publish_every_ticks=5,
            health=tracker,
            collect_profile=True,
        )
        # 20 ticks -> 4 interval epochs + the final publish.  The final
        # publish lands on tick 20, which the interval already observed,
        # so the tracker deduplicates it (same tick, same arrays).
        assert observed.snapshots_published == 5
        assert tracker.epochs == 4
        assert tracker.summary()["mode"] == "oracle"
        assert tracker.last.relative_error_median is not None
        assert "health_s" in observed.profile
        # Observation is read-only: the simulated coordinates are
        # byte-identical with and without the tracker attached.
        for a, b in zip(plain.final_application, observed.final_application):
            assert a == b

    def test_health_every_ticks_without_store(self):
        config = self.make_config()
        tracker = HealthTracker(seed=config.seed)
        run_batch_simulation(
            config,
            backend="vectorized",
            health=tracker,
            health_every_ticks=5,
        )
        # Every 5th of 20 ticks; the final-tick observation coincides
        # with the interval one and is deduplicated.
        assert tracker.epochs == 4

    def test_health_jsonl_is_deterministic_across_runs(self):
        def run():
            events = EventLog()
            tracker = HealthTracker(seed=5, events=events)
            run_batch_simulation(
                self.make_config(),
                backend="vectorized",
                health=tracker,
                health_every_ticks=4,
            )
            return events.to_jsonl()

        first = run()
        assert first == run()
        assert all(
            json.loads(line)["kind"] == "health_snapshot"
            for line in first.splitlines()
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="health_every_ticks"):
            run_batch_simulation(
                self.make_config(), backend="vectorized", health_every_ticks=4
            )
        tracker = HealthTracker(seed=1)
        with pytest.raises(ValueError, match="health_every_ticks"):
            run_batch_simulation(
                self.make_config(),
                backend="vectorized",
                health=tracker,
                health_every_ticks=0,
            )


class TestScenarioHealth:
    def test_vectorized_scenario_carries_health_metrics(self):
        from repro.engine.kernel import run_scenario
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec.from_dict(
            {
                "name": "health-test",
                "mode": "simulate",
                "network": {"nodes": 24},
                "preset": "mp",
                "duration_s": 120.0,
                "backend": "vectorized",
                "seed": 9,
            }
        )
        first = run_scenario(spec)
        metrics = first.result.metrics
        assert metrics["health_epochs"] >= 1.0
        assert metrics["health_relative_error_median"] is not None
        health = first.result.workload["health"]
        assert health["relative_error"]["count"] > 0
        assert health["mode"] == "oracle"
        # The health section is part of the deterministic result.
        second = run_scenario(spec)
        assert first.result.canonical_json() == second.result.canonical_json()
