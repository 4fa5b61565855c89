"""Tests for the async coordinate-serving daemon (:mod:`repro.server`).

The load-bearing guarantees:

* sharded scatter-gather answers are byte-identical -- floats, ordering,
  ties -- to the single-store linear oracle, for every shard count and
  index kind;
* a response is always internally consistent with exactly one published
  snapshot version, even while epochs stream in concurrently (no torn
  reads across shards);
* the wire protocol round-trips payloads exactly, and the daemon's
  replies over TCP checksum-match the in-process oracle;
* admission control sheds load explicitly and shutdown is clean.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.core.coordinate import Coordinate
from repro.server.client import AsyncCoordinateClient
from repro.server.daemon import CoordinateServer
from repro.server.load import run_load, synthetic_coordinates
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    HEADER,
    ProtocolError,
    decode_frame,
    encode_frame,
    frame_length,
    query_to_request,
    request_to_query,
    split_frames,
)
from repro.server.sharding import ShardGeneration, ShardedCoordinateStore, shard_of
from repro.service.index import INDEX_KINDS
from repro.service.planner import Query, QueryError
from repro.service.publish import EpochDelta
from repro.service.snapshot import SnapshotStore
from repro.service.workload import generate_queries, payload_checksum, run_workload

SHARD_COUNTS = (1, 2, 3, 5)


def oracle_payloads(coords, queries):
    """The one-shard linear oracle's payloads, in stream order."""
    store = ShardedCoordinateStore.from_coordinates(
        coords, shards=1, index_kind="linear", source="t", timer=lambda: 0.0
    )
    report = run_workload(store, queries, timer=lambda: 0.0)
    return [result.payload for result in report.results], report.checksum


@pytest.fixture(scope="module")
def universe():
    coords = synthetic_coordinates(180, seed=3)
    queries = generate_queries(list(coords), 400, mix="mixed", seed=11, k=4)
    payloads, checksum = oracle_payloads(coords, queries)
    return coords, queries, payloads, checksum


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        request = {"id": 3, "op": "knn", "target": "n1", "k": 5}
        frame = encode_frame(request)
        assert frame_length(frame[: HEADER.size]) == len(frame) - HEADER.size
        assert decode_frame(frame[HEADER.size :]) == request

    def test_split_frames_handles_partials(self):
        a = encode_frame({"id": 1, "op": "ping"})
        b = encode_frame({"id": 2, "op": "version"})
        frames, rest = split_frames(a + b[:3])
        assert [frame["id"] for frame in frames] == [1]
        assert rest == b[:3]
        frames, rest = split_frames(rest + b[3:])
        assert [frame["id"] for frame in frames] == [2]
        assert rest == b""

    def test_oversized_length_prefix_rejected(self):
        header = HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            frame_length(header)

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1,2,3]")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"{nope")

    def test_request_to_query_and_back(self):
        for query in (
            Query.knn("a", k=7),
            Query.nearest("b"),
            Query.range("c", 12.5),
            Query.pairwise("a", "b"),
            Query.centroid(("a", "b", "c")),
        ):
            assert request_to_query(query_to_request(query, 1)) == query

    def test_request_validation_errors(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            request_to_query({"op": "explode"})
        with pytest.raises(QueryError, match="target"):
            request_to_query({"op": "knn", "k": 3})
        with pytest.raises(QueryError, match="must be an integer"):
            request_to_query({"op": "knn", "target": "a", "k": "three"})
        with pytest.raises(QueryError, match="numeric"):
            request_to_query({"op": "range", "target": "a"})
        with pytest.raises(QueryError, match="list of node ids"):
            request_to_query({"op": "centroid", "members": "abc"})
        assert request_to_query({"op": "stats"}) is None


# ----------------------------------------------------------------------
# Shard partitioning and scatter-gather identity
# ----------------------------------------------------------------------
class TestSharding:
    def test_shard_of_is_stable_and_in_range(self):
        for shards in (1, 2, 7):
            for node_id in ("a", "b", "node000123", ""):
                owner = shard_of(node_id, shards)
                assert 0 <= owner < shards
                assert owner == shard_of(node_id, shards)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_sharded_answers_identical_to_oracle(self, universe, shards, kind):
        coords, queries, payloads, _ = universe
        store = ShardedCoordinateStore.from_coordinates(
            coords, shards=shards, index_kind=kind, source="t"
        )
        served = [store.serve(query).payload for query in queries]
        assert served == payloads

    def test_tie_order_matches_oracle_on_lattice(self):
        # A lattice is maximally tie-heavy: many nodes at identical
        # distances.  The merged order must still equal the oracle's
        # insertion-order tie-break.
        coords = {
            f"p{i:03d}": Coordinate([float(i % 5), float(i // 5)]) for i in range(25)
        }
        queries = [Query.knn(f"p{i:03d}", k=6) for i in range(25)]
        queries += [Query.range(f"p{i:03d}", 2.0) for i in range(25)]
        payloads, _ = oracle_payloads(coords, queries)
        for shards in SHARD_COUNTS:
            store = ShardedCoordinateStore.from_coordinates(
                coords, shards=shards, index_kind="vptree"
            )
            assert [store.serve(query).payload for query in queries] == payloads

    def test_publish_arrays_identical_to_object_publish(self):
        coords = synthetic_coordinates(90, seed=5)
        node_ids = list(coords)
        components = np.asarray([coords[n].components for n in node_ids])
        heights = np.zeros(len(node_ids))
        by_arrays = ShardedCoordinateStore(3, index_kind="dense")
        by_arrays.publish_epoch(node_ids, components, heights, source="arr")
        by_objects = ShardedCoordinateStore.from_coordinates(
            coords, shards=3, index_kind="dense"
        )
        queries = generate_queries(node_ids, 150, mix="mixed", seed=2)
        assert [by_arrays.serve(q).payload for q in queries] == [
            by_objects.serve(q).payload for q in queries
        ]
        assert by_arrays.version == 1

    def test_incremental_commits_match_single_store_semantics(self):
        # Updates in place, new nodes appended: the sharded router must
        # reproduce the single store's merged insertion order exactly.
        first = {f"n{i}": Coordinate([float(i), 0.0]) for i in range(12)}
        moved = {f"n{i}": Coordinate([float(i), 1.0]) for i in range(0, 12, 2)}
        moved["extra0"] = Coordinate([0.5, 0.5])
        moved["extra1"] = Coordinate([1.5, 0.5])

        sharded = ShardedCoordinateStore(3, index_kind="vptree")
        sharded.publish_delta(EpochDelta.from_coordinates(first, source="t"))
        sharded.publish_delta(EpochDelta.from_coordinates(moved, source="t"))

        single = SnapshotStore(index_kind="linear")
        single.apply_many(first)
        single.commit(source="t")
        single.apply_many(moved)
        single.commit(source="t")

        merged = dict(first)
        merged.update(moved)
        queries = generate_queries(list(merged), 200, mix="mixed", seed=9)
        oracle = run_workload(
            ShardedCoordinateStore.from_snapshot(
                single.latest(), shards=1, index_kind="linear", timer=lambda: 0.0
            ),
            queries,
            timer=lambda: 0.0,
        )
        assert sharded.version == 2
        assert [sharded.serve(q).payload for q in queries] == [
            r.payload for r in oracle.results
        ]

    def test_generation_pinning_and_retention(self):
        store = ShardedCoordinateStore(2, index_kind="linear", history=2)
        a = {f"n{i}": Coordinate([float(i)]) for i in range(4)}
        store.publish_delta(EpochDelta.from_coordinates(a))
        pinned = store.generation()
        for round_no in range(4):
            store.publish_delta(
                EpochDelta.from_coordinates(
                    {f"n{i}": Coordinate([float(i + round_no)]) for i in range(4)}
                )
            )
        # The pinned generation still answers from its own coordinates.
        payload = pinned.answer(Query.knn("n0", k=1))
        assert payload["neighbors"][0]["predicted_rtt_ms"] == 1.0
        assert store.version == 5
        with pytest.raises(KeyError, match="not retained"):
            store.at(1)
        assert store.at(store.version) is store.generation()

    def test_unknown_nodes_and_empty_store_raise(self):
        store = ShardedCoordinateStore(2)
        with pytest.raises(QueryError, match="unknown node"):
            store.serve(Query.knn("ghost"))
        with pytest.raises(QueryError, match="empty snapshot"):
            store.serve(Query.centroid(()))
        store.publish_delta(
            EpochDelta.from_coordinates({"a": Coordinate([0.0]), "b": Coordinate([1.0])})
        )
        with pytest.raises(QueryError, match="unknown node 'ghost'"):
            store.serve(Query.pairwise("a", "ghost"))

    def test_cache_serves_repeats_and_respects_rollover(self):
        coords = {f"n{i}": Coordinate([float(i)]) for i in range(6)}
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        query = Query.knn("n0", k=2)
        first = store.serve(query)
        repeat = store.serve(query)
        assert not first.cached and repeat.cached
        assert repeat.payload == first.payload
        # New generation: the cache key includes the version, so the
        # answer is recomputed against the new coordinates.
        store.publish_delta(EpochDelta.from_coordinates({"n0": Coordinate([10.0])}))
        moved = store.serve(query)
        assert moved.version == first.version + 1 and not moved.cached
        assert moved.payload != first.payload
        stats = store.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["kinds"]["knn"]["served"] == 3

    def test_stats_shape(self):
        coords = synthetic_coordinates(24, seed=1)
        store = ShardedCoordinateStore.from_coordinates(coords, shards=3)
        store.serve(Query.nearest(next(iter(coords))))
        stats = store.stats()
        assert stats["shards"]["count"] == 3
        assert sum(stats["shards"]["sizes"]) == 24
        assert stats["ingest"]["versions_published"] == 1
        assert stats["version"] == 1 and stats["nodes"] == 24
        json.dumps(stats)  # JSON-safe

    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedCoordinateStore(0)
        with pytest.raises(ValueError, match="unknown index kind"):
            ShardedCoordinateStore(2, index_kind="octree")


# ----------------------------------------------------------------------
# The daemon over TCP
# ----------------------------------------------------------------------
def serve_in_thread(store, **kwargs):
    return CoordinateServer(store, **kwargs).run_in_thread()


class TestDaemon:
    def test_wire_results_identical_to_oracle_closed_loop(self, universe):
        coords, queries, _, checksum = universe
        store = ShardedCoordinateStore.from_coordinates(
            coords, shards=3, index_kind="vptree", source="t"
        )
        with serve_in_thread(store) as handle:
            report = run_load(
                handle.address, queries, mode="closed", concurrency=8, connections=2
            )
        assert report.errors == 0
        assert report.checksum == checksum
        assert report.versions == (1,)
        assert set(report.kinds) == {"knn", "nearest", "range", "pairwise", "centroid"}
        for summary in report.kinds.values():
            assert summary["latency_exact"]

    def test_wire_results_identical_to_oracle_open_loop(self, universe):
        coords, queries, _, checksum = universe
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        with serve_in_thread(store) as handle:
            report = run_load(
                handle.address,
                queries[:100],
                mode="open",
                rate_qps=5000.0,
                connections=2,
            )
        assert report.errors == 0
        assert report.offered_qps == 5000.0
        _, expected = oracle_payloads(coords, queries[:100])
        assert report.checksum == expected

    def test_admin_ops(self):
        coords = synthetic_coordinates(16, seed=2)
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2, source="adm")

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                pong = await client.op("ping")
                version = await client.op("version")
                nodes = await client.op("nodes")
                stats = await client.op("stats")
                dump = await client.op("snapshot")
                bad = await client.op("knn", target="ghost")
                malformed = await client.request({"op": "warp"})
                return pong, version, nodes, stats, dump, bad, malformed

        with serve_in_thread(store) as handle:
            pong, version, nodes, stats, dump, bad, malformed = asyncio.run(
                scenario(handle.address)
            )
        assert pong["ok"] and pong["payload"] == {"pong": True}
        assert version["payload"] == {"version": 1, "nodes": 16, "source": "adm"}
        assert sorted(nodes["payload"]["node_ids"]) == sorted(coords)
        assert stats["payload"]["admission"]["connections_total"] == 1
        assert stats["payload"]["shards"]["count"] == 2
        restored = {
            node_id: Coordinate(entry["components"], entry["height"])
            for node_id, entry in dump["payload"]["coordinates"].items()
        }
        assert restored == dict(coords)
        assert not bad["ok"] and "unknown node" in bad["error"]
        assert not malformed["ok"] and "unknown op" in malformed["error"]

    def test_admission_control_sheds_load(self):
        store = ShardedCoordinateStore.from_coordinates(
            synthetic_coordinates(8, seed=1), shards=1
        )
        engine = CoordinateServer(store, admission_limit=1).engine
        assert engine._admit() is True
        assert engine._admit() is False
        engine._release()
        assert engine._admit() is True
        stats = engine.admission_stats()
        assert stats["rejected_overload"] == 1
        assert stats["admitted"] == 2
        assert stats["max_in_flight"] == 1

    def test_corrupt_frame_gets_error_then_close(self):
        store = ShardedCoordinateStore.from_coordinates(
            synthetic_coordinates(8, seed=1), shards=1
        )

        async def scenario(address):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(HEADER.pack(MAX_FRAME_BYTES + 5))
            await writer.drain()
            header = await reader.readexactly(HEADER.size)
            body = await reader.readexactly(frame_length(header))
            response = decode_frame(body)
            trailer = await reader.read()  # server closes after the error
            writer.close()
            return response, trailer

        with serve_in_thread(store) as handle:
            response, trailer = asyncio.run(scenario(handle.address))
        assert not response["ok"] and "exceeds" in response["error"]
        assert trailer == b""

    def test_shutdown_op_stops_daemon_cleanly(self):
        store = ShardedCoordinateStore.from_coordinates(
            synthetic_coordinates(8, seed=1), shards=1
        )
        handle = serve_in_thread(store)
        address = handle.start()

        async def shutdown(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                return await client.op("shutdown")

        response = asyncio.run(shutdown(address))
        assert response["ok"] and response["payload"] == {"stopping": True}
        handle.stop()  # joins; the shutdown op already initiated the stop
        with pytest.raises(OSError):
            asyncio.run(shutdown(address))


# ----------------------------------------------------------------------
# Telemetry over the wire: metrics op, error stats, per-request tracing
# ----------------------------------------------------------------------
class TestTelemetryWire:
    def test_metrics_op_renders_prometheus_text(self, universe):
        coords, queries, _, _ = universe
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                for query in queries[:20]:
                    await client.request(query_to_request(query, None))
                return await client.op("metrics")

        with serve_in_thread(store) as handle:
            response = asyncio.run(scenario(handle.address))
        assert response["ok"]
        payload = response["payload"]
        assert payload["content_type"].startswith("text/plain")
        text = payload["text"]
        assert "# TYPE store_serve_latency_ms histogram" in text
        assert "# TYPE store_served_total counter" in text
        assert "# TYPE daemon_connections_total counter" in text
        # The store's serve counters agree with the rendered samples.
        served = sum(
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("store_served_total{")
        )
        assert served == 20

    def test_stats_op_reports_per_op_error_counts(self):
        store = ShardedCoordinateStore.from_coordinates(
            synthetic_coordinates(12, seed=4), shards=2
        )

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                await client.op("knn", target="ghost")
                await client.op("knn", target="ghost")
                await client.op("range", target="ghost", radius_ms=5.0)
                await client.request({"op": "warp"})
                await client.op("ping")
                stats = await client.op("stats")
                return stats

        with serve_in_thread(store) as handle:
            stats = asyncio.run(scenario(handle.address))
        errors = stats["payload"]["errors"]
        assert errors["by_op"] == {"knn": 2, "range": 1, "invalid": 1}
        assert errors["total"] == 4
        json.dumps(errors)

    def test_traced_request_carries_stage_breakdown(self):
        store = ShardedCoordinateStore.from_coordinates(
            synthetic_coordinates(24, seed=6), shards=3
        )

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                traced = await client.request(
                    {"op": "knn", "target": next(iter(store.generation().node_order)), "k": 3, "trace": True}
                )
                plain = await client.op("knn", target=store.generation().node_order[0], k=3)
                return traced, plain

        with serve_in_thread(store) as handle:
            traced, plain = asyncio.run(scenario(handle.address))
        assert traced["ok"] and "trace" not in plain
        stages = [entry["stage"] for entry in traced["trace"]]
        # Per-shard scatter legs, then the merge, then the enclosing
        # stages in close order.
        assert stages.count("query.scatter") == 3
        assert {entry["shard"] for entry in traced["trace"] if entry["stage"] == "query.scatter"} == {0, 1, 2}
        for stage in ("store.cache", "query.merge", "store.serve", "daemon.admission", "daemon.request"):
            assert stage in stages, stages
        assert stages.index("query.merge") < stages.index("daemon.request")
        assert all(entry["ms"] >= 0.0 for entry in traced["trace"])

    def test_span_histograms_recorded_when_enabled(self):
        coords = synthetic_coordinates(12, seed=8)
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        server = CoordinateServer(store, trace_spans=True)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                await client.op("knn", target=next(iter(coords)), k=2)

        with server.run_in_thread() as handle:
            asyncio.run(scenario(handle.address))
        text = server.registry.render_prometheus()
        assert 'span_ms_count{op="knn",span="daemon.request"} 1' in text
        assert 'span="query.scatter"' in text


class TestOpenLoopArrivalClock:
    def test_queueing_behind_a_stalled_loop_is_measured(self):
        # The first request blocks the event loop; every later request
        # was due while it was stalled, so its latency must include the
        # wait from its scheduled send time, not from when it got to run.
        stall_s, interval_s = 0.2, 0.01

        class StallingClient:
            calls = 0

            async def request(self, request, *, timeout=None):
                StallingClient.calls += 1
                if StallingClient.calls == 1:
                    time.sleep(stall_s)
                return {"ok": True, "payload": {}, "version": 1}

            async def close(self):
                pass

        async def connect():
            return StallingClient()

        report = run_load(
            ("127.0.0.1", 0),
            [Query.knn(f"n{i}", k=1) for i in range(5)],
            mode="open",
            rate_qps=1.0 / interval_s,
            collect_health=False,
            connect=connect,
        )
        assert report.errors == 0
        for position, latency_ms in enumerate(report.latencies_ms):
            queued_ms = (stall_s - position * interval_s) * 1e3
            assert latency_ms >= queued_ms - 5.0, (position, latency_ms)


# ----------------------------------------------------------------------
# Load-harness telemetry: determinism and schema stability (satellites)
# ----------------------------------------------------------------------
class TestLoadTelemetry:
    def run_deterministic(self, universe, registry):
        from repro.server.load import run_load as _run_load

        coords, queries, _, _ = universe
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        with serve_in_thread(store) as handle:
            return _run_load(
                handle.address,
                queries,
                mode="closed",
                concurrency=8,
                connections=2,
                registry=registry,
                deterministic_timing=True,
            )

    def test_deterministic_timing_is_byte_identical_across_runs(self, universe):
        from repro.obs.registry import TelemetryRegistry

        first_registry = TelemetryRegistry()
        second_registry = TelemetryRegistry()
        first = self.run_deterministic(universe, first_registry)
        second = self.run_deterministic(universe, second_registry)
        assert first.telemetry == second.telemetry
        assert (
            first_registry.render_prometheus() == second_registry.render_prometheus()
        )
        assert "load_latency_ms_bucket" in first_registry.render_prometheus()

    def test_histogram_percentiles_within_one_bucket_of_exact(self, universe):
        from repro.obs.registry import LatencyHistogram

        coords, queries, _, _ = universe
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        with serve_in_thread(store) as handle:
            report = run_load(
                handle.address, queries, mode="closed", concurrency=8
            )
        for kind, exact in report.kinds.items():
            assert exact["latency_exact"]
            entry = report.telemetry["kinds"][kind]
            histogram = LatencyHistogram.from_dict(entry["histogram"])
            growth = histogram.scheme.growth
            assert histogram.count == exact["count"]
            for label in ("p50_ms", "p99_ms"):
                # Reservoir percentiles are exact here; the bucket
                # read-out sits within one multiplicative bucket width.
                percentile = 50.0 if label == "p50_ms" else 99.0
                read = histogram.percentile(percentile)
                assert exact[label] <= read * (1.0 + 1e-9)
                assert read <= exact[label] * growth * (1.0 + 1e-9)

    def test_report_schema_is_stable_with_additive_telemetry(self, universe):
        report = self.run_deterministic(universe, None)
        payload = report.as_dict()
        # Every pre-telemetry key survives with its original meaning.
        assert set(payload) == {
            "mode", "query_count", "ok", "errors", "overloaded", "elapsed_s",
            "qps", "offered_qps", "kinds", "checksum", "versions", "telemetry",
            "health", "error_kinds", "degraded",
        }
        assert payload["query_count"] == payload["ok"] == 400
        assert payload["error_kinds"] == {} and payload["degraded"] == 0
        for kind, summary in payload["kinds"].items():
            assert set(summary) == {"count", "p50_ms", "p99_ms", "latency_exact"}
        telemetry = payload["telemetry"]
        assert telemetry["unit"] == "ms" and telemetry["deterministic_timing"]
        for kind, entry in telemetry["kinds"].items():
            assert set(entry) == {
                "count", "p50_ms", "p99_ms", "p999_ms", "latency_exact", "histogram",
            }
            assert entry["count"] == payload["kinds"][kind]["count"]
        json.dumps(payload)

    def test_report_health_section_is_deterministic(self, universe):
        first = self.run_deterministic(universe, None)
        second = self.run_deterministic(universe, None)
        assert first.health, "load report carries no health section"
        assert json.dumps(first.health, sort_keys=True) == json.dumps(
            second.health, sort_keys=True
        )
        # --deterministic-timing stubs the timer-based staleness figures
        # so the whole section is byte-reproducible.
        assert first.health["staleness"] == {
            "deterministic_timing": True,
            "generation_age_s": None,
            "publish_to_serve_age_ms": None,
        }
        assert first.health["relative_error"]["count"] > 0
        assert first.health["generation"]["nodes"] == 180


# ----------------------------------------------------------------------
# Coordinate health and the event log over the wire
# ----------------------------------------------------------------------
class TestHealthWire:
    def make_store(self, epochs=3, nodes=40, shards=3):
        node_ids = [f"h{i:03d}" for i in range(nodes)]
        rng = np.random.default_rng(11)
        base = rng.uniform(-80.0, 80.0, size=(nodes, 3))
        store = ShardedCoordinateStore(
            shards, index_kind="vptree", history=epochs + 2, health_seed=5
        )
        for epoch in range(epochs):
            store.publish_epoch(
                node_ids, base + epoch * 2.0, np.zeros(nodes), source=f"e{epoch}"
            )
        return store

    def test_health_op_payload_shape(self):
        store = self.make_store()

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                full = await client.op("health")
                partial = await client.op("health", sections=["relative_error"])
                return full, partial

        with serve_in_thread(store) as handle:
            full, partial = asyncio.run(scenario(handle.address))
        assert full["ok"] and full["version"] == 3
        payload = full["payload"]
        assert list(payload) == [
            "generation", "relative_error", "drift", "neighbor_churn", "staleness",
        ]
        assert payload["generation"]["version"] == 3
        assert payload["generation"]["mode"] == "self-reference"
        assert payload["relative_error"]["count"] > 0
        # Translated epochs preserve distances: the self-referenced
        # relative error stays at floating-point noise.
        assert payload["relative_error"]["p95"] < 1e-9
        assert payload["drift"]["mean_velocity"] == pytest.approx(
            2.0 * np.sqrt(3.0)
        )
        assert payload["neighbor_churn"]["last"] == 0.0
        json.dumps(payload)
        assert list(partial["payload"]) == ["relative_error"]

    def test_health_op_unknown_section_is_error_envelope(self):
        store = self.make_store(epochs=1)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                unknown = await client.request(
                    {"id": 41, "op": "health", "sections": ["bogus"]}
                )
                bad_type = await client.request(
                    {"id": 42, "op": "health", "sections": "drift"}
                )
                return unknown, bad_type

        with serve_in_thread(store) as handle:
            unknown, bad_type = asyncio.run(scenario(handle.address))
        # The exact error envelope: id + ok + error, nothing else.
        assert set(unknown) == {"id", "ok", "error"} and not unknown["ok"]
        assert "unknown health section" in unknown["error"]
        assert "bogus" in unknown["error"]
        assert set(bad_type) == {"id", "ok", "error"} and not bad_type["ok"]
        assert "list of section names" in bad_type["error"]

    def test_health_op_trace_interplay(self):
        store = self.make_store(epochs=2)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                traced = await client.request({"op": "health", "trace": True})
                plain = await client.op("health")
                return traced, plain

        with serve_in_thread(store) as handle:
            traced, plain = asyncio.run(scenario(handle.address))
        assert traced["ok"] and "trace" not in plain
        stages = [entry["stage"] for entry in traced["trace"]]
        assert "daemon.health" in stages
        assert "daemon.request" in stages
        assert traced["payload"]["generation"]["version"] == 2

    def test_events_op_tail_and_validation(self):
        store = self.make_store(epochs=3)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                everything = await client.op("events")
                tail = await client.op("events", limit=2)
                invalid = await client.op("events", limit=-1)
                return everything, tail, invalid

        with serve_in_thread(store) as handle:
            everything, tail, invalid = asyncio.run(scenario(handle.address))
        events = everything["payload"]["events"]
        # 3 epochs x (published, swapped, health_snapshot).
        assert len(events) == 9
        assert [event["seq"] for event in events] == list(range(9))
        kinds = {event["kind"] for event in events}
        assert kinds == {"epoch_published", "generation_swapped", "health_snapshot"}
        stats = everything["payload"]["stats"]
        assert stats["emitted"] == 9 and stats["dropped"] == 0
        assert [event["seq"] for event in tail["payload"]["events"]] == [7, 8]
        assert not invalid["ok"]
        assert "non-negative integer" in invalid["error"]

    def test_sharded_health_equals_single_store_health(self):
        node_ids = [f"h{i:03d}" for i in range(36)]
        rng = np.random.default_rng(23)
        base = rng.uniform(-50.0, 50.0, size=(36, 4))
        payloads = []
        for shards in (1, 4):
            store = ShardedCoordinateStore(
                shards, index_kind="linear", history=8, health_seed=9
            )
            for epoch in range(4):
                store.publish_epoch(
                    node_ids,
                    base * (1.0 + 0.05 * epoch),
                    np.full(36, 0.5),
                    source=f"e{epoch}",
                )
            payloads.append(
                store.health(
                    ["generation", "relative_error", "drift", "neighbor_churn"]
                )
            )
        assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
            payloads[1], sort_keys=True
        )


# ----------------------------------------------------------------------
# Concurrent ingest while serving: no torn reads (satellite)
# ----------------------------------------------------------------------
class TestIngestWhileServing:
    def test_every_response_consistent_with_exactly_one_version(self):
        """The torn-read detector.

        Epochs with *disjoint* coordinate sets stream into the daemon
        while concurrent clients hammer knn/range/centroid queries.  A
        response claiming version v must equal a re-serve of the same
        query against the retained generation v -- any cross-shard
        mixing of generations changes some distance and fails the
        comparison.
        """
        n = 48
        node_ids = [f"h{i:03d}" for i in range(n)]
        rng = np.random.default_rng(7)
        base = rng.uniform(-100.0, 100.0, size=(n, 3))
        epochs = 24
        store = ShardedCoordinateStore(3, index_kind="vptree", history=epochs + 2)
        store.publish_epoch(node_ids, base.copy(), np.zeros(n), source="e0")

        stop = threading.Event()

        def ingest():
            # Every epoch translates the whole universe, so distances
            # between any cross-epoch pair differ from both epochs' own.
            for epoch in range(1, epochs):
                shifted = base + epoch * 13.37
                store.publish_epoch(
                    node_ids, shifted, np.zeros(n), source=f"e{epoch}"
                )
                time.sleep(0.002)
            stop.set()

        queries = generate_queries(node_ids, 600, mix="mixed", seed=5, k=3)
        server = CoordinateServer(store)
        with server.run_in_thread() as handle:
            writer = threading.Thread(target=ingest)
            writer.start()
            report = run_load(
                handle.address, queries, mode="closed", concurrency=6, connections=3
            )
            writer.join()
        assert report.errors == 0
        versions_seen = set()
        for query, response in zip(queries, report.responses):
            version = int(response["version"])
            versions_seen.add(version)
            generation = store.at(version)
            assert response["payload"] == generation.answer(query), (
                f"torn read: version {version}, query {query}"
            )
        assert versions_seen <= set(range(1, epochs + 1))

    def test_serving_store_cache_never_leaks_across_versions(self):
        coords = {f"n{i}": Coordinate([float(i)]) for i in range(8)}
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        query = Query.knn("n3", k=2)
        before = store.serve(query)
        store.publish_delta(
            EpochDelta.from_coordinates(
                {f"n{i}": Coordinate([float(i) * 3.0]) for i in range(8)}
            )
        )
        after = store.serve(query)
        assert after.version == before.version + 1 and not after.cached
        assert before.payload != after.payload


# ----------------------------------------------------------------------
# The queries-live scenario workload
# ----------------------------------------------------------------------
class TestQueriesLiveScenario:
    @pytest.fixture(scope="class")
    def live_spec(self):
        from repro.scenarios.spec import ScenarioSpec

        return ScenarioSpec.from_dict(
            {
                "name": "live-test",
                "mode": "simulate",
                "network": {"nodes": 32},
                "preset": "mp",
                "duration_s": 150.0,
                "backend": "vectorized",
                "workload": {
                    "kind": "queries-live",
                    "params": {
                        "count": 96,
                        "live_count": 24,
                        "shards": 2,
                        "publish_every_ticks": 5,
                    },
                },
                "seed": 3,
            }
        )

    def test_end_to_end_metrics(self, live_spec):
        from repro.engine.kernel import run_scenario

        profile: dict = {}
        run = run_scenario(live_spec, collect_profile=True)
        metrics = run.result.metrics
        assert metrics["query_oracle_agreement"] == 1.0
        assert metrics["live_ok_rate"] == 1.0
        assert metrics["live_consistency"] == 1.0
        assert metrics["query_error_count"] == 0.0
        assert metrics["query_count"] == 96.0
        assert metrics["live_query_count"] == 24.0
        # 150s / 5s interval = 30 ticks; publish every 5 -> 6 + final.
        assert metrics["epochs_published"] == 7.0
        payload = run.result.workload
        assert payload["checksum"] == payload["oracle_checksum"]
        assert payload["shards"] == 2
        assert run.profile and "measured_serve_qps" in run.profile

    def test_results_deterministic_across_runs(self, live_spec):
        from repro.engine.kernel import run_scenario

        first = run_scenario(live_spec).result.canonical_json()
        second = run_scenario(live_spec).result.canonical_json()
        assert first == second

    def test_spec_validation(self):
        from repro.scenarios.spec import ScenarioError, ScenarioSpec

        with pytest.raises(ScenarioError, match="backend='vectorized'"):
            ScenarioSpec.from_dict(
                {
                    "name": "bad",
                    "mode": "simulate",
                    "preset": "mp",
                    "workload": {"kind": "queries-live"},
                }
            )
        with pytest.raises(ScenarioError, match="shards"):
            ScenarioSpec.from_dict(
                {
                    "name": "bad",
                    "mode": "simulate",
                    "preset": "mp",
                    "backend": "vectorized",
                    "workload": {"kind": "queries-live", "params": {"shards": 0}},
                }
            )
        with pytest.raises(ScenarioError, match="publish_every_ticks"):
            ScenarioSpec.from_dict(
                {
                    "name": "bad",
                    "mode": "simulate",
                    "preset": "mp",
                    "backend": "vectorized",
                    "workload": {
                        "kind": "queries-live",
                        "params": {"publish_every_ticks": 0},
                    },
                }
            )


# ----------------------------------------------------------------------
# CLI: serve-daemon + load
# ----------------------------------------------------------------------
class TestServerCli:
    def test_serve_daemon_rejects_the_deleted_grid_index(self, capsys):
        from repro.server.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["serve-daemon", "--synthetic", "8", "--index", "grid"])
        assert exited.value.code == 2
        assert "invalid choice: 'grid'" in capsys.readouterr().err

    def test_serve_daemon_and_load_roundtrip(self, tmp_path, capsys):
        from repro.server.cli import main

        ready = tmp_path / "ready.txt"
        # Nested, not-yet-existing directories: the CLI must create them.
        out = tmp_path / "artifacts" / "load.json"
        metrics_out = tmp_path / "artifacts" / "prom" / "load-metrics.prom"
        health_out = tmp_path / "artifacts" / "health.json"
        events_out = tmp_path / "artifacts" / "events.jsonl"
        daemon_rc: list = []

        def run_daemon():
            daemon_rc.append(
                main(
                    [
                        "serve-daemon",
                        "--synthetic", "64",
                        "--shards", "2",
                        "--ready-file", str(ready),
                        "--max-seconds", "60",
                    ]
                )
            )

        thread = threading.Thread(target=run_daemon)
        thread.start()
        try:
            deadline = time.time() + 15.0
            # Wait for the full "host port" line, not just the file: the
            # ready file briefly exists empty while being written.
            fields: list = []
            while time.time() < deadline:
                if ready.exists():
                    fields = ready.read_text().split()
                    if len(fields) == 2:
                        break
                time.sleep(0.01)
            assert len(fields) == 2, "daemon never wrote the ready file"
            host, port = fields
            metrics_rc = main(["metrics", "--host", host, "--port", port])
            assert metrics_rc == 0
            rc = main(
                [
                    "load",
                    "--host", host,
                    "--port", port,
                    "--count", "300",
                    "--mix", "mixed",
                    "--verify-oracle",
                    "--deterministic-timing",
                    "--shutdown",
                    "--out", str(out),
                    "--metrics-out", str(metrics_out),
                    "--health-out", str(health_out),
                    "--events-out", str(events_out),
                ]
            )
            assert rc == 0
        finally:
            thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert daemon_rc == [0]
        captured = capsys.readouterr().out
        assert "# TYPE store_version gauge" in captured  # metrics command output
        assert "identical: True" in captured
        assert "daemon acknowledged shutdown" in captured
        assert "daemon stopped cleanly" in captured
        report = json.loads(out.read_text())
        assert report["ok"] == 300 and report["errors"] == 0
        assert report["telemetry"]["kinds"]
        metrics_text = metrics_out.read_text()
        assert "# TYPE load_latency_ms histogram" in metrics_text
        assert 'load_requests_total{outcome="ok"} 300' in metrics_text
        health = json.loads(health_out.read_text())
        assert health == report["health"]
        assert health["relative_error"]["count"] > 0
        events = [
            json.loads(line) for line in events_out.read_text().splitlines()
        ]
        assert events and {"epoch_published", "generation_swapped"} <= {
            event["kind"] for event in events
        }
        assert [event["seq"] for event in events] == sorted(
            event["seq"] for event in events
        )

    def test_health_cli_is_deterministic_and_hardens_paths(self, tmp_path, capsys):
        from repro.server.cli import main

        node_ids = [f"h{i:02d}" for i in range(30)]
        rng = np.random.default_rng(2)
        base = rng.uniform(-40.0, 40.0, size=(30, 3))
        store = ShardedCoordinateStore(
            2, index_kind="vptree", history=8, health_seed=3
        )
        for epoch in range(3):
            store.publish_epoch(
                node_ids, base + epoch * 1.5, np.zeros(30), source=f"e{epoch}"
            )
        # Deterministic sections only: staleness reads the wall clock.
        sections = "generation,relative_error,drift,neighbor_churn"
        with serve_in_thread(store) as handle:
            host, port = handle.address
            base_args = ["health", "--host", host, "--port", str(port)]
            assert main(base_args + ["--sections", sections]) == 0
            first = capsys.readouterr().out
            assert main(base_args + ["--sections", sections]) == 0
            second = capsys.readouterr().out
            assert first == second
            assert "generation: v3" in first
            assert "relative_error: median" in first
            assert "staleness" not in first

            nested = tmp_path / "deep" / "dir" / "health.json"
            assert main(base_args + ["--json", "--out", str(nested)]) == 0
            payload = json.loads(nested.read_text())
            assert payload["generation"]["version"] == 3
            capsys.readouterr()

            blocker = tmp_path / "blocker"
            blocker.write_text("a file, not a directory\n")
            rc = main(base_args + ["--out", str(blocker / "x.txt")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.strip().count("\n") == 0

            assert (
                main(
                    [
                        "watch",
                        "--host", host,
                        "--port", str(port),
                        "--interval", "0.01",
                        "--iterations", "2",
                    ]
                )
                == 0
            )
            watch_out = capsys.readouterr().out
            assert "served queries (cumulative)" in watch_out
            assert "relative_error: median" in watch_out

    def test_load_against_dead_port_is_clean_error(self, capsys):
        from repro.server.cli import main

        rc = main(["load", "--port", "1", "--count", "10"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_health_against_dead_port_is_clean_error(self, capsys):
        from repro.server.cli import main

        rc = main(["health", "--port", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_watch_validation_and_dead_port(self, capsys):
        from repro.analysis.cli import main  # exercises top-level dispatch

        rc = main(["watch", "--port", "1", "--iterations", "0"])
        assert rc == 2
        assert "--iterations" in capsys.readouterr().err
        rc = main(["watch", "--port", "1", "--iterations", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_health_top_level_dispatch(self, capsys):
        from repro.analysis.cli import main

        rc = main(["health", "--port", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_against_dead_port_is_clean_error(self, capsys):
        from repro.server.cli import main

        rc = main(["metrics", "--port", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_top_level_dispatch(self, capsys):
        from repro.analysis.cli import main

        rc = main(["metrics", "--port", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_top_level_dispatch(self, capsys):
        from repro.analysis.cli import main

        rc = main(["load", "--port", "1", "--count", "10"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
