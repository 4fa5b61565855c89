"""One query executor, one latency-percentile owner, no publish shims.

The serving stack used to keep two hand-written copies of "turn a query
into its payload", two private percentile reservoirs beside the registry
histogram, and two serving fronts (an in-process planner beside the
sharded store).  These tests hold the collapse in place:

* the single executor (:func:`repro.service.planner.answer_query`),
  reached through a sharded generation and through a one-shard store's
  batch path, equals a brute-force oracle written here -- the
  independence the comparison lost when the paths started sharing one
  builder;
* the dense grouped batch path shapes the same payloads as per-query
  ``serve``;
* ``stats()`` percentiles are the registry histogram's read-out;
* a served payload is one shared read-only value: the miss returns the
  object the cache keeps and every hit returns it again, uncopied;
* structurally, there is one of each under ``src/``, one serving front
  included.
"""

from __future__ import annotations

import asyncio
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinate import Coordinate, centroid
from repro.gateway.app import GatewayServer
from repro.gateway.client import GatewayClient
from repro.gateway.config import parse_gateway_config
from repro.gateway.tenants import build_store
from repro.server.daemon import CoordinateServer
from repro.server.protocol import HEADER, decode_frame, encode_frame, frame_length
from repro.server.sharding import ShardedCoordinateStore, shard_of
from repro.service.index import INDEX_KINDS, DenseIndex, _VPNode
from repro.service.planner import Query, QueryError
from repro.service.snapshot import SnapshotStore

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# A coarse lattice: duplicate points and equal-distance ties are the
# common case, which is where a merge or tie-break bug would show.
_AXIS = st.sampled_from([0.0, 1.0, 2.0, 3.5])
_POINT = st.tuples(_AXIS, _AXIS, st.sampled_from([0.0, 0.0, 0.5]))


def _brute_force(query, node_ids, coordinates, excluded_members):
    """The payload by definition: ``Coordinate.distance``, a stable sort
    (insertion order breaks ties), excluded shards' members filtered out."""
    candidates = [n for n in node_ids if n not in excluded_members]

    def ranked(point, skip=None):
        pairs = [
            (n, point.distance(coordinates[n])) for n in candidates if n != skip
        ]
        return sorted(pairs, key=lambda pair: pair[1])  # stable

    def entries(pairs):
        return [{"node_id": n, "predicted_rtt_ms": rtt} for n, rtt in pairs]

    if query.kind == "pairwise":
        a, b = query.pair
        return {
            "pair": [a, b],
            "predicted_rtt_ms": coordinates[a].distance(coordinates[b]),
        }
    if query.kind == "centroid":
        members = query.members or tuple(node_ids)
        point = centroid([coordinates[n] for n in members])
        nearest = ranked(point)[:1]
        return {
            "members": len(members),
            "centroid": list(point.components),
            "nearest_host": nearest[0][0] if nearest else None,
            "nearest_rtt_ms": nearest[0][1] if nearest else None,
        }
    near = ranked(coordinates[query.target], skip=query.target)
    if query.kind == "range":
        hits = [pair for pair in near if pair[1] <= query.radius_ms]
        return {
            "target": query.target,
            "radius_ms": query.radius_ms,
            "hits": entries(hits),
        }
    k = query.k if query.kind == "knn" else 1
    return {"target": query.target, "neighbors": entries(near[:k])}


@st.composite
def _universes(draw):
    points = draw(st.lists(_POINT, min_size=1, max_size=12))
    node_ids = [f"n{i:02d}" for i in range(len(points))]
    pick = st.sampled_from(node_ids)
    query = st.one_of(
        st.builds(Query.knn, pick, st.integers(1, 5)),
        st.builds(Query.nearest, pick),
        st.builds(Query.range, pick, st.sampled_from([0.0, 1.0, 2.0, 5.0])),
        st.builds(Query.pairwise, pick, pick),
        st.builds(
            Query.centroid, st.lists(pick, max_size=4, unique=True).map(tuple)
        ),
    )
    shards = draw(st.integers(1, 4))
    return (
        node_ids,
        points,
        draw(st.lists(query, min_size=1, max_size=8)),
        shards,
        draw(st.sampled_from(INDEX_KINDS)),
        draw(st.frozensets(st.integers(0, shards - 1))),
    )


class TestOneExecutor:
    @given(_universes())
    @settings(max_examples=120, deadline=None)
    def test_both_fronts_equal_a_brute_force_oracle(self, universe):
        node_ids, points, queries, shards, kind, excluded = universe
        components = np.asarray([point[:2] for point in points])
        heights = np.asarray([point[2] for point in points])
        coordinates = {
            node_id: Coordinate(point[:2], point[2])
            for node_id, point in zip(node_ids, points)
        }
        store = ShardedCoordinateStore(shards, index_kind=kind)
        generation = store.publish_epoch(node_ids, components, heights)
        # One shard: a dense store answers the batch through its grouped path.
        single = ShardedCoordinateStore(1, index_kind=kind)
        single.publish_epoch(node_ids, components, heights)
        batched = single.serve_batch(queries)
        excluded_members = {
            node_id for node_id in node_ids if shard_of(node_id, shards) in excluded
        }
        for query, served in zip(queries, batched):
            whole = _brute_force(query, node_ids, coordinates, set())
            assert generation.answer(query) == whole
            assert served.payload == whole
            partial = _brute_force(query, node_ids, coordinates, excluded_members)
            assert generation.answer(query, exclude_shards=excluded) == partial

    def test_dense_flush_shapes_the_payloads_execute_does(self):
        rng = np.random.default_rng(4)
        node_ids = [f"n{i:03d}" for i in range(80)]
        # Rounded so that duplicates and ties occur in the batch kernels too.
        components = rng.uniform(0.0, 6.0, size=(80, 2)).round()
        heights = np.zeros(80)

        def store():
            served = ShardedCoordinateStore(1, index_kind="dense", timer=lambda: 0.0)
            served.publish_epoch(node_ids, components, heights)
            return served

        queries = []
        for position, node_id in enumerate(node_ids[:30]):
            queries.append(Query.knn(node_id, k=1 + position % 4))
            queries.append(Query.range(node_id, float(position % 3)))
            queries.append(Query.nearest(node_id))
            queries.append(Query.pairwise(node_id, node_ids[-1 - position]))
        queries.append(Query.centroid(tuple(node_ids[:5])))
        queries.append(Query.knn("ghost"))  # an error slot, not a poisoned batch
        grouped = store()
        index = grouped.generation().shard_indexes[0]
        calls = []
        for name in ("knn_batch_by_id", "range_batch_by_id"):
            method = getattr(index, name)
            setattr(
                index,
                name,
                lambda targets, parameter, method=method, name=name: (
                    calls.append((name, len(targets))) or method(targets, parameter)
                ),
            )
        batched = grouped.serve_batch(queries)
        # One call per distinct k (nearest is k=1) and per distinct radius.
        assert sorted(name for name, _ in calls) == ["knn_batch_by_id"] * 4 + [
            "range_batch_by_id"
        ] * 3
        assert sum(size for _, size in calls) == 90
        single = store()
        for query, result in zip(queries, batched):
            if query.target == "ghost":
                assert result.payload is None and "unknown node" in result.error
                with pytest.raises(QueryError, match=result.error):
                    single.serve(query)
            else:
                assert result.error is None
                assert result.payload == single.serve(query).payload
        assert grouped.stats() == single.stats()


class TestOnePercentileOwner:
    def _assert_histogram_readout(self, kinds, registry, metric):
        assert kinds
        for kind, summary in kinds.items():
            histogram = registry.histogram(metric, kind=kind)
            assert summary["p50_us"] == histogram.percentile(50.0) * 1e3
            assert summary["p99_us"] == histogram.percentile(99.0) * 1e3
            assert "latency_exact" not in summary

    def _ticking_timer(self):
        # 0, 1 ms, 3 ms, 6 ms, ...: every served latency is distinct and
        # known, so the read-out is a pure function of the query stream.
        state = {"now": 0.0, "step": 0.0}

        def timer():
            state["step"] += 1e-3
            state["now"] += state["step"]
            return state["now"]

        return timer

    def _queries(self, node_ids):
        return [Query.knn(node_id, k=2) for node_id in node_ids] + [
            Query.pairwise(node_ids[0], node_id) for node_id in node_ids[1:]
        ]

    def test_store_stats_percentiles_are_the_histogram_readout(self):
        coordinates = {f"n{i}": Coordinate([float(i), 0.0]) for i in range(12)}
        queries = self._queries(list(coordinates))
        store = ShardedCoordinateStore.from_coordinates(
            coordinates, shards=2, timer=self._ticking_timer()
        )
        for query in queries:
            store.serve(query)
        # One dense shard: serve_batch records the grouped latencies too.
        batched = ShardedCoordinateStore.from_coordinates(
            coordinates, shards=1, index_kind="dense", timer=self._ticking_timer()
        )
        batched.serve_batch(queries)
        for served in (store, batched):
            kinds = served.stats()["kinds"]
            assert set(kinds) == {"knn", "pairwise"}
            self._assert_histogram_readout(
                kinds, served.registry, "store_serve_latency_ms"
            )
            assert "expirations" not in served.stats()["cache"]


class TestSharedPayloads:
    COORDINATES = {f"n{i:02d}": Coordinate([float(i % 5), float(i // 5)]) for i in range(40)}
    QUERIES = (Query.range("n07", 2.0), Query.knn("n07", k=4))

    def test_store_hit_returns_the_miss_payload_object(self):
        store = ShardedCoordinateStore.from_coordinates(self.COORDINATES, shards=2)
        for query in self.QUERIES:
            miss, hit = store.serve(query), store.serve(query)
            assert not miss.cached and hit.cached
            assert hit.payload is miss.payload
        # The grouped batch path of a one-shard dense store shares too.
        dense = ShardedCoordinateStore.from_coordinates(
            self.COORDINATES, shards=1, index_kind="dense"
        )
        batch = [Query.knn("n08", k=2), Query.range("n08", 1.0)]
        for first, second in zip(dense.serve_batch(batch), dense.serve_batch(batch)):
            assert not first.cached and second.cached
            assert second.payload is first.payload

    def test_tcp_hit_frame_equals_the_miss_frame_but_for_cached(self, tmp_path):
        # The gateway tenant and the TCP store load the same snapshot, so
        # the HTTP bodies can be held against the TCP frame bodies too.
        snapshot = tmp_path / "lattice.json"
        SnapshotStore.from_coordinates(self.COORDINATES).latest().save(snapshot)
        config = parse_gateway_config(
            {
                "tenants": [
                    {
                        "name": "acme",
                        "api_key": "acme-secret-0001",
                        "shards": 2,
                        "data": {"snapshot": str(snapshot)},
                    }
                ]
            }
        )
        request = {"id": 1, "op": "range", "target": "n07", "radius_ms": 2.0}

        async def two_bodies(address):
            reader, writer = await asyncio.open_connection(*address)
            bodies = []
            for _ in range(2):
                writer.write(encode_frame(request))
                await writer.drain()
                header = await reader.readexactly(HEADER.size)
                bodies.append(await reader.readexactly(frame_length(header)))
            writer.close()
            return bodies

        async def two_http_bodies(address):
            client = GatewayClient(*address, "acme", "acme-secret-0001")
            try:
                return [(await client.request_raw(dict(request)))[1] for _ in range(2)]
            finally:
                await client.close()

        tcp_server = CoordinateServer(build_store(config.tenant("acme")))
        with tcp_server.run_in_thread() as handle:
            miss, hit = asyncio.run(two_bodies(handle.address))
        with GatewayServer(config).run_in_thread() as handle:
            http_miss, http_hit = asyncio.run(two_http_bodies(handle.address))
        assert decode_frame(miss)["payload"]["hits"]
        assert b'"cached":false' in miss and b'"cached":true' in hit
        assert miss.replace(b'"cached":false', b'"cached":true') == hit
        assert (http_miss, http_hit) == (miss, hit)


class TestOneOfEachInTheSourceTree:
    def _modules(self, *packages):
        for package in packages:
            yield from sorted((SRC / package).rglob("*.py"))

    def test_one_module_writes_the_payload_key(self):
        # The key every proximity payload carries is written by the
        # executor's module and no other under the serving packages.
        # (engine/kernel.py only *reads* it and is out of scope.)
        writers = [
            path.relative_to(SRC).as_posix()
            for path in self._modules("service", "server")
            if '"predicted_rtt_ms"' in path.read_text()
        ]
        assert writers == ["service/planner.py"]

    def test_exact_percentiles_live_only_in_the_load_harness(self):
        importers = [
            path.relative_to(SRC).as_posix()
            for path in self._modules("")
            if re.search(r"^\s*(from|import) .*\bStreamingPercentile\b", path.read_text(), re.M)
        ]
        assert importers == ["server/load.py", "stats/__init__.py"]

    def test_one_oracle_exact_distance_kernel(self):
        # The left-to-right accumulate-squares loop that makes an array
        # distance the same float as ``Coordinate.distance`` is written
        # once; the dense kernel, its full scan and the vp-tree all call it.
        lines = [
            f"{path.relative_to(SRC).as_posix()}:{number}"
            for path in self._modules("service")
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if "acc = acc + delta" in line
        ]
        assert len(lines) == 1 and lines[0].startswith("service/index.py:"), lines

    def test_two_index_kinds_beside_the_linear_oracle(self):
        assert INDEX_KINDS == ("linear", "vptree", "dense")
        with pytest.raises(ImportError):
            from repro.service import GridIndex  # noqa: F401
        with pytest.raises(ImportError):
            from repro.service.index import GridIndex  # noqa: F401,F811

    def test_dense_batch_methods_run_the_kernel_not_the_single_queries(self):
        # A batch method that loops over ``self.nearest`` / ``self.within``
        # would be a second query path; both go straight to the kernel.
        for method in (
            DenseIndex.knn_batch_by_id, DenseIndex.range_batch_by_id, DenseIndex._by_id
        ):
            source = inspect.getsource(method)
            assert not re.search(r"self\.(nearest|within)\b", source), method.__name__

    def test_no_deepcopy_on_a_serve_path_and_no_vp_tree_buckets(self):
        for module in ("server/sharding.py", "service/planner.py"):
            assert "deepcopy" not in (SRC / module).read_text(), module
        # vp-tree leaves are slices of flat arrays, not per-row lists.
        assert "bucket" not in _VPNode.__slots__

    def test_no_shims_and_no_warnings_under_src(self):
        for path in self._modules(""):
            text = path.read_text()
            for gone in ("warnings.warn", "publish_arrays", "publish_coordinates"):
                assert gone not in text, f"{gone} in {path.relative_to(SRC)}"

    def test_one_serving_front(self):
        # The planner module keeps the query type, the one executor and
        # the cache class; batching, caching and per-kind stats belong to
        # the store, and no other front exists anywhere under src/.
        import repro.service.planner as planner

        classes = sorted(
            name
            for name, value in vars(planner).items()
            if inspect.isclass(value) and value.__module__ == planner.__name__
        )
        assert classes == ["LRUTTLCache", "Query", "QueryError"]
        planners = [
            path.relative_to(SRC).as_posix()
            for path in self._modules("")
            if re.search(r"^class \w*Planner\b", path.read_text(), re.M)
        ]
        assert planners == []
        results = [
            f"{path.relative_to(SRC).as_posix()}: {match}"
            for path in self._modules("service", "server", "gateway")
            for match in re.findall(r"^class (\w*Result)\b", path.read_text(), re.M)
        ]
        assert results == ["server/sharding.py: ServeResult"]
        builders = [
            path.relative_to(SRC).as_posix()
            for path in self._modules("")
            if "LRUTTLCache(" in path.read_text()
        ]
        assert builders == ["server/sharding.py"]
