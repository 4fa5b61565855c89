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
* the dense grouped batch path shapes the same payloads, cache contents
  and stats as per-query ``serve``, at any shard count;
* a generation answers through one index in snapshot order: after every
  step of a random publish / delta / kill / restart stream, every served
  answer -- full or degraded -- and every ``answer(exclude_shards=X)``
  equals the brute-force oracle over the healthy rows;
* ``stats()`` percentiles are the registry histogram's read-out;
* a served payload is one shared read-only value: the miss returns the
  object the cache keeps and every hit returns it again, uncopied;
* structurally, there is one of each under ``src/``, one serving front
  and one query path (every query on the event loop) included.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import re
from pathlib import Path
from unittest import mock

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
import repro.service.index as index_module
from repro.service.index import INDEX_KINDS, DenseIndex, VPTreeIndex, _VPTable, index_over
from repro.service.planner import Query, QueryError
from repro.service.publish import EpochDelta
from repro.service.snapshot import ArraySnapshot, SnapshotStore

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

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_dense_flush_shapes_the_payloads_execute_does(self, shards):
        rng = np.random.default_rng(4)
        node_ids = [f"n{i:03d}" for i in range(80)]
        # Rounded so that duplicates and ties occur in the batch kernels too.
        components = rng.uniform(0.0, 6.0, size=(80, 2)).round()
        heights = np.zeros(80)

        def store():
            served = ShardedCoordinateStore(shards, index_kind="dense", timer=lambda: 0.0)
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
        index = grouped.generation().index_for(())
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
        version = grouped.version
        assert dict(grouped.cache.entries_at(version)) == dict(
            single.cache.entries_at(version)
        )
        assert grouped.stats() == single.stats()
        if shards > 1:
            # With a shard down the batch is served query by query, degraded.
            grouped.kill_shard(1)
            calls.clear()
            assert all(result.partial for result in grouped.serve_batch(queries[:3]))
            assert not calls


_STEPS = ("epoch", "delta", "delta", "delta", "kill", "restart")


class TestOneIndexPerGeneration:
    """A random publish stream, checked against the oracle after every step."""

    @staticmethod
    def _rows(rng, lattice, count):
        if lattice:
            points = rng.choice([0.0, 1.0, 2.0, 3.5], size=(count, 2))
            heights = rng.choice([0.0, 0.0, 0.5], size=count)
        else:
            points = rng.normal(scale=10.0, size=(count, 2))
            heights = rng.uniform(0.0, 2.0, size=count)
        return points, heights

    @given(
        st.integers(1, 4),
        st.sampled_from(INDEX_KINDS),
        st.booleans(),
        st.integers(0, 2**16),
        st.lists(st.sampled_from(_STEPS), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_step_equals_the_healthy_oracle(self, shards, kind, lattice, seed, steps):
        rng = np.random.default_rng(seed)
        pool = [f"p{i:02d}" for i in range(24)]
        store = ShardedCoordinateStore(shards, index_kind=kind, history=2)
        population = {}  # node id -> Coordinate, in snapshot order
        down = set()
        derives = []

        def counted(method):
            def wrapper(self, *args):
                derives.append(type(self).__name__)
                return method(self, *args)

            return wrapper

        patches = [
            mock.patch.object(cls, "delta_applied", counted(cls.delta_applied))
            for cls in (VPTreeIndex, DenseIndex)
        ]
        with patches[0], patches[1]:
            for step in ("epoch",) + tuple(steps):
                if step == "epoch":
                    ids = [pool[i] for i in rng.permutation(len(pool))[: rng.integers(1, 13)]]
                    points, heights = self._rows(rng, lattice, len(ids))
                    store.publish_epoch(ids, points, heights)
                    population = {
                        node_id: Coordinate(point.tolist(), float(height))
                        for node_id, point, height in zip(ids, points, heights)
                    }
                elif step == "delta":
                    present = list(population)
                    moved = [n for n in present if rng.random() < 0.3]
                    removed = [n for n in present if n not in moved and rng.random() < 0.2]
                    absent = [n for n in pool if n not in population]
                    joined = [n for n in absent if rng.random() < 0.15]
                    changed = moved + joined
                    points, heights = self._rows(rng, lattice, len(changed))
                    derives.clear()
                    store.publish_delta(
                        EpochDelta(changed, points, heights, removed_ids=removed)
                    )
                    assert len(derives) == (0 if kind == "linear" else 1)
                    for node_id in removed:
                        del population[node_id]
                    for node_id, point, height in zip(changed, points, heights):
                        population[node_id] = Coordinate(point.tolist(), float(height))
                elif step == "kill":
                    shard = int(rng.integers(shards))
                    store.kill_shard(shard)
                    down.add(shard)
                else:
                    shard = int(rng.choice(sorted(down))) if down else 0
                    store.restart_shard(shard)
                    down.discard(shard)
                self._check(store, population, shards, down, rng)

    def _check(self, store, population, shards, down, rng):
        generation = store.generation()
        node_ids = list(population)
        owners = [shard_of(node_id, shards) for node_id in node_ids]
        assert len(generation.shard_indexes) == 1
        assert generation.node_order == node_ids
        assert generation.owners.tolist() == owners
        assert store.down_shards == frozenset(down)
        if not node_ids:
            return
        targets = [node_ids[i] for i in rng.permutation(len(node_ids))[:3]]
        queries = [Query.centroid(), Query.centroid(tuple(targets[:2]))]
        for position, target in enumerate(targets):
            queries += [
                Query.knn(target, k=1 + position),
                Query.nearest(target),
                Query.range(target, float(position + 1)),
                Query.pairwise(target, node_ids[0]),
            ]

        def members_of(excluded):
            return {n for n, owner in zip(node_ids, owners) if owner in excluded}

        for query in queries:
            served = store.serve(query)
            degraded = bool(down) and query.kind != "pairwise"
            assert served.partial == degraded
            assert served.missing_shards == (tuple(sorted(down)) if degraded else ())
            assert served.payload == _brute_force(
                query, node_ids, population, members_of(down if degraded else ())
            )
        for size in range(shards + 1):
            for excluded in itertools.combinations(range(shards), size):
                hidden = members_of(excluded)
                for query in queries:
                    expected = _brute_force(query, node_ids, population, hidden)
                    assert generation.answer(query, exclude_shards=excluded) == expected


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
            if "acc = acc + squares" in line
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
        assert "bucket" not in _VPTable._fields

    def test_the_vp_tree_walks_touch_no_coordinate(self):
        # The walks read the flat node table: no per-vantage
        # ``Coordinate.distance`` call and no ``Coordinate`` built.
        for method in (VPTreeIndex.nearest, VPTreeIndex.within, VPTreeIndex.min_cost_host):
            source = inspect.getsource(method)
            assert ".distance(" not in source, method.__name__
            assert "Coordinate(" not in source, method.__name__
        for gone in ("_VPNode", "_KBest"):
            assert not hasattr(index_module, gone), gone

    def test_a_delta_generation_shares_the_vp_tree_node_table(self):
        rng = np.random.default_rng(3)
        ids = [f"n{i}" for i in range(300)]
        components = rng.normal(scale=50.0, size=(300, 3))
        base = index_over("vptree", ids, components, np.zeros(300))
        first = base.delta_applied(ids[:2], components[:2] + 1.0, np.zeros(2))
        second = first.delta_applied(["late"], components[:1], np.zeros(1), ids[5:6])
        assert base._table is not None
        assert first._table is base._table
        assert second._table is base._table

    def test_a_shard_is_its_index(self):
        # The sharded store publishes straight into generations: no inner
        # SnapshotStore (router or per shard), and one delta applier.
        sharding = (SRC / "server/sharding.py").read_text()
        assert not re.search(r"import[^\n]*\bSnapshotStore\b", sharding)
        assert "SnapshotStore(" not in sharding
        appliers = [
            path.relative_to(SRC).as_posix()
            for path in self._modules("")
            if re.search(r"^\s*def \w*apply_delta\w*\(", path.read_text(), re.M)
        ]
        assert appliers == ["service/snapshot.py"]
        assert not hasattr(SnapshotStore, "from_snapshot")

    def test_one_snapshot_type(self):
        # A served generation, a snapshot file and a wire dump are one
        # type: no object snapshot beside it, no lift, no object view.
        import repro.service.snapshot as snapshot

        snapshot_classes = [
            name
            for name, value in vars(snapshot).items()
            if inspect.isclass(value)
            and value.__module__ == snapshot.__name__
            and name.endswith("Snapshot")
        ]
        assert snapshot_classes == ["ArraySnapshot"]
        assert not hasattr(ArraySnapshot, "coordinates")
        for path in self._modules(""):
            text = path.read_text()
            for gone in ("CoordinateSnapshot", "_as_array_snapshot"):
                assert gone not in text, f"{gone} in {path.relative_to(SRC)}"

    def test_one_query_path_on_the_loop(self):
        # Every query is one ``store.serve`` call on the event loop: no
        # loop-side probe beside it, no uncounted miss, no pool knob, and
        # the pool serves only publishes and snapshot dumps.
        for path in self._modules(""):
            text = path.read_text()
            for gone in ("serve_cached", "count_miss", "executor_workers"):
                assert gone not in text, f"{gone} in {path.relative_to(SRC)}"
        daemon = (SRC / "server" / "daemon.py").read_text()
        hops = re.findall(r"run_in_executor\(\s*self\._executor, ([\w.]+)", daemon)
        assert hops == ["self._serve_publish", "generation.snapshot.to_dict"]
        serve = inspect.getsource(ShardedCoordinateStore.serve)
        assert "sleep(" not in serve

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
