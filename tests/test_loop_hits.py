"""Cache hits are answered on the event loop; only misses take the pool.

The load-bearing guarantees:

* after one miss, repeated hits submit nothing to the engine's thread
  pool -- and a hit's response is the miss's but for ``cached``;
* the loop-side probe stands aside whenever :meth:`serve` must run: with
  a chaos schedule installed (the gray-failure delay sleeps inside it) or
  a shard down (degraded answers bypass the cache in both directions);
* every request is counted exactly once -- cache hits + misses, served,
  cache-hit counters and the publish-to-serve age histogram -- whichever
  path answered it (a hypothesis property over hit / miss / publish
  streams);
* a traced hit shows only the cache probe, admission and the request;
* a frame body cut short by the peer ends that connection cleanly and is
  counted, and the daemon keeps serving;
* stopping the daemon or the gateway with an idle client connection open
  logs no ``asyncio`` error.
"""

from __future__ import annotations

import asyncio
import logging
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.injector import ChaosInjector
from repro.chaos.schedule import FaultSchedule
from repro.core.coordinate import Coordinate
from repro.gateway.app import GatewayServer
from repro.gateway.config import parse_gateway_config
from repro.server.daemon import CoordinateServer, RequestEngine
from repro.server.protocol import HEADER, decode_frame, encode_frame, frame_length
from repro.server.sharding import ShardedCoordinateStore
from repro.service.planner import QUERY_KINDS
from repro.service.publish import EpochDelta

COORDINATES = {f"n{i:02d}": Coordinate([float(i % 6), float(i // 6)]) for i in range(36)}
KNN = {"op": "knn", "target": "n07", "k": 4}


def _store(**kwargs) -> ShardedCoordinateStore:
    return ShardedCoordinateStore.from_coordinates(COORDINATES, shards=2, **kwargs)


def _counting_engine(store):
    """An engine whose thread-pool submissions are recorded by name."""
    engine = RequestEngine(store)
    submitted = []
    submit = engine._executor.submit

    def counting(fn, *args, **kwargs):
        submitted.append(getattr(fn, "__name__", repr(fn)))
        return submit(fn, *args, **kwargs)

    engine._executor.submit = counting
    return engine, submitted


def _run(engine, requests):
    async def drive():
        return [await engine.process(dict(request)) for request in requests]

    try:
        return asyncio.run(drive())
    finally:
        engine.shutdown()


class TestHitsStayOnTheLoop:
    def test_hits_after_one_miss_submit_nothing(self):
        engine, submitted = _counting_engine(_store())
        responses = _run(engine, [{**KNN, "id": n} for n in range(6)])
        assert submitted == ["_serve_query"]
        assert [r["cached"] for r in responses] == [False] + [True] * 5
        miss = responses[0]
        for hit in responses[1:]:
            assert hit["payload"] is miss["payload"]
            assert {**hit, "id": 0, "cached": False} == {**miss, "id": 0}

    def test_a_chaos_schedule_sends_hits_to_the_pool(self):
        store = _store()
        engine, submitted = _counting_engine(store)

        async def drive():
            before = [await engine.process(dict(KNN)) for _ in range(3)]
            # A fault far beyond this stream: installed, never firing.
            store.chaos = ChaosInjector(
                FaultSchedule.parse("shard-slow@1000+1:shard=0:delay_ms=1"), store
            )
            during = [await engine.process(dict(KNN)) for _ in range(3)]
            return before, during

        try:
            before, during = asyncio.run(drive())
        finally:
            engine.shutdown()
        assert [r["cached"] for r in before + during] == [False] + [True] * 5
        assert submitted == ["_serve_query"] * 4  # the miss, then every hit

    def test_a_down_shard_sends_hits_to_the_pool_and_bypasses_the_cache(self):
        store = _store(cache_entries=64)
        engine, submitted = _counting_engine(store)

        async def drive():
            healthy = [await engine.process(dict(KNN)) for _ in range(2)]
            store.kill_shard(1)
            degraded = [await engine.process(dict(KNN)) for _ in range(3)]
            store.restart_shard(1)
            restored = await engine.process(dict(KNN))
            return healthy, degraded, restored

        try:
            healthy, degraded, restored = asyncio.run(drive())
        finally:
            engine.shutdown()
        assert [r["cached"] for r in healthy] == [False, True]
        for response in degraded:
            assert response["partial"] and response["missing_shards"] == [1]
            assert not response["cached"]
        assert submitted == ["_serve_query"] * 4  # the miss and each degraded one
        # Nothing degraded was cached, and the full answer survived.
        assert restored["cached"] and "partial" not in restored
        assert restored["payload"] is healthy[0]["payload"]
        assert len(store.cache) == 1

    def test_a_traced_hit_shows_only_probe_admission_and_request(self):
        engine, _ = _counting_engine(_store())
        miss, hit = _run(engine, [{**KNN, "trace": True}] * 2)
        assert "store.serve" in {entry["stage"] for entry in miss["trace"]}
        assert hit["cached"]
        assert sorted(entry["stage"] for entry in hit["trace"]) == [
            "daemon.admission",
            "daemon.request",
            "store.cache",
        ]


_STEP = st.one_of(
    st.tuples(st.just("query"), st.integers(0, 5), st.sampled_from([1, 3])),
    st.tuples(st.just("publish"), st.integers(0, 35), st.floats(0.0, 9.0)),
)


@given(st.lists(_STEP, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_every_request_counts_once_on_either_path(steps):
    """Random hit / miss / publish streams: one count per request, always."""
    store = _store()
    engine, submitted = _counting_engine(store)
    node_ids = list(COORDINATES)

    async def drive():
        responses = []
        for step in steps:
            if step[0] == "publish":
                _, row, x = step
                store.publish_delta(
                    EpochDelta.from_coordinates({node_ids[row]: Coordinate([x, 0.5])})
                )
            else:
                _, target, k = step
                responses.append(
                    await engine.process({"op": "knn", "target": node_ids[target], "k": k})
                )
        return responses

    try:
        responses = asyncio.run(drive())
    finally:
        engine.shutdown()
    assert all(response["ok"] for response in responses)
    requests = len(responses)
    hits = sum(response["cached"] for response in responses)
    registry = store.registry
    assert store.cache.hits + store.cache.misses == requests
    assert store.cache.hits == hits
    assert sum(
        registry.counter("store_served_total", kind=kind).value for kind in QUERY_KINDS
    ) == requests
    assert sum(
        registry.counter("store_cache_hits_total", kind=kind).value for kind in QUERY_KINDS
    ) == hits
    assert registry.histogram("store_serve_generation_age_ms").count == requests
    # Only misses paid the thread hop.
    assert len(submitted) == requests - hits


class TestTruncatedFrame:
    def test_a_body_cut_short_is_counted_and_the_daemon_keeps_serving(self, caplog):
        store = _store()
        server = CoordinateServer(store)

        async def scenario(address):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(HEADER.pack(100) + b"{" * 9)  # claims 100 bytes, sends 9
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            assert await reader.read() == b""  # the daemon ended the connection
            reader, writer = await asyncio.open_connection(*address)
            writer.write(encode_frame({"id": 7, "op": "ping"}))
            await writer.drain()
            header = await reader.readexactly(HEADER.size)
            response = decode_frame(await reader.readexactly(frame_length(header)))
            writer.close()
            await writer.wait_closed()
            return response

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with server.run_in_thread() as handle:
                response = asyncio.run(scenario(handle.address))
                errors = server.engine.error_stats()
        assert response == {"id": 7, "ok": True, "payload": {"pong": True}}
        assert errors == {"by_op": {"invalid": 1}, "total": 1}
        assert [r for r in caplog.records if r.name == "asyncio"] == []


class TestStopWithAnIdleConnection:
    @staticmethod
    def _round_trip(front, address):
        """One complete exchange on a fresh connection."""
        with socket.create_connection(address, timeout=5.0) as sock:
            if front == "daemon":
                sock.sendall(encode_frame({"id": 1, "op": "ping"}))
                reply = sock.recv(HEADER.size)
            else:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                reply = sock.recv(12)
            assert reply

    @pytest.mark.parametrize("front", ["daemon", "gateway"])
    def test_stopping_logs_no_asyncio_error(self, front, caplog):
        if front == "daemon":
            server = CoordinateServer(_store())
        else:
            server = GatewayServer(
                parse_gateway_config(
                    {"tenants": [{"name": "acme", "api_key": "acme-secret-0001"}]}
                )
            )
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            handle = server.run_in_thread()
            address = handle.start()
            with socket.create_connection(address, timeout=5.0):
                # Connections are accepted in order, so once a later one
                # is answered the silent one's handler is parked on its
                # first read -- where the stop cancels it.
                self._round_trip(front, address)
                handle.stop()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
