"""Tests for the multi-tenant HTTP gateway (:mod:`repro.gateway`).

The load-bearing guarantees:

* the gateway config is validated strictly and totally -- every
  malformed field is a one-line :exc:`GatewayConfigError` naming the
  offending tenant and field;
* per-tenant token buckets are count-driven and deterministic: whether
  the N-th request of a stream is shed is a pure function of the stream,
  and the 429 carries the deterministic ``Retry-After`` hint;
* the hand-rolled HTTP/1.1 layer parses the supported subset exactly and
  rejects everything else loudly with bounded buffering;
* a gateway response body is byte-identical to the TCP daemon's frame
  body for the same request stream against the same store construction
  -- queries, admin ops, and application-level errors alike;
* authentication is enforced per tenant path: missing and unknown keys
  are 401, a real key against another tenant's namespace is 403, and
  every rejection is counted by reason;
* the existing load harness (and its oracle verification, and the CLI)
  drives the gateway unchanged through the ``connect`` factory.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time

import pytest

from repro.gateway.app import GatewayServer
from repro.gateway.client import GatewayClient, parse_base_url
from repro.gateway.config import (
    GatewayConfigError,
    TenantQuota,
    load_gateway_config,
    parse_gateway_config,
)
from repro.gateway.http import HttpError, read_request, render_response
from repro.gateway.ratelimit import TokenBucket
from repro.gateway.tenants import build_store
from repro.server.client import AsyncCoordinateClient
from repro.server.daemon import CoordinateServer
from repro.server.load import run_load_async, synthetic_coordinates
from repro.server.protocol import PROTOCOL_VERSION, encode_body, query_to_request
from repro.server.sharding import ShardedCoordinateStore
from repro.service.planner import Query
from repro.service.workload import generate_queries, run_workload

ACME_KEY = "acme-secret-0001"
GLOBEX_KEY = "globex-secret-01"


def two_tenant_raw():
    """A valid two-tenant config document (mutate per test)."""
    return {
        "gateway": {"host": "127.0.0.1", "port": 0},
        "tenants": [
            {
                "name": "acme",
                "api_key": ACME_KEY,
                "shards": 2,
                "quota": None,
                "data": {"synthetic": 64, "seed": 3},
            },
            {
                "name": "globex",
                "api_key": GLOBEX_KEY,
                "shards": 2,
                "quota": None,
                "data": {"synthetic": 48, "seed": 5},
            },
        ],
    }


@pytest.fixture(scope="module")
def gateway():
    """One shared read-mostly gateway; mutating tests boot their own."""
    server = GatewayServer(parse_gateway_config(two_tenant_raw()))
    with server.run_in_thread() as handle:
        yield handle.address, server


def http_request(address, method, path, *, headers=(), body=b""):
    """One raw HTTP exchange; returns ``(status, headers, body)``."""

    async def run():
        reader, writer = await asyncio.open_connection(*address)
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {address[0]}:{address[1]}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in headers:
            head += f"{name}: {value}\r\n"
        head += "\r\n"
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        status_line = await reader.readuntil(b"\r\n")
        status = int(status_line.split()[1])
        response_headers = {}
        while True:
            line = await reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("ascii").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        payload = await reader.readexactly(int(response_headers["content-length"]))
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
        return status, response_headers, payload

    return asyncio.run(run())


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestGatewayConfig:
    def test_valid_config_parses_with_defaults(self):
        config = parse_gateway_config(two_tenant_raw())
        assert [spec.name for spec in config.tenants] == ["acme", "globex"]
        acme = config.tenant("acme")
        assert acme.shards == 2 and acme.index == "vptree" and acme.history == 4
        assert acme.quota is None  # explicit null disables rate limiting
        assert acme.data == ("synthetic", (64, 3))
        assert config.host == "127.0.0.1" and config.port == 0
        assert config.max_concurrent == 1024

    def test_quota_defaults_when_absent(self):
        raw = two_tenant_raw()
        del raw["tenants"][0]["quota"]
        acme = parse_gateway_config(raw).tenant("acme")
        assert acme.quota == TenantQuota()

    def test_gateway_defaults_flow_into_tenants(self):
        raw = two_tenant_raw()
        raw["gateway"]["shards"] = 3
        raw["gateway"]["quota"] = {"capacity": 5}
        del raw["tenants"][0]["shards"]
        del raw["tenants"][0]["quota"]
        config = parse_gateway_config(raw)
        acme = config.tenant("acme")
        assert acme.shards == 3
        assert acme.quota is not None and acme.quota.capacity == 5
        # Per-tenant values still win over the defaults.
        assert config.tenant("globex").shards == 2
        assert config.tenant("globex").quota is None

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda raw: raw.update(extra=1), "unknown top-level"),
            (lambda raw: raw.update(tenants=[]), "non-empty list"),
            (lambda raw: raw.pop("tenants"), "non-empty list"),
            (lambda raw: raw["tenants"][0].pop("name"), "'name' must be"),
            (
                lambda raw: raw["tenants"][0].update(name="Ac Me"),
                "lowercase letters",
            ),
            (lambda raw: raw["tenants"][0].update(api_key="short"), "at least 8"),
            (
                lambda raw: raw["tenants"][1].update(name="acme"),
                "names must be unique",
            ),
            (
                lambda raw: raw["tenants"][1].update(api_key=ACME_KEY),
                "globally unique",
            ),
            (lambda raw: raw["tenants"][0].update(color="red"), "unknown field"),
            (lambda raw: raw["tenants"][0].update(shards=0), "'shards' must be >= 1"),
            # A zero-entry cache used to validate here and then fail at
            # boot inside build_store with a bare ValueError.
            (
                lambda raw: raw["tenants"][0].update(cache_entries=0),
                "tenant 'acme': 'cache_entries' must be >= 1",
            ),
            (
                lambda raw: raw["gateway"].update(cache_entries=0),
                "'cache_entries' must be >= 1",
            ),
            (lambda raw: raw["tenants"][0].update(index="btree"), "unknown index"),
            (
                lambda raw: raw["tenants"][0].update(index="grid"),
                "tenant 'acme': unknown index 'grid'",
            ),
            (
                lambda raw: raw["tenants"][0].update(quota={"capacity": 0}),
                "'capacity' must be >= 1",
            ),
            (
                lambda raw: raw["tenants"][0].update(quota={"burst": 2}),
                "unknown quota field",
            ),
            (
                lambda raw: raw["tenants"][0].update(
                    quota={"ms_per_request": 0.0}
                ),
                "positive number",
            ),
            (
                lambda raw: raw["tenants"][0].update(
                    data={"synthetic": 8, "snapshot": "x.json"}
                ),
                "exactly one of",
            ),
            (
                lambda raw: raw["tenants"][0].update(data={"synthetic": 1}),
                "integer >= 2",
            ),
            (
                lambda raw: raw["tenants"][0].update(
                    data={"snapshot": "x.json", "seed": 3}
                ),
                "only applies to synthetic",
            ),
            (
                lambda raw: raw["tenants"][0].update(data={"scenario": ""}),
                "non-empty string",
            ),
            (lambda raw: raw["gateway"].update(port=70000), "<= 65535"),
            (lambda raw: raw["gateway"].update(turbo=True), "gateway: unknown"),
        ],
    )
    def test_rejects_malformed_configs_naming_the_field(self, mutate, match):
        raw = two_tenant_raw()
        mutate(raw)
        with pytest.raises(GatewayConfigError, match=match):
            parse_gateway_config(raw)

    def test_root_must_be_an_object(self):
        with pytest.raises(GatewayConfigError, match="JSON object"):
            parse_gateway_config([1, 2])

    def test_load_wraps_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(GatewayConfigError, match="cannot read config"):
            load_gateway_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(GatewayConfigError, match="not valid JSON"):
            load_gateway_config(bad)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(two_tenant_raw()))
        assert len(load_gateway_config(good).tenants) == 2


# ----------------------------------------------------------------------
# Deterministic token buckets
# ----------------------------------------------------------------------
class TestTokenBucket:
    QUOTA = TenantQuota(capacity=3, refill_amount=1, refill_every=4, ms_per_request=250.0)

    def replay(self, count):
        bucket = TokenBucket(self.QUOTA)
        return [bucket.try_acquire() for _ in range(count)]

    def test_shedding_is_a_pure_function_of_the_stream(self):
        assert self.replay(40) == self.replay(40)

    def test_grant_and_deficit_sequence(self):
        outcomes = self.replay(10)
        granted = [grant for grant, _ in outcomes]
        # Capacity 3 up front; request 4 refills one token and takes it;
        # then the bucket is dry until each 4-request tick mints one.
        assert granted == [True, True, True, True, False, False, False, True, False, False]
        # Deficit counts requests until the next refill tick.
        assert outcomes[4] == (False, 3)
        assert outcomes[5] == (False, 2)
        assert outcomes[6] == (False, 1)

    def test_refill_is_capped_at_capacity(self):
        bucket = TokenBucket(TenantQuota(capacity=2, refill_amount=5, refill_every=1))
        assert bucket.try_acquire() == (True, 0)
        for _ in range(10):
            bucket.try_acquire()
        assert bucket.tokens <= 2

    def test_retry_after_conversion(self):
        bucket = TokenBucket(self.QUOTA)
        assert bucket.retry_after_ms(3) == 750.0
        assert TokenBucket.retry_after_seconds(750.0) == 1
        assert TokenBucket.retry_after_seconds(1001.0) == 2
        assert TokenBucket.retry_after_seconds(0.0) == 1  # floor of one second


# ----------------------------------------------------------------------
# The HTTP/1.1 layer
# ----------------------------------------------------------------------
def parse_http(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


class TestHttpLayer:
    def test_parses_request_line_headers_query_and_body(self):
        request = parse_http(
            b"POST /v1/acme/query?limit=3&x=a%20b HTTP/1.1\r\n"
            b"Host: h\r\n"
            b"X-API-Key: k1\r\n"
            b"Content-Length: 4\r\n"
            b"\r\n"
            b"toto"
        )
        assert request.method == "POST"
        assert request.path == "/v1/acme/query"
        assert request.query_params() == {"limit": "3", "x": "a b"}
        assert request.headers["x-api-key"] == "k1"
        assert request.body == b"toto"
        assert request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_http(b"") is None

    def test_connection_close_and_http10_default(self):
        closed = parse_http(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not closed.keep_alive
        old = parse_http(b"GET / HTTP/1.0\r\n\r\n")
        assert not old.keep_alive

    @pytest.mark.parametrize(
        "raw, status, match",
        [
            (b"GET /\r\n\r\n", 400, "malformed request line"),
            (b"GET / HTTP/2\r\n\r\n", 400, "unsupported protocol version"),
            (b"get / HTTP/1.1\r\n\r\n", 400, "malformed method"),
            (b"GET example.com HTTP/1.1\r\n\r\n", 400, "request target"),
            (b"GET / HTTP/1.1\r\nno-colon\r\n\r\n", 400, "malformed header"),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
                "Transfer-Encoding",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                400,
                "malformed Content-Length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
                413,
                "exceeds",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                400,
                "truncated request body",
            ),
            (b"GET / HTTP/1.1\r\nHost: h\r\nbroken", 400, "truncated header"),
        ],
    )
    def test_rejects_malformed_requests(self, raw, status, match):
        with pytest.raises(HttpError, match=match) as info:
            parse_http(raw)
        assert info.value.status == status

    def test_oversized_request_line_rejected(self):
        with pytest.raises(HttpError) as info:
            parse_http(b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n")
        assert info.value.status == 400

    def test_render_response_is_byte_deterministic(self):
        rendered = render_response(
            429,
            b'{"ok":false}',
            extra_headers=(("Retry-After", "2"),),
            keep_alive=False,
        )
        assert rendered == (
            b"HTTP/1.1 429 Too Many Requests\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 12\r\n"
            b"Retry-After: 2\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b'{"ok":false}'
        )
        assert rendered == render_response(
            429,
            b'{"ok":false}',
            extra_headers=(("Retry-After", "2"),),
            keep_alive=False,
        )


# ----------------------------------------------------------------------
# Byte-identity with the TCP daemon
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_gateway_bodies_match_tcp_frame_bodies(self):
        """The tentpole guarantee: same stream, same bytes, both transports.

        Both servers build their store through :func:`build_store` from
        the same spec, and both clients issue the same request stream
        with aligned correlation ids, so even the ``cached`` flags line
        up.  Application-level errors (unknown node) are included: they
        are HTTP 200 with the engine's exact envelope.
        """
        config = parse_gateway_config(two_tenant_raw())
        gateway_server = GatewayServer(config)
        tcp_server = CoordinateServer(build_store(config.tenant("acme")))

        coords = synthetic_coordinates(64, seed=3)
        queries = generate_queries(list(coords), 150, mix="mixed", seed=11, k=4)
        requests = [query_to_request(query, None) for query in queries]
        requests += [
            {"op": "ping"},
            {"op": "version"},
            {"op": "nodes"},
            {"op": "knn", "target": "ghost", "k": 3},  # ok:false, still HTTP 200
            {"op": "centroid", "members": "oops"},  # malformed query, same deal
        ]

        async def scenario(gateway_address, tcp_address):
            gateway = GatewayClient(*gateway_address, "acme", ACME_KEY)
            tcp = await AsyncCoordinateClient.connect(*tcp_address)
            mismatches = []
            try:
                for position, request in enumerate(requests, start=1):
                    tcp_response = await tcp.request(dict(request))
                    status, body = await gateway.request_raw(
                        {**request, "id": position}
                    )
                    assert status == 200
                    if encode_body(tcp_response) != body:
                        mismatches.append((position, request.get("op")))
            finally:
                await gateway.close()
                await tcp.close()
            return mismatches

        with gateway_server.run_in_thread() as gw_handle:
            with tcp_server.run_in_thread() as tcp_handle:
                mismatches = asyncio.run(
                    scenario(gw_handle.address, tcp_handle.address)
                )
        assert mismatches == []


# ----------------------------------------------------------------------
# Authentication
# ----------------------------------------------------------------------
class TestAuthentication:
    def test_missing_key_is_401_with_challenge(self, gateway):
        address, server = gateway
        status, headers, body = http_request(address, "GET", "/v1/acme/health")
        assert status == 401
        assert "bearer" in headers["www-authenticate"].lower()
        envelope = json.loads(body)
        assert envelope["ok"] is False and "missing API key" in envelope["error"]

    def test_unknown_key_is_401(self, gateway):
        address, server = gateway
        status, _, body = http_request(
            address,
            "GET",
            "/v1/acme/health",
            headers=(("X-API-Key", "wrong-key-00000"),),
        )
        assert status == 401
        assert json.loads(body)["error"] == "unknown API key"

    def test_valid_key_for_wrong_tenant_is_403(self, gateway):
        address, server = gateway
        status, _, body = http_request(
            address,
            "GET",
            "/v1/acme/health",
            headers=(("X-API-Key", GLOBEX_KEY),),
        )
        assert status == 403
        assert "not authorized for tenant 'acme'" in json.loads(body)["error"]

    def test_bearer_and_x_api_key_both_work(self, gateway):
        address, _ = gateway
        for headers in (
            (("Authorization", f"Bearer {ACME_KEY}"),),
            (("X-API-Key", ACME_KEY),),
        ):
            status, _, body = http_request(
                address, "GET", "/v1/acme/health", headers=headers
            )
            assert status == 200
            assert json.loads(body)["ok"] is True

    def test_auth_failures_are_counted_by_reason(self, gateway):
        address, server = gateway
        http_request(address, "GET", "/v1/acme/health")
        http_request(
            address,
            "GET",
            "/v1/acme/health",
            headers=(("X-API-Key", "wrong-key-00000"),),
        )
        http_request(
            address, "GET", "/v1/acme/health", headers=(("X-API-Key", GLOBEX_KEY),)
        )
        registry = server.registry
        for reason in ("missing_key", "unknown_key", "wrong_tenant"):
            assert (
                registry.counter("gateway_auth_failures_total", reason=reason).value
                >= 1
            )


# ----------------------------------------------------------------------
# Routes and HTTP semantics
# ----------------------------------------------------------------------
class TestRoutes:
    def test_healthz_needs_no_auth(self, gateway):
        address, _ = gateway
        status, _, body = http_request(address, "GET", "/healthz")
        assert status == 200
        envelope = json.loads(body)
        assert envelope == {"ok": True, "tenants": 2, "gateway": "repro"}

    def test_gateway_metrics_render_prometheus(self, gateway):
        address, _ = gateway
        http_request(address, "GET", "/healthz")  # ensure at least one count
        status, headers, body = http_request(address, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"] == "text/plain; version=0.0.4"
        text = body.decode()
        assert "gateway_requests_total" in text
        assert 'route="healthz"' in text

    def test_tenant_metrics_are_the_tenant_registry(self, gateway):
        address, server = gateway
        status, headers, body = http_request(
            address,
            "GET",
            "/v1/acme/metrics",
            headers=(("X-API-Key", ACME_KEY),),
        )
        assert status == 200
        assert headers["content-type"] == "text/plain; version=0.0.4"
        assert body.decode() == server.tenants.get("acme").registry.render_prometheus()

    def test_health_route_and_section_filter(self, gateway):
        address, _ = gateway
        status, _, body = http_request(
            address, "GET", "/v1/acme/health", headers=(("X-API-Key", ACME_KEY),)
        )
        assert status == 200
        full = json.loads(body)
        assert full["ok"] and isinstance(full["payload"], dict)
        status, _, body = http_request(
            address,
            "GET",
            "/v1/acme/health?sections=relative_error",
            headers=(("X-API-Key", ACME_KEY),),
        )
        restricted = json.loads(body)
        assert set(restricted["payload"]) == {"relative_error"}

    def test_events_route_with_limit(self, gateway):
        address, _ = gateway
        status, _, body = http_request(
            address,
            "GET",
            "/v1/acme/events?limit=2",
            headers=(("X-API-Key", ACME_KEY),),
        )
        assert status == 200
        envelope = json.loads(body)
        assert envelope["ok"] and len(envelope["payload"]["events"]) <= 2
        status, _, body = http_request(
            address,
            "GET",
            "/v1/acme/events?limit=soon",
            headers=(("X-API-Key", ACME_KEY),),
        )
        assert status == 400
        assert "malformed limit" in json.loads(body)["error"]

    def test_unknown_routes_are_404(self, gateway):
        address, _ = gateway
        assert http_request(address, "GET", "/nope")[0] == 404
        status, _, _ = http_request(
            address, "GET", "/v1/acme/bogus", headers=(("X-API-Key", ACME_KEY),)
        )
        assert status == 404

    def test_wrong_method_is_405_with_allow(self, gateway):
        address, _ = gateway
        status, headers, _ = http_request(address, "POST", "/healthz")
        assert status == 405 and headers["allow"] == "GET"
        status, headers, _ = http_request(
            address, "GET", "/v1/acme/query", headers=(("X-API-Key", ACME_KEY),)
        )
        assert status == 405 and headers["allow"] == "POST"

    def test_malformed_json_body_is_400(self, gateway):
        address, _ = gateway
        status, _, body = http_request(
            address,
            "POST",
            "/v1/acme/query",
            headers=(("X-API-Key", ACME_KEY),),
            body=b"{nope",
        )
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_malformed_http_closes_the_connection(self, gateway):
        address, _ = gateway

        async def run():
            reader, writer = await asyncio.open_connection(*address)
            writer.write(b"BROKEN\r\n\r\n")
            await writer.drain()
            status_line = await reader.readuntil(b"\r\n")
            rest = await reader.read()  # server closes after answering
            writer.close()
            await writer.wait_closed()
            return status_line, rest

        status_line, rest = asyncio.run(run())
        assert b"400" in status_line
        assert b"Connection: close" in rest

    def test_shutdown_op_is_rejected_on_every_route(self, gateway):
        address, _ = gateway

        async def run():
            async with GatewayClient(*address, "acme", ACME_KEY) as client:
                return await client.op("shutdown")

        response = asyncio.run(run())
        assert response["ok"] is False
        assert "shutdown is not available" in response["error"]

    def test_publish_and_chaos_ops_are_redirected_off_the_query_route(
        self, gateway
    ):
        address, _ = gateway
        auth = (("X-API-Key", ACME_KEY),)
        for op in ("publish", "chaos"):
            status, _, body = http_request(
                address,
                "POST",
                "/v1/acme/query",
                headers=auth,
                body=encode_body({"id": 1, "op": op}),
            )
            assert status == 200
            envelope = json.loads(body)
            assert envelope["ok"] is False
            assert f"must use POST /v1/acme/{op}" in envelope["error"]
        # And the mismatch the other way: a non-publish op on /publish.
        status, _, body = http_request(
            address,
            "POST",
            "/v1/acme/publish",
            headers=auth,
            body=encode_body({"id": 9, "op": "ping"}),
        )
        assert status == 200
        envelope = json.loads(body)
        assert envelope["ok"] is False
        assert "publish route expects" in envelope["error"]

    def test_keep_alive_serves_many_requests_per_connection(self, gateway):
        address, _ = gateway

        async def run():
            async with GatewayClient(*address, "acme", ACME_KEY) as client:
                responses = [await client.op("ping") for _ in range(5)]
            return responses

        responses = asyncio.run(run())
        assert all(response["ok"] for response in responses)
        assert [response["id"] for response in responses] == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------
class TestQuota:
    QUOTA = {"capacity": 3, "refill_amount": 1, "refill_every": 4, "ms_per_request": 250.0}

    def make_server(self):
        raw = {
            "tenants": [
                {
                    "name": "tiny",
                    "api_key": "tiny-key-000001",
                    "shards": 1,
                    "quota": dict(self.QUOTA),
                    "data": {"synthetic": 16, "seed": 3},
                }
            ]
        }
        return GatewayServer(parse_gateway_config(raw))

    def test_shedding_matches_the_bucket_replay_exactly(self):
        server = self.make_server()
        reference = TokenBucket(TenantQuota(**self.QUOTA))

        async def scenario(address):
            outcomes = []
            async with GatewayClient(*address, "tiny", "tiny-key-000001") as client:
                for position in range(1, 13):
                    status, body = await client.request_raw(
                        {"id": position, "op": "ping"}
                    )
                    outcomes.append((status, json.loads(body)))
            return outcomes

        with server.run_in_thread() as handle:
            outcomes = asyncio.run(scenario(handle.address))

        for position, (status, envelope) in enumerate(outcomes, start=1):
            granted, deficit = reference.try_acquire()
            if granted:
                assert status == 200, f"request {position} should be granted"
                assert envelope["ok"] is True
            else:
                assert status == 429, f"request {position} should be shed"
                assert envelope["ok"] is False
                assert envelope["overloaded"] is True
                assert envelope["retry_after_ms"] == deficit * 250.0
                assert envelope["id"] == position

    def test_429_carries_deterministic_retry_after_header(self):
        server = self.make_server()

        async def scenario(address):
            async with GatewayClient(*address, "tiny", "tiny-key-000001") as client:
                for position in range(1, 5):  # drain capacity + first refill
                    await client.request_raw({"id": position, "op": "ping"})
                return await client.request_raw({"id": 5, "op": "ping"})

        with server.run_in_thread() as handle:
            address = handle.address
            status, body = asyncio.run(scenario(address))
            envelope = json.loads(body)
            assert status == 429
            expected_seconds = max(
                1, math.ceil(envelope["retry_after_ms"] / 1000.0)
            )
            # Re-read the header via a raw exchange on the same stream
            # position: a fresh server gives the same deterministic shed.
        server = self.make_server()
        with server.run_in_thread() as handle:
            for position in range(1, 5):
                http_request(
                    handle.address,
                    "POST",
                    "/v1/tiny/query",
                    headers=(("X-API-Key", "tiny-key-000001"),),
                    body=encode_body({"id": position, "op": "ping"}),
                )
            status, headers, _ = http_request(
                handle.address,
                "POST",
                "/v1/tiny/query",
                headers=(("X-API-Key", "tiny-key-000001"),),
                body=encode_body({"id": 5, "op": "ping"}),
            )
        assert status == 429
        assert headers["retry-after"] == str(expected_seconds)

    def test_get_routes_never_consume_quota(self):
        server = self.make_server()

        with server.run_in_thread() as handle:
            bucket = server.tenants.get("tiny").bucket
            assert bucket is not None
            before = bucket.tokens
            for _ in range(6):
                status, _, _ = http_request(
                    handle.address,
                    "GET",
                    "/v1/tiny/health",
                    headers=(("X-API-Key", "tiny-key-000001"),),
                )
                assert status == 200
                http_request(
                    handle.address,
                    "GET",
                    "/v1/tiny/metrics",
                    headers=(("X-API-Key", "tiny-key-000001"),),
                )
            assert bucket.tokens == before

    def test_shed_is_counted_and_logged_for_the_tenant(self):
        server = self.make_server()

        async def scenario(address):
            async with GatewayClient(*address, "tiny", "tiny-key-000001") as client:
                for position in range(1, 6):
                    await client.request_raw({"id": position, "op": "ping"})

        with server.run_in_thread() as handle:
            asyncio.run(scenario(handle.address))
            tenant = server.tenants.get("tiny")
            assert tenant.registry.counter("gateway_quota_shed_total").value >= 1
            assert (
                server.registry.counter("gateway_shed_total", tenant="tiny").value
                >= 1
            )
            events = [
                event
                for event in tenant.store.events.tail()
                if event["kind"] == "quota_shed"
            ]
        assert events and events[0]["op"] == "ping"


# ----------------------------------------------------------------------
# The load harness and the CLI over the gateway
# ----------------------------------------------------------------------
class TestLoadAndCli:
    def test_run_load_async_checksum_matches_linear_oracle(self, gateway):
        address, _ = gateway
        coords = synthetic_coordinates(64, seed=3)
        queries = generate_queries(list(coords), 200, mix="mixed", seed=11, k=4)
        oracle_store = ShardedCoordinateStore.from_coordinates(
            coords, shards=1, index_kind="linear", source="t", timer=lambda: 0.0
        )
        oracle = run_workload(oracle_store, queries, timer=lambda: 0.0)

        async def connect():
            return await GatewayClient.connect(
                f"http://{address[0]}:{address[1]}", "acme", ACME_KEY
            )

        report = asyncio.run(
            run_load_async(
                address,
                queries,
                concurrency=4,
                connections=2,
                deterministic_timing=True,
                collect_health=False,
                connect=connect,
            )
        )
        assert report.errors == 0
        assert report.checksum == oracle.checksum

    def test_load_cli_gateway_mode_verifies_oracle(self, gateway, capsys):
        from repro.server.cli import main

        address, _ = gateway
        rc = main(
            [
                "load",
                "--gateway", f"http://{address[0]}:{address[1]}",
                "--tenant", "acme",
                "--api-key", ACME_KEY,
                "--count", "80",
                "--mix", "mixed",
                "--verify-oracle",
                "--deterministic-timing",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "identical: True" in out

    @pytest.mark.parametrize(
        "extra, match",
        [
            (["--gateway", "http://h:1"], "requires --tenant and --api-key"),
            (
                ["--gateway", "http://h:1", "--tenant", "t", "--api-key", "k",
                 "--port", "9"],
                "mutually exclusive",
            ),
            (
                ["--gateway", "http://h:1", "--tenant", "t", "--api-key", "k",
                 "--shutdown"],
                "cannot stop the shared process",
            ),
            (["--port", "9", "--tenant", "t"], "only apply with --gateway"),
            ([], "--port is required"),
        ],
    )
    def test_load_cli_rejects_inconsistent_transport_flags(
        self, capsys, extra, match
    ):
        from repro.server.cli import main

        assert main(["load", *extra]) == 2
        assert match in capsys.readouterr().err

    def test_gateway_cli_ready_file_and_clean_stop(self, tmp_path, capsys):
        from repro.analysis.cli import main

        config_path = tmp_path / "gateway.json"
        config_path.write_text(json.dumps(two_tenant_raw()))
        ready = tmp_path / "ready.txt"
        rc: list = []

        def run_gateway():
            rc.append(
                main(
                    [
                        "gateway",
                        "--config", str(config_path),
                        "--ready-file", str(ready),
                        "--max-seconds", "2.0",
                    ]
                )
            )

        thread = threading.Thread(target=run_gateway)
        thread.start()
        try:
            deadline = time.time() + 15.0
            fields: list = []
            while time.time() < deadline:
                if ready.exists():
                    fields = ready.read_text().split()
                    if len(fields) == 2:
                        break
                time.sleep(0.01)
            assert len(fields) == 2, "gateway never wrote the ready file"
            host, port = fields[0], int(fields[1])
            status, _, body = http_request((host, port), "GET", "/healthz")
            assert status == 200 and json.loads(body)["ok"] is True
        finally:
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert rc == [0]
        out = capsys.readouterr().out
        assert "gateway serving 2 tenant(s)" in out
        assert "gateway stopped cleanly" in out

    def test_gateway_cli_rejects_bad_config_with_one_line(self, tmp_path, capsys):
        from repro.analysis.cli import main

        config_path = tmp_path / "bad.json"
        config_path.write_text('{"tenants": []}')
        assert main(["gateway", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# ----------------------------------------------------------------------
# The gateway client
# ----------------------------------------------------------------------
class TestGatewayClient:
    @pytest.mark.parametrize(
        "url, match",
        [
            ("https://h:1", "must start with http://"),
            ("http://hostonly", "explicit port"),
            ("http://:8080", "needs a host"),
            ("http://h:eight", "explicit port"),
        ],
    )
    def test_parse_base_url_rejects_bad_urls(self, url, match):
        with pytest.raises(ValueError, match=match):
            parse_base_url(url)

    def test_parse_base_url_accepts_trailing_path(self):
        assert parse_base_url("http://127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert parse_base_url("http://example:99/") == ("example", 99)

    def test_bad_key_surfaces_as_the_error_envelope(self, gateway):
        address, _ = gateway

        async def run():
            async with GatewayClient(*address, "acme", "not-the-key-0000") as client:
                return await client.op("ping")

        response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "unknown API key"

    def test_client_reconnects_after_server_side_close(self, gateway):
        address, _ = gateway

        async def run():
            async with GatewayClient(*address, "acme", ACME_KEY) as client:
                first = await client.op("ping")
                client._drop_connection()  # simulate a lost connection
                second = await client.op("ping")
            return first, second

        first, second = asyncio.run(run())
        assert first["ok"] and second["ok"]
