"""Cross-tenant isolation tests for the HTTP gateway.

Each tenant owns a whole serving stack -- store, engine, cache, health
tracker, event log, telemetry registry, token bucket -- so nothing one
tenant does can be observed by another.  These tests pin that boundary
from the outside, through the HTTP API only:

* publishes into tenant A's space never appear in B's node set,
  generation version, health payload, or event log;
* result caches are per tenant: the same query text is a cache hit on
  the tenant that repeated it and a miss (with a different answer) on
  the other;
* a chaos shard-kill scheduled in A's space degrades only A's scatter
  queries -- B keeps answering full, non-partial responses with the
  exact same bytes as before the fault;
* serving metrics accumulate in the acting tenant's registry only.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.gateway.app import GatewayServer
from repro.gateway.client import GatewayClient
from repro.gateway.config import parse_gateway_config

ACME_KEY = "acme-secret-0001"
GLOBEX_KEY = "globex-secret-01"

#: The same node id exists in both universes (synthetic ids are always
#: node000000...), with different coordinates -- ideal for isolation
#: probes: the query text is identical, the right answer is not.
SHARED_NODE = "node000000"


def make_server() -> GatewayServer:
    raw = {
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
        ]
    }
    return GatewayServer(parse_gateway_config(raw))


@pytest.fixture()
def gateway():
    server = make_server()
    with server.run_in_thread() as handle:
        yield handle.address, server


def run(coro):
    return asyncio.run(coro)


async def clients(address):
    acme = GatewayClient(*address, "acme", ACME_KEY)
    globex = GatewayClient(*address, "globex", GLOBEX_KEY)
    return acme, globex


class TestPublishIsolation:
    def test_publish_into_one_tenant_is_invisible_to_the_other(self, gateway):
        address, server = gateway

        async def scenario():
            acme, globex = await clients(address)
            try:
                before = await globex.op("version")
                published = await acme.request(
                    {
                        "op": "publish",
                        "version": 3,
                        "delta": True,
                        "nodes": ["acme-only-node"],
                        "components": [[1.0, 2.0, 3.0]],
                        "removed": [],
                        "source": "isolation-test",
                    }
                )
                acme_nodes = await acme.op("nodes")
                globex_nodes = await globex.op("nodes")
                after = await globex.op("version")
                return published, acme_nodes, globex_nodes, before, after
            finally:
                await acme.close()
                await globex.close()

        published, acme_nodes, globex_nodes, before, after = run(scenario())
        assert published["ok"]
        assert "acme-only-node" in acme_nodes["payload"]["node_ids"]
        assert "acme-only-node" not in globex_nodes["payload"]["node_ids"]
        # The other tenant's generation stream never ticked.
        assert after["payload"] == before["payload"]

    def test_publish_events_land_in_the_acting_tenants_log_only(self, gateway):
        address, server = gateway

        async def scenario():
            acme, globex = await clients(address)
            try:
                await acme.request(
                    {
                        "op": "publish",
                        "version": 3,
                        "delta": True,
                        "nodes": ["acme-only-node"],
                        "components": [[1.0, 2.0, 3.0]],
                        "removed": [],
                        "source": "isolation-test",
                    }
                )
                return (
                    await acme.op("events"),
                    await globex.op("events"),
                )
            finally:
                await acme.close()
                await globex.close()

        acme_events, globex_events = run(scenario())
        acme_sources = [
            event.get("source")
            for event in acme_events["payload"]["events"]
            if event["kind"] == "epoch_published"
        ]
        globex_sources = [
            event.get("source")
            for event in globex_events["payload"]["events"]
            if event["kind"] == "epoch_published"
        ]
        assert "isolation-test" in acme_sources
        assert "isolation-test" not in globex_sources

    def test_health_reflects_only_the_tenants_own_store(self, gateway):
        address, _ = gateway

        async def scenario():
            acme, globex = await clients(address)
            try:
                return (
                    await acme.op("health", sections=["generation"]),
                    await globex.op("health", sections=["generation"]),
                )
            finally:
                await acme.close()
                await globex.close()

        acme_health, globex_health = run(scenario())
        assert acme_health["payload"]["generation"]["nodes"] == 64
        assert globex_health["payload"]["generation"]["nodes"] == 48


class TestCacheIsolation:
    def test_result_caches_are_per_tenant(self, gateway):
        address, _ = gateway

        async def scenario():
            acme, globex = await clients(address)
            try:
                first = await acme.op("knn", target=SHARED_NODE, k=3)
                repeat = await acme.op("knn", target=SHARED_NODE, k=3)
                other = await globex.op("knn", target=SHARED_NODE, k=3)
                return first, repeat, other
            finally:
                await acme.close()
                await globex.close()

        first, repeat, other = run(scenario())
        assert first["ok"] and repeat["ok"] and other["ok"]
        assert first["cached"] is False
        assert repeat["cached"] is True  # acme's own cache served it
        # Same query text against the other tenant: not a hit there, and
        # a different universe gives a different answer.
        assert other["cached"] is False
        assert other["payload"] != first["payload"]


class TestChaosIsolation:
    def test_shard_kill_in_one_space_leaves_the_other_full(self, gateway):
        address, _ = gateway

        async def scenario():
            acme, globex = await clients(address)
            try:
                globex_before = await globex.op("knn", target=SHARED_NODE, k=5)
                install = await acme.op(
                    "chaos", spec="shard-kill@0+100:shard=1", seed=0
                )
                acme_degraded = await acme.op("knn", target=SHARED_NODE, k=5)
                globex_during = await globex.op("knn", target=SHARED_NODE, k=5)
                cleared = await acme.op("chaos", clear=True)
                acme_after = await acme.op("knn", target=SHARED_NODE, k=5)
                return (
                    install,
                    acme_degraded,
                    globex_before,
                    globex_during,
                    cleared,
                    acme_after,
                )
            finally:
                await acme.close()
                await globex.close()

        install, degraded, before, during, cleared, after = run(scenario())
        assert install["ok"] and cleared["ok"]
        # The victim tenant serves flagged partial responses...
        assert degraded["partial"] is True
        assert degraded["missing_shards"] == [1]
        # ...while the other tenant never notices: same full answer.
        assert "partial" not in during
        assert during["payload"] == before["payload"]
        assert during["version"] == before["version"]
        # And the victim recovers fully once the fault clears.
        assert "partial" not in after
        assert after["ok"]


class TestMetricsIsolation:
    def test_serving_metrics_accumulate_per_tenant_only(self, gateway):
        address, server = gateway
        acme_registry = server.tenants.get("acme").registry
        globex_registry = server.tenants.get("globex").registry
        globex_before = globex_registry.counter("daemon_admitted_total").value

        async def scenario():
            acme, globex = await clients(address)
            try:
                for _ in range(7):
                    await acme.op("ping")
            finally:
                await acme.close()
                await globex.close()

        run(scenario())
        assert acme_registry.counter("daemon_admitted_total").value >= 7
        assert (
            globex_registry.counter("daemon_admitted_total").value == globex_before
        )

        # The same boundary holds for the scraped endpoints.
        async def scrape():
            acme, globex = await clients(address)
            try:
                acme_status, acme_body = await acme.request_raw(
                    {"id": 1, "op": "stats"}
                )
                return json.loads(acme_body)
            finally:
                await acme.close()
                await globex.close()

        stats = run(scrape())
        assert stats["ok"]
        admission = stats["payload"]["admission"]
        assert admission["admitted"] >= 7
