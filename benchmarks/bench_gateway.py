"""Gateway benchmark: HTTP-over-TCP overhead and multi-tenant serving.

Two legs:

1. **Overhead** -- the same store construction is served by the TCP
   daemon and by the HTTP gateway; for each query mix the harness drives
   the identical query stream over both transports (same concurrency,
   same connection count, best-of-three legs each) and reports the
   gateway's queries/sec relative to the daemon's
   (``http_over_tcp_qps_<mix>``).  Before timing anything it replays an
   aligned-correlation-id stream through both transports and asserts the
   gateway's response bodies are byte-identical to the TCP frame bodies
   (``bodies_identical_<mix>``) -- the tentpole property, gated outright.
2. **Multi-tenant** -- one gateway serves four tenants with distinct
   synthetic universes; four closed-loop mixed workloads run
   concurrently, one per tenant, and each tenant's response checksum
   must equal its own single-store linear oracle
   (``oracle_identical_<tenant>``).  Per-tenant throughput and p99 are
   reported (not gated: four concurrent loops on a small CI host flap),
   along with the min-over-max fairness ratio.

Ratios compare two transports measured on the same machine moments
apart, so they are stable across the CI runner lottery; the committed
smoke baselines hold them at deliberately conservative values (see
benchmarks/README.md).  Emits ``BENCH_gateway.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_gateway.py          # full
    PYTHONPATH=src python benchmarks/bench_gateway.py --smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.gateway.app import GatewayServer
from repro.gateway.client import GatewayClient
from repro.gateway.config import parse_gateway_config
from repro.gateway.tenants import build_store
from repro.server.client import AsyncCoordinateClient
from repro.server.daemon import CoordinateServer
from repro.server.load import run_load, run_load_async, synthetic_coordinates
from repro.server.protocol import encode_body, query_to_request
from repro.service.planner import QueryPlanner
from repro.service.snapshot import SnapshotStore
from repro.service.workload import generate_queries, run_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_gateway.json"

SHARDS = 2
SEED = 3
#: Query mixes timed in the overhead leg (every pure kind plus the blend).
MIXES = ("knn", "nearest", "pairwise-latency", "centroid", "mixed")
#: The multi-tenant leg: four tenants, distinct universes.
TENANT_SEEDS = {"acme": 3, "globex": 5, "initech": 7, "umbrella": 9}
API_KEYS = {name: f"{name}-bench-key-01" for name in TENANT_SEEDS}


def make_config(nodes: int) -> Any:
    return parse_gateway_config(
        {
            "tenants": [
                {
                    "name": "bench",
                    "api_key": "bench-key-000001",
                    "shards": SHARDS,
                    "quota": None,
                    "data": {"synthetic": nodes, "seed": SEED},
                }
            ]
        }
    )


def check_byte_identity(
    gateway_address, tcp_address, requests: List[Dict[str, Any]]
) -> int:
    """Replay ``requests`` over both transports with aligned ids.

    Returns the mismatch count (0 = the gateway body equals the TCP
    frame body for every request).  Both servers see the identical
    stream in lockstep, so even cache-hit flags line up.
    """

    async def scenario() -> int:
        gateway = GatewayClient(*gateway_address, "bench", "bench-key-000001")
        tcp = await AsyncCoordinateClient.connect(*tcp_address)
        mismatches = 0
        try:
            for position, request in enumerate(requests, start=1):
                tcp_response = await tcp.request(dict(request))
                _, body = await gateway.request_raw({**request, "id": position})
                if encode_body(tcp_response) != body:
                    mismatches += 1
        finally:
            await gateway.close()
            await tcp.close()
        return mismatches

    return asyncio.run(scenario())


def gateway_connect_factory(address, tenant: str, api_key: str):
    base_url = f"http://{address[0]}:{address[1]}"

    async def connect():
        return await GatewayClient.connect(base_url, tenant, api_key)

    return connect


def bench_overhead(nodes: int, query_count: int, identity_count: int) -> List[Dict[str, Any]]:
    config = make_config(nodes)
    spec = config.tenant("bench")
    gateway_server = GatewayServer(config)
    tcp_server = CoordinateServer(build_store(spec))
    node_ids = list(synthetic_coordinates(nodes, seed=SEED))
    cells: List[Dict[str, Any]] = []

    load_kwargs = dict(
        mode="closed", concurrency=4, connections=4, collect_health=False
    )
    with gateway_server.run_in_thread() as gw_handle:
        with tcp_server.run_in_thread() as tcp_handle:
            connect = gateway_connect_factory(
                gw_handle.address, "bench", "bench-key-000001"
            )
            for mix in MIXES:
                identity_queries = generate_queries(
                    node_ids, identity_count, mix=mix, seed=23
                )
                mismatches = check_byte_identity(
                    gw_handle.address,
                    tcp_handle.address,
                    [query_to_request(query, None) for query in identity_queries],
                )
                queries = generate_queries(node_ids, query_count, mix=mix, seed=17)
                # Warm lap each side, then best of three: filters
                # scheduler hiccups so the ratio compares steady states.
                run_load(tcp_handle.address, queries, **load_kwargs)
                tcp_qps = max(
                    run_load(
                        tcp_handle.address, queries, **load_kwargs
                    ).queries_per_s
                    for _ in range(3)
                )
                run_load(gw_handle.address, queries, connect=connect, **load_kwargs)
                http_qps = max(
                    run_load(
                        gw_handle.address, queries, connect=connect, **load_kwargs
                    ).queries_per_s
                    for _ in range(3)
                )
                cells.append(
                    {
                        "mix": mix,
                        "queries": query_count,
                        "tcp_qps": round(tcp_qps, 1),
                        "http_qps": round(http_qps, 1),
                        "http_over_tcp_qps": round(http_qps / tcp_qps, 3),
                        "identity_checked": len(identity_queries),
                        "identity_mismatches": mismatches,
                        "bodies_identical": mismatches == 0,
                    }
                )
                print(
                    f"  {mix:>16}: tcp {tcp_qps:>8.1f} q/s  http {http_qps:>8.1f}"
                    f"  ratio {http_qps / tcp_qps:.3f}"
                    f"  identical {mismatches == 0}"
                )
    return cells


def _p99(latencies) -> Optional[float]:
    values = sorted(value for value in latencies if value is not None)
    if not values:
        return None
    return round(values[min(len(values) - 1, int(0.99 * len(values)))], 4)


def bench_multi_tenant(nodes: int, query_count: int) -> Dict[str, Any]:
    config = parse_gateway_config(
        {
            "tenants": [
                {
                    "name": name,
                    "api_key": API_KEYS[name],
                    "shards": SHARDS,
                    "quota": None,
                    "data": {"synthetic": nodes, "seed": seed},
                }
                for name, seed in TENANT_SEEDS.items()
            ]
        }
    )
    server = GatewayServer(config)
    workloads = {}
    oracles = {}
    for name, seed in TENANT_SEEDS.items():
        coords = synthetic_coordinates(nodes, seed=seed)
        queries = generate_queries(
            list(coords), query_count, mix="mixed", seed=17 + seed
        )
        workloads[name] = queries
        oracle_store = SnapshotStore.from_coordinates(
            coords, index_kind="linear", source="bench"
        )
        oracles[name] = run_workload(
            QueryPlanner(oracle_store, timer=lambda: 0.0),
            queries,
            timer=lambda: 0.0,
        ).checksum

    async def drive(address):
        async def one(name):
            return name, await run_load_async(
                address,
                workloads[name],
                mode="closed",
                concurrency=2,
                connections=2,
                collect_health=False,
                connect=gateway_connect_factory(address, name, API_KEYS[name]),
            )

        return dict(await asyncio.gather(*(one(name) for name in TENANT_SEEDS)))

    with server.run_in_thread() as handle:
        reports = asyncio.run(drive(handle.address))

    per_tenant = []
    for name, report in reports.items():
        per_tenant.append(
            {
                "tenant": name,
                "queries": report.query_count,
                "errors": report.errors,
                "qps": round(report.queries_per_s, 1),
                "p99_ms": _p99(report.latencies_ms),
                "checksum_identical": report.checksum == oracles[name],
            }
        )
        print(
            f"  tenant {name:>9}: {report.queries_per_s:>8.1f} q/s"
            f"  p99 {per_tenant[-1]['p99_ms']} ms"
            f"  oracle identical {per_tenant[-1]['checksum_identical']}"
        )
    rates = [entry["qps"] for entry in per_tenant]
    return {
        "tenants": len(per_tenant),
        "queries_per_tenant": query_count,
        "per_tenant": per_tenant,
        "fairness_min_over_max": round(min(rates) / max(rates), 3) if rates else None,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small universe / query counts for CI"
    )
    parser.add_argument(
        "--out", type=Path, default=ARTIFACT, help="artifact path (BENCH_gateway.json)"
    )
    args = parser.parse_args(argv)

    nodes = 256 if args.smoke else 2_000
    query_count = 300 if args.smoke else 1_500
    identity_count = 60 if args.smoke else 200
    tenant_queries = 200 if args.smoke else 1_000

    artifact: Dict[str, Any] = {
        "benchmark": "gateway_http",
        "smoke": args.smoke,
        "host_cpu_count": os.cpu_count(),
        "nodes": nodes,
        "shards": SHARDS,
        "overhead": [],
        "multi_tenant": {},
    }
    print("overhead leg (TCP daemon vs HTTP gateway)...", flush=True)
    artifact["overhead"] = bench_overhead(nodes, query_count, identity_count)
    print("multi-tenant leg (4 tenants, concurrent mixed load)...", flush=True)
    artifact["multi_tenant"] = bench_multi_tenant(nodes, tenant_queries)

    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"artifact written to {args.out}")

    broken = [
        cell["mix"] for cell in artifact["overhead"] if not cell["bodies_identical"]
    ]
    broken += [
        entry["tenant"]
        for entry in artifact["multi_tenant"]["per_tenant"]
        if not entry["checksum_identical"]
    ]
    if broken:
        print(
            f"error: byte-identity / oracle checks failed for: {', '.join(broken)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
