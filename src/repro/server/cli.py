"""The serving command tree: ``serve``, ``query``, ``serve-daemon``,
``load``, ``metrics``, ``health``, ``watch`` and ``gateway``.

Usage::

    # Run a scenario, save its coordinates, serve an in-process workload
    repro serve mesh-replay --out snapshot.json
    repro serve query-service-mixed --queries 1000 --mix mixed --index vptree

    # One-off questions against a saved snapshot, or a whole workload
    # checked against the linear oracle
    repro query --snapshot snapshot.json info
    repro query --snapshot snapshot.json knn n0012 --k 5
    repro query --snapshot snapshot.json pairwise n0012 n0040
    repro query --snapshot snapshot.json centroid n0001 n0002 n0003
    repro query --snapshot snapshot.json --index vptree \
        workload --count 2000 --mix mixed --compare-linear

    # Serve a saved snapshot over TCP on 4 shards
    repro serve-daemon --snapshot snapshot.json --shards 4 --port 9917

    # Serve a registered scenario's final coordinates
    repro serve-daemon --scenario mesh-replay --shards 2 --index vptree

    # Serve a synthetic clustered universe (benchmarks, smoke tests)
    repro serve-daemon --synthetic 5000 --port 9917 --ready-file ready.txt

    # Serve every tenant of a gateway config over HTTP
    repro gateway --config gateway.json --port 8080

    # Replay a deterministic mixed workload against a running daemon
    repro load --port 9917 --count 5000 --mix mixed --concurrency 16

    # ... verifying byte-identical results against the linear oracle,
    # then shutting the daemon down cleanly
    repro load --port 9917 --count 2000 --verify-oracle --shutdown

    # Dump the server's telemetry registry in Prometheus text format
    repro metrics --port 9917
    repro metrics --port 9917 --out metrics.prom

    # Coordinate-health report (relative error, drift, churn, staleness)
    repro health --port 9917
    repro health --port 9917 --sections relative_error,drift --json

    # Live text dashboard: poll stats + health, plot trends
    repro watch --port 9917 --interval 0.5 --iterations 10

Every command shares one error policy: a bad argument, an unreadable or
malformed input, an unwritable artifact path, a refused request or a dead
port is one ``error: ...`` line on stderr and exit code 2.  Exit code 1
is kept for a completed run whose answers are wrong (a diverged oracle,
failed requests, failed chaos SLOs).

``serve`` runs a registered scenario through the serial kernel, publishes
the final coordinates into a one-shard
:class:`~repro.server.sharding.ShardedCoordinateStore`, optionally saves
the snapshot, and (with ``--queries``) drives a deterministic workload
through the store's batch path, printing per-kind stats.  ``query``
answers one-off questions against a saved snapshot, or replays a whole
workload; ``--compare-linear`` verifies it against the linear oracle.

``serve-daemon`` and ``gateway`` share one serve loop: they run in the
foreground until Ctrl-C or ``--max-seconds`` (the daemon also stops on a
wire ``shutdown`` request, which the gateway refuses), and
``--ready-file`` writes ``host port`` once the socket is bound (for
scripts and CI).  ``load`` fetches the node population over the wire,
generates the same deterministic query stream the in-process workload
layer would, and reports throughput plus exact per-kind latency
percentiles; ``--verify-oracle`` downloads the served snapshot and
replays the stream through the single-store linear oracle, failing
(exit 1) unless the served answers are byte-identical.

``load --metrics-out FILE`` writes the load run's *client-side* registry
(per-kind latency histograms and outcome counters) as Prometheus text;
with ``--deterministic-timing`` recorded latencies are a pure hash of the
query stream, so the file is byte-identical across repeated seeded runs.
``load --health-out FILE`` writes the daemon's coordinate-health section
of the report as JSON and ``--events-out FILE`` dumps the daemon's
structured event log as JSONL.  Every artifact flag creates missing
parent directories.  ``metrics`` fetches the *server-side* registry over
the wire ``metrics`` op.  ``serve-daemon --trace-spans`` additionally
records per-stage span histograms (``span_ms``) on the request path.

``load --gateway http://HOST:PORT --tenant NAME --api-key KEY`` drives a
multi-tenant HTTP gateway (:mod:`repro.gateway`) instead of a TCP
daemon: the same deterministic query stream, oracle verification and
chaos injection run against the named tenant's coordinate space through
:class:`repro.gateway.client.GatewayClient`.  ``--shutdown`` is refused
in gateway mode -- tenants cannot stop the shared process.

``load --chaos SPEC`` installs a deterministic fault schedule on the
daemon for the duration of the run (``kind@at+duration[:key=value...]``,
comma-separated) and evaluates recovery SLOs afterwards: bounded counted
error window, no torn reads, and p99 re-convergence.  ``--chaos-out``
writes the full chaos report (fault lifecycle, SLO inputs and verdicts)
as JSON, re-checkable offline with ``python -m repro.chaos.slo``;
``--request-timeout`` bounds each request and counts timeouts as typed
errors instead of hanging the run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.chaos.schedule import FaultSchedule
from repro.chaos.slo import SLOThresholds, evaluate as evaluate_slo
from repro.obs.registry import TelemetryRegistry
from repro.server.client import AsyncCoordinateClient
from repro.server.daemon import CoordinateServer
from repro.server.load import LOAD_MODES, run_load_async
from repro.server.sharding import ShardedCoordinateStore
from repro.service.index import INDEX_KINDS
from repro.service.planner import Query
from repro.service.snapshot import ArraySnapshot
from repro.service.workload import (
    QUERY_MIXES,
    WorkloadReport,
    generate_queries,
    run_workload,
)

__all__ = ["main"]


class CommandError(Exception):
    """A failure ``main`` reports as one ``error:`` line and exit code 2."""


def _payload(response: Dict[str, Any], what: str) -> Any:
    """The payload of an ``ok`` response; a refusal is a :class:`CommandError`."""
    if not response.get("ok"):
        raise CommandError(f"daemon refused {what}: {response.get('error')}")
    return response["payload"]


def _write_artifact(path: Path, text: str, label: str) -> None:
    """Write a CLI output artifact, creating missing parent directories.

    An unwritable path (a file where a directory is needed, a read-only
    tree) raises ``OSError``, which ``main`` reports like any other
    failure -- no traceback, no partially reported success.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"{label} written to {path}")


def _emit(args: argparse.Namespace, text: str, label: str) -> int:
    """Write ``text`` to ``--out`` when given, else to stdout."""
    if args.out is not None:
        _write_artifact(args.out, text, label)
    else:
        sys.stdout.write(text)
    return 0


def _linear_oracle(snapshot, queries, **workload: Any) -> WorkloadReport:
    """Replay ``queries`` on a one-shard linear store: the index-free oracle."""
    store = ShardedCoordinateStore.from_snapshot(
        snapshot, shards=1, index_kind="linear", timer=lambda: 0.0
    )
    return run_workload(store, queries, **workload)


def _serve_until_stopped(
    server, args: argparse.Namespace, banner: Callable[[str, int], str], name: str
) -> int:
    """The one serve loop behind ``serve-daemon`` and ``gateway``.

    Prints ``banner(host, port)`` once the socket is bound, writes
    ``--ready-file``, arms ``--max-seconds``, and runs until the server
    stops or Ctrl-C.
    """

    async def serve() -> None:
        host, port = await server.start()
        print(banner(host, port), flush=True)
        if args.ready_file is not None:
            args.ready_file.write_text(f"{host} {port}\n")
        if args.max_seconds is not None:
            asyncio.get_running_loop().call_later(args.max_seconds, server.stop)
        await server.wait_stopped()
        print(f"{name} stopped cleanly", flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        server.stop()
        print(f"interrupted; {name} stopped cleanly", flush=True)
    return 0


# ----------------------------------------------------------------------
# repro serve / repro query
# ----------------------------------------------------------------------
def _print_stats(stats: Dict[str, Any]) -> None:
    kinds = stats.get("kinds", {})
    if kinds:
        width = max(len(kind) for kind in kinds)
        header = (
            f"{'kind':<{width}}  {'served':>7}  {'cached':>7}  "
            f"{'p50 us':>9}  {'p99 us':>9}"
        )
        print(header)
        print("-" * len(header))
        for kind, entry in sorted(kinds.items()):
            p50 = entry.get("p50_us")
            p99 = entry.get("p99_us")
            latency = (
                f"{p50:>9.1f}  {p99:>9.1f}" if p50 is not None else f"{'-':>9}  {'-':>9}"
            )
            print(
                f"{kind:<{width}}  {entry['served']:>7}  {entry['cache_hits']:>7}  "
                f"{latency}"
            )
    cache = stats.get("cache", {})
    print(
        f"cache: {cache.get('entries', 0)} entries, {cache.get('hits', 0)} hits, "
        f"{cache.get('misses', 0)} misses, {cache.get('evictions_lru', 0)} lru / "
        f"{cache.get('evictions_rollover', 0)} rollover evictions"
    )


def _run_workload_against(
    store: ShardedCoordinateStore, args: argparse.Namespace, count: int, seed: int
) -> int:
    snapshot = store.generation().snapshot
    queries = generate_queries(
        snapshot.node_ids(),
        count,
        mix=args.mix,
        seed=seed,
        k=args.k,
        radius_ms=args.radius,
    )
    report = run_workload(store, queries, batch_size=args.batch_size)
    print(
        f"{report.query_count} queries in {report.elapsed_s:.3f}s "
        f"({report.queries_per_s:,.0f} q/s, cache hit rate "
        f"{report.cache_hit_rate:.1%}, checksum {report.checksum[:12]})"
    )
    _print_stats(dict(report.stats))
    if not args.compare_linear:
        return 0
    oracle = _linear_oracle(snapshot, queries, batch_size=args.batch_size)
    identical = oracle.checksum == report.checksum
    speedup = oracle.elapsed_s / report.elapsed_s if report.elapsed_s > 0 else float("nan")
    print(
        f"linear oracle: {oracle.elapsed_s:.3f}s -> speedup "
        f"{speedup:.2f}x, identical results: {identical}"
    )
    if not identical:
        print("error: spatial index diverged from the linear oracle", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import ScenarioSpec

    spec = get_scenario(args.scenario)
    if args.seed is not None:
        spec = ScenarioSpec.from_dict({**spec.to_dict(), "seed": args.seed})
    print(f"running scenario {spec.name!r} ({spec.mode}, {spec.network.nodes} nodes)...")
    store = ShardedCoordinateStore.from_source(
        ("scenario", spec), shards=1, index_kind=args.index, level=args.level
    )
    snapshot = store.generation().snapshot
    print(
        f"snapshot v{snapshot.version}: {len(snapshot)} node coordinates "
        f"({args.level} level, {args.index} index)"
    )
    if args.out is not None:
        snapshot.save(args.out)
        print(f"snapshot written to {args.out}")
    if args.queries > 0:
        return _run_workload_against(store, args, args.queries, spec.seed)
    return 0


def _load_snapshot_store(args: argparse.Namespace) -> ShardedCoordinateStore:
    return ShardedCoordinateStore.from_source(
        ("snapshot", args.snapshot), shards=1, index_kind=args.index
    )


def _cmd_query_info(args: argparse.Namespace) -> int:
    snapshot = ArraySnapshot.load(args.snapshot)
    _, components, heights = snapshot.arrays()
    dimensions = [components.shape[1]] if len(snapshot) else []
    print(
        f"snapshot v{snapshot.version} (source {snapshot.source or '-'}): "
        f"{len(snapshot)} nodes, dimensions {dimensions}, "
        f"{int((heights > 0.0).sum())} with non-zero height"
    )
    return 0


def _cmd_query_single(args: argparse.Namespace, query: Query) -> int:
    payload = _load_snapshot_store(args).serve(query).payload
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_query_workload(args: argparse.Namespace) -> int:
    return _run_workload_against(_load_snapshot_store(args), args, args.count, args.seed)


# ----------------------------------------------------------------------
# repro serve-daemon / repro gateway
# ----------------------------------------------------------------------
def _build_store(args: argparse.Namespace) -> ShardedCoordinateStore:
    if args.snapshot is not None:
        data: Tuple[str, Any] = ("snapshot", args.snapshot)
    elif args.scenario is not None:
        from repro.scenarios.registry import get_scenario

        spec = get_scenario(args.scenario)
        print(
            f"running scenario {spec.name!r} ({spec.mode}, "
            f"{spec.network.nodes} nodes)...",
            flush=True,
        )
        data = ("scenario", spec)
    else:
        data = ("synthetic", (args.synthetic, args.seed))
    return ShardedCoordinateStore.from_source(
        data,
        shards=args.shards,
        index_kind=args.index,
        history=args.history,
        cache_entries=args.cache_entries,
    )


def _cmd_serve_daemon(args: argparse.Namespace) -> int:
    store = _build_store(args)
    server = CoordinateServer(
        store,
        host=args.host,
        port=args.port,
        max_in_flight_per_connection=args.window,
        admission_limit=args.admission_limit,
        trace_spans=args.trace_spans,
    )

    def banner(host: str, port: int) -> str:
        generation = store.generation()
        return (
            f"serving {len(generation)} nodes (v{generation.version}, "
            f"{store.shards} shard(s), {store.index_kind} index) "
            f"on {host}:{port}"
        )

    return _serve_until_stopped(server, args, banner, "daemon")


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro.gateway.app import GatewayServer
    from repro.gateway.config import load_gateway_config

    config = load_gateway_config(args.config)
    server = GatewayServer(config, host=args.host, port=args.port)

    def banner(host: str, port: int) -> str:
        tenants = ", ".join(
            f"{tenant.name} ({len(tenant.store.generation())} nodes, "
            f"{tenant.store.shards} shard(s))"
            for tenant in server.tenants.tenants.values()
        )
        return (
            f"gateway serving {len(config.tenants)} tenant(s) on {host}:{port}\n"
            f"tenants: {tenants}"
        )

    return _serve_until_stopped(server, args, banner, "gateway")


# ----------------------------------------------------------------------
# repro load
# ----------------------------------------------------------------------
def _print_load_report(report) -> None:
    print(
        f"{report.query_count} queries in {report.elapsed_s:.3f}s "
        f"({report.queries_per_s:,.0f} q/s, mode {report.mode}"
        + (
            f", offered {report.offered_qps:,.0f} q/s"
            if report.offered_qps is not None
            else ""
        )
        + f"), {report.ok} ok / {report.errors} errors "
        f"({report.overloaded} overloaded), "
        f"versions {list(report.versions)}, checksum {report.checksum[:12]}"
    )
    if report.kinds:
        width = max(len(kind) for kind in report.kinds)
        header = f"{'kind':<{width}}  {'count':>7}  {'p50 ms':>9}  {'p99 ms':>9}"
        print(header)
        print("-" * len(header))
        for kind, summary in sorted(report.kinds.items()):
            print(
                f"{kind:<{width}}  {summary['count']:>7}  "
                f"{summary['p50_ms']:>9.3f}  {summary['p99_ms']:>9.3f}"
            )


async def _load_async(args: argparse.Namespace, schedule=None) -> int:
    address = (args.host, args.port or 0)
    connect = None
    if args.gateway is not None:
        from repro.gateway.client import GatewayClient

        async def connect():
            return await GatewayClient.connect(
                args.gateway, args.tenant, args.api_key
            )

    if connect is not None:
        client = await connect()
    else:
        client = await AsyncCoordinateClient.connect(*address)
    chaos_installed = False
    try:
        node_ids = _payload(await client.op("nodes"), "node listing")["node_ids"]
        if len(node_ids) < 2:
            raise CommandError("daemon is serving fewer than two nodes")
        snapshot_payload: Optional[Dict[str, Any]] = None
        if args.verify_oracle:
            snapshot_payload = _payload(await client.op("snapshot"), "snapshot dump")

        shards_serving: Optional[int] = None
        if schedule is not None:
            stats = await client.op("stats")
            if stats.get("ok"):
                shards_serving = int(stats["payload"]["shards"]["count"])
            _payload(
                await client.op("chaos", spec=schedule.spec, seed=schedule.seed),
                "chaos schedule",
            )
            chaos_installed = True
            print(
                f"chaos schedule installed: {len(schedule.events)} fault(s), "
                f"seed {schedule.seed}"
            )

        queries = generate_queries(
            node_ids,
            args.count,
            mix=args.mix,
            seed=args.seed,
            k=args.k,
            radius_ms=args.radius,
        )
        registry = TelemetryRegistry()
        report = await run_load_async(
            address,
            queries,
            mode=args.mode,
            concurrency=args.concurrency,
            connections=args.connections,
            rate_qps=args.rate,
            registry=registry,
            deterministic_timing=args.deterministic_timing,
            request_timeout=args.request_timeout,
            connect=connect,
        )
        _print_load_report(report)
        if report.error_kinds:
            print(
                "errors by kind: "
                + ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(report.error_kinds.items())
                )
            )
        if report.degraded:
            print(f"{report.degraded} response(s) served degraded (partial)")

        chaos_report: Optional[Dict[str, Any]] = None
        if chaos_installed:
            fetched = await client.op("chaos", report=True)
            if fetched.get("ok"):
                chaos_report = fetched["payload"].get("report")
            cleared = await client.op("chaos", clear=True)
            chaos_installed = False
            if not cleared.get("ok"):  # pragma: no cover - clear never refuses
                print(
                    f"error: daemon refused chaos clear: {cleared.get('error')}",
                    file=sys.stderr,
                )

        exit_code = 0
        torn_read_count: Optional[int] = None
        if report.errors and schedule is None:
            # Under a chaos schedule errors are expected inside the fault
            # windows; the SLO gate below bounds them instead.
            print(f"error: {report.errors} request(s) failed", file=sys.stderr)
            exit_code = 1
        if args.verify_oracle and snapshot_payload is not None:
            snapshot = ArraySnapshot.from_dict(snapshot_payload)
            if schedule is not None:
                # Partial responses cannot match the full-stream checksum;
                # check each response against the (healthy-subset) oracle.
                from repro.chaos.oracle import verify_chaos_responses

                verdict = verify_chaos_responses(
                    snapshot,
                    queries,
                    report.responses,
                    shards=shards_serving or 2,
                )
                identical = not verdict["mismatches"]
                torn_read_count = len(verdict["mismatches"])
                print(
                    f"chaos oracle: {verdict['matches']}/{verdict['checked']} "
                    f"responses identical ({verdict['partial_checked']} degraded)"
                )
                if not identical:
                    print(
                        "error: daemon results diverged from the healthy-subset "
                        f"oracle at positions {verdict['mismatches'][:10]}",
                        file=sys.stderr,
                    )
                    exit_code = 1
            else:
                oracle = _linear_oracle(snapshot, queries, timer=lambda: 0.0)
                identical = oracle.checksum == report.checksum
                print(
                    f"linear oracle checksum {oracle.checksum[:12]}; "
                    f"identical: {identical}"
                )
                if not identical:
                    print(
                        "error: daemon results diverged from the single-store "
                        "linear oracle",
                        file=sys.stderr,
                    )
                    exit_code = 1

        if schedule is not None:
            slo_inputs = {
                "fault_windows": [
                    [event.at, event.clear_at] for event in schedule.serve_events()
                ],
                "error_positions": [
                    position
                    for position, response in enumerate(report.responses)
                    if not response.get("ok")
                ],
                "total_requests": report.query_count,
                "latencies_ms": list(report.latencies_ms),
                "torn_reads": torn_read_count,
                "generation_recovered": None,
            }
            slo = evaluate_slo(thresholds=SLOThresholds(), **slo_inputs)
            for name, entry in slo["checks"].items():
                status = "PASS" if entry["passed"] else "FAIL"
                print(f"  SLO {status}  {name}: {entry['detail']}")
            if args.chaos_out is not None:
                artifact = {
                    "chaos": chaos_report,
                    "slo_inputs": slo_inputs,
                    "slo": slo,
                    "error_kinds": dict(report.error_kinds),
                    "degraded": report.degraded,
                }
                _write_artifact(
                    args.chaos_out,
                    json.dumps(artifact, indent=2, sort_keys=True) + "\n",
                    "chaos report",
                )
            if not slo["passed"]:
                print("error: chaos recovery SLOs failed", file=sys.stderr)
                exit_code = 1
        if args.out is not None:
            _write_artifact(
                args.out, json.dumps(report.as_dict(), indent=2) + "\n", "load report"
            )
        if args.metrics_out is not None:
            _write_artifact(
                args.metrics_out, registry.render_prometheus(), "Prometheus metrics"
            )
        if args.health_out is not None:
            _write_artifact(
                args.health_out,
                json.dumps(report.health, indent=2, sort_keys=True) + "\n",
                "health report",
            )
        if args.events_out is not None:
            events = await client.op("events")
            if not events.get("ok"):
                print(
                    f"error: daemon refused event log: {events.get('error')}",
                    file=sys.stderr,
                )
                exit_code = exit_code or 1
            else:
                lines = "".join(
                    json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
                    for event in events["payload"]["events"]
                )
                _write_artifact(args.events_out, lines, "event log")
        if args.shutdown:
            response = await client.op("shutdown")
            if response.get("ok"):
                print("daemon acknowledged shutdown")
            else:  # pragma: no cover - daemon never refuses shutdown
                print(
                    f"error: daemon refused shutdown: {response.get('error')}",
                    file=sys.stderr,
                )
                exit_code = exit_code or 1
        return exit_code
    finally:
        if chaos_installed:
            try:
                await client.op("chaos", clear=True)
            except (ConnectionError, OSError):  # pragma: no cover - best effort
                pass
        await client.close()


def _cmd_load(args: argparse.Namespace):
    if args.gateway is not None:
        if args.tenant is None or args.api_key is None:
            raise CommandError("--gateway requires --tenant and --api-key")
        if args.port is not None:
            raise CommandError("--gateway and --port are mutually exclusive")
        if args.shutdown:
            raise CommandError(
                "--shutdown is not available through the gateway "
                "(tenants cannot stop the shared process)"
            )
    else:
        if args.port is None:
            raise CommandError("--port is required (or use --gateway URL)")
        if args.tenant is not None or args.api_key is not None:
            raise CommandError("--tenant/--api-key only apply with --gateway")
    if args.mode == "open" and args.rate is None:
        raise CommandError("--mode open requires --rate")
    if args.rate is not None and args.rate <= 0:
        raise CommandError(f"--rate must be positive, got {args.rate}")
    if args.concurrency < 1:
        raise CommandError(f"--concurrency must be at least 1, got {args.concurrency}")
    if args.connections < 1:
        raise CommandError(f"--connections must be at least 1, got {args.connections}")
    if args.request_timeout is not None and args.request_timeout <= 0:
        raise CommandError(
            f"--request-timeout must be positive, got {args.request_timeout}"
        )
    schedule = None
    if args.chaos is not None:
        try:
            schedule = FaultSchedule.parse(args.chaos, seed=args.seed)
        except ValueError as exc:
            raise CommandError(f"--chaos {exc}") from None
    return _load_async(args, schedule)


# ----------------------------------------------------------------------
# repro metrics / repro health
# ----------------------------------------------------------------------
async def _fetch(args: argparse.Namespace, op: str, **fields: Any) -> Any:
    """One ``op`` request on a fresh connection; the response's payload."""
    client = await AsyncCoordinateClient.connect(args.host, args.port)
    try:
        response = await client.op(op, **fields)
    finally:
        await client.close()
    return _payload(response, op)


async def _cmd_metrics(args: argparse.Namespace) -> int:
    payload = await _fetch(args, "metrics")
    return _emit(args, payload["text"], "Prometheus metrics")


def _format_number(value: Any) -> str:
    """Render a health figure deterministically (``%.6g`` for floats)."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _format_health_text(payload: Dict[str, Any]) -> str:
    """A deterministic plain-text rendering of a ``health`` op payload."""
    num = _format_number
    lines = []
    generation = payload.get("generation")
    if generation is not None:
        lines.append(
            f"generation: v{num(generation.get('version'))}, "
            f"{num(generation.get('nodes'))} node(s), "
            f"{num(generation.get('epochs'))} epoch(s), "
            f"mode {num(generation.get('mode'))}, "
            f"source {num(generation.get('source'))}"
        )
    error = payload.get("relative_error")
    if error is not None:
        lines.append(
            f"relative_error: median {num(error.get('median'))}  "
            f"p95 {num(error.get('p95'))}  mean {num(error.get('mean'))}  "
            f"(samples {num(error.get('count'))}, "
            f"pairs {num(error.get('sample_pairs'))})"
        )
    drift = payload.get("drift")
    if drift is not None:
        lines.append(
            f"drift: velocity {num(drift.get('velocity'))}  "
            f"mean {num(drift.get('mean_velocity'))}  "
            f"path_ms {num(drift.get('path_ms'))}  "
            f"displacement p50 {num(drift.get('displacement_median'))} "
            f"/ p95 {num(drift.get('displacement_p95'))}"
        )
    churn = payload.get("neighbor_churn")
    if churn is not None:
        lines.append(
            f"neighbor_churn: last {num(churn.get('last'))}  "
            f"mean {num(churn.get('mean'))}  "
            f"(k {num(churn.get('k'))}, sample {num(churn.get('sample'))})"
        )
    staleness = payload.get("staleness")
    if staleness is not None:
        serve_age = staleness.get("publish_to_serve_age_ms") or {}
        lines.append(
            f"staleness: generation_age_s {num(staleness.get('generation_age_s'))}  "
            f"serve_age_ms p50 {num(serve_age.get('p50'))} "
            f"/ p99 {num(serve_age.get('p99'))}  "
            f"(serves {num(staleness.get('serves_observed'))})"
        )
    if not lines:
        lines.append("(no health sections)")
    return "\n".join(lines) + "\n"


async def _cmd_health(args: argparse.Namespace) -> int:
    fields: Dict[str, Any] = {}
    if args.sections:
        fields["sections"] = [
            name.strip() for name in args.sections.split(",") if name.strip()
        ]
    payload = await _fetch(args, "health", **fields)
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _format_health_text(payload)
    return _emit(args, text, "health report")


# ----------------------------------------------------------------------
# repro watch
# ----------------------------------------------------------------------
async def _watch_async(args: argparse.Namespace) -> int:
    from repro.analysis.textplot import render_series

    client = await AsyncCoordinateClient.connect(args.host, args.port)
    served_series = []
    error_series = []
    last_health: Dict[str, Any] = {}
    try:
        for frame in range(args.iterations):
            stats = _payload(await client.op("stats"), "watch poll")
            last_health = _payload(await client.op("health"), "watch poll")
            served = sum(
                int(summary.get("served", 0))
                for summary in stats.get("kinds", {}).values()
            )
            error = last_health.get("relative_error", {}).get("p95")
            served_series.append((float(frame), float(served)))
            if error is not None:
                error_series.append((float(frame), float(error)))
            drift = last_health.get("drift", {}).get("velocity")
            churn = last_health.get("neighbor_churn", {}).get("last")
            print(
                f"[{frame}] v{stats.get('version')}  nodes {stats.get('nodes')}  "
                f"served {served}  rel_err_p95 {_format_number(error)}  "
                f"drift {_format_number(drift)}  churn {_format_number(churn)}",
                flush=True,
            )
            if frame + 1 < args.iterations:
                await asyncio.sleep(args.interval)
    finally:
        await client.close()

    print()
    print(
        render_series(
            served_series,
            width=60,
            height=8,
            title="served queries (cumulative)",
            x_label="frame",
            y_label="served",
        )
    )
    if error_series:
        print(
            render_series(
                error_series,
                width=60,
                height=8,
                title="p95 relative error",
                x_label="frame",
                y_label="rel err",
            )
        )
    print(_format_health_text(last_health), end="")
    return 0


def _cmd_watch(args: argparse.Namespace):
    if args.iterations < 1:
        raise CommandError("--iterations must be at least 1")
    if args.interval < 0:
        raise CommandError("--interval must be non-negative")
    return _watch_async(args)


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mix",
        choices=sorted(QUERY_MIXES),
        default="mixed",
        help="query mix served by the workload",
    )
    parser.add_argument("--k", type=int, default=3, help="k for knn queries")
    parser.add_argument(
        "--radius", type=float, default=50.0, help="radius (ms) for range queries"
    )
    parser.add_argument(
        "--batch-size", type=int, default=64, help="queries per serve_batch call"
    )
    parser.add_argument(
        "--compare-linear",
        action="store_true",
        help="replay the workload on the linear oracle and verify identical results",
    )


def _add_serve_loop_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ready-file",
        type=Path,
        default=None,
        help="write 'host port' here once the socket is bound",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop automatically after this long (scripted runs)",
    )


def _add_serve_parsers(groups) -> None:
    serve = groups.add_parser(
        "serve", help="run a scenario and serve its coordinates as a snapshot"
    )
    serve.add_argument("scenario", help="registered scenario name")
    serve.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    serve.add_argument(
        "--index", choices=INDEX_KINDS, default="vptree", help="spatial index kind"
    )
    serve.add_argument(
        "--level",
        choices=("application", "system"),
        default="application",
        help="coordinate level to snapshot",
    )
    serve.add_argument("--out", type=Path, default=None, help="write the snapshot JSON here")
    serve.add_argument(
        "--queries", type=int, default=0, help="serve this many workload queries"
    )
    _add_workload_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    query = groups.add_parser("query", help="query a saved coordinate snapshot")
    query.add_argument(
        "--snapshot", type=Path, required=True, help="snapshot JSON from 'repro serve'"
    )
    query.add_argument(
        "--index", choices=INDEX_KINDS, default="vptree", help="spatial index kind"
    )
    commands = query.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="summarise the snapshot").set_defaults(
        handler=_cmd_query_info
    )

    knn = commands.add_parser("knn", help="k nearest nodes to a node")
    knn.add_argument("target")
    knn.add_argument("--k", type=int, default=3)
    knn.set_defaults(handler=lambda a: _cmd_query_single(a, Query.knn(a.target, k=a.k)))

    nearest = commands.add_parser("nearest", help="single nearest node to a node")
    nearest.add_argument("target")
    nearest.set_defaults(handler=lambda a: _cmd_query_single(a, Query.nearest(a.target)))

    within = commands.add_parser("range", help="all nodes within a predicted RTT")
    within.add_argument("target")
    within.add_argument("--radius", type=float, required=True, help="radius in ms")
    within.set_defaults(
        handler=lambda a: _cmd_query_single(a, Query.range(a.target, a.radius))
    )

    pairwise = commands.add_parser("pairwise", help="predicted RTT between two nodes")
    pairwise.add_argument("a")
    pairwise.add_argument("b")
    pairwise.set_defaults(
        handler=lambda a: _cmd_query_single(a, Query.pairwise(a.a, a.b))
    )

    centroid = commands.add_parser(
        "centroid", help="latency-optimal meeting point of a node group"
    )
    centroid.add_argument("members", nargs="*", help="node ids (default: all)")
    centroid.set_defaults(
        handler=lambda a: _cmd_query_single(a, Query.centroid(tuple(a.members)))
    )

    workload = commands.add_parser("workload", help="serve a deterministic query mix")
    workload.add_argument("--count", type=int, default=1000, help="number of queries")
    workload.add_argument("--seed", type=int, default=0, help="workload seed")
    _add_workload_options(workload)
    workload.set_defaults(handler=_cmd_query_workload)


def _add_server_parsers(groups) -> None:
    serve = groups.add_parser(
        "serve-daemon", help="serve coordinates over TCP on sharded live stores"
    )
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--snapshot", type=Path, default=None, help="snapshot JSON from 'repro serve'"
    )
    source.add_argument(
        "--scenario", default=None, help="registered scenario to run and serve"
    )
    source.add_argument(
        "--synthetic",
        type=int,
        default=None,
        metavar="N",
        help="serve a synthetic clustered universe of N nodes",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    serve.add_argument("--shards", type=int, default=2, help="shard count")
    serve.add_argument(
        "--index", choices=INDEX_KINDS, default="vptree", help="index kind"
    )
    serve.add_argument("--history", type=int, default=4, help="retained generations")
    serve.add_argument("--cache-entries", type=int, default=8192)
    serve.add_argument(
        "--window",
        type=int,
        default=32,
        help="per-connection in-flight window (backpressure threshold)",
    )
    serve.add_argument(
        "--admission-limit",
        type=int,
        default=1024,
        help="global in-flight limit; excess requests get an overloaded error",
    )
    serve.add_argument("--seed", type=int, default=7, help="seed for --synthetic")
    _add_serve_loop_options(serve)
    serve.add_argument(
        "--trace-spans",
        action="store_true",
        help="record per-stage span histograms (span_ms) on the request path",
    )
    serve.set_defaults(handler=_cmd_serve_daemon)

    gateway = groups.add_parser(
        "gateway",
        help="serve per-tenant coordinate spaces over HTTP",
        description="Serve per-tenant coordinate spaces over HTTP.",
    )
    gateway.add_argument(
        "--config",
        type=Path,
        required=True,
        help="gateway JSON config (tenants, API keys, quotas, data sources)",
    )
    gateway.add_argument(
        "--host", default=None, help="bind host (default: config, then 127.0.0.1)"
    )
    gateway.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default: config, then 0 = ephemeral)",
    )
    _add_serve_loop_options(gateway)
    gateway.set_defaults(handler=_cmd_gateway)


def _add_load_parser(groups) -> None:
    load = groups.add_parser(
        "load", help="replay a deterministic workload against a running daemon"
    )
    load.add_argument("--host", default="127.0.0.1")
    load.add_argument(
        "--port", type=int, default=None, help="daemon TCP port (TCP mode)"
    )
    load.add_argument(
        "--gateway",
        default=None,
        metavar="URL",
        help="drive an HTTP gateway instead of a TCP daemon "
        "(http://host:port; requires --tenant and --api-key)",
    )
    load.add_argument(
        "--tenant", default=None, help="tenant name for --gateway mode"
    )
    load.add_argument(
        "--api-key", default=None, help="tenant API key for --gateway mode"
    )
    load.add_argument("--count", type=int, default=1000, help="number of queries")
    load.add_argument(
        "--mix", choices=sorted(QUERY_MIXES), default="mixed", help="query mix"
    )
    load.add_argument("--seed", type=int, default=0, help="workload seed")
    load.add_argument("--k", type=int, default=3, help="k for knn queries")
    load.add_argument(
        "--radius", type=float, default=50.0, help="radius (ms) for range queries"
    )
    load.add_argument(
        "--mode", choices=LOAD_MODES, default="closed", help="closed or open loop"
    )
    load.add_argument(
        "--concurrency", type=int, default=8, help="closed-loop worker count"
    )
    load.add_argument("--connections", type=int, default=1, help="TCP connections")
    load.add_argument(
        "--rate", type=float, default=None, help="open-loop arrival rate (q/s)"
    )
    load.add_argument(
        "--verify-oracle",
        action="store_true",
        help="download the snapshot and verify byte-identical results "
        "against the single-store linear oracle",
    )
    load.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown request to the daemon after the run",
    )
    load.add_argument(
        "--out", type=Path, default=None, help="write the load report as JSON"
    )
    load.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the load run's telemetry registry as Prometheus text",
    )
    load.add_argument(
        "--health-out",
        type=Path,
        default=None,
        help="write the daemon's coordinate-health report section as JSON",
    )
    load.add_argument(
        "--events-out",
        type=Path,
        default=None,
        help="write the daemon's structured event log as JSONL",
    )
    load.add_argument(
        "--deterministic-timing",
        action="store_true",
        help="record hash-derived synthetic latencies instead of the wall "
        "clock, making histograms and --metrics-out byte-reproducible",
    )
    load.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request timeout in seconds (timeouts count as errors)",
    )
    load.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="install a deterministic fault schedule on the daemon for the "
        "run: comma-separated kind@at+duration[:key=value...] (kinds: "
        "shard-kill, shard-slow, publish-stall, publish-drop, "
        "admission-burst); recovery SLOs are evaluated after the run",
    )
    load.add_argument(
        "--chaos-out",
        type=Path,
        default=None,
        help="write the chaos report (fault lifecycle, SLO inputs and "
        "verdicts) as JSON; re-gate later with python -m repro.chaos.slo",
    )
    load.set_defaults(handler=_cmd_load)


def _add_telemetry_parsers(groups) -> None:
    def daemon_parser(name: str, help: str) -> argparse.ArgumentParser:
        parser = groups.add_parser(name, help=help)
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--port", type=int, required=True)
        return parser

    metrics = daemon_parser(
        "metrics", "fetch a daemon's telemetry in Prometheus text format"
    )
    metrics.add_argument(
        "--out", type=Path, default=None, help="write to a file instead of stdout"
    )
    metrics.set_defaults(handler=_cmd_metrics)

    health = daemon_parser("health", "fetch a daemon's coordinate-health report")
    health.add_argument(
        "--sections",
        default=None,
        help="comma-separated health sections (default: all); e.g. "
        "'generation,relative_error,drift,neighbor_churn' excludes the "
        "timer-based staleness section for deterministic output",
    )
    health.add_argument(
        "--json", action="store_true", help="emit the payload as sorted JSON"
    )
    health.add_argument(
        "--out", type=Path, default=None, help="write to a file instead of stdout"
    )
    health.set_defaults(handler=_cmd_health)

    watch = daemon_parser("watch", "poll a daemon and render a live text dashboard")
    watch.add_argument(
        "--interval", type=float, default=1.0, help="seconds between polls"
    )
    watch.add_argument(
        "--iterations", type=int, default=5, help="number of polls before exiting"
    )
    watch.set_defaults(handler=_cmd_watch)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serve coordinates in-process, over TCP or over HTTP, "
        "and query, load-test and watch them.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    _add_serve_parsers(groups)
    _add_server_parsers(groups)
    _add_load_parser(groups)
    _add_telemetry_parsers(groups)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        if asyncio.iscoroutine(code):
            code = asyncio.run(code)
        return code
    except (CommandError, OSError, ValueError) as exc:
        # OSError covers unreadable snapshots, unwritable artifacts and
        # dead ports (ConnectionError); ValueError covers malformed
        # snapshots, configs and query parameters.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
