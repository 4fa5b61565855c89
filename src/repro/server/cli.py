"""The ``repro serve-daemon`` and ``repro load`` command groups.

Usage::

    # Serve a saved snapshot over TCP on 4 shards
    repro serve-daemon --snapshot snapshot.json --shards 4 --port 9917

    # Serve a registered scenario's final coordinates
    repro serve-daemon --scenario mesh-replay --shards 2 --index vptree

    # Serve a synthetic clustered universe (benchmarks, smoke tests)
    repro serve-daemon --synthetic 5000 --port 9917 --ready-file ready.txt

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

``serve-daemon`` runs in the foreground until Ctrl-C, a ``shutdown``
request, or ``--max-seconds``; ``--ready-file`` writes ``host port`` once
the socket is bound (for scripts and CI).  ``load`` fetches the node
population over the wire, generates the same deterministic query stream
the in-process workload layer would, and reports throughput plus exact
per-kind latency percentiles; ``--verify-oracle`` downloads the served
snapshot and replays the stream through the single-store linear oracle,
failing (exit 1) unless the daemon's answers are byte-identical.

``load --metrics-out FILE`` writes the load run's *client-side* registry
(per-kind latency histograms and outcome counters) as Prometheus text;
with ``--deterministic-timing`` recorded latencies are a pure hash of the
query stream, so the file is byte-identical across repeated seeded runs.
``load --health-out FILE`` writes the daemon's coordinate-health section
of the report as JSON and ``--events-out FILE`` dumps the daemon's
structured event log as JSONL.  Every artifact flag creates missing
parent directories and fails with a one-line ``error:`` message and exit
code 2 when the path is unwritable.  ``metrics`` fetches the
*server-side* registry over the wire ``metrics`` op.  ``serve-daemon
--trace-spans`` additionally records per-stage span histograms
(``span_ms``) on the request path.

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
from typing import Any, Dict, Optional, Sequence

from repro.chaos.schedule import FaultSchedule
from repro.chaos.slo import SLOThresholds, evaluate as evaluate_slo
from repro.obs.registry import TelemetryRegistry
from repro.server.client import AsyncCoordinateClient
from repro.server.daemon import CoordinateServer
from repro.server.load import LOAD_MODES, run_load_async, synthetic_coordinates
from repro.server.sharding import ShardedCoordinateStore
from repro.service.index import INDEX_KINDS
from repro.service.planner import QueryPlanner
from repro.service.publish import EpochDelta
from repro.service.snapshot import CoordinateSnapshot, SnapshotStore
from repro.service.workload import QUERY_MIXES, generate_queries, run_workload

__all__ = ["main"]


def _write_artifact(path: Path, text: str, label: str) -> None:
    """Write a CLI output artifact, creating missing parent directories.

    An unwritable path (a file where a directory is needed, a read-only
    tree) raises ``OSError``, which ``main`` turns into a one-line
    ``error:`` message and exit code 2 -- no traceback, no partially
    reported success.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"{label} written to {path}")


# ----------------------------------------------------------------------
# repro serve-daemon
# ----------------------------------------------------------------------
def _build_store(args: argparse.Namespace) -> ShardedCoordinateStore:
    store = ShardedCoordinateStore(
        args.shards,
        index_kind=args.index,
        history=args.history,
        cache_entries=args.cache_entries,
    )
    if args.snapshot is not None:
        snapshot = CoordinateSnapshot.load(args.snapshot)
        store.publish_delta(
            EpochDelta.from_coordinates(
                dict(snapshot.coordinates),
                source=snapshot.source or str(args.snapshot),
            )
        )
    elif args.scenario is not None:
        from repro.engine.kernel import run_scenario
        from repro.scenarios.registry import get_scenario

        spec = get_scenario(args.scenario)
        print(
            f"running scenario {spec.name!r} ({spec.mode}, "
            f"{spec.network.nodes} nodes)...",
            flush=True,
        )
        run = run_scenario(spec)
        store.ingest_collector(run.collector, source=spec.name)
    else:
        store.publish_delta(
            EpochDelta.from_coordinates(
                synthetic_coordinates(args.synthetic, seed=args.seed),
                source=f"synthetic-{args.synthetic}",
            )
        )
    return store


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

    async def serve() -> None:
        host, port = await server.start()
        generation = store.generation()
        print(
            f"serving {len(generation)} nodes (v{generation.version}, "
            f"{store.shards} shard(s), {store.index_kind} index) "
            f"on {host}:{port}",
            flush=True,
        )
        if args.ready_file is not None:
            args.ready_file.write_text(f"{host} {port}\n")
        if args.max_seconds is not None:
            asyncio.get_running_loop().call_later(args.max_seconds, server.stop)
        await server.wait_stopped()
        print("daemon stopped cleanly", flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        server.stop()
        print("interrupted; daemon stopped cleanly", flush=True)
    return 0


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
        listing = await client.op("nodes")
        if not listing.get("ok"):
            print(f"error: daemon refused node listing: {listing.get('error')}", file=sys.stderr)
            return 2
        node_ids = listing["payload"]["node_ids"]
        if len(node_ids) < 2:
            print("error: daemon is serving fewer than two nodes", file=sys.stderr)
            return 2
        snapshot_payload: Optional[Dict[str, Any]] = None
        if args.verify_oracle:
            dump = await client.op("snapshot")
            if not dump.get("ok"):
                print(
                    f"error: daemon refused snapshot dump: {dump.get('error')}",
                    file=sys.stderr,
                )
                return 2

            snapshot_payload = dump["payload"]

        shards_serving: Optional[int] = None
        if schedule is not None:
            stats = await client.op("stats")
            if stats.get("ok"):
                shards_serving = int(stats["payload"]["shards"]["count"])
            install = await client.chaos(spec=schedule.spec, seed=schedule.seed)
            if not install.get("ok"):
                print(
                    f"error: daemon refused chaos schedule: {install.get('error')}",
                    file=sys.stderr,
                )
                return 2
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
            fetched = await client.chaos(report=True)
            if fetched.get("ok"):
                chaos_report = fetched["payload"].get("report")
            cleared = await client.chaos(clear=True)
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
            snapshot = CoordinateSnapshot.from_dict(snapshot_payload)
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
                oracle_store = SnapshotStore.from_snapshot(
                    snapshot, index_kind="linear"
                )
                oracle = run_workload(
                    QueryPlanner(oracle_store, timer=lambda: 0.0),
                    queries,
                    timer=lambda: 0.0,
                )
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
            thresholds = SLOThresholds()
            slo = evaluate_slo(
                thresholds=thresholds,
                fault_windows=[tuple(w) for w in slo_inputs["fault_windows"]],
                error_positions=slo_inputs["error_positions"],
                total_requests=slo_inputs["total_requests"],
                latencies_ms=slo_inputs["latencies_ms"],
                torn_reads=slo_inputs["torn_reads"],
                generation_recovered=slo_inputs["generation_recovered"],
            )
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
                await client.chaos(clear=True)
            except (ConnectionError, OSError):  # pragma: no cover - best effort
                pass
        await client.close()


def _cmd_load(args: argparse.Namespace) -> int:
    if args.gateway is not None:
        if args.tenant is None or args.api_key is None:
            print(
                "error: --gateway requires --tenant and --api-key", file=sys.stderr
            )
            return 2
        if args.port is not None:
            print("error: --gateway and --port are mutually exclusive", file=sys.stderr)
            return 2
        if args.shutdown:
            print(
                "error: --shutdown is not available through the gateway "
                "(tenants cannot stop the shared process)",
                file=sys.stderr,
            )
            return 2
    else:
        if args.port is None:
            print("error: --port is required (or use --gateway URL)", file=sys.stderr)
            return 2
        if args.tenant is not None or args.api_key is not None:
            print(
                "error: --tenant/--api-key only apply with --gateway",
                file=sys.stderr,
            )
            return 2
    if args.mode == "open" and args.rate is None:
        print("error: --mode open requires --rate", file=sys.stderr)
        return 2
    if args.rate is not None and args.rate <= 0:
        print(f"error: --rate must be positive, got {args.rate}", file=sys.stderr)
        return 2
    if args.concurrency < 1:
        print(
            f"error: --concurrency must be at least 1, got {args.concurrency}",
            file=sys.stderr,
        )
        return 2
    if args.connections < 1:
        print(
            f"error: --connections must be at least 1, got {args.connections}",
            file=sys.stderr,
        )
        return 2
    if args.request_timeout is not None and args.request_timeout <= 0:
        print(
            f"error: --request-timeout must be positive, got {args.request_timeout}",
            file=sys.stderr,
        )
        return 2
    schedule = None
    if args.chaos is not None:
        try:
            schedule = FaultSchedule.parse(args.chaos, seed=args.seed)
        except ValueError as exc:
            print(f"error: --chaos {exc}", file=sys.stderr)
            return 2
    try:
        return asyncio.run(_load_async(args, schedule))
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# repro metrics
# ----------------------------------------------------------------------
async def _metrics_async(args: argparse.Namespace) -> int:
    client = await AsyncCoordinateClient.connect(args.host, args.port)
    try:
        response = await client.op("metrics")
    finally:
        await client.close()
    if not response.get("ok"):
        print(
            f"error: daemon refused metrics: {response.get('error')}", file=sys.stderr
        )
        return 2
    text = response["payload"]["text"]
    if args.out is not None:
        _write_artifact(args.out, text, "Prometheus metrics")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    try:
        return asyncio.run(_metrics_async(args))
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# repro health
# ----------------------------------------------------------------------
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


async def _health_async(args: argparse.Namespace) -> int:
    request: Dict[str, Any] = {}
    if args.sections:
        request["sections"] = [
            name.strip() for name in args.sections.split(",") if name.strip()
        ]
    client = await AsyncCoordinateClient.connect(args.host, args.port)
    try:
        response = await client.op("health", **request)
    finally:
        await client.close()
    if not response.get("ok"):
        print(
            f"error: daemon refused health: {response.get('error')}", file=sys.stderr
        )
        return 2
    payload = response["payload"]
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _format_health_text(payload)
    if args.out is not None:
        _write_artifact(args.out, text, "health report")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    try:
        return asyncio.run(_health_async(args))
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
            stats_response = await client.op("stats")
            health_response = await client.op("health")
            if not stats_response.get("ok") or not health_response.get("ok"):
                failure = stats_response.get("error") or health_response.get("error")
                print(f"error: daemon refused watch poll: {failure}", file=sys.stderr)
                return 2
            stats = stats_response["payload"]
            last_health = health_response["payload"]
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


def _cmd_watch(args: argparse.Namespace) -> int:
    if args.iterations < 1:
        print("error: --iterations must be at least 1", file=sys.stderr)
        return 2
    if args.interval < 0:
        print("error: --interval must be non-negative", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_watch_async(args))
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the coordinate-serving daemon and drive load against it.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

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
        "--index", choices=INDEX_KINDS, default="vptree", help="per-shard index kind"
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
    serve.add_argument(
        "--ready-file",
        type=Path,
        default=None,
        help="write 'host port' here once the socket is bound",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop automatically after this long (scripted runs)",
    )
    serve.add_argument(
        "--trace-spans",
        action="store_true",
        help="record per-stage span histograms (span_ms) on the request path",
    )
    serve.set_defaults(handler=_cmd_serve_daemon)

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

    metrics = groups.add_parser(
        "metrics", help="fetch a daemon's telemetry in Prometheus text format"
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, required=True)
    metrics.add_argument(
        "--out", type=Path, default=None, help="write to a file instead of stdout"
    )
    metrics.set_defaults(handler=_cmd_metrics)

    health = groups.add_parser(
        "health", help="fetch a daemon's coordinate-health report"
    )
    health.add_argument("--host", default="127.0.0.1")
    health.add_argument("--port", type=int, required=True)
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

    watch = groups.add_parser(
        "watch", help="poll a daemon and render a live text dashboard"
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, required=True)
    watch.add_argument(
        "--interval", type=float, default=1.0, help="seconds between polls"
    )
    watch.add_argument(
        "--iterations", type=int, default=5, help="number of polls before exiting"
    )
    watch.set_defaults(handler=_cmd_watch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
