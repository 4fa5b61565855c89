"""stackbench: one subprocess-isolated benchmark for the serving stack.

    python3 benchmarks/stackbench/run.py --workload tcp-knn-cold --seed 1 \
        --seconds 15 --trace 0

boots the server under test as a subprocess through its public CLI,
drives it from this single generator process, checks every response
against a NumPy brute-force oracle and prints every metric by name and
unit; the last line of standard output is one JSON object.  ``--trace 1``
runs the layer ladder instead of the end-to-end measurement.  ``--aa`` and
``--selftest`` validate the harness itself.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no system to measure: {REPO_ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.server.load import synthetic_arrays  # noqa: E402

import generator  # noqa: E402
import stats  # noqa: E402
from oracle import UniverseOracle  # noqa: E402
from sut import NODES, UNIVERSE_SEED, KeepAwake, write_artifact  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    MIN_LAPS,
    Workload,
    laps_for,
    make_plan,
    requests_for,
)

#: Complete set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class RunStopped(Exception):
    """``--max-seconds`` expired, or the run was told to terminate."""


def _on_signal(signum, frame) -> None:
    # Raised into the run so that its ``finally`` blocks reap the server.
    raise RunStopped(
        "--max-seconds expired" if signum == signal.SIGALRM else "terminated"
    )


def load_spec() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


# ----------------------------------------------------------------------
# The end-to-end run (tracing off)
# ----------------------------------------------------------------------
async def closed_row(
    workload: Workload, targets: Sequence[str], rig: generator.Rig, publisher: Optional[generator.Publisher]
) -> Tuple[Dict[str, Any], List[Tuple[dict, dict]]]:
    """One closed-loop phase: 2 clients, one request in flight each."""
    cpu_before = rig.server.cpu_seconds()
    phase = await generator.closed_phase(
        rig.clients,
        requests_for(workload, targets),
        publisher=publisher,
        publish_every=workload.closed_publish_every,
    )
    server_cpu_s = rig.server.cpu_seconds() - cpu_before
    row = {
        "steal_share": phase.steal_share,
        "elapsed_s": phase.elapsed_s,
        "qps": phase.ok_ops / phase.elapsed_s,
        "server_cpu_ms_per_op": server_cpu_s * 1e3 / phase.ops,
        "client_cpu_ms_per_op": phase.client_cpu_s * 1e3 / phase.ops,
        "publish_ms": [record.latency_ms for record in phase.publishes],
    }
    return row, phase.exchanges


async def open_row(
    workload: Workload, targets: Sequence[str], rig: generator.Rig, publisher: Optional[generator.Publisher]
) -> Tuple[Dict[str, Any], List[Tuple[dict, dict]]]:
    """One open-loop phase at the workload's fixed rate."""
    phase = await generator.open_phase(
        rig.clients,
        requests_for(workload, targets),
        workload.open_rate,
        publisher=publisher,
        publish_every=workload.open_publish_every,
    )
    row = {
        "steal_share": phase.steal_share,
        "elapsed_s": phase.elapsed_s,
        "p50_ms": stats.percentile(phase.latencies_ms, 50.0),
        "gen_late_p99_ms": stats.percentile(phase.lateness_ms, 99.0),
        "latencies_ms": phase.latencies_ms,
    }
    if phase.publishes:
        row["publish_ms"] = stats.summarize(
            [record.latency_ms for record in phase.publishes]
        )["median"]
    return row, phase.exchanges


PHASES = {"closed": closed_row, "open": open_row}


async def run_end_to_end(
    workload: Workload, seed: int, seconds: float, *, max_seconds: float
) -> Dict[str, Any]:
    """Set up, then lap for ``seconds`` (and never fewer than ``MIN_LAPS`` laps).

    A lap is a closed-loop phase, then an open-loop phase.  Every phase
    of a kind is the same fixed work; how many run depends only on how
    long they took, and which are reported from only on the host's steal
    counter, never on what they measured.
    """
    clock = {"started": time.perf_counter()}
    node_ids, components, heights = synthetic_arrays(NODES, seed=UNIVERSE_SEED)
    plan = make_plan(workload, node_ids, seed, laps_for(seconds))
    oracle = UniverseOracle(node_ids, components, heights)

    clock["set_ups"] = time.perf_counter()
    set_ups: List[Dict[str, float]] = []
    for number in range(SETUPS):
        rig = await generator.set_up(plan, components, node_ids, max_seconds=max_seconds)
        set_ups.append({"setup_s": rig.setup_s, "steal_share": rig.steal_share})
        if number + 1 < SETUPS:
            # Only the last set-up is measured on.
            await rig.close()
    publisher = rig.publisher

    exchanges: List[Tuple[dict, dict]] = []
    rows: Dict[str, List[Dict[str, Any]]] = {"closed": [], "open": []}
    calib_ms: List[float] = []
    try:
        gc.collect()
        gc.freeze()
        clock["laps"] = time.perf_counter()
        for lap_number, lap in enumerate(plan.laps):
            publisher.deltas.reseed(seed + lap_number)
            calib_ms.append(generator.calibration_ms())
            for kind, phase in PHASES.items():
                row, exchanged = await phase(
                    workload, getattr(lap, kind), rig, publisher if workload.publishes else None
                )
                gc.collect()
                row["lap"] = lap_number
                rows[kind].append(row)
                exchanges += exchanged
            if lap_number + 1 == MIN_LAPS:
                # The last lap every run has: memory after identical work.
                rss_mb = rig.server.peak_rss_mb()
            if lap_number + 1 >= MIN_LAPS and time.perf_counter() - clock["laps"] >= seconds:
                break
    finally:
        gc.unfreeze()
        await rig.close()

    # The clock has stopped: audit every timed response.
    clock["audit"] = time.perf_counter()
    publish_failures = oracle.record_publishes(publisher.records)
    problems = oracle.audit(exchanges)
    warm_problems = oracle.audit(rig.warm_exchanges)
    clock["done"] = time.perf_counter()
    attempted = len(exchanges) + len(publisher.records)
    failed = len(problems) + publish_failures
    cached = [bool(response.get("cached")) for _, response in exchanges]

    summaries = {
        # One quiet set-up is a reading; the median needs no more than that.
        "setup_s": stats.over_quiet(set_ups, "setup_s", at_least=1),
        "qps": stats.over_quiet(rows["closed"], "qps"),
        "p50_ms": stats.over_quiet(rows["open"], "p50_ms"),
        "server_cpu_ms_per_op": stats.over_quiet(rows["closed"], "server_cpu_ms_per_op"),
    }
    if workload.publishes:
        summaries["publish_ms"] = stats.over_quiet(rows["open"], "publish_ms")
    summaries.update(
        {
            "harness.gen_late_p99_ms": stats.over_quiet(rows["open"], "gen_late_p99_ms"),
            "harness.client_cpu_ms_per_op": stats.over_quiet(rows["closed"], "client_cpu_ms_per_op"),
            "harness.calib_ms": stats.summarize(calib_ms),
        }
    )
    metrics = {name: summary["median"] for name, summary in summaries.items()}
    # The tail over every request of the quiet open phases together.
    summaries["p99_ms"] = stats.pooled_percentile(
        rows["open"], summaries["p50_ms"]["chosen"], "latencies_ms", 99.0
    )
    metrics["p99_ms"] = summaries["p99_ms"]["value"]
    metrics["server_rss_mb"] = rss_mb
    metrics["ok_frac"] = 1.0 - failed / attempted
    metrics["error_frac"] = failed / attempted
    metrics["service.planner.cache_hit_ratio"] = sum(cached) / len(cached)
    stages = list(clock)
    return {
        "mode": "end_to_end",
        "workload": workload.name,
        "seed": seed,
        "laps": len(calib_ms),
        "correct": failed == 0 and not warm_problems,
        "attempted": attempted,
        "failed": failed,
        "problems": (problems + warm_problems)[:20],
        "metrics": metrics,
        "summaries": summaries,
        "phases": rows,
        "calib_ms": calib_ms,
        "set_ups": set_ups,
        "publishes": len(publisher.records),
        "stage_s": {
            stage: clock[after] - clock[stage] for stage, after in zip(stages, stages[1:])
        },
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def units(spec: Dict[str, Any]) -> Dict[str, str]:
    known = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    known.update({"error_frac": "ratio", "p99_ms": "ms", "publish_ms": "ms"})
    return known


def print_metrics(result: Dict[str, Any], unit_of: Dict[str, str]) -> None:
    print(
        f"stackbench {result['mode']} workload={result['workload']} "
        f"seed={result['seed']} laps={result.get('laps')}"
    )
    width = max(len(name) for name in result["metrics"])
    for name, value in result["metrics"].items():
        summary = result.get("summaries", {}).get(name)
        spread = ""
        if summary and "pooled_samples" in summary:
            spread = f"  [over {summary['pooled_samples']} pooled samples]"
        elif summary:
            spread = f"  [q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, n={summary['n']}"
            if "quiet" in summary:
                spread += f", quiet {summary['quiet']}"
            spread += "]"
        print(f"  {name:<{width}}  {value:>14.6g} {unit_of.get(name, ''):<6}{spread}")
    ladder = result.get("ladder")
    if ladder:
        print(
            f"  ladder: rungs sum to {ladder['attributed_us']:.0f} us, "
            f"{ladder['attributed_frac']:.0%} of the wire p50 "
            f"({ladder['wire_p50_us']:.0f} us); unattributed_us "
            f"{result['metrics']['harness.unattributed_us']:.0f}"
        )
    for line in result.get("problems", []):
        print(f"  MISMATCH {line}")
    print(
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )


def contract_line(result: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """The driver's result object: exactly the metrics of this mode."""
    section = "end_to_end" if result["mode"] == "end_to_end" else "per_layer"
    metrics = {
        entry["name"]: {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
        for entry in spec[section]
    }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackbench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="how long to measure laps for (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: the layer ladder"
    )
    parser.add_argument("--aa", action="store_true", help="A/A: two sets of runs")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=170.0,
        help="backstop: abort (and reap the server) after this long",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = load_spec()
    if args.selftest:
        import selftest

        return selftest.main(spec)
    if args.aa:
        import aa

        return aa.main(args, spec)
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.setitimer(signal.ITIMER_REAL, args.max_seconds)
    try:
        with KeepAwake():
            if args.trace:
                import ladder

                result = asyncio.run(
                    ladder.run_traced(workload, args.seed, max_seconds=args.max_seconds)
                )
            else:
                result = asyncio.run(
                    run_end_to_end(workload, args.seed, seconds, max_seconds=args.max_seconds)
                )
    except RunStopped as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    path = write_artifact(result)
    print_metrics(result, units(spec))
    print(f"  artifact: {path}")
    print(contract_line(result, spec))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
