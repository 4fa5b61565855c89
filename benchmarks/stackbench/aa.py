"""``--aa``: two complete sets of runs of the same checkout.

Each round runs every workload once for set A and once for set B, in
opposite workload orders, so both sets see the same stretch of host
weather.  Every run is a fresh interpreter, exactly what the driver
starts.  For each end-to-end metric x workload the report gives both
medians, how much worse the second is than the first, and each set's
inter-quartile spread as a share of its median -- against the metric's
bound in BENCHMARK.json.  A violation makes the command exit non-zero.
Its output is the evidence for those bounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import stats
from sut import write_artifact

RUN_PY = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 180.0
#: Runs per workload and set: what the driver's acceptance rule takes.
RUNS = 10


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One end-to-end run in its own interpreter; the driver's result object."""
    done = subprocess.run(
        [
            sys.executable, str(RUN_PY),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited with code {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def judge(spec: Dict[str, Any], values: Dict[str, Dict[str, Dict[str, List[float]]]]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric, with its verdicts."""
    rows = []
    for workload in values["A"]:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            first, second = values["A"][workload][name], values["B"][workload][name]
            verdict = stats.compare(
                stats.summarize(first)["median"],
                stats.summarize(second)["median"],
                entry["better"],
                bound,
            )
            spreads = [stats.relative_spread(first), stats.relative_spread(second)]
            # The driver leaves set-up time's spread out of its check.
            wide = name != "setup_s" and max(spreads) > bound
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": entry["unit"],
                    "median_a": verdict["base"],
                    "median_b": verdict["candidate"],
                    "worsening": verdict["worsening"],
                    "spread_a": spreads[0],
                    "spread_b": spreads[1],
                    "bound": bound,
                    "violation": bool(verdict["regressed"] or wide),
                }
            )
    return rows


def main(args: Any, spec: Dict[str, Any]) -> int:
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        label: {name: {} for name in names} for label in "AB"
    }
    for round_number in range(RUNS):
        for label, order in (("A", names), ("B", names[::-1])):
            for name in order:
                # Another seed every run, as the driver's spread check does.
                seed = args.seed + 2 * round_number + (label == "B")
                result = one_run(name, seed, seconds)
                for metric, reading in result["metrics"].items():
                    values[label][name].setdefault(metric, []).append(reading["value"])
                print(f"aa: round {round_number} set {label} {name} seed {seed} done", flush=True)

    rows = judge(spec, values)
    print(
        f"{'workload':<18}{'metric':<22}{'median A':>12}{'median B':>12}"
        f"{'B worse by':>12}{'spread A':>10}{'spread B':>10}{'bound':>8}"
    )
    for row in rows:
        print(
            f"{row['workload']:<18}{row['metric']:<22}{row['median_a']:>12.5g}"
            f"{row['median_b']:>12.5g}{row['worsening']:>+12.1%}{row['spread_a']:>10.1%}"
            f"{row['spread_b']:>10.1%}{row['bound']:>8.2%}"
            f"{'  VIOLATION' if row['violation'] else ''}"
        )
    violations = sum(row["violation"] for row in rows)
    path = write_artifact(
        {"mode": "aa", "seed": args.seed, "runs": RUNS, "values": values, "rows": rows}
    )
    print(f"aa: {violations} violation(s) over {len(rows)} metric x workload rows; artifact: {path}")
    return 1 if violations else 0
