"""Tests of the benchmark's own code.  Not part of tier-1; run explicitly:

    python -m pytest benchmarks/stackbench/test_stackbench.py -q

Everything but the last test runs in-process in a few seconds; the last
boots the server under test once through the real command.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.server.load import synthetic_arrays  # noqa: E402
from repro.server.sharding import ShardedCoordinateStore  # noqa: E402
from repro.service.planner import Query  # noqa: E402
from repro.service.publish import EpochDelta  # noqa: E402

import generator  # noqa: E402
import run  # noqa: E402
import selftest  # noqa: E402
import stats  # noqa: E402
from oracle import UniverseOracle  # noqa: E402
from sut import KEEPAWAKE_PY, KeepAwake  # noqa: E402
from workloads import CHURN_ROWS, DELTA_ROWS, WORKLOADS, DeltaStream, make_plan  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- the harness's arithmetic ---------------------------------------------
def test_selftest_passes():
    assert selftest.run_selftest(SPEC) == []


def test_selftest_would_notice_a_broken_percentile(monkeypatch):
    monkeypatch.setattr(stats, "percentile", lambda samples, q: float(np.mean(samples)))
    assert selftest.run_selftest(SPEC)


def test_selftest_would_notice_a_bound_too_wide_to_catch_the_shift():
    # 1.3x slower is 23% fewer per second: a rate bounded at 0.25 lets it pass.
    loose = json.loads(json.dumps(SPEC))
    for entry in loose["end_to_end"]:
        if entry["name"] == "qps":
            entry["bound"] = 0.25
    failures = selftest.run_selftest(loose)
    assert failures and all("shift not flagged on qps" in line for line in failures)


def test_over_quiet_reports_from_the_quiet_phases_only():
    rows = [
        {"steal_share": share, "qps": value}
        for share, value in [(0.0, 10.0), (0.3, 99.0), (0.01, 12.0), (0.02, 14.0), (0.5, 99.0), (0.0, 16.0)]
    ]
    summary = stats.over_quiet(rows, "qps")
    assert summary["chosen"] == [0, 2, 3, 5] and summary["quiet"] == 4
    assert summary["median"] == 13.0
    # Too few quiet phases: the quietest four stand in, and the summary says so.
    rows = [{"steal_share": share, "qps": 1.0} for share in (0.4, 0.03, 0.2, 0.1, 0.3)]
    summary = stats.over_quiet(rows, "qps")
    assert summary["chosen"] == [1, 2, 3, 4] and summary["quiet"] == 0


def test_compare_directions():
    assert stats.compare(100.0, 111.0, "lower", 0.10)["regressed"]
    assert not stats.compare(100.0, 109.0, "lower", 0.10)["regressed"]
    assert stats.compare(100.0, 89.0, "higher", 0.10)["regressed"]
    assert not stats.compare(100.0, 120.0, "higher", 0.10)["regressed"]


def test_relative_spread_is_the_drivers_rule():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# -- the workloads -----------------------------------------------------------
NODE_IDS = [f"n{number}" for number in range(50_000)]


@pytest.mark.parametrize("name", ["tcp-knn-cold", "tcp-range-fresh"])
def test_cold_plans_never_repeat_a_target(name):
    plan = make_plan(WORKLOADS[name], NODE_IDS, seed=3, laps=8)
    targets = list(plan.warmup)
    for lap in plan.laps:
        targets += lap.closed + lap.open
    assert len(set(targets)) == len(targets)


@pytest.mark.parametrize("name", ["http-knn-hot", "tcp-publish-read"])
def test_hot_plans_stay_inside_the_hot_set(name):
    plan = make_plan(WORKLOADS[name], NODE_IDS, seed=3, laps=4)
    hot = set(plan.hot_set)
    assert set(plan.warmup) <= hot
    for lap in plan.laps:
        assert set(lap.closed) | set(lap.open) <= hot
    if name == "http-knn-hot":
        # Every lap target was touched by the warm-up: the hit ratio is 1.
        assert set(plan.warmup) == hot


def test_plans_come_from_the_seed_alone():
    workload = WORKLOADS["tcp-knn-cold"]
    assert make_plan(workload, NODE_IDS, 5, 3) == make_plan(workload, NODE_IDS, 5, 3)
    assert make_plan(workload, NODE_IDS, 5, 3) != make_plan(workload, NODE_IDS, 6, 3)


def test_delta_stream_moves_only_the_churning_rows():
    components = np.zeros((50_000, 3))
    stream = DeltaStream(components, seed=9)
    base_rows, _ = stream.base()
    assert len(set(base_rows.tolist())) == CHURN_ROWS
    for _ in range(5):
        rows, values = next(stream)
        assert len(rows) == DELTA_ROWS == len(set(rows.tolist()))
        assert set(rows.tolist()) <= set(base_rows.tolist())
        assert np.array_equal(stream.current[rows], values)
    again = DeltaStream(components, seed=9)
    assert np.array_equal(again.base()[0], base_rows)


# -- the oracle ----------------------------------------------------------------
@pytest.fixture(scope="module")
def small_world():
    node_ids, components, heights = synthetic_arrays(400, seed=7)
    store = ShardedCoordinateStore(2, index_kind="vptree", cache_entries=64)
    store.publish_epoch(node_ids, components.copy(), heights.copy(), source="test")
    return node_ids, components, heights, store


def _exchange(store, request):
    query = (
        Query.knn(request["target"], k=request["k"])
        if request["op"] == "knn"
        else Query.range(request["target"], request["radius_ms"])
    )
    result = store.serve(query)
    return request, {"ok": True, "payload": result.payload, "version": result.version}


def test_oracle_accepts_the_real_answers(small_world):
    node_ids, components, heights, store = small_world
    oracle = UniverseOracle(node_ids, components, heights)
    exchanges = []
    for target in node_ids[:40]:
        exchanges.append(_exchange(store, {"op": "knn", "target": target, "k": 3}))
        exchanges.append(_exchange(store, {"op": "range", "target": target, "radius_ms": 40.0}))
    assert oracle.audit(exchanges) == []


def test_oracle_flags_wrong_rtt_wrong_order_and_failures(small_world):
    node_ids, components, heights, store = small_world
    oracle = UniverseOracle(node_ids, components, heights)
    request, good = _exchange(store, {"op": "knn", "target": node_ids[5], "k": 3})

    def tampered(change):
        response = json.loads(json.dumps(good))
        change(response["payload"]["neighbors"])
        return [(request, response)]

    def nudge(neighbors):
        neighbors[1]["predicted_rtt_ms"] += 1e-6

    def swap(neighbors):
        neighbors[0], neighbors[2] = neighbors[2], neighbors[0]

    def drop(neighbors):
        del neighbors[-1]

    assert oracle.audit([(request, good)]) == []
    for change in (nudge, swap, drop):
        assert len(oracle.audit(tampered(change))) == 1
    assert len(oracle.audit([(request, {"ok": False, "error": "overloaded"})])) == 1


def test_oracle_checks_against_the_version_a_response_claims(small_world):
    node_ids, components, heights, _ = small_world
    store = ShardedCoordinateStore(2, index_kind="vptree", cache_entries=64)
    store.publish_epoch(node_ids, components.copy(), heights.copy(), source="test")
    oracle = UniverseOracle(node_ids, components, heights)
    request = {"op": "knn", "target": node_ids[0], "k": 3}
    _, before = _exchange(store, request)

    # Move the target's nearest neighbour far away in version 2.
    moved = before["payload"]["neighbors"][0]["node_id"]
    row = node_ids.index(moved)
    rows, values = np.array([row]), components[[row]] + 500.0
    generation = store.publish_delta(EpochDelta([moved], values, heights[[row]]))
    oracle.record_delta(generation.version, rows, values)
    _, after = _exchange(store, request)

    assert after["version"] == before["version"] + 1
    assert oracle.audit([(request, before), (request, after)]) == []
    # A torn read: version 2's label on version 1's data, and the reverse.
    torn = dict(before, version=after["version"])
    assert len(oracle.audit([(request, torn)])) == 1
    torn = dict(after, version=before["version"])
    assert len(oracle.audit([(request, torn)])) == 1


# -- the generator -------------------------------------------------------------
class _StallingClient:
    """Answers in 1 ms, except that the first request blocks the line 60 ms."""

    def __init__(self):
        self._lock = asyncio.Lock()
        self._first = True

    async def request(self, request, *, timeout=None):
        async with self._lock:
            delay, self._first = (0.06 if self._first else 0.001), False
            await asyncio.sleep(delay)
            return {"ok": True}


def test_open_loop_times_from_the_due_instant():
    async def scenario():
        return await generator.open_phase(
            [_StallingClient()], [{"op": "ping"}] * 20, rate=200.0
        )

    result = asyncio.run(scenario())
    # Requests due during the stall waited behind it; timing from the
    # send instead would have shown about 1 ms for each of them.
    assert result.latencies_ms[1] > 40.0
    assert sum(latency > 20.0 for latency in result.latencies_ms) >= 5
    assert all(
        late <= latency for late, latency in zip(result.lateness_ms, result.latencies_ms)
    )
    assert result.elapsed_s >= 19 / 200.0


def test_a_failed_request_misses_any_latency_limit():
    class Refusing:
        async def request(self, request, *, timeout=None):
            raise generator.TransportError("refused")

    result = asyncio.run(generator.closed_phase([Refusing()], [{"op": "ping"}] * 3))
    assert result.ok_ops == 0
    assert result.latencies_ms == [generator.REQUEST_TIMEOUT_S * 1e3] * 3


# -- the host ------------------------------------------------------------------
def test_keep_awake_runs_one_idle_spinner_per_cpu_and_reaps_them():
    with KeepAwake() as awake:
        procs = list(awake.procs)
        time.sleep(0.3)  # until each has set its own policy and affinity
        assert len(procs) == len(os.sched_getaffinity(0))
        assert all(proc.poll() is None for proc in procs)
        assert all(os.sched_getscheduler(proc.pid) == os.SCHED_IDLE for proc in procs)
        assert sorted(
            cpu for proc in procs for cpu in os.sched_getaffinity(proc.pid)
        ) == sorted(os.sched_getaffinity(0))
    assert all(proc.poll() is not None for proc in procs)


def test_a_spinner_whose_parent_is_gone_exits():
    # Pid 1 is not this test: what a spinner sees once its generator died.
    done = subprocess.run([sys.executable, str(KEEPAWAKE_PY), "0", "1"], timeout=30)
    assert done.returncode == 0


# -- the contract ----------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/stackbench"]
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        assert entry["why"] == WORKLOADS[entry["name"]].why
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = [entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= SPEC["run_seconds"] <= 60 and len(SPEC["per_layer"]) <= 128


def test_contract_line_holds_exactly_the_modes_metrics():
    metrics = {entry["name"]: 1.5 for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    result = {"correct": True, "attempted": 7, "failed": 0, "metrics": metrics}
    for mode, section in (("end_to_end", "end_to_end"), ("traced", "per_layer")):
        line = json.loads(run.contract_line({**result, "mode": mode}, SPEC))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [entry["name"] for entry in SPEC[section]]
        for entry in SPEC[section]:
            assert line["metrics"][entry["name"]] == {"value": 1.5, "unit": entry["unit"]}


def test_refuses_to_run_where_there_is_nothing_to_measure(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "stackbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "benchmarks/stackbench/run.py", "--workload", "tcp-knn-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
    assert time.perf_counter() - started < 30


def test_one_real_run_end_to_end():
    artifact = REPO_ROOT / ".stackbench" / "artifacts" / "tcp-publish-read-2-end_to_end.json"
    artifact.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tcp-publish-read",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "publish_ms" in done.stdout and "p99_ms" in done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [entry["name"] for entry in SPEC["end_to_end"]]
    assert all(reading["value"] > 0 for reading in line["metrics"].values())
    document = json.loads(artifact.read_text())
    assert document["schema"] == "stackbench/1"
    assert {"commit", "python", "numpy", "cpu_count", "loadavg"} <= set(document["fingerprint"])
    assert len(document["calib_ms"]) == document["laps"] >= 4
    for kind in ("closed", "open"):
        assert len(document["phases"][kind]) >= 4
        assert all("steal_share" in row for row in document["phases"][kind])
    # Torn-read audit: the run published, and every read matched the
    # arrays of the version it claimed.
    assert document["publishes"] > document["laps"]
    assert not list((REPO_ROOT / ".stackbench").glob("sut-*"))
    spinners = subprocess.run(["pgrep", "-f", str(KEEPAWAKE_PY)], capture_output=True)
    assert spinners.stdout == b""
