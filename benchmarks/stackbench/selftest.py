"""``--selftest``: the harness's own arithmetic against a source with known answers.

A seeded log-normal / bimodal latency source with configured p50 and p99
stands in for the open and closed phases of a run.  Its laps become the
rows a real run builds (a steal share, the phase's p50, its latencies,
its rate) and go through the code a real run reports from --
``stats.over_quiet`` for the medians, ``stats.pooled_percentile`` for the
tail, ``stats.compare`` for the verdict -- against the bounds in
BENCHMARK.json.  The harness must

* recover the configured p50 and p99 within 2%,
* pass an unshifted replay (a second seed of the same source), and
* flag an injected 1.3x shift on every timed metric at that metric's bound.
"""

from __future__ import annotations

from typing import Any, Dict, List

import stats

LAPS = 9
SAMPLES_PER_LAP = 20_000
RECOVERY_TOLERANCE = 0.02
SHIFT = 1.3
#: ``p99_ms`` is reported without a bound; its replay and shift are judged
#: against the widest bound the contract allows.
WIDEST_BOUND = 0.25
CLIENTS = 2


#: Laps the stand-in host disturbs: a run must not report from them.
DISTURBED = (2, 5)


def _report(source: stats.LatencySource) -> Dict[str, Any]:
    """What a run would print for this source."""
    rows: List[Dict[str, Any]] = []
    for lap in range(LAPS):
        latencies_ms = source.sample(SAMPLES_PER_LAP)
        rows.append(
            {
                "steal_share": 0.3 if lap in DISTURBED else 0.0,
                "latencies_ms": latencies_ms,
                "p50_ms": stats.percentile(latencies_ms, 50.0),
                # Closed loop: each client sends when its last answer came.
                "qps": CLIENTS * 1e3 / float(latencies_ms.mean()),
            }
        )
    p50 = stats.over_quiet(rows, "p50_ms")
    return {
        "chosen": p50["chosen"],
        "time": p50["median"],
        "rate": stats.over_quiet(rows, "qps")["median"],
        "p99_ms": stats.pooled_percentile(rows, p50["chosen"], "latencies_ms", 99.0)["value"],
    }


def _timed_metrics(spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The contract's times and rates, and the unbounded tail beside them."""
    timed = [entry for entry in spec["end_to_end"] if entry["unit"] in ("s", "ms", "1/s")]
    return timed + [{"name": "p99_ms", "unit": "ms", "better": "lower", "bound": WIDEST_BOUND}]


def run_selftest(spec: Dict[str, Any]) -> List[str]:
    """Every check that failed, one line each (empty: the harness is sound)."""
    failures: List[str] = []
    shapes = {
        "lognormal": dict(p50_ms=3.0, p99_ms=12.0),
        "bimodal": dict(p50_ms=2.0, p99_ms=9.0, bimodal=True, slow_ratio=0.05, slow_factor=6.0),
    }
    for shape, config in shapes.items():
        base = _report(stats.LatencySource(seed=11, **config))
        if set(base["chosen"]) & set(DISTURBED) or len(base["chosen"]) != LAPS - len(DISTURBED):
            failures.append(f"{shape}: reported from laps {base['chosen']}")
        truth = stats.LatencySource(seed=0, **config)
        for key, q in (("time", 50.0), ("p99_ms", 99.0)):
            expected = truth.true_percentile(q)
            error = abs(base[key] - expected) / expected
            if error > RECOVERY_TOLERANCE:
                failures.append(
                    f"{shape}: p{q:.0f} read {base[key]:.4f}, the source's is "
                    f"{expected:.4f} ({error:.1%} off)"
                )
        replay = _report(stats.LatencySource(seed=12, **config))
        shifted = _report(stats.LatencySource(seed=12, scale=SHIFT, **config))
        for entry in _timed_metrics(spec):
            name, better, bound = entry["name"], entry["better"], entry["bound"]
            key = "p99_ms" if name == "p99_ms" else "rate" if entry["unit"] == "1/s" else "time"
            verdict = stats.compare(base[key], replay[key], better, bound)
            if verdict["regressed"]:
                failures.append(
                    f"{shape}: unshifted replay flagged on {name} "
                    f"({verdict['worsening']:+.1%} against {bound:.0%})"
                )
            verdict = stats.compare(base[key], shifted[key], better, bound)
            if not verdict["regressed"]:
                failures.append(
                    f"{shape}: {SHIFT}x shift not flagged on {name} "
                    f"({verdict['worsening']:+.1%} against {bound:.0%})"
                )

    # ``quiet`` falls back to the quietest few when too few phases were quiet.
    if stats.quiet([0.4, 0.03, 0.2, 0.1, 0.3]) != [1, 2, 3, 4]:
        failures.append("quiet(): the fallback is not the quietest four")
    return failures


def main(spec: Dict[str, Any]) -> int:
    failures = run_selftest(spec)
    for line in failures:
        print(f"SELFTEST FAIL {line}")
    print(f"stackbench selftest: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0
