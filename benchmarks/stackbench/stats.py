"""Percentiles, median-of-laps summaries and bound comparison.

Everything that turns raw samples into a reported number, or two
reported numbers into a verdict, lives here so that ``--selftest`` can
feed a source with known answers through exactly the code the real runs
use (see :class:`LatencySource`).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Sequence

import numpy as np

__all__ = [
    "LatencySource",
    "MIN_QUIET",
    "QUIET_STEAL_SHARE",
    "compare",
    "count_quiet",
    "over_quiet",
    "percentile",
    "pooled_percentile",
    "quiet",
    "relative_spread",
    "summarize",
]

#: A phase is quiet when the hypervisor took at most this share of the
#: VM's CPU time while it ran.  On the sizing host closed-loop knn ran at
#: a median 731 q/s below 0.5% steal, 721 q/s at 0.5-2%, 522 q/s at 2-5%
#: and 391 q/s at 10-15%: past 2% a phase measures the neighbours.
QUIET_STEAL_SHARE = 0.02
#: A reported median rests on at least this many phases: when fewer were
#: quiet, the quietest few stand in for them.
MIN_QUIET = 4


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median with quartiles and the sample count beside it.

    This is the shape every reported value takes: ``values`` holds one
    number per lap (or per run), and the headline is their median.
    """
    values = [float(value) for value in values]
    if not values:
        raise ValueError("summarize() needs at least one value")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def count_quiet(steal_shares: Sequence[float]) -> int:
    return sum(share <= QUIET_STEAL_SHARE for share in steal_shares)


def quiet(steal_shares: Sequence[float], at_least: int = MIN_QUIET) -> List[int]:
    """Which phases of a run to report from: those the host left alone.

    The choice looks only at the host's steal counter, never at what the
    phase measured.  When fewer than ``at_least`` phases were quiet the
    quietest ``at_least`` are used instead, so a number always comes out;
    the artifact says how many were really quiet.
    """
    chosen = [
        position
        for position, share in enumerate(steal_shares)
        if share <= QUIET_STEAL_SHARE
    ]
    if len(chosen) >= at_least:
        return chosen
    ranked = sorted(range(len(steal_shares)), key=lambda position: steal_shares[position])
    return sorted(ranked[:at_least])


def over_quiet(
    rows: Sequence[Dict[str, Any]], key: str, at_least: int = MIN_QUIET
) -> Dict[str, Any]:
    """Median of ``key`` over the phases the host left alone.

    ``rows`` holds one mapping per phase with its ``steal_share``; the
    summary also says which phases were ``chosen`` and how many of them
    were really ``quiet``.
    """
    shares = [row["steal_share"] for row in rows]
    chosen = quiet(shares, at_least)
    summary = summarize([rows[position][key] for position in chosen])
    summary["chosen"] = chosen
    summary["quiet"] = count_quiet(shares)
    return summary


def pooled_percentile(
    rows: Sequence[Dict[str, Any]], chosen: Sequence[int], key: str, q: float
) -> Dict[str, Any]:
    """The ``q``-th percentile of the ``chosen`` phases' samples taken together.

    For the tail: one phase alone has too few samples beyond its 99th
    percentile, so the phases a median was taken over are pooled.
    """
    pooled = [sample for position in chosen for sample in rows[position][key]]
    return {"value": percentile(pooled, q), "pooled_samples": len(pooled)}


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    summary = summarize(values)
    if summary["median"] == 0.0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def compare(base: float, candidate: float, better: str, bound: float) -> Dict[str, Any]:
    """How much worse ``candidate`` is than ``base``, against ``bound``.

    ``worsening`` is the relative change in the bad direction (negative
    when the candidate is better).  A worsening past ``bound`` is a
    regression.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0.0:
        worsening = 0.0 if candidate == base else math.inf
    elif better == "lower":
        worsening = (candidate - base) / abs(base)
    else:
        worsening = (base - candidate) / abs(base)
    return {
        "base": base,
        "candidate": candidate,
        "worsening": worsening,
        "bound": bound,
        "regressed": worsening > bound,
    }


#: z-score of the 99th percentile of a standard normal.
_Z99 = 2.3263478740408408


class LatencySource:
    """A seeded latency source with known percentiles (for ``--selftest``).

    Log-normal with the configured p50/p99; with ``bimodal`` a fraction
    ``slow_ratio`` of samples is multiplied by ``slow_factor`` (the cache
    hit/miss shape).  :meth:`true_percentile` gives the exact answer for
    either shape, so the harness's estimate can be checked against it.
    """

    def __init__(
        self,
        p50_ms: float,
        p99_ms: float,
        *,
        bimodal: bool = False,
        slow_ratio: float = 0.1,
        slow_factor: float = 10.0,
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < p50_ms < p99_ms:
            raise ValueError("need 0 < p50_ms < p99_ms")
        self.mu = math.log(p50_ms)
        self.sigma = (math.log(p99_ms) - self.mu) / _Z99
        self.bimodal = bimodal
        self.slow_ratio = slow_ratio if bimodal else 0.0
        self.slow_factor = slow_factor
        #: Multiplies every sample: an injected regression (1.3 = 30% slower).
        self.scale = scale
        self._rng = np.random.default_rng(seed)

    def sample(self, n: int) -> np.ndarray:
        values = np.exp(self._rng.normal(self.mu, self.sigma, size=n))
        if self.slow_ratio:
            values[self._rng.random(n) < self.slow_ratio] *= self.slow_factor
        return values * self.scale

    def _cdf(self, x: float) -> float:
        def lognormal(value: float) -> float:
            z = (math.log(value) - self.mu) / self.sigma
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

        fast = lognormal(x / self.scale)
        if not self.slow_ratio:
            return fast
        slow = lognormal(x / (self.scale * self.slow_factor))
        return (1.0 - self.slow_ratio) * fast + self.slow_ratio * slow

    def true_percentile(self, q: float) -> float:
        """The exact ``q``-th percentile, by bisection on the CDF."""
        target = q / 100.0
        low, high = 1e-9, math.exp(self.mu + 12.0 * self.sigma) * self.slow_factor
        for _ in range(200):
            mid = math.sqrt(low * high)
            if self._cdf(mid) < target:
                low = mid
            else:
                high = mid
        return math.sqrt(low * high)

