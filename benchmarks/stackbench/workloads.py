"""The four workloads: what each one sends, at what rate, and why.

A workload is a seeded request stream plus fixed phase sizes.  Phase
lengths are operation counts, never durations, so two commits do the
same work.  The counts below are sized so one lap (a closed-loop phase
followed by an open-loop phase) takes about :data:`LAP_NOMINAL_S` on a
quiet sizing host; ``--seconds`` only chooses how many laps run.

Laps are short on purpose.  The sizing host's noise comes in waves that
last seconds to a minute, and a run keeps the laps the host left alone
(``stats.quiet``), so it needs many laps to choose from more than it
needs long ones.

The open-loop rates are about 40% of the closed-loop median measured on
the quiet sizing host at 2 shards (see README.md, "Sizing evidence").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "LAP_NOMINAL_S",
    "WORKLOADS",
    "DeltaStream",
    "Lap",
    "Plan",
    "Workload",
    "delta_request",
    "laps_for",
    "make_plan",
    "requests_for",
]

#: Wall time one lap is sized to take on the quiet sizing host.
LAP_NOMINAL_S = 1.3
#: Every run laps at least this often, however quiet the host is.
MIN_LAPS = 4

KNN_K = 3
RANGE_RADIUS_MS = 20.0
HOT_SET = 500
DELTA_ROWS = 500  # 1% of the universe
#: The churning minority: 2% of the universe.  The vp-tree scans its whole
#: overlay on every query at about 2 us a row, so this sets what a read costs
#: (about 0.7 ms of tree walk plus 2 ms of overlay on the sizing host).
CHURN_ROWS = 1000
DELTA_SIGMA_MS = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "tcp" (daemon) or "http" (gateway)
    op: str  # "knn" or "range"
    #: Targets drawn from the warm hot set (hit) or consumed without
    #: replacement (miss).
    hot: bool
    closed_ops: int
    open_ops: int
    open_rate: float
    warmup_ops: int
    #: Reads between publishes in the closed / open phase (0: no publishes).
    closed_publish_every: int
    open_publish_every: int
    why: str

    @property
    def publishes(self) -> bool:
        return self.closed_publish_every > 0

    def request(self, target: str) -> Dict[str, Any]:
        if self.op == "knn":
            return {"op": "knn", "target": target, "k": KNN_K}
        return {"op": "range", "target": target, "radius_ms": RANGE_RADIUS_MS}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tcp-knn-cold",
            transport="tcp",
            op="knn",
            hot=False,
            closed_ops=350,
            open_ops=192,
            open_rate=300.0,
            warmup_ops=200,
            closed_publish_every=0,
            open_publish_every=0,
            why=(
                "small messages, every query a cache miss: service.index and the "
                "server.sharding scatter/merge do most of the work, the cache none"
            ),
        ),
        Workload(
            name="http-knn-hot",
            transport="http",
            op="knn",
            hot=True,
            closed_ops=1300,
            open_ops=640,
            open_rate=1000.0,
            warmup_ops=HOT_SET,
            closed_publish_every=0,
            open_publish_every=0,
            why=(
                "every query a cache hit over HTTP: parse, auth, token bucket, "
                "admission, executor hop, cache get and deepcopy; the index is idle"
            ),
        ),
        Workload(
            name="tcp-range-fresh",
            transport="tcp",
            op="range",
            hot=False,
            closed_ops=100,
            open_ops=56,
            open_rate=80.0,
            warmup_ops=60,
            closed_publish_every=0,
            open_publish_every=0,
            why=(
                "12 KB responses, every query a miss: payload-proportional work "
                "(within, merge, deepcopy, JSON encode, socket write) dominates"
            ),
        ),
        Workload(
            name="tcp-publish-read",
            transport="tcp",
            op="knn",
            hot=True,
            closed_ops=150,
            # A publish stalls the reads due while it runs and those queued
            # behind them, about 0.3 s of reads.  Over 200 reads (2 s) that
            # stays clear of the median; over 100 a slow publish reached it.
            open_ops=200,
            open_rate=100.0,
            # The first publish empties the cache whatever the warm-up read.
            warmup_ops=200,
            closed_publish_every=150,
            open_publish_every=200,
            why=(
                "1% delta publishes beside hot-set reads: every rollover empties "
                "the cache and reads run against an index carrying an overlay"
            ),
        ),
    )
}


def laps_for(seconds: float) -> int:
    """The most laps a run that may measure for ``seconds`` can fit in."""
    return max(MIN_LAPS, round(seconds / LAP_NOMINAL_S))


@dataclass(frozen=True)
class Lap:
    closed: Tuple[str, ...]
    open: Tuple[str, ...]


@dataclass(frozen=True)
class Plan:
    """Every target a run will query, generated from the seed alone."""

    workload: Workload
    seed: int
    warmup: Tuple[str, ...]
    laps: Tuple[Lap, ...]
    hot_set: Tuple[str, ...]


def make_plan(
    workload: Workload, node_ids: Sequence[str], seed: int, laps: int
) -> Plan:
    """The run's request targets: lap ``i`` is drawn from ``seed + i``."""
    rng = np.random.default_rng(seed)
    population = len(node_ids)
    hot_rows = rng.choice(population, size=HOT_SET, replace=False)
    hot_set = tuple(node_ids[row] for row in hot_rows)
    if workload.hot:
        # The warm-up touches hot targets exactly once: all of them where
        # the laps must only ever hit.
        warmup = hot_set[: workload.warmup_ops]
        lap_list = []
        for lap in range(laps):
            lap_rng = np.random.default_rng(seed + lap)
            draws = lap_rng.integers(
                0, HOT_SET, size=workload.closed_ops + workload.open_ops
            )
            targets = [hot_set[draw] for draw in draws]
            lap_list.append(
                Lap(
                    tuple(targets[: workload.closed_ops]),
                    tuple(targets[workload.closed_ops :]),
                )
            )
    else:
        # One permutation consumed without replacement across the whole
        # run: no target repeats, so the cache hit ratio is exactly 0.
        per_lap = workload.closed_ops + workload.open_ops
        needed = workload.warmup_ops + laps * per_lap
        if needed > population:
            raise ValueError(
                f"{workload.name}: {needed} distinct targets exceed {population} nodes"
            )
        order = [node_ids[row] for row in rng.permutation(population)[:needed]]
        warmup = tuple(order[: workload.warmup_ops])
        lap_list = []
        for lap in range(laps):
            start = workload.warmup_ops + lap * per_lap
            lap_list.append(
                Lap(
                    tuple(order[start : start + workload.closed_ops]),
                    tuple(order[start + workload.closed_ops : start + per_lap]),
                )
            )
    return Plan(workload, seed, warmup, tuple(lap_list), hot_set)


class DeltaStream:
    """Seeded 1% deltas over a fixed churning minority of the nodes.

    The rows that move are always drawn from the same :data:`CHURN_ROWS`
    seeded rows, and :meth:`base` moves all of them at once.  Published
    during warm-up, it puts the index's overlay at the size it then
    keeps: every lap reads against the same overlay, where deltas over
    fresh rows would make each lap slower than the one before it (the
    vp-tree scans its overlay on every query) until a compaction.
    """

    def __init__(self, components: np.ndarray, seed: int) -> None:
        self.current = np.array(components, dtype=np.float64, copy=True)
        self._rng = np.random.default_rng(seed)
        self._churn = np.sort(
            self._rng.choice(len(self.current), size=CHURN_ROWS, replace=False)
        )

    def reseed(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def _step(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        values = self.current[rows] + self._rng.normal(
            scale=DELTA_SIGMA_MS, size=(len(rows), self.current.shape[1])
        )
        self.current[rows] = values
        return rows, values

    def base(self) -> Tuple[np.ndarray, np.ndarray]:
        """One delta that moves every churning row."""
        return self._step(self._churn)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        return self

    def __next__(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._step(self._rng.choice(self._churn, size=DELTA_ROWS, replace=False))


def delta_request(
    node_ids: Sequence[str], rows: np.ndarray, values: np.ndarray, source: str
) -> Dict[str, Any]:
    """The wire ``publish`` request (protocol version 2 delta form)."""
    return {
        "op": "publish",
        "version": 2,
        "delta": True,
        "nodes": [node_ids[row] for row in rows],
        "components": values.tolist(),
        "removed": [],
        "source": source,
    }


def requests_for(workload: Workload, targets: Sequence[str]) -> List[Dict[str, Any]]:
    return [workload.request(target) for target in targets]
