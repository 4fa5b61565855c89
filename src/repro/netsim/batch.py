"""Synchronous-round batch simulation: the vectorized write path's driver.

The discrete-event simulator (:mod:`repro.netsim.runner`) is faithful to
the deployed protocol -- per-host phases, in-flight responses, gossip --
but processes one observation at a time, which caps runs at a few hundred
nodes.  This module defines a *tick-based* discretisation of the same
protocol that advances the whole population per tick:

* every ``sampling_interval_s`` (one tick), each online node pings the next
  neighbor in its round-robin set (the bootstrap ring plus one random
  long-range contact, exactly as :func:`~repro.netsim.runner.run_simulation`
  builds it);
* RTTs are drawn in one batch from the same per-link models the dataset
  would give the event-driven simulator (:class:`BatchLinkSampler`);
* observations are applied synchronously with peer state read at the start
  of the tick (a Jacobi-style update), instead of at response-delivery time.

Two interchangeable backends advance the per-node state through that
schedule, behind the :class:`SimulationBackend` protocol:

* :class:`ScalarTickBackend` -- the correctness oracle: a Python loop
  driving the *unmodified* scalar core (:class:`~repro.core.node.CoordinateNode`
  with its filters and heuristics) one node at a time;
* :class:`VectorizedTickBackend` -- the NumPy batch write path
  (:class:`~repro.core.vectorized.VectorizedNodeState`).

Both consume identical tick inputs (same RNG streams, same churn timeline,
same RTT batches), so their outputs are directly comparable; the vectorized
backend is written to reproduce the oracle byte-for-byte (see
``tests/test_vectorized.py``), which is what ``strict_equivalence`` specs
assert end to end.

Differences from the event-driven simulator (documented, deliberate):
observations apply at the tick boundary rather than one RTT later, gossip
is disabled (neighbor sets stay fixed), and the RNG streams are batch-
shaped -- so batch metrics are *statistically* comparable to event-driven
metrics, not bit-identical to them.  The equivalence guarantee is between
the two batch backends.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.core.coordinate import Coordinate
from repro.core.node import CoordinateNode
from repro.core.vectorized import TickObservations, TickOutcome, VectorizedNodeState
from repro.latency.linkmodel import ShiftingLink
from repro.latency.planetlab import PlanetLabDataset
from repro.metrics.collector import SystemSnapshot
from repro.netsim.churn import ChurnConfig
from repro.netsim.runner import SimulationConfig
from repro.service.publish import EpochDelta, EpochPublisher
from repro.stats.sampling import derive_rng

__all__ = [
    "BACKEND_KINDS",
    "BatchChurnSchedule",
    "BatchLinkSampler",
    "BatchMetrics",
    "BatchSimulationResult",
    "ScalarTickBackend",
    "SimulationBackend",
    "VectorizedTickBackend",
    "run_batch_simulation",
]

#: Backend names accepted by :func:`run_batch_simulation`.
BACKEND_KINDS = ("scalar", "vectorized")


# ----------------------------------------------------------------------
# Backend protocol and implementations
# ----------------------------------------------------------------------
@runtime_checkable
class SimulationBackend(Protocol):
    """Advances the whole population's coordinate state tick by tick."""

    name: str

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Wall-clock seconds accumulated per internal phase."""
        ...

    def tick(self, observations: TickObservations) -> TickOutcome:
        """Apply one tick's completed observations; peer state is read at
        the start of the tick for every observation in the batch."""
        ...

    def final_coordinates(self, *, level: str = "application") -> List[Coordinate]:
        """Current coordinate of every node, in host order."""
        ...

    def coordinate_arrays(
        self, *, level: str = "application"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(components (n, d), heights (n,))`` in host order.

        The array twin of :meth:`final_coordinates`: no per-node object
        materialisation, which is what the service layer's zero-copy
        snapshot ingest consumes.  Application-level arrays must be
        *detached* (not views of live state -- both implementations
        materialise the has-app fallback into fresh arrays anyway), so
        publishers can adopt them without copying; system-level arrays
        may be live views.
        """
        ...


class VectorizedTickBackend:
    """The NumPy batch write path behind the backend protocol."""

    name = "vectorized"

    def __init__(self, host_ids: List[str], config, neighbor_slots: int) -> None:
        self.state = VectorizedNodeState(len(host_ids), config, neighbor_slots)

    @property
    def phase_seconds(self) -> Dict[str, float]:
        return self.state.phase_seconds

    def tick(self, observations: TickObservations) -> TickOutcome:
        return self.state.observe_batch(observations)

    def final_coordinates(self, *, level: str = "application") -> List[Coordinate]:
        return self.state.coordinate_objects(level=level)

    def coordinate_arrays(
        self, *, level: str = "application"
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.state.coordinate_arrays(level=level)


class ScalarTickBackend:
    """The correctness oracle: the unmodified scalar core, one node at a time.

    Each node is a full :class:`~repro.core.node.CoordinateNode` -- the same
    filters, Vivaldi update and heuristics the event-driven simulator uses
    -- driven through the synchronous-round schedule.  This is the baseline
    the vectorized backend must reproduce and the benchmark it must beat.
    """

    name = "scalar"

    def __init__(self, host_ids: List[str], config, neighbor_slots: int) -> None:
        self.host_ids = list(host_ids)
        self.nodes = [CoordinateNode(host_id, config) for host_id in host_ids]
        self.phase_seconds: Dict[str, float] = {"update": 0.0}
        self._dimensions = config.vivaldi.dimensions

    def tick(self, observations: TickObservations) -> TickOutcome:
        started = time.perf_counter()
        m = observations.node_idx.shape[0]
        d = self._dimensions
        sys_rows = np.empty((m, d))
        app_rows = np.empty((m, d))
        rel = np.full(m, np.nan)
        app_rel = np.full(m, np.nan)
        updated = np.zeros(m, dtype=bool)

        # Snapshot every referenced peer before any node updates, the
        # synchronous-round semantics both backends share.
        snapshots = {}
        for p in np.unique(observations.peer_idx):
            node = self.nodes[int(p)]
            snapshots[int(p)] = (
                node.system_coordinate,
                node.error_estimate,
                node.application_coordinate,
            )

        for j in range(m):
            i = int(observations.node_idx[j])
            p = int(observations.peer_idx[j])
            peer_sys, peer_err, peer_app = snapshots[p]
            result = self.nodes[i].observe(
                self.host_ids[p],
                peer_sys,
                peer_err,
                float(observations.rtt_ms[j]),
                peer_application_coordinate=peer_app,
            )
            sys_rows[j] = result.system_coordinate.components
            app_rows[j] = self.nodes[i].application_coordinate.components
            if result.relative_error is not None:
                rel[j] = result.relative_error
            if result.application_relative_error is not None:
                app_rel[j] = result.application_relative_error
            updated[j] = result.application_update is not None

        self.phase_seconds["update"] += time.perf_counter() - started
        return TickOutcome(
            system_coords=sys_rows,
            application_coords=app_rows,
            relative_error=rel,
            application_relative_error=app_rel,
            application_updated=updated,
        )

    def final_coordinates(self, *, level: str = "application") -> List[Coordinate]:
        if level == "system":
            return [node.system_coordinate for node in self.nodes]
        return [node.application_coordinate for node in self.nodes]

    def coordinate_arrays(
        self, *, level: str = "application"
    ) -> Tuple[np.ndarray, np.ndarray]:
        coordinates = self.final_coordinates(level=level)
        components = np.array([c.components for c in coordinates], dtype=np.float64)
        heights = np.array([c.height for c in coordinates], dtype=np.float64)
        return components, heights


def make_backend(
    kind: str, host_ids: List[str], config, neighbor_slots: int
) -> SimulationBackend:
    if kind == "scalar":
        return ScalarTickBackend(host_ids, config, neighbor_slots)
    if kind == "vectorized":
        return VectorizedTickBackend(host_ids, config, neighbor_slots)
    raise ValueError(f"unknown backend {kind!r}; expected one of {BACKEND_KINDS}")


# ----------------------------------------------------------------------
# Batched RTT sampling
# ----------------------------------------------------------------------
class BatchLinkSampler:
    """Vectorized per-(node, neighbor-slot) RTT sampling.

    Built from the same lazily created per-pair link models the dataset
    gives the event-driven simulator, so the statistical universe (base
    RTTs, which links shift and when, drift rates, heavy-tail parameters)
    is identical; only the RNG stream shape differs (one batched draw per
    tick instead of one scalar draw per ping).
    """

    def __init__(
        self,
        dataset: PlanetLabDataset,
        host_ids: List[str],
        neighbor_matrix: np.ndarray,
        neighbor_counts: np.ndarray,
    ) -> None:
        self.parameters = dataset.parameters
        n, kmax = neighbor_matrix.shape
        self.base = np.zeros((n, kmax))
        self.shift_t1 = np.full((n, kmax), np.inf)
        self.shift_m1 = np.ones((n, kmax))
        self.shift_t2 = np.full((n, kmax), np.inf)
        self.shift_m2 = np.ones((n, kmax))
        self.drift = np.zeros((n, kmax))
        for i in range(n):
            for s in range(int(neighbor_counts[i])):
                j = int(neighbor_matrix[i, s])
                model = dataset.link_model(host_ids[i], host_ids[j])
                if isinstance(model, ShiftingLink):
                    self.drift[i, s] = model.drift_fraction_per_hour
                    shifts = model.shifts
                    if len(shifts) > 2:
                        # The vectorized scale path holds two shift slots
                        # (all the generator produces); silently dropping
                        # extra shifts would skew an externally supplied
                        # universe.
                        raise ValueError(
                            f"link {host_ids[i]}~{host_ids[j]} has {len(shifts)} "
                            "baseline shifts; the batch sampler supports at most 2"
                        )
                    if shifts:
                        self.shift_t1[i, s], self.shift_m1[i, s] = shifts[0]
                    if len(shifts) > 1:
                        self.shift_t2[i, s], self.shift_m2[i, s] = shifts[1]
                    model = model.inner
                self.base[i, s] = model.base_rtt_ms

    def sample(
        self,
        node_idx: np.ndarray,
        slot_idx: np.ndarray,
        time_s: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One observed RTT per (node, slot) pair at simulation time ``time_s``."""
        base = self.base[node_idx, slot_idx]
        m = base.shape[0]
        if m == 0:
            return base
        if self.parameters.noiseless:
            # StableLink with jitter_fraction=0 (sigma floored at 1e-9).
            jitter = rng.lognormal(mean=0.0, sigma=1e-9, size=m)
            return np.maximum(0.05, base * jitter)

        heavy = self.parameters.heavy_tail
        draw = rng.uniform(size=m)
        bulk = base * rng.lognormal(mean=0.0, sigma=heavy.jitter_sigma, size=m)
        value = np.maximum(0.05, bulk)
        outlier = draw < heavy.outlier_probability
        if np.any(outlier):
            low, high = heavy.outlier_range_ms
            extremes = np.exp(
                rng.uniform(math.log(low), math.log(high), size=int(outlier.sum()))
            )
            value[outlier] = np.maximum(bulk[outlier], extremes)
        spike = ~outlier & (draw < heavy.outlier_probability + heavy.spike_probability)
        if np.any(spike):
            spikes = (
                rng.pareto(heavy.spike_pareto_shape, size=int(spike.sum())) + 1.0
            ) * heavy.spike_scale_ms
            value[spike] = bulk[spike] + spikes

        # ShiftingLink scaling: the last shift whose time has passed wins,
        # then the slow linear drift ramps on top.
        scale = np.ones(m)
        scale = np.where(time_s >= self.shift_t1[node_idx, slot_idx],
                         self.shift_m1[node_idx, slot_idx], scale)
        scale = np.where(time_s >= self.shift_t2[node_idx, slot_idx],
                         self.shift_m2[node_idx, slot_idx], scale)
        scale = scale * (1.0 + self.drift[node_idx, slot_idx] * (time_s / 3600.0))
        return value * np.maximum(scale, 1e-3)


# ----------------------------------------------------------------------
# Churn
# ----------------------------------------------------------------------
class BatchChurnSchedule:
    """Precomputed churn timeline shared by both backends.

    Mirrors :class:`~repro.netsim.churn.ChurnModel`: the same churner
    selection draw (``derive_rng(seed, "churn")``), exponentially
    distributed session and downtime lengths, alternating from an online
    start.  The whole timeline is materialised up front so online masks
    are a vectorized parity count over toggle times.
    """

    def __init__(
        self, node_count: int, config: ChurnConfig, duration_s: float, seed: int
    ) -> None:
        self.node_count = node_count
        rng = derive_rng(seed, "churn")
        churner_count = int(round(node_count * config.churning_fraction))
        self.churners = np.zeros(0, dtype=np.int64)
        self._toggles = np.zeros((0, 0))
        self.transitions = 0
        if churner_count == 0:
            return
        chosen = rng.choice(node_count, size=churner_count, replace=False)
        self.churners = np.sort(chosen.astype(np.int64))
        timelines: List[List[float]] = []
        for _ in range(churner_count):
            toggles: List[float] = []
            t = float(rng.exponential(config.mean_session_s))
            online = True
            while t <= duration_s:
                toggles.append(t)
                online = not online
                mean = config.mean_session_s if online else config.mean_downtime_s
                t += float(rng.exponential(mean))
            timelines.append(toggles)
            self.transitions += len(toggles)
        width = max((len(t) for t in timelines), default=0)
        self._toggles = np.full((churner_count, max(width, 1)), np.inf)
        for row, toggles in enumerate(timelines):
            self._toggles[row, : len(toggles)] = toggles

    def online_mask(self, time_s: float) -> np.ndarray:
        """Which nodes are online at ``time_s`` (non-churners always are)."""
        mask = np.ones(self.node_count, dtype=bool)
        if self.churners.shape[0]:
            toggled = (self._toggles <= time_s).sum(axis=1)
            mask[self.churners] = toggled % 2 == 0
        return mask


# ----------------------------------------------------------------------
# Metrics (array-native MetricsCollector equivalent)
# ----------------------------------------------------------------------
class BatchMetrics:
    """Array-native metric accumulation with the collector's semantics.

    Feeding every batched observation through
    :meth:`~repro.metrics.collector.MetricsCollector.record_sample` would
    reintroduce a per-sample Python loop and erase the vectorized
    backend's advantage, so this class accumulates the same quantities --
    per-node relative-error streams inside the measurement window,
    coordinate movement at both levels, application-update counts -- as
    per-tick array operations, and answers the same queries the scenario
    kernel asks of a collector (``system_snapshot``,
    ``per_node_error_percentile``, ``per_node_instability``,
    ``latest_coordinates``).

    Memory note: error samples are retained per tick for exact
    percentiles, so a run stores ``O(nodes * ticks)`` floats -- ~40 bytes
    per completed observation.  A 10k-node, 120-tick run is ~50 MB.
    """

    def __init__(
        self, host_ids: List[str], dimensions: int, measurement_start_s: float
    ) -> None:
        self.host_ids = list(host_ids)
        self.measurement_start_s = float(measurement_start_s)
        n = len(host_ids)
        self._dimensions = dimensions
        self._ever = np.zeros(n, dtype=bool)
        self._observation_counts = np.zeros(n, dtype=np.int64)
        self._prev_sys = np.zeros((n, dimensions))
        self._prev_app = np.zeros((n, dimensions))
        self._sys_move_all = np.zeros(n)
        self._sys_move_window = np.zeros(n)
        self._app_move_all = np.zeros(n)
        self._app_move_window = np.zeros(n)
        self._app_updates_window = np.zeros(n, dtype=np.int64)
        self._err_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self._app_err_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        #: Memoised per-node grouping per level; a system_snapshot() asks
        #: four percentile questions, each of which would otherwise re-sort
        #: the whole retained sample set.
        self._grouping_cache: Dict[str, Tuple[int, Dict[int, np.ndarray]]] = {}
        self._first_time_s: Optional[float] = None
        self._last_time_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_tick(
        self, time_s: float, node_idx: np.ndarray, outcome: TickOutcome
    ) -> None:
        if node_idx.shape[0] == 0:
            return
        if self._first_time_s is None:
            self._first_time_s = time_s
        self._last_time_s = time_s
        in_window = time_s >= self.measurement_start_s

        ever = self._ever[node_idx]
        sys_delta = outcome.system_coords - self._prev_sys[node_idx]
        app_delta = outcome.application_coords - self._prev_app[node_idx]
        sys_move = np.where(ever, _row_norm(sys_delta), 0.0)
        app_move = np.where(ever, _row_norm(app_delta), 0.0)
        self._sys_move_all[node_idx] += sys_move
        self._app_move_all[node_idx] += app_move
        if in_window:
            self._sys_move_window[node_idx] += sys_move
            self._app_move_window[node_idx] += app_move
            self._app_updates_window[node_idx] += outcome.application_updated
            recorded = ~np.isnan(outcome.relative_error)
            if np.any(recorded):
                self._err_chunks.append(
                    (node_idx[recorded], outcome.relative_error[recorded])
                )
            app_recorded = ~np.isnan(outcome.application_relative_error)
            if np.any(app_recorded):
                self._app_err_chunks.append(
                    (
                        node_idx[app_recorded],
                        outcome.application_relative_error[app_recorded],
                    )
                )
        self._prev_sys[node_idx] = outcome.system_coords
        self._prev_app[node_idx] = outcome.application_coords
        self._ever[node_idx] = True
        self._observation_counts[node_idx] += 1

    # ------------------------------------------------------------------
    # Interval bookkeeping (mirrors MetricsCollector)
    # ------------------------------------------------------------------
    def _measurement_bounds(self) -> Tuple[float, float]:
        start = max(self.measurement_start_s, self._first_time_s or 0.0)
        end = self._last_time_s if self._last_time_s is not None else start
        return start, max(start, end)

    @property
    def measurement_duration_s(self) -> float:
        start, end = self._measurement_bounds()
        return end - start

    def node_ids(self) -> List[str]:
        return [self.host_ids[i] for i in np.nonzero(self._ever)[0]]

    # ------------------------------------------------------------------
    # Per-node summaries
    # ------------------------------------------------------------------
    def _error_values_by_node(self, *, level: str) -> Dict[int, np.ndarray]:
        chunks = self._err_chunks if level == "system" else self._app_err_chunks
        if not chunks:
            return {}
        cached = self._grouping_cache.get(level)
        if cached is not None and cached[0] == len(chunks):
            return cached[1]
        idx = np.concatenate([c[0] for c in chunks])
        values = np.concatenate([c[1] for c in chunks])
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        values = values[order]
        boundaries = np.nonzero(np.diff(idx))[0] + 1
        groups = np.split(values, boundaries)
        nodes = idx[np.concatenate(([0], boundaries))]
        grouping = {int(node): group for node, group in zip(nodes, groups)}
        self._grouping_cache[level] = (len(chunks), grouping)
        return grouping

    def per_node_error_percentile(
        self, percentile: float, *, level: str = "system"
    ) -> Dict[str, float]:
        return {
            self.host_ids[node]: float(np.percentile(values, percentile))
            for node, values in sorted(self._error_values_by_node(level=level).items())
        }

    def per_node_median_error(self, *, level: str = "system") -> Dict[str, float]:
        return self.per_node_error_percentile(50.0, level=level)

    def per_node_instability(self, *, level: str = "system") -> Dict[str, float]:
        start, end = self._measurement_bounds()
        duration = max(end - start, 1e-9)
        if level == "system":
            window, everything = self._sys_move_window, self._sys_move_all
        else:
            window, everything = self._app_move_window, self._app_move_all
        # movement_since(start): when the window opens before the first
        # record, every recorded movement counts.
        first = self._first_time_s if self._first_time_s is not None else 0.0
        movement = everything if self.measurement_start_s <= first else window
        return {
            self.host_ids[i]: float(movement[i] / duration)
            for i in np.nonzero(self._ever)[0]
        }

    def per_node_update_counts(self) -> Dict[str, int]:
        return {
            self.host_ids[i]: int(self._app_updates_window[i])
            for i in np.nonzero(self._ever)[0]
        }

    # ------------------------------------------------------------------
    # System summaries
    # ------------------------------------------------------------------
    @staticmethod
    def _median(values: Dict[str, float]) -> Optional[float]:
        if not values:
            return None
        return float(np.percentile(list(values.values()), 50.0))

    def aggregate_instability(self, *, level: str = "system") -> float:
        return float(sum(self.per_node_instability(level=level).values()))

    def application_updates_per_node_per_second(self) -> float:
        start, end = self._measurement_bounds()
        duration = max(end - start, 1e-9)
        node_count = int(self._ever.sum())
        if node_count == 0:
            return 0.0
        return float(self._app_updates_window.sum()) / duration / node_count

    def system_snapshot(self) -> SystemSnapshot:
        median_err = self.per_node_median_error(level="system")
        p95_err = self.per_node_error_percentile(95.0, level="system")
        app_median_err = self.per_node_median_error(level="application")
        app_p95_err = self.per_node_error_percentile(95.0, level="application")
        system_instability = self.per_node_instability(level="system")
        app_instability = self.per_node_instability(level="application")
        return SystemSnapshot(
            node_count=int(self._ever.sum()),
            duration_s=self.measurement_duration_s,
            median_of_median_error=self._median(median_err),
            median_of_p95_error=self._median(p95_err),
            median_of_median_application_error=self._median(app_median_err),
            median_of_p95_application_error=self._median(app_p95_err),
            aggregate_system_instability=float(sum(system_instability.values())),
            aggregate_application_instability=float(sum(app_instability.values())),
            median_node_system_instability=self._median(system_instability) or 0.0,
            median_node_application_instability=self._median(app_instability) or 0.0,
            application_updates_per_node_per_s=self.application_updates_per_node_per_second(),
        )

    def latest_coordinates(self, *, level: str = "application") -> Dict[str, Coordinate]:
        source = self._prev_sys if level == "system" else self._prev_app
        return {
            self.host_ids[i]: Coordinate(source[i].tolist())
            for i in np.nonzero(self._ever)[0]
        }


def _row_norm(delta: np.ndarray) -> np.ndarray:
    acc = delta[:, 0] * delta[:, 0]
    for j in range(1, delta.shape[1]):
        acc = acc + delta[:, j] * delta[:, j]
    return np.sqrt(acc)


# ----------------------------------------------------------------------
# The batch run
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BatchSimulationResult:
    """Outcome of one batch simulation run."""

    config: SimulationConfig
    backend: str
    host_ids: List[str]
    metrics: BatchMetrics
    samples_attempted: int
    samples_completed: int
    ticks: int
    churn_transitions: int
    #: One-off cost of building the dataset-derived arrays (link sampler,
    #: churn timeline); excluded from throughput numbers.
    setup_s: float
    #: Wall-clock time of the tick loop itself.
    run_s: float
    #: Per-phase wall-clock breakdown (``--profile``): sampling, filter,
    #: spring update, heuristic, metrics (and snapshot publishing when a
    #: ``publish_store`` is attached).
    profile: Dict[str, float] = field(default_factory=dict)
    final_application: List[Coordinate] = field(default_factory=list)
    final_system: List[Coordinate] = field(default_factory=list)
    #: Array twins of the final coordinate lists: ``(components, heights)``
    #: in host order, fed to the service layer without object
    #: materialisation.
    final_application_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
    final_system_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
    #: Coordinate epochs pushed into the attached ``publish_store``.
    snapshots_published: int = 0

    @property
    def collector(self) -> BatchMetrics:
        """Duck-typed stand-in for the event-driven run's collector."""
        return self.metrics

    def application_coordinates(self) -> Dict[str, Coordinate]:
        return dict(zip(self.host_ids, self.final_application))

    @property
    def ticks_per_s(self) -> float:
        return self.ticks / self.run_s if self.run_s > 0 else float("inf")


def build_neighbor_table(
    host_count: int, bootstrap_neighbors: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed neighbor sets: the bootstrap ring plus one random contact.

    Reproduces :func:`~repro.netsim.runner.run_simulation`'s bootstrap
    construction exactly (same ``derive_rng(seed, "bootstrap")`` stream,
    same de-duplication), minus the gossip growth that the batch model
    deliberately omits.  Returns ``(neighbor_matrix, neighbor_counts)``
    with unused slots zero-filled.
    """
    bootstrap_rng = derive_rng(seed, "bootstrap")
    lists: List[List[int]] = []
    ring_size = min(bootstrap_neighbors, host_count - 1)
    for index in range(host_count):
        candidates = [(index + offset + 1) % host_count for offset in range(ring_size)]
        candidates.append(int(bootstrap_rng.integers(0, host_count)))
        chosen: List[int] = []
        for candidate in candidates:
            if candidate != index and candidate not in chosen:
                chosen.append(candidate)
        lists.append(chosen)
    kmax = max(len(chosen) for chosen in lists)
    matrix = np.zeros((host_count, kmax), dtype=np.int64)
    counts = np.zeros(host_count, dtype=np.int64)
    for i, chosen in enumerate(lists):
        counts[i] = len(chosen)
        matrix[i, : len(chosen)] = chosen
    return matrix, counts


def run_batch_simulation(
    config: SimulationConfig,
    *,
    backend: str = "vectorized",
    dataset: Optional[PlanetLabDataset] = None,
    collect_profile: bool = False,
    publish_store: Optional[EpochPublisher] = None,
    publish_every_ticks: Optional[int] = None,
    publish_mode: str = "delta",
    health=None,
    health_every_ticks: Optional[int] = None,
) -> BatchSimulationResult:
    """Run the synchronous-round simulation on the chosen backend.

    ``dataset`` can be supplied to share one network universe between runs
    (e.g. scalar-vs-vectorized comparisons); otherwise one is generated
    from ``config.seed`` exactly as the event-driven runner would.

    ``publish_store`` is any :class:`~repro.service.publish.EpochPublisher`
    -- in practice the serving
    :class:`~repro.server.sharding.ShardedCoordinateStore` or a
    :class:`~repro.server.live.LiveServingHarness`; each epoch's arrays
    travel as arrays, never as per-node objects (the protocol module is
    dependency-light, so netsim still never imports the serving stack).
    The final application-level coordinates are always published when a
    store is attached; ``publish_every_ticks`` additionally publishes an
    epoch every that many ticks, each a new immutable version.

    ``publish_mode`` selects how those epochs travel: ``"delta"`` (the
    default) publishes only the changed rows after the first full epoch
    -- a node counts as changed iff it received samples or its row moved
    since the previous publish -- via
    :meth:`~repro.service.publish.EpochPublisher.publish_delta`, which is
    what makes millisecond epoch rollover possible at low churn;
    ``"full"`` publishes every epoch whole, exactly the old behaviour.
    Either way each published epoch adopts the backend's (detached)
    application-level arrays -- one ``(n, d)`` materialisation per epoch,
    never per-node objects -- and the resulting store state is
    byte-identical between the two modes.

    ``health`` is anything exposing ``observe_epoch(node_ids, components,
    heights, *, version, time_s)`` -- in practice a
    :class:`~repro.obs.health.HealthTracker` (duck-typed so netsim never
    imports the obs layer).  It observes every published epoch, and --
    when ``health_every_ticks`` is set -- every that many ticks even
    without a store, always from the same detached application-level
    arrays, at most once per tick.
    """
    if backend not in BACKEND_KINDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_KINDS}")
    setup_started = time.perf_counter()
    if dataset is None:
        dataset = PlanetLabDataset.generate(
            config.nodes, seed=config.seed, parameters=config.dataset
        )
    host_ids = dataset.topology.host_ids
    if len(host_ids) < config.nodes:
        raise ValueError(
            f"dataset provides {len(host_ids)} hosts but the simulation needs {config.nodes}"
        )
    host_ids = host_ids[: config.nodes]
    n = len(host_ids)

    measurement_start = (
        config.measurement_start_s
        if config.measurement_start_s is not None
        else config.duration_s / 2.0
    )
    interval = config.protocol.sampling_interval_s
    ticks = max(1, int(math.floor(config.duration_s / interval)))

    neighbor_matrix, neighbor_counts = build_neighbor_table(
        n, config.bootstrap_neighbors, config.seed
    )
    sampler = BatchLinkSampler(dataset, host_ids, neighbor_matrix, neighbor_counts)
    churn = (
        BatchChurnSchedule(n, config.churn, config.duration_s, config.seed)
        if config.churn is not None
        else None
    )
    backend_impl = make_backend(
        backend, host_ids, config.node_config, neighbor_matrix.shape[1]
    )
    metrics = BatchMetrics(host_ids, config.node_config.vivaldi.dimensions, measurement_start)

    loss_rng = derive_rng(config.seed, "batch-protocol")
    link_rng = derive_rng(config.seed, "batch-links")
    loss_probability = config.network.loss_probability
    round_robin = np.zeros(n, dtype=np.int64)
    all_nodes = np.arange(n, dtype=np.int64)

    if publish_mode not in ("full", "delta"):
        raise ValueError(
            f"unknown publish_mode {publish_mode!r}; expected 'full' or 'delta'"
        )
    if publish_every_ticks is not None:
        if publish_store is None:
            raise ValueError(
                f"publish_every_ticks={publish_every_ticks!r} requires a "
                "publish_store; pass publish_store= (any EpochPublisher, e.g. "
                "ShardedCoordinateStore or LiveServingHarness) "
                "together with publish_every_ticks, or drop publish_every_ticks"
            )
        if publish_every_ticks < 1:
            raise ValueError(
                f"publish_every_ticks must be >= 1, got {publish_every_ticks!r}"
            )
    if publish_store is not None and not isinstance(publish_store, EpochPublisher):
        raise TypeError(
            f"publish_store must implement the EpochPublisher protocol "
            f"(publish_epoch + publish_delta); got {type(publish_store).__name__}"
        )
    if health_every_ticks is not None:
        if health is None:
            raise ValueError("health_every_ticks requires a health tracker")
        if health_every_ticks < 1:
            raise ValueError("health_every_ticks must be >= 1")

    samples_attempted = 0
    samples_completed = 0
    sample_seconds = 0.0
    metrics_seconds = 0.0
    publish_seconds = 0.0
    health_seconds = 0.0
    snapshots_published = 0
    health_observed_tick = -1
    #: Delta-publish state: which rows received samples since the last
    #: publish, and the arrays of the last published epoch (detached per
    #: the backend protocol, so retaining them is safe).
    sampled_since_publish = np.zeros(n, dtype=bool)
    prev_components: Optional[np.ndarray] = None
    prev_heights: Optional[np.ndarray] = None
    delta_rows_published = 0
    setup_s = time.perf_counter() - setup_started

    def observe_health(t: float, tick: int, components=None, heights=None) -> None:
        nonlocal health_seconds, health_observed_tick
        if health is None or tick == health_observed_tick:
            return
        phase_started = time.perf_counter()
        if components is None:
            components, heights = backend_impl.coordinate_arrays(level="application")
        health.observe_epoch(
            host_ids,
            components,
            heights,
            version=snapshots_published if snapshots_published else None,
            time_s=t,
        )
        health_observed_tick = tick
        health_seconds += time.perf_counter() - phase_started

    def publish_epoch(label: str, t: float, tick: int) -> None:
        nonlocal publish_seconds, snapshots_published
        nonlocal prev_components, prev_heights, delta_rows_published
        phase_started = time.perf_counter()
        # Application-level arrays are detached per the backend protocol,
        # so the store can adopt (and freeze) them without another copy.
        components, heights = backend_impl.coordinate_arrays(level="application")
        if publish_mode == "full" or prev_components is None:
            # The first epoch is always full: it establishes the
            # population the deltas are relative to.
            publish_store.publish_epoch(host_ids, components, heights, source=label)
        else:
            # Changed iff sampled since the last publish OR the row moved
            # (belt and braces: a row can move without sampling, e.g.
            # post-hoc corrections, and sample without moving).  Unchanged
            # rows are bit-identical to the base generation's, which is
            # what keeps delta publishes byte-identical to full rebuilds.
            changed = sampled_since_publish | (
                (components != prev_components).any(axis=1)
                | (heights != prev_heights)
            )
            rows = np.nonzero(changed)[0]
            delta = EpochDelta(
                [host_ids[row] for row in rows],
                components[rows],
                heights[rows],
                source=label,
                epoch=tick,
            )
            publish_store.publish_delta(delta)
            delta_rows_published += int(rows.shape[0])
        prev_components, prev_heights = components, heights
        sampled_since_publish[:] = False
        snapshots_published += 1
        publish_seconds += time.perf_counter() - phase_started
        observe_health(t, tick, components, heights)

    run_started = time.perf_counter()
    for k in range(ticks):
        t = (k + 1) * interval

        phase_started = time.perf_counter()
        online = churn.online_mask(t) if churn is not None else np.ones(n, dtype=bool)
        observers = all_nodes[online]
        slots = round_robin[observers] % neighbor_counts[observers]
        targets = neighbor_matrix[observers, slots]
        round_robin[observers] += 1
        samples_attempted += int(observers.shape[0])

        answering = online[targets]
        observers = observers[answering]
        slots = slots[answering]
        targets = targets[answering]
        if loss_probability > 0.0 and observers.shape[0]:
            delivered = loss_rng.uniform(size=observers.shape[0]) >= loss_probability
            observers = observers[delivered]
            slots = slots[delivered]
            targets = targets[delivered]
        samples_completed += int(observers.shape[0])
        rtt = sampler.sample(observers, slots, t, link_rng)
        sample_seconds += time.perf_counter() - phase_started

        outcome = backend_impl.tick(
            TickObservations(node_idx=observers, peer_idx=targets, slot_idx=slots, rtt_ms=rtt)
        )

        phase_started = time.perf_counter()
        metrics.record_tick(t, observers, outcome)
        metrics_seconds += time.perf_counter() - phase_started

        if publish_store is not None and observers.shape[0]:
            sampled_since_publish[observers] = True

        if publish_every_ticks is not None and (k + 1) % publish_every_ticks == 0:
            publish_epoch(f"batch:{backend}:tick{k + 1}", t, k + 1)
        if health_every_ticks is not None and (k + 1) % health_every_ticks == 0:
            observe_health(t, k + 1)
    if publish_store is not None:
        publish_epoch(f"batch:{backend}:final", ticks * interval, ticks)
    elif health is not None:
        observe_health(ticks * interval, ticks)
    run_s = time.perf_counter() - run_started

    profile: Dict[str, float] = {}
    if collect_profile:
        profile = {
            "ticks": float(ticks),
            "sample_s": round(sample_seconds, 6),
            "metrics_s": round(metrics_seconds, 6),
            "run_s": round(run_s, 6),
            "setup_s": round(setup_s, 6),
            "ticks_per_s": round(ticks / run_s, 3) if run_s > 0 else float("inf"),
        }
        if publish_store is not None:
            profile["publish_s"] = round(publish_seconds, 6)
            profile["snapshots_published"] = float(snapshots_published)
            if publish_mode == "delta":
                profile["delta_rows_published"] = float(delta_rows_published)
        if health is not None:
            profile["health_s"] = round(health_seconds, 6)
        for phase, seconds in backend_impl.phase_seconds.items():
            profile[f"{phase}_s"] = round(seconds, 6)

    return BatchSimulationResult(
        config=config,
        backend=backend,
        host_ids=host_ids,
        metrics=metrics,
        samples_attempted=samples_attempted,
        samples_completed=samples_completed,
        ticks=ticks,
        churn_transitions=churn.transitions if churn is not None else 0,
        setup_s=setup_s,
        run_s=run_s,
        profile=profile,
        final_application=backend_impl.final_coordinates(level="application"),
        final_system=backend_impl.final_coordinates(level="system"),
        final_application_arrays=backend_impl.coordinate_arrays(level="application"),
        final_system_arrays=backend_impl.coordinate_arrays(level="system"),
        snapshots_published=snapshots_published,
    )
