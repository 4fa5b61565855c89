"""Streaming coordinate-health: the paper's quality metrics, live.

The offline experiments answer "are the coordinates any good?" after the
fact: fig05 plots relative embedding error CDFs, fig07 tracks drift
(coordinates moving consistently to reflect real network change), fig11
compares application-level against raw coordinates.  This module makes
the same quantities available *while the system runs*, computed
incrementally per published epoch directly from the vectorized
``(n, d)`` arrays -- no per-node objects, no second pass over history.

Per epoch, :class:`HealthTracker` computes:

* **Relative embedding error** (fig05): ``|predicted - actual| /
  actual`` over a seed-derived sample of node pairs, where the
  prediction is the coordinate distance (``||xi - xj|| + hi + hj``) and
  the actual RTT comes from a ``true_rtt`` oracle when one exists (the
  simulation knows its dataset) or from the first observed epoch's
  predictions otherwise (self-reference: the serving store can still
  detect *corruption* of a stream whose geometry should be stable).
  The headline median/p95 are windowed over the last ``window`` epochs.
* **Drift** (fig07): centroid velocity (displacement of the population
  centroid per unit time) plus the per-node displacement distribution
  between consecutive epochs, recorded into a fixed-bucket histogram so
  shard-wise computations merge exactly.
* **Neighbor-set churn**: for a seed-derived sample of nodes, the
  fraction of each node's k nearest neighbors (in coordinate space)
  replaced since the previous epoch -- embedding stability as an
  application would feel it.

A publish that moves a few rows does per-node work for those rows only.
The tracker diffs each epoch's arrays against the ones it retained from
the previous epoch.  Drift displaces the unmoved rest by exactly 0.0,
which the histogram counts without seeing them; when those zeros hold
both displacement quantiles, the read-out is 0.0 without a partition.
Neighbor churn never scans the population for a delta that leaves the
population and the target in place.  Each sampled target keeps a
*reserve*: its rows ranked by ``(distance, row)`` up to a *bound* key,
at most ``k + _RESERVE`` of them, with every other row ranking after the
bound.  After such a delta the reserve's unmoved rows keep their
distances, and a moved row joins iff its new key is at or before the
bound, so the reserve is again exactly the rows up to the bound and its
first k are the new neighbor set.  The bound never moves up; the reserve
shrinks as its rows move away, and only when it falls below k rows (or
the target moved, the population changed, or this is the first epoch)
does the target pay a population scan, which refills it to the full
depth.  ``health_knn_rescans_total`` counts those scans.

There is no second code path: a first epoch, a changed population or an
epoch in which every row moved runs the same routines, and a property
test pins the self-diffing tracker to one told that every row moved:
identical snapshots, histograms and Prometheus text.  The ``(distance,
row)`` order makes equal-distance ties rank the same in a scan and in
a reserve merge.

Everything is deterministic: the pair/target samples derive from
``(seed, label)`` via :func:`~repro.stats.sampling.derive_rng`, no wall
clock is read, and all histograms use fixed bucket schemes, so two
seeded runs produce byte-identical snapshots, summaries, event logs and
Prometheus text -- and per-shard displacement histograms merge into
exactly the single-tracker histogram (both properties are pinned by
tests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.obs.events import EventLog
from repro.obs.registry import BucketScheme, LatencyHistogram, TelemetryRegistry
from repro.stats.sampling import derive_rng

__all__ = [
    "DISPLACEMENT_SCHEME",
    "ERROR_SCHEME",
    "HealthSnapshot",
    "HealthTracker",
]

#: Relative error is dimensionless and spans machine epsilon (a healthy
#: self-referenced stream) to O(100) (a badly corrupted embedding).
ERROR_SCHEME = BucketScheme(lo=1e-6, per_decade=10, decades=8)

#: Per-epoch node displacement in coordinate milliseconds.
DISPLACEMENT_SCHEME = BucketScheme(lo=1e-3, per_decade=10, decades=7)

#: Guard against division by a zero "actual" RTT.
_EPSILON = 1e-9

#: Rows a kNN churn target keeps beyond its k nearest, so a delta can
#: certify the new neighbor set without a population scan (module
#: docstring).
_RESERVE = 64

#: Distances per block when scoring many kNN targets at once.
_BLOCK_CELLS = 1 << 16


class _Reserve(NamedTuple):
    """One kNN target's certified neighbourhood in one epoch.

    ``rows`` (with their ``distances``) are every row that ranks at or
    before ``bound`` by ``(distance, row)``, in that order; the target
    and NaN distances are never ranked.  ``bound`` None means the rows
    are all that have a distance.  ``neighbors`` are the first k ids.
    """

    neighbors: frozenset
    rows: np.ndarray
    distances: np.ndarray
    bound: Optional[Tuple[float, int]]


@dataclass(frozen=True, slots=True)
class HealthSnapshot:
    """One epoch's health read-out (JSON-safe via :meth:`to_dict`)."""

    epoch: int
    version: Optional[int]
    time_s: Optional[float]
    nodes: int
    #: This epoch's relative-error sample percentiles (None before the
    #: first epoch with a usable pair sample).
    relative_error_median: Optional[float]
    relative_error_p95: Optional[float]
    relative_error_mean: Optional[float]
    #: Centroid displacement per unit time since the previous epoch.
    drift_velocity: Optional[float]
    #: Per-node displacement distribution since the previous epoch.
    displacement_median: Optional[float]
    displacement_p95: Optional[float]
    #: Fraction of sampled nodes' k nearest neighbors replaced.
    neighbor_churn: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "version": self.version,
            "time_s": self.time_s,
            "nodes": self.nodes,
            "relative_error_median": self.relative_error_median,
            "relative_error_p95": self.relative_error_p95,
            "relative_error_mean": self.relative_error_mean,
            "drift_velocity": self.drift_velocity,
            "displacement_median": self.displacement_median,
            "displacement_p95": self.displacement_p95,
            "neighbor_churn": self.neighbor_churn,
        }


def _as_float(value: Optional[np.floating]) -> Optional[float]:
    return None if value is None else float(value)


class HealthTracker:
    """Incremental per-epoch coordinate-health computation.

    Feed it every published epoch via :meth:`observe_epoch`; read the
    latest :class:`HealthSnapshot`, the aggregate :meth:`summary`, or
    the registered gauges/histograms.  One tracker observes one
    coordinate stream; it is not thread-safe (publishes are already
    serialised by their store's ingest lock).

    ``true_rtt(node_a, node_b, time_s) -> float`` supplies ground-truth
    RTTs when the owner has them (the simulation's dataset).  Without
    it, the first observed epoch's predicted distances become the
    reference -- relative error then measures deviation from the
    initially-published geometry, which is exactly the corruption
    signal a serving store can compute without an oracle.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        sample_pairs: int = 128,
        knn_k: int = 8,
        knn_sample: int = 32,
        window: int = 64,
        registry: Optional[TelemetryRegistry] = None,
        events: Optional[EventLog] = None,
        true_rtt: Optional[Callable[[str, str, float], float]] = None,
        label: str = "health",
        max_snapshots: int = 4096,
    ) -> None:
        if sample_pairs < 1:
            raise ValueError("sample_pairs must be >= 1")
        if knn_k < 1 or knn_sample < 1:
            raise ValueError("knn_k and knn_sample must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.seed = seed
        self.sample_pairs = sample_pairs
        self.knn_k = knn_k
        self.knn_sample = knn_sample
        self.window = window
        self.label = label
        self.true_rtt = true_rtt
        self.events = events
        self.registry = registry if registry is not None else TelemetryRegistry()

        # Seed-derived samples, materialised on the first observed epoch
        # (the population defines the sample space).
        self._pair_ids: Optional[List[Tuple[str, str]]] = None
        self._knn_target_ids: Optional[List[str]] = None
        self._reference: Optional[np.ndarray] = None

        # Previous-epoch state for the incremental deltas.
        self._prev_node_ids: Optional[Sequence[str]] = None
        self._prev_ids: Optional[Tuple[str, ...]] = None
        self._prev_index_of: Optional[Mapping[str, int]] = None
        self._prev_components: Optional[np.ndarray] = None
        self._prev_heights: Optional[np.ndarray] = None
        self._prev_centroid: Optional[np.ndarray] = None
        self._prev_time: Optional[float] = None
        #: Per kNN target: its reserve in the previous epoch.
        self._prev_knn: Dict[str, _Reserve] = {}

        # Aggregates.
        self._epochs = 0
        self._last: Optional[HealthSnapshot] = None
        self._path_ms = 0.0
        self._drift_dt = 0.0
        self._churn_sum = 0.0
        self._churn_epochs = 0
        self._error_window: deque = deque(maxlen=window)
        self.snapshots: deque = deque(maxlen=max_snapshots)

        # Instruments (fixed names + schemes: merges and Prometheus
        # renders stay byte-deterministic).
        self._g_err_median = self.registry.gauge(
            "health_relative_error_median",
            "Windowed median relative embedding error (fig05, live).",
        )
        self._g_err_p95 = self.registry.gauge(
            "health_relative_error_p95",
            "Windowed p95 relative embedding error (fig05, live).",
        )
        self._g_drift = self.registry.gauge(
            "health_drift_velocity_ms",
            "Centroid displacement per unit time (fig07, live).",
        )
        self._g_churn = self.registry.gauge(
            "health_neighbor_churn",
            "Fraction of sampled nodes' k nearest neighbors replaced.",
        )
        self._c_epochs = self.registry.counter(
            "health_epochs_total", "Epochs observed by the health tracker."
        )
        self._h_error = self.registry.histogram(
            "health_relative_error",
            "Per-pair relative embedding error, all observed epochs.",
            scheme=ERROR_SCHEME,
        )
        self._h_displacement = self.registry.histogram(
            "health_node_displacement_ms",
            "Per-node displacement between consecutive epochs.",
            scheme=DISPLACEMENT_SCHEME,
        )
        self._c_knn_targets = self.registry.counter(
            "health_knn_targets_total",
            "kNN churn targets evaluated, all observed epochs.",
        )
        self._c_knn_rescans = self.registry.counter(
            "health_knn_rescans_total",
            "kNN churn targets whose neighbor set needed a population scan.",
        )

    # ------------------------------------------------------------------
    # Sampling (first epoch)
    # ------------------------------------------------------------------
    def _materialise_samples(self, node_ids: Sequence[str]) -> None:
        n = len(node_ids)
        pairs: List[Tuple[str, str]] = []
        if n >= 2:
            rng = derive_rng(self.seed, f"{self.label}:pairs")
            count = min(self.sample_pairs, n * (n - 1) // 2)
            first = rng.integers(0, n, size=count)
            offset = rng.integers(1, n, size=count)
            second = (first + offset) % n
            pairs = [
                (node_ids[int(a)], node_ids[int(b)])
                for a, b in zip(first, second)
            ]
        self._pair_ids = pairs
        targets: List[str] = []
        if n >= 2:
            rng = derive_rng(self.seed, f"{self.label}:knn")
            chosen = rng.choice(n, size=min(self.knn_sample, n), replace=False)
            targets = [node_ids[int(row)] for row in np.sort(chosen)]
        self._knn_target_ids = targets

    # ------------------------------------------------------------------
    # The per-epoch observation
    # ------------------------------------------------------------------
    def observe_epoch(
        self,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
        *,
        version: Optional[int] = None,
        time_s: Optional[float] = None,
        row_index: Optional[Mapping[str, int]] = None,
    ) -> HealthSnapshot:
        """Fold one published epoch into the health stream.

        ``node_ids`` and the arrays are retained (not copied) as the
        next epoch's reference, so callers must not write to them
        afterwards; the per-node work is done only for rows that differ
        from the retained ones (see the module docstring).  Passing the
        previous epoch's ``node_ids`` object again skips comparing the
        populations.  ``row_index``, the publisher's own ``{node_id:
        row}`` map over ``node_ids`` (a snapshot's ``row_index``), is
        read and retained instead of a map the tracker would build.
        """
        ids = self._prev_ids if node_ids is self._prev_node_ids else tuple(node_ids)
        components = np.ascontiguousarray(components, dtype=np.float64)
        if components.ndim != 2 or components.shape[0] != len(ids):
            raise ValueError(
                f"components must be ({len(ids)}, d); got {components.shape}"
            )
        heights = (
            np.zeros(len(ids))
            if heights is None
            else np.asarray(heights, dtype=np.float64)
        )
        if heights.shape != (len(ids),):
            raise ValueError(f"heights must be ({len(ids)},); got {heights.shape}")
        if self._pair_ids is None:
            self._materialise_samples(ids)
        if (
            self._prev_components is not None
            and components.shape[1] != self._prev_components.shape[1]
        ):
            # A new dimensionality shares no geometry with the retained
            # epoch: no row is compared with it.
            self._prev_index_of = None
        same_rows = self._prev_index_of is not None and (
            ids is self._prev_ids or ids == self._prev_ids
        )
        # Without a row-for-row correspondence to the retained epoch,
        # nothing can be skipped.
        moved = self._moved_rows(components, heights) if same_rows else None
        if row_index is not None:
            index_of = row_index
        elif same_rows:
            index_of = self._prev_index_of
        else:
            index_of = {node_id: row for row, node_id in enumerate(ids)}

        errors = self._observe_errors(index_of, components, heights, time_s)
        drift_velocity, disp_median, disp_p95 = self._observe_drift(
            ids, index_of, components, heights, time_s, moved
        )
        churn = self._observe_churn(ids, index_of, components, heights, moved)

        self._epochs += 1
        self._c_epochs.inc()
        if errors is not None and errors.size:
            window_values = np.concatenate(list(self._error_window))
            median, p95 = np.percentile(window_values, [50.0, 95.0])
            self._g_err_median.set(float(median))
            self._g_err_p95.set(float(p95))
        if drift_velocity is not None:
            self._g_drift.set(drift_velocity)
        if churn is not None:
            self._g_churn.set(churn)

        snapshot = HealthSnapshot(
            epoch=self._epochs,
            version=version,
            time_s=time_s,
            nodes=len(ids),
            relative_error_median=(
                _as_float(np.percentile(errors, 50.0))
                if errors is not None and errors.size
                else None
            ),
            relative_error_p95=(
                _as_float(np.percentile(errors, 95.0))
                if errors is not None and errors.size
                else None
            ),
            relative_error_mean=(
                _as_float(np.mean(errors))
                if errors is not None and errors.size
                else None
            ),
            drift_velocity=drift_velocity,
            displacement_median=disp_median,
            displacement_p95=disp_p95,
            neighbor_churn=churn,
        )
        self._last = snapshot
        self.snapshots.append(snapshot)
        if self.events is not None:
            self.events.emit("health_snapshot", **snapshot.to_dict())

        self._prev_node_ids = node_ids
        self._prev_ids = ids
        self._prev_index_of = index_of
        self._prev_components = components
        self._prev_heights = heights
        self._prev_time = time_s
        return snapshot

    # -- relative error -------------------------------------------------
    def _observe_errors(
        self,
        index_of: Mapping[str, int],
        components: np.ndarray,
        heights: np.ndarray,
        time_s: Optional[float],
    ) -> Optional[np.ndarray]:
        assert self._pair_ids is not None
        pairs = [
            (index_of[a], index_of[b])
            for a, b in self._pair_ids
            if a in index_of and b in index_of
        ]
        if not pairs:
            return None
        rows_a = np.fromiter((a for a, _ in pairs), dtype=np.int64)
        rows_b = np.fromiter((b for _, b in pairs), dtype=np.int64)
        delta = components[rows_a] - components[rows_b]
        predicted = np.sqrt(np.sum(delta * delta, axis=1))
        predicted = predicted + heights[rows_a] + heights[rows_b]
        if self.true_rtt is not None:
            at = 0.0 if time_s is None else float(time_s)
            ids = list(self._pair_ids)
            actual = np.fromiter(
                (
                    self.true_rtt(a, b, at)
                    for a, b in ids
                    if a in index_of and b in index_of
                ),
                dtype=np.float64,
                count=len(pairs),
            )
        else:
            if self._reference is None:
                # Self-reference mode: this first epoch *is* the truth.
                self._reference = predicted
            actual = self._reference
            if actual.shape != predicted.shape:
                # Population changed under self-reference; re-anchor.
                self._reference = predicted
                actual = predicted
        errors = np.abs(predicted - actual) / np.maximum(actual, _EPSILON)
        self._error_window.append(errors)
        self._h_error.observe_many(errors)
        return errors

    # -- the self-diff ---------------------------------------------------
    def _moved_rows(self, components: np.ndarray, heights: np.ndarray) -> np.ndarray:
        """Mask of rows that differ from the retained epoch (same population)."""
        moved = heights != self._prev_heights
        # The differing cells of the flat (row-major) array name their
        # rows: far cheaper than a per-row ``any`` when few differ.
        cells = np.flatnonzero(components != self._prev_components)
        moved[cells // components.shape[1]] = True
        return moved

    # -- drift ----------------------------------------------------------
    def _observe_drift(
        self,
        ids: Tuple[str, ...],
        index_of: Mapping[str, int],
        components: np.ndarray,
        heights: np.ndarray,
        time_s: Optional[float],
        moved: Optional[np.ndarray],
    ) -> Tuple[Optional[float], Optional[float], Optional[float]]:
        centroid = components.mean(axis=0) if components.shape[0] else None
        drift_velocity: Optional[float] = None
        disp_median: Optional[float] = None
        disp_p95: Optional[float] = None
        if (
            centroid is not None
            and self._prev_centroid is not None
            and centroid.shape == self._prev_centroid.shape
        ):
            dt = 1.0
            if (
                time_s is not None
                and self._prev_time is not None
                and time_s > self._prev_time
            ):
                dt = time_s - self._prev_time
            step = float(np.linalg.norm(centroid - self._prev_centroid))
            drift_velocity = step / dt
            self._path_ms += step
            self._drift_dt += dt
        self._prev_centroid = centroid
        if self._prev_index_of is None:
            return drift_velocity, None, None
        if moved is not None:
            now_rows = prev_rows = np.flatnonzero(moved)
            compared = len(ids)
        else:
            prev_index = self._prev_index_of
            common = [nid for nid in ids if nid in prev_index]
            now_rows = np.fromiter((index_of[nid] for nid in common), dtype=np.int64)
            prev_rows = np.fromiter(
                (prev_index[nid] for nid in common), dtype=np.int64
            )
            compared = len(common)
        if not compared:
            return drift_velocity, None, None
        delta = components[now_rows] - self._prev_components[prev_rows]
        dh = heights[now_rows] - self._prev_heights[prev_rows]
        # The compared rows left out of ``now_rows`` are bit-equal to
        # their retained selves, so each displaced by exactly 0.0.
        moved_by = np.sqrt(np.sum(delta * delta, axis=1)) + np.abs(dh)
        zeros = compared - moved_by.size + int(np.count_nonzero(moved_by == 0.0))
        if zeros > 0.95 * compared + 2 and not np.isnan(moved_by).any():
            # Both quantiles interpolate between ranks inside the block
            # of zeros at the front of the sorted displacements.
            disp_median = disp_p95 = 0.0
        else:
            displacement = np.zeros(compared)
            displacement[: moved_by.size] = moved_by
            disp_median, disp_p95 = (
                float(value) for value in np.percentile(displacement, [50.0, 95.0])
            )
        self._h_displacement.observe_many(moved_by)
        self._h_displacement.observe_repeated(0.0, compared - moved_by.size)
        return drift_velocity, disp_median, disp_p95

    # -- neighbor churn --------------------------------------------------
    @staticmethod
    def _distances(
        components: np.ndarray, heights: np.ndarray, rows: Sequence[int], others
    ) -> np.ndarray:
        """Predicted RTT from each of ``rows`` to each of ``others`` (rows
        or a slice), one matrix row per ``rows`` entry.

        Squared component differences accumulate left to right, so each
        element is the same float whatever the batch (and, below eight
        dimensions, ``np.sum``'s).  Targets go in blocks of at most
        ``_BLOCK_CELLS`` distances.
        """
        other_components, other_heights = components[others], heights[others]
        rows = np.asarray(rows, dtype=np.intp)
        origins, origin_heights = components[rows], heights[rows, None]
        out = np.empty((rows.size, other_heights.shape[0]))
        block = max(1, _BLOCK_CELLS // max(other_heights.shape[0], 1))
        for start in range(0, rows.size, block):
            stop = start + block
            squares = np.zeros(out[start:stop].shape)
            for column in range(components.shape[1]):
                delta = other_components[:, column] - origins[start:stop, column, None]
                squares += delta * delta
            out[start:stop] = (np.sqrt(squares) + other_heights) + origin_heights[
                start:stop
            ]
        return out

    @staticmethod
    def _reserve(
        ids: Tuple[str, ...],
        rows: np.ndarray,
        distances: np.ndarray,
        bound: Optional[Tuple[float, int]],
        k: int,
    ) -> _Reserve:
        """The reserve of ``rows`` (ranked), at most ``k + _RESERVE`` deep.

        Cutting it short moves the bound down to its last row, which is
        always sound: every row cut off ranks after it.
        """
        if rows.size > k + _RESERVE:
            rows, distances = rows[: k + _RESERVE], distances[: k + _RESERVE]
            bound = (float(distances[-1]), int(rows[-1]))
        neighbors = frozenset(ids[idx] for idx in rows[:k].tolist())
        return _Reserve(neighbors, rows, distances, bound)

    def _scanned_reserve(
        self,
        ids: Tuple[str, ...],
        components: np.ndarray,
        heights: np.ndarray,
        row: int,
        k: int,
    ) -> _Reserve:
        """A target's full-depth reserve from one population scan."""
        distances = self._distances(components, heights, [row], slice(None))[0]
        # The target ranks nowhere, like a NaN distance (partition and
        # the ``<=`` below both leave NaN out).
        distances[row] = np.nan
        depth = min(k + _RESERVE, len(ids) - 1)
        cut = float(np.partition(distances, depth - 1)[depth - 1])
        # At most ``depth`` rows have a distance: the reserve is all of them.
        complete = np.isnan(cut) or depth == len(ids) - 1
        inside = np.flatnonzero(~np.isnan(distances) if complete else distances <= cut)
        # ``inside`` ascends by row and the sort is stable: ranked by
        # (distance, row).
        rows = inside[np.argsort(distances[inside], kind="stable")[:depth]]
        bound = None if complete else (float(distances[rows[-1]]), int(rows[-1]))
        return self._reserve(ids, rows, distances[rows], bound, k)

    def _merged_reserve(
        self,
        held: _Reserve,
        ids: Tuple[str, ...],
        moved: np.ndarray,
        moved_rows: np.ndarray,
        distances: np.ndarray,
        k: int,
    ) -> Optional[_Reserve]:
        """``held`` carried across a delta that left the target in place.

        ``distances`` are the target's to ``moved_rows``.  Unmoved
        reserve rows keep their distances; a moved row joins iff its new
        key ranks at or before the bound.  Rows outside the reserve that
        did not move still rank after the bound, so the result is exact.
        None when it has fewer than k rows and the bound hides others:
        only a scan can tell what ranks next.
        """
        if held.bound is None:
            joins = np.flatnonzero(~np.isnan(distances))
        else:
            bound_distance, bound_row = held.bound
            joins = np.flatnonzero(distances <= bound_distance)
            joins = joins[
                (distances[joins] < bound_distance) | (moved_rows[joins] <= bound_row)
            ]
        kept = ~moved[held.rows]
        if not joins.size and kept.all():
            return held
        rows = np.concatenate([held.rows[kept], moved_rows[joins]])
        if rows.size < k and held.bound is not None:
            return None
        merged = np.concatenate([held.distances[kept], distances[joins]])
        order = np.lexsort((rows, merged))
        return self._reserve(ids, rows[order], merged[order], held.bound, k)

    def _observe_churn(
        self,
        ids: Tuple[str, ...],
        index_of: Mapping[str, int],
        components: np.ndarray,
        heights: np.ndarray,
        moved: Optional[np.ndarray],
    ) -> Optional[float]:
        assert self._knn_target_ids is not None
        if len(ids) < 2 or not self._knn_target_ids:
            return None
        k = min(self.knn_k, len(ids) - 1)
        located = [
            (target, index_of[target])
            for target in self._knn_target_ids
            if target in index_of
        ]
        # Targets the delta left in place carry their reserves; one batch
        # scores all of them against the moved rows.
        carried: Dict[str, np.ndarray] = {}
        if moved is not None:
            moved_rows = np.flatnonzero(moved)
            stay = [
                (target, row)
                for target, row in located
                if target in self._prev_knn and not moved[row]
            ]
            matrix = self._distances(
                components, heights, [row for _, row in stay], moved_rows
            )
            carried = {target: matrix[i] for i, (target, _) in enumerate(stay)}
        current: Dict[str, _Reserve] = {}
        rescans = 0
        for target, row in located:
            reserve = None
            if target in carried:
                reserve = self._merged_reserve(
                    self._prev_knn[target], ids, moved, moved_rows, carried[target], k
                )
            if reserve is None:
                rescans += 1
                reserve = self._scanned_reserve(ids, components, heights, row, k)
            current[target] = reserve
        self._c_knn_targets.inc(len(current))
        self._c_knn_rescans.inc(rescans)
        churn: Optional[float] = None
        if self._prev_knn:
            shared = [t for t in current if t in self._prev_knn]
            if shared:
                replaced = [
                    1.0
                    - len(current[t].neighbors & self._prev_knn[t].neighbors)
                    / max(len(current[t].neighbors), 1)
                    for t in shared
                ]
                churn = float(np.mean(replaced))
                self._churn_sum += churn
                self._churn_epochs += 1
        self._prev_knn = current
        return churn

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> int:
        return self._epochs

    @property
    def last(self) -> Optional[HealthSnapshot]:
        return self._last

    @property
    def error_histogram(self) -> LatencyHistogram:
        return self._h_error

    @property
    def displacement_histogram(self) -> LatencyHistogram:
        return self._h_displacement

    def windowed_error_percentile(self, percentile: float) -> Optional[float]:
        """Exact percentile over the last ``window`` epochs' error samples."""
        if not self._error_window:
            return None
        values = np.concatenate(list(self._error_window))
        if not values.size:
            return None
        return float(np.percentile(values, percentile))

    def windowed_error_mean(self) -> Optional[float]:
        if not self._error_window:
            return None
        values = np.concatenate(list(self._error_window))
        if not values.size:
            return None
        return float(np.mean(values))

    def mean_drift_velocity(self) -> Optional[float]:
        """Centroid path length over elapsed drift time (fig07's headline)."""
        if self._drift_dt <= 0.0:
            return None
        return self._path_ms / self._drift_dt

    def summary(self) -> Dict[str, Any]:
        """The JSON-safe health section embedded in reports and payloads.

        Every value is a pure function of the observed epoch stream (no
        wall clock), so seeded runs produce byte-identical summaries.
        """
        last = self._last
        return {
            "epochs": self._epochs,
            "window": self.window,
            "nodes": last.nodes if last is not None else 0,
            "version": last.version if last is not None else None,
            "mode": "oracle" if self.true_rtt is not None else "self-reference",
            "relative_error": {
                "median": self.windowed_error_percentile(50.0),
                "p95": self.windowed_error_percentile(95.0),
                "mean": self.windowed_error_mean(),
                "count": self._h_error.count,
                "sample_pairs": len(self._pair_ids or ()),
            },
            "drift": {
                "velocity": last.drift_velocity if last is not None else None,
                "mean_velocity": self.mean_drift_velocity(),
                "path_ms": self._path_ms,
                "displacement_median": (
                    last.displacement_median if last is not None else None
                ),
                "displacement_p95": (
                    last.displacement_p95 if last is not None else None
                ),
                "displacement_quantiles": self._h_displacement.quantile_summary(),
            },
            "neighbor_churn": {
                "last": last.neighbor_churn if last is not None else None,
                "mean": (
                    self._churn_sum / self._churn_epochs
                    if self._churn_epochs
                    else None
                ),
                "k": self.knn_k,
                "sample": len(self._knn_target_ids or ()),
            },
        }

    def metrics_summary(self, prefix: str = "health_") -> Dict[str, Optional[float]]:
        """Flat scalar view for scenario metrics dictionaries."""
        last = self._last
        return {
            f"{prefix}epochs": float(self._epochs),
            f"{prefix}relative_error_median": self.windowed_error_percentile(50.0),
            f"{prefix}relative_error_p95": self.windowed_error_percentile(95.0),
            f"{prefix}drift_velocity": (
                last.drift_velocity if last is not None else None
            ),
            f"{prefix}drift_mean_velocity": self.mean_drift_velocity(),
            f"{prefix}displacement_p95": (
                last.displacement_p95 if last is not None else None
            ),
            f"{prefix}neighbor_churn": (
                last.neighbor_churn if last is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # Shard-wise merging
    # ------------------------------------------------------------------
    @staticmethod
    def merged_displacement(
        trackers: Sequence["HealthTracker"],
    ) -> LatencyHistogram:
        """Fold per-shard displacement histograms into one.

        Per-node displacement depends only on that node's own rows, so
        trackers fed disjoint node partitions merge into exactly the
        histogram a single tracker over the union stream records (the
        fixed bucket scheme makes the merge bucket-wise exact).
        """
        merged = LatencyHistogram(
            "health_node_displacement_ms", scheme=DISPLACEMENT_SCHEME
        )
        for tracker in trackers:
            merged.merge(tracker.displacement_histogram)
        return merged
