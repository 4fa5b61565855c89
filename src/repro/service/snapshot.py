"""Versioned coordinate snapshots: the query service's write path.

Coordinate producers (netsim hosts via their run's
:class:`~repro.metrics.collector.MetricsCollector`, trace replays, or any
``{node_id: Coordinate}`` stream) feed a :class:`SnapshotStore`.  Updates
are *staged* until :meth:`SnapshotStore.commit` publishes them as a new
immutable :class:`CoordinateSnapshot` with a monotonically increasing
version, so the read path always works against a consistent point-in-time
view:

* an open snapshot never changes -- ingest arriving mid-query cannot bleed
  into it (readers hold a frozen mapping; writers build the next version
  on the side);
* query results are attributable to a version, which is what makes the
  serving store's result cache sound (cache keys include the version, so
  serving a cached result can never mix coordinate generations);
* per-version spatial indexes are built lazily and memoised, so a batch of
  queries against one version pays one index build.

Two snapshot representations share one duck-typed read API:

* :class:`CoordinateSnapshot` -- the object-based form (a frozen
  ``{node_id: Coordinate}`` mapping), fed by ``apply``/``commit`` staging;
  this is the correctness oracle the array path is checked against.
* :class:`ArraySnapshot` -- the array-backed form: node ids plus ``(n, d)``
  component and ``(n,)`` height arrays, published whole via
  :meth:`SnapshotStore.publish_epoch` or incrementally via
  :meth:`SnapshotStore.publish_delta` (copy-on-write of the touched rows
  only, sharing the id list and row map with the base when no node joins
  or leaves; see :mod:`repro.service.publish`).  A batch simulation hands its
  state arrays straight in -- no per-node object materialisation -- and a
  ``dense`` index adopts them without copying.

Thread-safety: staging, commits and index memoisation take an internal
lock; published snapshots are immutable and safe to read from any thread
without coordination.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate
from repro.overlay.knn import CoordinateIndex
from repro.service.index import INDEX_KINDS, build_index
from repro.service.publish import EpochDelta

__all__ = ["ArraySnapshot", "CoordinateSnapshot", "SnapshotStore"]


def _as_array_snapshot(snapshot) -> "ArraySnapshot":
    """A non-empty ``snapshot`` itself when array-backed, else its object form lifted."""
    if isinstance(snapshot, ArraySnapshot):
        return snapshot
    node_ids = snapshot.node_ids()
    return ArraySnapshot(
        snapshot.version,
        node_ids,
        np.asarray(
            [snapshot.coordinates[node_id].components for node_id in node_ids],
            dtype=np.float64,
        ),
        np.asarray(
            [snapshot.coordinates[node_id].height for node_id in node_ids],
            dtype=np.float64,
        ),
        source=snapshot.source,
    )


class CoordinateSnapshot:
    """An immutable, versioned point-in-time view of node coordinates."""

    __slots__ = ("version", "coordinates", "source")

    def __init__(
        self,
        version: int,
        coordinates: Mapping[str, Coordinate],
        *,
        source: str = "",
    ) -> None:
        self.version = version
        #: Read-only mapping; the backing dict is owned by the snapshot and
        #: never mutated after construction.
        self.coordinates: Mapping[str, Coordinate] = MappingProxyType(dict(coordinates))
        #: Free-form provenance label (scenario name, trace id, ...).
        self.source = source

    def __len__(self) -> int:
        return len(self.coordinates)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.coordinates

    def coordinate_of(self, node_id: str) -> Optional[Coordinate]:
        return self.coordinates.get(node_id)

    def node_ids(self) -> List[str]:
        return list(self.coordinates)

    def items(self) -> Iterator[Tuple[str, Coordinate]]:
        return iter(self.coordinates.items())

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "source": self.source,
            "coordinates": {
                node_id: {
                    "components": list(coordinate.components),
                    "height": coordinate.height,
                }
                for node_id, coordinate in self.coordinates.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CoordinateSnapshot":
        if not isinstance(payload, Mapping):
            raise ValueError(
                "malformed snapshot: top-level JSON must be an object, "
                f"got {type(payload).__name__}"
            )
        entries = payload.get("coordinates")
        if not isinstance(entries, Mapping):
            raise ValueError("malformed snapshot: missing 'coordinates' mapping")
        coordinates = {}
        for node_id, entry in entries.items():
            try:
                components = entry["components"]
            except (TypeError, KeyError):
                raise ValueError(
                    f"malformed snapshot: entry for {node_id!r} has no 'components'"
                ) from None
            try:
                coordinates[node_id] = Coordinate(components, entry.get("height", 0.0))
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed snapshot: entry for {node_id!r}: {exc}"
                ) from None
        try:
            version = int(payload.get("version", 1))
        except (TypeError, ValueError):
            raise ValueError(
                f"malformed snapshot: 'version' must be an integer, "
                f"got {payload.get('version')!r}"
            ) from None
        return cls(version, coordinates, source=str(payload.get("source", "")))

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Path) -> "CoordinateSnapshot":
        """Load a snapshot JSON file.

        Every failure mode a caller can hit -- missing file, unreadable
        file, invalid JSON, valid JSON of the wrong shape -- surfaces as
        ``OSError`` or ``ValueError`` with the offending path in the
        message, so command-line front ends can report one clear line
        instead of a traceback.
        """
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise FileNotFoundError(f"snapshot file {path} does not exist") from None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"snapshot file {path} is not valid JSON: {exc}") from None
        try:
            return cls.from_dict(payload)
        except ValueError as exc:
            raise ValueError(f"snapshot file {path}: {exc}") from None


class ArraySnapshot:
    """An immutable, versioned snapshot backed by flat NumPy arrays.

    Same read API as :class:`CoordinateSnapshot` (duck-typed: ``version``,
    ``coordinate_of``, ``node_ids``, ``items``, ``coordinates``, ...), but
    the backing store is three aligned arrays instead of a mapping of
    per-node objects.  The arrays are *adopted*, not copied, and marked
    read-only -- the zero-copy half of the simulation -> service bridge.
    ``Coordinate`` objects are materialised lazily, one per
    ``coordinate_of`` lookup; batch consumers (the ``dense`` index) never
    materialise any.
    """

    __slots__ = (
        "version",
        "source",
        "_node_ids",
        "_components",
        "_heights",
        "_row_of",
        "_mapping",
    )

    def __init__(
        self,
        version: int,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
        *,
        source: str = "",
    ) -> None:
        components = np.asarray(components, dtype=np.float64)
        if components.ndim != 2 or components.shape[1] < 1:
            raise ValueError("components must be a (n, d) array with d >= 1")
        ids = list(node_ids)
        if len(ids) != components.shape[0]:
            raise ValueError(
                f"{len(ids)} node ids for {components.shape[0]} coordinate rows"
            )
        if heights is None:
            heights = np.zeros(len(ids), dtype=np.float64)
        else:
            heights = np.asarray(heights, dtype=np.float64)
            if heights.shape != (len(ids),):
                raise ValueError("heights must be a (n,) array aligned with node_ids")
        if len(ids) and (
            not np.isfinite(components).all()
            or not np.isfinite(heights).all()
            or (heights < 0.0).any()
        ):
            raise ValueError(
                "coordinate components must be finite and heights finite and non-negative"
            )
        components.setflags(write=False)
        heights.setflags(write=False)
        self.version = version
        self.source = source
        self._node_ids = ids
        self._components = components
        self._heights = heights
        self._row_of: Optional[Dict[str, int]] = None
        self._mapping: Optional[Mapping[str, Coordinate]] = None

    def _derived(
        self, version: int, components: np.ndarray, heights: np.ndarray, source: str
    ) -> "ArraySnapshot":
        """A same-population snapshot over new coordinate arrays.

        The derived snapshot *shares* this one's id list and
        ``{node_id: row}`` map (both immutable once published) instead of
        copying one and rebuilding the other: a delta that neither adds
        nor removes a node costs no per-node Python work.  The arrays
        must already be validated (copies of this snapshot's rows plus an
        :class:`~repro.service.publish.EpochDelta`'s).
        """
        components.setflags(write=False)
        heights.setflags(write=False)
        derived = object.__new__(ArraySnapshot)
        derived.version = version
        derived.source = source
        derived._node_ids = self._node_ids
        derived._components = components
        derived._heights = heights
        derived._row_of = self._row_index
        derived._mapping = None
        return derived

    # -- array access (the zero-copy read path) ------------------------
    def arrays(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``(node_ids, components (n, d), heights (n,))``, no copies."""
        return self._node_ids, self._components, self._heights

    # -- CoordinateSnapshot-compatible API -----------------------------
    def __len__(self) -> int:
        return len(self._node_ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._row_index

    @property
    def _row_index(self) -> Dict[str, int]:
        if self._row_of is None:
            self._row_of = {node_id: row for row, node_id in enumerate(self._node_ids)}
        return self._row_of

    def coordinate_of(self, node_id: str) -> Optional[Coordinate]:
        row = self._row_index.get(node_id)
        if row is None:
            return None
        return Coordinate(self._components[row].tolist(), float(self._heights[row]))

    def node_ids(self) -> List[str]:
        return list(self._node_ids)

    def items(self) -> Iterator[Tuple[str, Coordinate]]:
        for row, node_id in enumerate(self._node_ids):
            yield node_id, Coordinate(
                self._components[row].tolist(), float(self._heights[row])
            )

    @property
    def coordinates(self) -> Mapping[str, Coordinate]:
        """Object-based view, materialised once on first use.

        Exists so object-path consumers (non-dense index builds, commits
        layered on top of an array epoch) keep working; the hot read path
        never touches it.
        """
        if self._mapping is None:
            self._mapping = MappingProxyType(dict(self.items()))
        return self._mapping

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "source": self.source,
            "coordinates": {
                node_id: {
                    "components": self._components[row].tolist(),
                    "height": float(self._heights[row]),
                }
                for row, node_id in enumerate(self._node_ids)
            },
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")


class SnapshotStore:
    """Ingests streaming coordinate updates and publishes versioned views.

    Parameters
    ----------
    index_kind:
        Spatial index built for published versions (``linear``,
        ``vptree`` or ``dense``; see :mod:`repro.service.index`).
    history:
        How many published versions stay addressable through :meth:`at`
        (older versions are forgotten; their snapshots remain valid for
        any reader still holding one).
    """

    def __init__(self, *, index_kind: str = "vptree", history: int = 4) -> None:
        if index_kind not in INDEX_KINDS:
            raise ValueError(
                f"unknown index kind {index_kind!r}; known: {list(INDEX_KINDS)}"
            )
        if history < 1:
            raise ValueError("history must be >= 1")
        self.index_kind = index_kind
        self.history = history
        self._lock = threading.Lock()
        self._staged: Dict[str, Optional[Coordinate]] = {}
        self._latest = CoordinateSnapshot(0, {})
        self._versions: Dict[int, CoordinateSnapshot] = {0: self._latest}
        self._indexes: Dict[int, CoordinateIndex] = {}
        self._ingested = 0

    # -- ingest (write path) -------------------------------------------
    def apply(self, node_id: str, coordinate: Coordinate) -> None:
        """Stage one coordinate update for the next commit."""
        with self._lock:
            self._staged[node_id] = coordinate
            self._ingested += 1

    def apply_many(self, coordinates: Mapping[str, Coordinate]) -> None:
        with self._lock:
            for node_id, coordinate in coordinates.items():
                self._staged[node_id] = coordinate
                self._ingested += 1

    def retire(self, node_id: str) -> None:
        """Stage the removal of a node (e.g. it left the overlay)."""
        with self._lock:
            self._staged[node_id] = None
            self._ingested += 1

    def ingest_collector(self, collector, *, level: str = "application") -> None:
        """Stage every node's latest coordinate from a metrics collector.

        ``collector`` is anything exposing
        ``latest_coordinates(level=...)`` -- in practice the
        :class:`~repro.metrics.collector.MetricsCollector` attached to a
        netsim or replay run.
        """
        self.apply_many(collector.latest_coordinates(level=level))

    @property
    def pending_updates(self) -> int:
        """Staged updates awaiting the next commit."""
        with self._lock:
            return len(self._staged)

    @property
    def ingested_updates(self) -> int:
        """Total updates ever staged (commit resets nothing)."""
        with self._lock:
            return self._ingested

    def commit(self, *, source: str = "") -> CoordinateSnapshot:
        """Publish staged updates as a new immutable version.

        A no-op commit (nothing staged) returns the current snapshot
        without minting a new version.
        """
        with self._lock:
            if not self._staged:
                return self._latest
            merged = dict(self._latest.coordinates)
            for node_id, coordinate in self._staged.items():
                if coordinate is None:
                    merged.pop(node_id, None)
                else:
                    merged[node_id] = coordinate
            self._staged.clear()
            snapshot = CoordinateSnapshot(
                self._latest.version + 1, merged, source=source or self._latest.source
            )
            self._publish_locked(snapshot)
            return snapshot

    def _publish_locked(self, snapshot) -> None:
        """Install ``snapshot`` as latest and sweep history (lock held)."""
        self._latest = snapshot
        self._versions[snapshot.version] = snapshot
        floor = snapshot.version - self.history + 1
        for version in [v for v in self._versions if v < floor]:
            self._versions.pop(version, None)
        # Swept independently of _versions: index_for() may have
        # memoised an index whose version was already evicted above.
        for version in [v for v in self._indexes if v < floor]:
            self._indexes.pop(version, None)

    def publish_epoch(
        self,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
        *,
        source: str = "",
    ) -> ArraySnapshot:
        """Publish whole-population arrays as the next immutable version.

        The full half of the :class:`~repro.service.publish.EpochPublisher`
        protocol and the zero-copy ingest path: the arrays are adopted
        (and frozen) as an :class:`ArraySnapshot` -- no staging dict, no
        per-node ``Coordinate`` objects.  Pass copies when the source
        arrays keep mutating (a still-running simulation); a finished
        epoch can be handed over as-is.  Raises if object updates are
        currently staged, so a mixed write pattern can never silently
        drop them.
        """
        with self._lock:
            if self._staged:
                raise ValueError(
                    "cannot publish an array snapshot while object updates are "
                    "staged; commit() or discard them first"
                )
            snapshot = ArraySnapshot(
                self._latest.version + 1,
                node_ids,
                components,
                heights,
                source=source or self._latest.source,
            )
            self._publish_locked(snapshot)
            self._ingested += len(snapshot)
            return snapshot

    def publish_delta(self, delta: EpochDelta) -> ArraySnapshot:
        """Apply an incremental epoch on top of the latest version.

        The incremental half of the
        :class:`~repro.service.publish.EpochPublisher` protocol.  The new
        :class:`ArraySnapshot` is built by copy-on-write: the base arrays
        are copied once (a straight memcpy), only the touched rows are
        rewritten, removed rows are compacted out and genuinely new nodes
        append after the survivors -- exactly the population a
        from-scratch publish of the final state would hold, byte for
        byte.  A delta that leaves the population unchanged (the steady
        state: rows move, nobody joins or leaves) does no per-node
        Python work at all: the new snapshot *shares* the base's id list
        and ``{node_id: row}`` map, both immutable once published, so
        ``arrays()[0]`` and the map behind ``coordinate_of`` are the very
        objects the base holds.  Only a removal or an addition pays for
        fresh ones.  When the base version's spatial index is memoised, the new
        version's index is *derived* from it incrementally
        (``delta_applied``) instead of rebuilt, which is what makes
        millisecond epoch rollover possible at low churn; past the
        overlay budget the derivation declines and the next query
        compacts via an ordinary full build.

        An empty delta still mints a new version (sharing the base
        arrays), keeping delta-fed and full-fed stores in version
        lockstep.
        """
        if not isinstance(delta, EpochDelta):
            raise TypeError(
                f"publish_delta() needs an EpochDelta, got {type(delta).__name__}"
            )
        with self._lock:
            if self._staged:
                raise ValueError(
                    "cannot publish a delta while object updates are "
                    "staged; commit() or discard them first"
                )
            base = self._latest
            prev_index = self._indexes.get(base.version)
            snapshot = self._apply_delta_locked(base, delta)
            self._publish_locked(snapshot)
            self._ingested += delta.changed_count
            if prev_index is not None:
                derive = getattr(prev_index, "delta_applied", None)
                if derive is not None:
                    derived = derive(
                        delta.node_ids,
                        delta.components,
                        delta.heights,
                        delta.removed_ids,
                    )
                    if derived is not None:
                        self._indexes[snapshot.version] = derived
            return snapshot

    def _apply_delta_locked(self, base, delta: EpochDelta) -> ArraySnapshot:
        """The base snapshot with ``delta`` applied, as a new ArraySnapshot."""
        source = delta.source or base.source
        if not len(base):
            # Empty base: the delta's rows are the whole population
            # (removals of unknown ids are ignored, as everywhere).
            return ArraySnapshot(
                base.version + 1,
                list(delta.node_ids),
                delta.components,
                delta.heights,
                source=source,
            )
        base = _as_array_snapshot(base)
        node_ids, components, heights = base.arrays()
        changed = delta.node_ids
        if not changed and not delta.removed_ids:
            # Version lockstep without copying: share the frozen arrays.
            return base._derived(base.version + 1, components, heights, source)
        if changed and delta.components.shape[1] != components.shape[1]:
            raise ValueError(
                f"delta dimensionality {delta.components.shape[1]} does not "
                f"match snapshot dimensionality {components.shape[1]}"
            )
        row_of = base._row_index
        work_components = components.copy()
        work_heights = heights.copy()
        existing_rows: List[int] = []
        existing_positions: List[int] = []
        added_positions: List[int] = []
        for position, node_id in enumerate(changed):
            row = row_of.get(node_id)
            if row is None:
                added_positions.append(position)
            else:
                existing_rows.append(row)
                existing_positions.append(position)
        if existing_rows:
            work_components[existing_rows] = delta.components[existing_positions]
            work_heights[existing_rows] = delta.heights[existing_positions]
        removed_rows = [
            row_of[node_id] for node_id in delta.removed_ids if node_id in row_of
        ]
        if not removed_rows and not added_positions:
            # Population unchanged: same ids, same rows, new coordinates.
            return base._derived(
                base.version + 1, work_components, work_heights, source
            )
        new_ids = list(node_ids)
        if removed_rows:
            keep = np.ones(len(node_ids), dtype=bool)
            keep[removed_rows] = False
            work_components = work_components[keep]
            work_heights = work_heights[keep]
            removed = set(delta.removed_ids)
            new_ids = [node_id for node_id in node_ids if node_id not in removed]
        if added_positions:
            work_components = np.concatenate(
                [work_components, delta.components[added_positions]]
            )
            work_heights = np.concatenate(
                [work_heights, delta.heights[added_positions]]
            )
            new_ids.extend(changed[position] for position in added_positions)
        return ArraySnapshot(
            base.version + 1, new_ids, work_components, work_heights, source=source
        )

    # -- read path ------------------------------------------------------
    def latest(self) -> CoordinateSnapshot:
        """The most recently committed snapshot (version 0 when empty)."""
        with self._lock:
            return self._latest

    @property
    def version(self) -> int:
        return self.latest().version

    def at(self, version: int) -> CoordinateSnapshot:
        """A retained historical version; raises KeyError once evicted."""
        with self._lock:
            try:
                return self._versions[version]
            except KeyError:
                raise KeyError(
                    f"snapshot version {version} is not retained "
                    f"(history={self.history}, latest={self._latest.version})"
                ) from None

    def index_for(self, snapshot: Optional[CoordinateSnapshot] = None) -> CoordinateIndex:
        """A spatial index over ``snapshot`` (default: latest), memoised.

        The index is built once per version and shared by all queries
        against that version; because snapshots are immutable the memoised
        index can never go stale.
        """
        target = snapshot if snapshot is not None else self.latest()
        with self._lock:
            index = self._indexes.get(target.version)
        if index is not None:
            return index
        # Built outside the lock so a large build never blocks ingest, and
        # finalised eagerly so concurrent readers of the published index
        # never trigger (and race on) a lazy rebuild.
        index = build_index(self.index_kind)
        ingest_arrays = getattr(index, "ingest_arrays", None)
        arrays = getattr(target, "arrays", None)
        if ingest_arrays is not None and arrays is not None:
            # Array snapshot -> dense index: adopt the snapshot arrays
            # directly, no per-node objects anywhere on the path.
            ingest_arrays(*arrays())
        else:
            index.update_many(dict(target.coordinates))
        finalise = getattr(index, "_ensure_built", None)
        if finalise is not None:
            finalise()
        with self._lock:
            if target.version not in self._versions:
                # A reader holding an already-evicted snapshot: hand it the
                # index but do not memoise it, or nothing would ever
                # reclaim it (commit only sweeps retained versions).
                return index
            return self._indexes.setdefault(target.version, index)

    # -- convenience ----------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
        *,
        index_kind: str = "dense",
        source: str = "",
    ) -> "SnapshotStore":
        """A store pre-loaded with one array-backed snapshot (version 1)."""
        store = cls(index_kind=index_kind)
        store.publish_epoch(node_ids, components, heights, source=source)
        return store

    @classmethod
    def from_coordinates(
        cls,
        coordinates: Mapping[str, Coordinate],
        *,
        index_kind: str = "vptree",
        source: str = "",
    ) -> "SnapshotStore":
        """A store pre-loaded with one committed snapshot."""
        store = cls(index_kind=index_kind)
        store.apply_many(coordinates)
        store.commit(source=source)
        return store

    @classmethod
    def from_snapshot(
        cls, snapshot: CoordinateSnapshot, *, index_kind: str = "vptree"
    ) -> "SnapshotStore":
        """A store republishing ``snapshot`` under its *original* version.

        Query results served from a reloaded artifact stay attributable to
        the version recorded in the file (renumbering to 1 would break the
        correlation); later commits continue counting from there.
        """
        store = cls(index_kind=index_kind)
        with store._lock:
            published = CoordinateSnapshot(
                snapshot.version, dict(snapshot.coordinates), source=snapshot.source
            )
            store._latest = published
            store._versions = {published.version: published}
        return store
