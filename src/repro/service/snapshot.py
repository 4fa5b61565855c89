"""Versioned coordinate snapshots: the query service's write path.

Every published coordinate generation is one immutable
:class:`ArraySnapshot` (node ids plus ``(n, d)`` component and ``(n,)``
height arrays), and a snapshot file or wire ``snapshot`` payload loads
back into the same type (:meth:`ArraySnapshot.load` reads exactly the
bytes :meth:`ArraySnapshot.save` writes).  An open snapshot never
changes, so results are attributable to a version: the serving cache
keys on it, and a per-version spatial index is built once and memoised.

A version is a whole epoch, whose arrays are adopted without copying,
or :func:`apply_delta` of the previous one (copy-on-write of the touched
rows; see :mod:`repro.service.publish`).  :class:`SnapshotStore` adds an
object front end for ``{node_id: Coordinate}`` producers (a run's
:class:`~repro.metrics.collector.MetricsCollector`, trace replays):
updates are *staged* until :meth:`SnapshotStore.commit` applies them as
one :class:`~repro.service.publish.EpochDelta`.

Thread-safety: staging, commits and index memoisation take an internal
lock; published snapshots are safe to read from any thread.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.coordinate import Coordinate
from repro.overlay.knn import CoordinateIndex
from repro.service.index import INDEX_KINDS, index_over
from repro.service.publish import EpochDelta, check_rows, row_map

__all__ = ["ArraySnapshot", "SnapshotStore", "apply_delta"]


class ArraySnapshot:
    """An immutable, versioned snapshot backed by flat NumPy arrays.

    Three aligned arrays (:meth:`arrays`) back the read API (``version``,
    ``coordinate_of``, ``node_ids``, ``items``, ...).  The arrays are
    *adopted*, not copied, and marked read-only -- the zero-copy half of
    the simulation -> service bridge.  ``Coordinate`` objects are
    materialised lazily, one per ``coordinate_of`` lookup; the spatial
    indexes (``vptree``, ``dense``) are built from the arrays and never
    materialise any.  The rows keep
    :func:`~repro.service.publish.check_rows`'s contract: the constructor
    checks the arrays, and :attr:`row_index` the ids.
    """

    __slots__ = (
        "version",
        "source",
        "_node_ids",
        "_components",
        "_heights",
        "_row_of",
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
        ids, components, heights = check_rows(node_ids, components, heights, defer_ids=True)
        components.setflags(write=False)
        heights.setflags(write=False)
        self.version = version
        self.source = source
        self._node_ids = ids
        self._components = components
        self._heights = heights
        self._row_of: Optional[Dict[str, int]] = None

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
        derived._row_of = self.row_index
        return derived

    # -- array access (the zero-copy read path) ------------------------
    def arrays(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``(node_ids, components (n, d), heights (n,))``, no copies."""
        return self._node_ids, self._components, self._heights

    # -- per-node read API ----------------------------------------------
    def __len__(self) -> int:
        return len(self._node_ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.row_index

    @property
    def row_index(self) -> Dict[str, int]:
        """``{node_id: row}`` over :meth:`arrays`; read-only once published.

        Built on first use -- which runs :func:`~repro.service.publish.check_rows`'s
        id rules, deferred by the constructor -- and shared, like the id
        list, by every same-population snapshot derived from this one.
        The sharded store builds it inside every publish, before the
        swap, so a served generation keeps the whole contract;
        construction stays free of per-row Python work.
        """
        if self._row_of is None:
            self._row_of = row_map(self._node_ids)
        return self._row_of

    def coordinate_of(self, node_id: str) -> Optional[Coordinate]:
        row = self.row_index.get(node_id)
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

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ArraySnapshot":
        """The snapshot :meth:`to_dict` describes.

        ``version`` defaults to 1, ``source`` to ``""`` and a row's
        ``height`` to 0.0.  The rows must keep
        :func:`~repro.service.publish.check_rows`'s contract, ids
        included (components and heights are JSON numbers).  A malformed
        payload raises a one-line ``ValueError`` that names the offending
        entry.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                "malformed snapshot: top-level JSON must be an object, "
                f"got {type(payload).__name__}"
            )
        entries = payload.get("coordinates")
        if not isinstance(entries, Mapping):
            raise ValueError("malformed snapshot: missing 'coordinates' mapping")
        try:
            version = int(payload.get("version", 1))
        except (TypeError, ValueError):
            raise ValueError(
                f"malformed snapshot: 'version' must be an integer, "
                f"got {payload.get('version')!r}"
            ) from None
        rows, heights = [], []
        for node_id, entry in entries.items():
            try:
                rows.append(entry["components"])
            except (TypeError, KeyError):
                raise ValueError(
                    f"malformed snapshot: entry for {node_id!r} has no 'components'"
                ) from None
            heights.append(entry.get("height", 0.0))
        try:
            checked = check_rows(list(entries), rows, heights)
        except ValueError as exc:
            raise ValueError(f"malformed snapshot: {exc}") from None
        return cls(version, *checked, source=str(payload.get("source", "")))

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Path) -> "ArraySnapshot":
        """Load a file :meth:`save` wrote.

        Every failure (missing or unreadable file, invalid JSON, a
        malformed snapshot) is an ``OSError`` or ``ValueError`` whose
        one-line message names the path, for command-line front ends.
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


def apply_delta(base: ArraySnapshot, delta: EpochDelta) -> ArraySnapshot:
    """``base`` with ``delta`` applied, as the next version's ArraySnapshot.

    Copy-on-write: the base arrays are copied once, only the touched rows
    are rewritten, removed rows are compacted out and genuinely new nodes
    append after the survivors -- byte for byte the population a
    from-scratch publish of the final state would hold.  A delta that
    leaves the population unchanged shares the base's id list and row
    map (see :meth:`ArraySnapshot._derived`); an empty one shares its
    arrays too.  ``base`` is never written.
    """
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
    row_of = base.row_index
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
        self._latest = ArraySnapshot(0, [], np.empty((0, 1)))
        self._versions: Dict[int, ArraySnapshot] = {0: self._latest}
        self._indexes: Dict[int, CoordinateIndex] = {}

    # -- ingest (write path) -------------------------------------------
    def apply(self, node_id: str, coordinate: Coordinate) -> None:
        """Stage one coordinate update for the next commit."""
        with self._lock:
            self._staged[node_id] = coordinate

    def apply_many(self, coordinates: Mapping[str, Coordinate]) -> None:
        with self._lock:
            self._staged.update(coordinates)

    def retire(self, node_id: str) -> None:
        """Stage the removal of a node (e.g. it left the overlay)."""
        with self._lock:
            self._staged[node_id] = None

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

    def commit(self, *, source: str = "") -> ArraySnapshot:
        """Publish staged updates as a new immutable version.

        The staged updates become one
        :class:`~repro.service.publish.EpochDelta` applied to the latest
        version (:func:`apply_delta`): existing nodes update in place,
        retired ones are compacted out and new ones append in staging
        order.  A no-op commit (nothing staged) returns the current
        snapshot without minting a new version.
        """
        with self._lock:
            if not self._staged:
                return self._latest
            upserts = {
                node_id: coordinate
                for node_id, coordinate in self._staged.items()
                if coordinate is not None
            }
            retired = [
                node_id for node_id, coordinate in self._staged.items() if coordinate is None
            ]
            snapshot = apply_delta(
                self._latest,
                EpochDelta.from_coordinates(upserts, removed_ids=retired, source=source),
            )
            self._staged.clear()
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
            return snapshot

    def publish_delta(self, delta: EpochDelta) -> ArraySnapshot:
        """Apply an incremental epoch on top of the latest version.

        The incremental half of the
        :class:`~repro.service.publish.EpochPublisher` protocol: the new
        version is :func:`apply_delta` of the latest one.  When the base
        version's spatial index is memoised, the new version's index is
        *derived* from it (``delta_applied``) instead of rebuilt; past the
        overlay budget the derivation declines and the next query
        compacts via an ordinary full build.  An empty delta still mints
        a new version (sharing the base arrays), keeping delta-fed and
        full-fed stores in version lockstep.
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
            snapshot = apply_delta(base, delta)
            self._publish_locked(snapshot)
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

    # -- read path ------------------------------------------------------
    def latest(self) -> ArraySnapshot:
        """The most recently committed snapshot (version 0 when empty)."""
        with self._lock:
            return self._latest

    @property
    def version(self) -> int:
        return self.latest().version

    def at(self, version: int) -> ArraySnapshot:
        """A retained historical version; raises KeyError once evicted."""
        with self._lock:
            try:
                return self._versions[version]
            except KeyError:
                raise KeyError(
                    f"snapshot version {version} is not retained "
                    f"(history={self.history}, latest={self._latest.version})"
                ) from None

    def index_for(self, snapshot: Optional[ArraySnapshot] = None) -> CoordinateIndex:
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
        # Built outside the lock so a large build never blocks ingest.  A
        # spatial index is built from the snapshot's arrays: no per-node
        # objects anywhere on the path.
        index = index_over(self.index_kind, *target.arrays())
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
