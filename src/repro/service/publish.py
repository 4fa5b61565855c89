"""The epoch-publish API: :class:`EpochPublisher` + :class:`EpochDelta`.

Every publisher implements one explicit protocol with two entry points,
and there is no other way to publish arrays:

* :meth:`EpochPublisher.publish_epoch` -- a **full** epoch: the complete
  population's arrays, adopted as the next generation.
* :meth:`EpochPublisher.publish_delta` -- an **incremental** epoch: only
  the rows that changed since the previous generation (plus explicit
  removals), carried by an :class:`EpochDelta`.  The store applies it by
  copy-on-write of the touched rows and derives the new generation's
  spatial index incrementally, which is what makes millisecond epoch
  rollover possible at low churn (the paper's coordinates are stable
  precisely because most nodes barely move between update windows).
  Object batches (``{node_id: Coordinate}``) go the same way through
  :meth:`EpochDelta.from_coordinates`.

The delta path never weakens the repo's oracle-identity contract: a
delta-published generation is *byte-identical* -- coordinates, query
results including tie order, health snapshots -- to publishing the same
final population from scratch.  The equivalence sweep in
``tests/test_publish.py`` pins this across all three index kinds.

This module is dependency-light (numpy + stdlib) so ``netsim`` can import
the protocol without pulling in the serving stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

__all__ = ["EpochDelta", "EpochPublisher"]


@dataclass(eq=False)
class EpochDelta:
    """One incremental epoch: the rows that changed, plus removals.

    ``node_ids`` and row ``i`` of ``components``/``heights`` describe the
    new coordinate of one changed-or-added node.  ``removed_ids`` names
    nodes to drop from the population.  A node must not appear in both.
    Applying a delta appends genuinely new nodes after the surviving
    population in ``node_ids`` order, matching what a from-scratch
    publish of the final population would produce.

    ``source`` labels the resulting snapshot (falls back to the base
    snapshot's source when empty) and ``epoch`` is an optional caller
    tick/epoch number carried for observability.
    """

    node_ids: List[str]
    components: np.ndarray
    heights: Optional[np.ndarray] = None
    removed_ids: Tuple[str, ...] = ()
    source: str = ""
    epoch: Optional[int] = None

    def __post_init__(self) -> None:
        self.node_ids = [str(node_id) for node_id in self.node_ids]
        components = np.asarray(self.components, dtype=np.float64)
        if components.ndim != 2:
            if components.size == 0 and not self.node_ids:
                components = components.reshape(0, 1)
            else:
                raise ValueError(
                    f"components must be a (changed, dims) array, got shape {components.shape}"
                )
        if components.shape[0] != len(self.node_ids):
            raise ValueError(
                f"components rows ({components.shape[0]}) must match "
                f"node_ids ({len(self.node_ids)})"
            )
        if components.shape[0] and components.shape[1] < 1:
            raise ValueError("components must have at least one dimension")
        if components.shape[0] and not np.all(np.isfinite(components)):
            raise ValueError("components must be finite")
        if self.heights is None:
            heights = np.zeros(components.shape[0], dtype=np.float64)
        else:
            heights = np.asarray(self.heights, dtype=np.float64)
        if heights.shape != (components.shape[0],):
            raise ValueError(
                f"heights shape {heights.shape} must be ({components.shape[0]},)"
            )
        if heights.size and (not np.all(np.isfinite(heights)) or np.any(heights < 0)):
            raise ValueError("heights must be finite and non-negative")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node_ids must be unique within one delta")
        self.removed_ids = tuple(str(node_id) for node_id in self.removed_ids)
        if len(set(self.removed_ids)) != len(self.removed_ids):
            raise ValueError("removed_ids must be unique within one delta")
        overlap = set(self.node_ids) & set(self.removed_ids)
        if overlap:
            raise ValueError(
                f"nodes cannot be both changed and removed: {sorted(overlap)}"
            )
        self.components = components
        self.heights = heights

    @property
    def changed_count(self) -> int:
        """Rows touched by this delta (changed + removed)."""
        return len(self.node_ids) + len(self.removed_ids)

    @classmethod
    def from_coordinates(
        cls,
        coordinates: Mapping[str, Any],
        *,
        removed_ids: Sequence[str] = (),
        source: str = "",
        epoch: Optional[int] = None,
    ) -> "EpochDelta":
        """Build a delta from a ``{node_id: Coordinate}`` mapping."""
        node_ids = list(coordinates)
        if node_ids:
            components = np.asarray(
                [coordinates[node_id].components for node_id in node_ids],
                dtype=np.float64,
            )
            heights = np.asarray(
                [coordinates[node_id].height for node_id in node_ids],
                dtype=np.float64,
            )
        else:
            components = np.empty((0, 1), dtype=np.float64)
            heights = np.empty(0, dtype=np.float64)
        return cls(
            node_ids,
            components,
            heights,
            removed_ids=tuple(removed_ids),
            source=source,
            epoch=epoch,
        )


@runtime_checkable
class EpochPublisher(Protocol):
    """Anything that can accept coordinate epochs, full or incremental.

    Implemented by the serving
    :class:`repro.server.sharding.ShardedCoordinateStore`, by
    :class:`repro.server.live.LiveServingHarness` and by
    :class:`repro.service.snapshot.SnapshotStore`, whose staged object
    commits are deltas too; consumed by
    :func:`repro.netsim.batch.run_batch_simulation` (``publish_store=``).
    """

    def publish_epoch(
        self,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: Optional[np.ndarray] = None,
        *,
        source: str = "",
    ) -> Any:
        """Publish a complete population as a new generation."""
        ...  # pragma: no cover - protocol stub

    def publish_delta(self, delta: EpochDelta) -> Any:
        """Apply an incremental epoch on top of the latest generation."""
        ...  # pragma: no cover - protocol stub
