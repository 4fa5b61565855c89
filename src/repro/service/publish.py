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

:func:`check_rows` is the one row contract: what every ingress -- an
:class:`EpochDelta`, an :class:`~repro.service.snapshot.ArraySnapshot`
and the files and wire payloads read into one, an index build -- accepts
as a population, and how it names what it refuses.

This module is dependency-light (numpy, stdlib and ``Coordinate``) so
``netsim`` can import the protocol without pulling in the serving stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any, Dict, List, Mapping, Optional, Protocol, Sequence, Set, Tuple, runtime_checkable,
)

import numpy as np

from repro.core.coordinate import Coordinate

__all__ = ["EpochDelta", "EpochPublisher", "check_rows", "row_map"]

#: What a number is, row by row (``bool`` is refused apart).
_NUMBER_TYPES = (int, float, np.integer, np.floating)
#: Types that need no closer look, for the C-level fast passes.
_JSON_NUMBERS = frozenset((int, float))
_LISTS = frozenset((list, tuple))


def check_rows(
    node_ids: Sequence[str],
    components: Any,
    heights: Any = None,
    *,
    defer_ids: bool = False,
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """The row contract every coordinate ingress keeps.

    Row ``i`` places node ``node_ids[i]`` at ``components[i]`` with
    height ``heights[i]`` (zero when omitted).  A population is accepted
    when every id is a non-empty ``str`` and none repeats; every row has
    at least one component, and as many as the first row; every
    component and height is a number -- a numeric array, or in lists an
    ``int`` or ``float`` (a JSON number: a numeric string or a boolean is
    refused, never converted); and every component is finite and every
    height finite and >= 0.

    Anything else raises ``ValueError`` naming the first row that breaks
    a rule by its id (``node id 'a': ids must be unique``), a row's value
    refusals in ``Coordinate``'s own words; only row or height counts
    that differ from the id count name none.  Returns the ids as a list,
    ``(n, d)`` float64 components (``d >= 1``, even with no rows) and
    ``(n,)`` heights; float64 arrays are adopted, not copied.

    Arrays are checked with no per-row Python work, lists with one
    C-level type pass.  The id rules are an O(n) Python pass:
    ``defer_ids`` leaves them to the caller, which must build
    :func:`row_map` before it serves the rows, as
    :attr:`~repro.service.snapshot.ArraySnapshot.row_index` and the
    spatial index builds do.
    """
    ids = list(node_ids)
    if len(components) != len(ids) or (heights is not None and len(heights) != len(ids)):
        counts = "" if heights is None else f" and {len(heights)} heights"
        raise ValueError(
            f"{len(components)} coordinate rows{counts} must match {len(ids)} node ids"
        )
    rows = _floats(components)
    levels = np.zeros(len(ids)) if heights is None else _floats(heights)
    if not ids and rows is not None and levels is not None:
        width = rows.shape[-1] if rows.ndim == 2 and rows.shape[-1] else 1
        return ids, rows.reshape(0, width), levels.reshape(0)
    if (
        rows is None or levels is None or rows.ndim != 2 or not rows.shape[1] or levels.ndim != 1
        or not (np.isfinite(rows).all() and np.isfinite(levels).all()) or (levels < 0.0).any()
    ):
        rows, levels = _scanned(ids, components, heights)
    if not defer_ids:
        row_map(ids)
    return ids, rows, levels


def row_map(node_ids: Sequence[str]) -> Dict[str, int]:
    """``{node_id: row}``, refusing ids that break :func:`check_rows`'s rules:
    one dict build and two C-level tests, and a scan only to name one."""
    try:
        row_of = dict(zip(node_ids, range(len(node_ids))))
    except TypeError:  # an unhashable id
        row_of = {}
    if len(row_of) != len(node_ids) or "" in row_of or not {str}.issuperset(map(type, node_ids)):
        _scanned(node_ids)
    return row_of


def _refusal(node_id: Any, reason: str) -> ValueError:
    return ValueError(f"node id {node_id!r}: {reason}")


def _floats(values: Any) -> Optional[np.ndarray]:
    """``values`` as float64 when plainly numeric: a numeric array, or a
    list of ints and floats (or of rows of them, all one length)."""
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False) if values.dtype.kind in "fiu" else None
    if type(values) not in _LISTS:
        return None
    flat = chain.from_iterable(values) if _LISTS.issuperset(map(type, values)) else values
    if not _JSON_NUMBERS.issuperset(map(type, flat)):
        return None
    try:
        return np.array(values, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows, an int beyond float range
        return None


def _number(node_id: Any, value: Any, refusal: str) -> float:
    if not isinstance(value, _NUMBER_TYPES) or isinstance(value, bool):
        raise _refusal(node_id, f"{refusal}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond float range
        return math.inf


def _scanned(
    ids: Sequence[Any], components: Any = None, heights: Any = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The rows (or only the ids) read one by one: the first that breaks
    a rule raises, named by its id; otherwise they convert to float64."""
    seen: Set[str] = set()
    rows: List[List[float]] = []
    levels: List[float] = []
    for position, node_id in enumerate(ids):
        if not isinstance(node_id, str) or not node_id:
            raise _refusal(node_id, "ids must be non-empty strings")
        if node_id in seen:
            raise _refusal(node_id, "ids must be unique")
        seen.add(node_id)
        if components is None:
            continue
        row = components[position]
        if not isinstance(row, (list, tuple, np.ndarray)):
            raise _refusal(node_id, f"components must be a list, got {row!r}")
        values = [_number(node_id, v, "coordinate components must be numbers") for v in row]
        level = 0.0
        if heights is not None:
            level = _number(node_id, heights[position], "height must be a number")
        try:  # the value rules are the scalar core's, in its words
            Coordinate(values, level)
        except ValueError as exc:
            raise _refusal(node_id, str(exc)) from None
        if rows and len(values) != len(rows[0]):
            raise _refusal(
                node_id, f"coordinate dimensionality mismatch: {len(values)} vs {len(rows[0])}"
            )
        rows.append(values)
        levels.append(level)
    width = len(rows[0]) if rows else 1
    return np.array(rows, dtype=np.float64).reshape(len(rows), width), np.array(levels)


@dataclass(eq=False)
class EpochDelta:
    """One incremental epoch: the rows that changed, plus removals.

    ``node_ids`` and row ``i`` of ``components``/``heights`` describe the
    new coordinate of one changed-or-added node.  ``removed_ids`` names
    nodes to drop from the population.  A node must not appear in both.
    The rows keep :func:`check_rows`'s contract and the removed ids its
    id rules; nothing is coerced (an ``int`` id is refused, not turned
    into a string).
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
        self.node_ids, self.components, self.heights = check_rows(
            self.node_ids, self.components, self.heights
        )
        self.removed_ids = tuple(self.removed_ids)
        row_map(self.removed_ids)
        overlap = set(self.node_ids).intersection(self.removed_ids)
        if overlap:
            raise ValueError(
                f"nodes cannot be both changed and removed: {sorted(overlap)}"
            )

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
        points = coordinates.values()
        return cls(
            list(coordinates),
            [point.components for point in points],
            [point.height for point in points],
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
