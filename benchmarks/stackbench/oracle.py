"""A NumPy brute-force oracle for knn and range answers.

Written against the wire contract only, not the serving code: the
predicted round trip between rows ``i`` and ``j`` is
``||x_i - x_j|| + h_i + h_j``, neighbours are ordered by that value with
ties broken by insertion order (the row number), and a response is
checked against the arrays of the snapshot version it claims -- so a
response mixing two generations (a torn read) is a mismatch.

Brute force, but not over rows that cannot matter: heights are never
negative, so a row whose first component alone is further from the
target's than some distance ``r`` has a round trip above ``r``.  Every
row inside that slab is scored exactly; the audit of a run's several
thousand answers then takes about a second instead of four.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["UniverseOracle", "RTT_TOLERANCE_MS"]

RTT_TOLERANCE_MS = 1e-9
#: Half-width of the first slab a knn answer is looked for in.
_FIRST_REACH_MS = 2.0


class UniverseOracle:
    """The universe at every published version, and the expected answers."""

    def __init__(
        self,
        node_ids: Sequence[str],
        components: np.ndarray,
        heights: np.ndarray,
        *,
        base_version: int = 1,
    ) -> None:
        self.node_ids = list(node_ids)
        self.row_of = {node_id: row for row, node_id in enumerate(self.node_ids)}
        self._base = np.array(components, dtype=np.float64, copy=True)
        self.heights = np.asarray(heights, dtype=np.float64)
        self._heights_non_negative = bool(np.all(self.heights >= 0.0))
        self.base_version = base_version
        #: version -> (rows, values) of the delta that produced it.
        self._deltas: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def record_delta(self, version: int, rows: np.ndarray, values: np.ndarray) -> None:
        self._deltas[version] = (np.asarray(rows), np.asarray(values))

    def record_publishes(self, records: Sequence[Any]) -> int:
        """Record the delta of every acknowledged publish; returns how many were not."""
        failures = 0
        for record in records:
            version = record.response.get("version")
            if record.response.get("ok") and isinstance(version, int):
                self.record_delta(version, record.rows, record.values)
            else:
                failures += 1
        return failures

    @property
    def latest_version(self) -> int:
        return max(self._deltas, default=self.base_version)

    # -- expected answers -------------------------------------------------
    class _Arrays:
        """One version's coordinates, by column and ordered by the first."""

        def __init__(self, components: np.ndarray) -> None:
            self.columns = [
                np.ascontiguousarray(components[:, dim]) for dim in range(components.shape[1])
            ]
            self.order = np.argsort(self.columns[0], kind="stable")
            self.first = self.columns[0][self.order]

    def _rtts(self, arrays: "_Arrays", row: int, rows: Optional[np.ndarray]) -> np.ndarray:
        """Exact round trips from ``row`` to ``rows`` (to every row if None)."""
        total = 0.0
        for column in arrays.columns:
            diff = (column if rows is None else column[rows]) - column[row]
            total = total + diff * diff
        heights = self.heights if rows is None else self.heights[rows]
        return np.sqrt(total) + heights + self.heights[row]

    def _slab(self, arrays: "_Arrays", row: int, reach: float) -> np.ndarray:
        """Every row that can lie within ``reach`` of ``row``, in row order."""
        if not self._heights_non_negative:
            return np.arange(len(self.node_ids))
        centre = arrays.columns[0][row]
        low, high = np.searchsorted(arrays.first, [centre - reach, centre + reach])
        # One step wider on each side: rounding in ``centre +- reach``.
        return np.sort(arrays.order[max(low - 1, 0) : high + 1])

    def _expected(
        self, arrays: "_Arrays", request: Mapping[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, rtts) of the right answer, in the order it must arrive."""
        row = self.row_of[request["target"]]
        if request["op"] == "range":
            rows = self._slab(arrays, row, request["radius_ms"])
            rtts = self._rtts(arrays, row, rows)
            keep = (rtts <= request["radius_ms"]) & (rows != row)
        else:
            k = min(request["k"], len(self.node_ids) - 1)
            # The k-th best of any k other rows bounds the k-th best of
            # all: widen a thin slab until it holds that many.
            reach = _FIRST_REACH_MS
            while True:
                rows = self._slab(arrays, row, reach)
                if len(rows) > k or len(rows) == len(self.node_ids):
                    break
                reach *= 2.0
            rtts = self._rtts(arrays, row, rows)
            reach = float(np.partition(rtts[rows != row], k - 1)[k - 1])
            rows = self._slab(arrays, row, reach)
            rtts = self._rtts(arrays, row, rows)
            keep = rows != row
        rows, rtts = rows[keep], rtts[keep]
        # Ties go to the lower row: insertion order.
        ranked = np.lexsort((rows, rtts))
        if request["op"] == "knn":
            ranked = ranked[:k]
        return rows[ranked], rtts[ranked]

    def _matches(
        self,
        arrays: "_Arrays",
        request: Mapping[str, Any],
        response: Mapping[str, Any],
        memo: Dict[Any, Tuple[np.ndarray, np.ndarray]],
    ) -> Optional[str]:
        """None when the response is right, else one line saying why not."""
        payload = response.get("payload")
        key = "neighbors" if request["op"] == "knn" else "hits"
        if not isinstance(payload, dict) or key not in payload:
            return f"payload has no {key!r}"
        if payload.get("target") != request["target"]:
            return "payload answers another target"
        memo_key = (request["op"], request["target"])
        if memo_key not in memo:
            memo[memo_key] = self._expected(arrays, request)
        rows, rtts = memo[memo_key]
        entries = payload[key]
        if len(entries) != len(rows):
            return f"{len(entries)} entries, expected {len(rows)}"
        got_rtts = np.asarray(
            [entry["predicted_rtt_ms"] for entry in entries], dtype=np.float64
        )
        if len(rows) and np.max(np.abs(got_rtts - rtts)) > RTT_TOLERANCE_MS:
            return "predicted rtt differs from the oracle by more than 1e-9 ms"
        got_ids = [entry["node_id"] for entry in entries]
        if got_ids == [self.node_ids[row] for row in rows]:
            return None
        # Same distances in another order: acceptable only where the
        # oracle's own values tie within the tolerance.
        all_rtts = self._rtts(arrays, self.row_of[request["target"]], None)
        for node_id, rtt in zip(got_ids, got_rtts):
            got_row = self.row_of.get(node_id)
            if got_row is None or abs(all_rtts[got_row] - rtt) > RTT_TOLERANCE_MS:
                return "neighbour ids differ from the oracle"
        if len(set(got_ids)) != len(got_ids):
            return "duplicate neighbour ids"
        return None

    # -- the audit ------------------------------------------------------------
    def audit(
        self,
        exchanges: Sequence[Tuple[Mapping[str, Any], Mapping[str, Any]]],
    ) -> List[str]:
        """Check (request, response) pairs; returns one line per mismatch.

        Responses are grouped by the version they claim and the arrays
        are rolled forward delta by delta, so memory stays at one copy of
        the universe however many versions a run publishes.
        """
        problems: List[str] = []
        by_version: Dict[int, List[int]] = {}
        for position, (request, response) in enumerate(exchanges):
            if not response.get("ok"):
                problems.append(
                    f"#{position} {request['op']} {request['target']}: "
                    f"failed: {response.get('error')}"
                )
                continue
            version = response.get("version")
            if not isinstance(version, int):
                problems.append(f"#{position}: response carries no version")
                continue
            by_version.setdefault(version, []).append(position)

        components = self._base.copy()
        version = self.base_version
        for claimed in sorted(by_version):
            if claimed < self.base_version or claimed > self.latest_version:
                problems.extend(
                    f"#{position}: claims unknown version {claimed}"
                    for position in by_version[claimed]
                )
                continue
            while version < claimed:
                version += 1
                # A version whose publish was never acknowledged leaves no
                # delta here; the failed publish is already a counted error.
                delta = self._deltas.get(version)
                if delta is not None:
                    components[delta[0]] = delta[1]
            arrays = self._Arrays(components)
            memo: Dict[Any, Tuple[np.ndarray, np.ndarray]] = {}
            for position in by_version[claimed]:
                request, response = exchanges[position]
                reason = self._matches(arrays, request, response, memo)
                if reason is not None:
                    problems.append(
                        f"#{position} {request['op']} {request['target']} "
                        f"@v{claimed}: {reason}"
                    )
        return problems
