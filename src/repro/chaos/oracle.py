"""Healthy-subset oracle checking for degraded (partial) responses.

A partial response served while shard S is down must be *exactly* the
full answer minus shard S's rows -- nothing re-ranked, no tie order
disturbed.  :func:`verify_chaos_responses`
checks that: it mirrors the daemon's snapshot into an in-process
:class:`~repro.server.sharding.ShardedCoordinateStore` with the same
shard count (the blake2b shard assignment is stable across processes)
and re-answers every ok response with ``exclude_shards`` taken from the
response's own ``missing_shards`` list.  Full responses are therefore
checked against the full oracle and degraded ones against the healthy
subset, in one pass.

The mirror is built once from one snapshot, so the check assumes a
static population for the run (the ``repro load --chaos`` case: no
publisher is attached).  Runs with concurrent publishes are audited
in-process instead, where each response's generation can be pinned by
version (see :mod:`repro.server.live`).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

from repro.server.sharding import ShardedCoordinateStore
from repro.service.planner import Query, QueryError

__all__ = ["verify_chaos_responses"]


def verify_chaos_responses(
    snapshot,
    queries: Sequence[Query],
    responses: Sequence[Mapping[str, Any]],
    *,
    shards: int,
    index_kind: str = "linear",
) -> Dict[str, Any]:
    """Byte-compare ok responses against the (healthy-subset) oracle.

    Returns ``{"checked", "matches", "partial_checked", "partial_matches",
    "mismatches"}`` where ``mismatches`` lists the stream positions whose
    payload differed from the oracle's answer.
    """
    if len(queries) != len(responses):
        raise ValueError(
            f"{len(queries)} queries but {len(responses)} responses"
        )
    mirror = ShardedCoordinateStore.from_snapshot(
        snapshot, shards=shards, index_kind=index_kind
    )
    generation = mirror.generation()
    checked = matches = partial_checked = partial_matches = 0
    mismatches = []
    for position, (query, response) in enumerate(zip(queries, responses)):
        if not response.get("ok"):
            continue
        partial = bool(response.get("partial"))
        exclude = frozenset(int(s) for s in response.get("missing_shards") or ())
        try:
            expected = generation.answer(query, exclude_shards=exclude)
        except QueryError:
            mismatches.append(position)
            checked += 1
            if partial:
                partial_checked += 1
            continue
        checked += 1
        if partial:
            partial_checked += 1
        if expected == response.get("payload"):
            matches += 1
            if partial:
                partial_matches += 1
        else:
            mismatches.append(position)
    return {
        "checked": checked,
        "matches": matches,
        "partial_checked": partial_checked,
        "partial_matches": partial_matches,
        "mismatches": mismatches,
    }
