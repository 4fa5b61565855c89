"""The coordinate query service: the repo's first read-path subsystem.

Simulation and replay runs *produce* coordinates; this package *serves*
them.  The write path ingests streaming coordinate updates into versioned,
immutable snapshots (:mod:`repro.service.snapshot`); the read path answers
proximity queries -- k-nearest, range, pairwise latency, centroid --
through sub-linear spatial indexes (:mod:`repro.service.index`); one
executor (:func:`~repro.service.planner.answer_query`) builds every
payload.  Batching, caching and stats belong to the one serving front,
:class:`repro.server.sharding.ShardedCoordinateStore`, which in-process
callers use as a one-shard store.
:mod:`repro.service.workload` generates deterministic query load for
scenarios and benchmarks, and :mod:`repro.service.cli` exposes the
``repro serve`` / ``repro query`` commands.

The linear :class:`~repro.overlay.knn.CoordinateIndex` remains the
correctness oracle: every spatial implementation returns identical
results, which the property tests and ``benchmarks/bench_service.py``
enforce.
"""

from repro.service.index import INDEX_KINDS, VPTreeIndex, build_index
from repro.service.publish import EpochDelta, EpochPublisher
from repro.service.planner import (
    LRUTTLCache,
    Query,
    QueryError,
    QUERY_KINDS,
    answer_query,
)
from repro.service.snapshot import CoordinateSnapshot, SnapshotStore
from repro.service.workload import (
    QUERY_MIXES,
    WorkloadReport,
    generate_queries,
    payload_checksum,
    run_workload,
)

__all__ = [
    "CoordinateSnapshot",
    "EpochDelta",
    "EpochPublisher",
    "INDEX_KINDS",
    "LRUTTLCache",
    "QUERY_KINDS",
    "QUERY_MIXES",
    "Query",
    "QueryError",
    "SnapshotStore",
    "VPTreeIndex",
    "WorkloadReport",
    "answer_query",
    "build_index",
    "generate_queries",
    "payload_checksum",
    "run_workload",
]
