"""Async coordinate-serving daemon: the network layer over the query service.

The :mod:`repro.service` layer made coordinate queries a library concern;
this package turns them into a *served* concern:

* :mod:`repro.server.protocol` -- the length-prefixed JSON wire protocol
  shared by the daemon and its clients;
* :mod:`repro.server.sharding` -- :class:`ShardedCoordinateStore`, N
  hash-partitioned shards (each a
  :class:`~repro.service.snapshot.SnapshotStore` plus pluggable index)
  behind a scatter-gather router whose answers are byte-identical to the
  single-store oracle, with atomic zero-downtime snapshot rollover.  It is
  the one serving front: the daemon, the gateway and every in-process
  caller (``repro serve``/``query``, scenario workloads, benchmarks)
  answer through it, in-process ones usually as a one-shard store;
* :mod:`repro.server.daemon` -- :class:`CoordinateServer`, the asyncio
  daemon with per-connection backpressure and a bounded admission queue;
* :mod:`repro.server.client` -- :class:`AsyncCoordinateClient`, a
  pipelining client;
* :mod:`repro.server.load` -- the closed/open-loop load generator and its
  :class:`LoadReport`;
* :mod:`repro.server.live` -- the harness behind the ``queries-live``
  scenario workload: simulation epochs stream into a running daemon while
  queries are served.

``repro serve-daemon`` and ``repro load`` (see :mod:`repro.server.cli`)
expose the daemon and the load harness on the command line.
"""

from repro.server.sharding import ShardedCoordinateStore, ShardGeneration
from repro.server.daemon import CoordinateServer
from repro.server.client import AsyncCoordinateClient
from repro.server.load import LoadReport, run_load, synthetic_coordinates

__all__ = [
    "ShardedCoordinateStore",
    "ShardGeneration",
    "CoordinateServer",
    "AsyncCoordinateClient",
    "LoadReport",
    "run_load",
    "synthetic_coordinates",
]
