"""The load generator: closed-loop and open-loop phases over two connections.

One process, one event loop, no extra threads.  The open loop stamps
each request with the instant it was *due* and times it from there, so a
server stall is charged to every request that had to wait behind it, and
reports how late the generator itself ran.  A request that fails, is
refused or times out is kept as a failed exchange and charged the full
timeout, so it misses any latency limit.

Every phase also reads the hypervisor's steal counter before and after:
``steal_share`` is the part of the VM's CPU time the host took away
while the phase ran (see ``stats.quiet``).
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gateway.client import GatewayClient
from repro.server.client import AsyncCoordinateClient
from repro.server.errors import RequestTimeout, TransportError

from sut import GATEWAY_API_KEY, GATEWAY_TENANT, ServerProcess, host_ticks
from workloads import DeltaStream, Plan, delta_request, requests_for

__all__ = [
    "HostClock",
    "PhaseResult",
    "PublishRecord",
    "Publisher",
    "Rig",
    "REQUEST_TIMEOUT_S",
    "calibration_ms",
    "close_clients",
    "closed_phase",
    "connect_clients",
    "open_phase",
    "set_up",
]

CONNECTIONS = 2
REQUEST_TIMEOUT_S = 20.0
#: How early the open loop stops sleeping and starts yielding until a send is due.
TIMER_SLACK_S = 0.0015


async def connect_clients(server: ServerProcess, count: int = CONNECTIONS) -> List[Any]:
    """``count`` connections to the server, over its own transport."""
    if server.transport == "tcp":
        host, port = server.address
        return [await AsyncCoordinateClient.connect(host, port) for _ in range(count)]
    return [
        await GatewayClient.connect(server.base_url(), GATEWAY_TENANT, GATEWAY_API_KEY)
        for _ in range(count)
    ]


async def close_clients(clients: Sequence[Any]) -> None:
    for client in clients:
        await client.close()


async def exchange(client: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    """One request; a transport failure becomes a failed response object."""
    try:
        return await client.request(request, timeout=REQUEST_TIMEOUT_S)
    except RequestTimeout as exc:
        return {"ok": False, "error": f"timeout: {exc}"}
    except (TransportError, OSError) as exc:
        return {"ok": False, "error": f"transport: {exc}"}


def calibration_ms() -> float:
    """A fixed pure-Python loop: the host-noise canary.

    Reported beside every lap and never used to rescale anything.
    """
    started = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value
    return (time.perf_counter() - started) * 1e3


@dataclass
class PublishRecord:
    latency_ms: float
    response: Dict[str, Any]
    rows: np.ndarray
    values: np.ndarray


class HostClock:
    """Wall, process CPU and host steal across one timed region."""

    def __init__(self) -> None:
        self._steal, self._total = host_ticks()
        self._cpu = time.process_time()
        self.started = time.perf_counter()

    def stop(self) -> Tuple[float, float, float]:
        """``(elapsed_s, client_cpu_s, steal_share)`` since construction."""
        elapsed_s = time.perf_counter() - self.started
        client_cpu_s = time.process_time() - self._cpu
        steal, total = host_ticks()
        ticks = total - self._total
        return elapsed_s, client_cpu_s, (steal - self._steal) / ticks if ticks else 0.0


class Publisher:
    """The third logical client: delta publishes over connection 0.

    Publishes are serialised (each delta steps from the rows the previous
    one published) and run beside whatever reads are in flight.
    """

    def __init__(self, client: Any, node_ids: Sequence[str], deltas: DeltaStream) -> None:
        self.client = client
        self.node_ids = node_ids
        self.deltas = deltas
        self.records: List[PublishRecord] = []
        self._lock = asyncio.Lock()
        self._tasks: List[asyncio.Task] = []

    def trigger(self) -> None:
        self._tasks.append(asyncio.create_task(self.publish()))

    async def publish(self, *, base: bool = False) -> PublishRecord:
        async with self._lock:
            rows, values = self.deltas.base() if base else next(self.deltas)
            request = delta_request(
                self.node_ids, rows, values, f"stackbench-{len(self.records)}"
            )
            started = time.perf_counter()
            response = await exchange(self.client, request)
            latency_ms = (time.perf_counter() - started) * 1e3
            record = PublishRecord(latency_ms, response, rows, values)
            self.records.append(record)
            return record

    async def drain(self) -> List[PublishRecord]:
        """Wait for every triggered publish; returns those since the last drain."""
        tasks, self._tasks = self._tasks, []
        return [await task for task in tasks]


@dataclass
class PhaseResult:
    requests: List[Dict[str, Any]]
    responses: List[Dict[str, Any]]
    latencies_ms: List[float]
    elapsed_s: float
    client_cpu_s: float
    steal_share: float
    #: Open loop only: how late each send started after its due time.
    lateness_ms: List[float] = field(default_factory=list)
    publishes: List[PublishRecord] = field(default_factory=list)

    @property
    def exchanges(self) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        return list(zip(self.requests, self.responses))

    @property
    def ops(self) -> int:
        return len(self.responses) + len(self.publishes)

    @property
    def ok_ops(self) -> int:
        return sum(1 for response in self.responses if response.get("ok")) + sum(
            1 for record in self.publishes if record.response.get("ok")
        )


def _charge_failures(responses: Sequence[Dict[str, Any]], latencies_ms: List[float]) -> None:
    for position, response in enumerate(responses):
        if not response.get("ok"):
            latencies_ms[position] = REQUEST_TIMEOUT_S * 1e3


def _publish_due(position: int, publish_every: int) -> bool:
    """Mid-way through every ``publish_every`` reads."""
    return publish_every > 0 and position % publish_every == publish_every // 2


async def closed_phase(
    clients: Sequence[Any],
    requests: List[Dict[str, Any]],
    *,
    publisher: Optional[Publisher] = None,
    publish_every: int = 0,
) -> PhaseResult:
    """Each client sends its next request when the previous one completes."""
    count = len(requests)
    responses: List[Dict[str, Any]] = [{}] * count
    latencies_ms = [0.0] * count
    cursor = iter(range(count))

    async def worker(client: Any) -> None:
        for position in cursor:
            if publisher is not None and _publish_due(position, publish_every):
                publisher.trigger()
            started = time.perf_counter()
            responses[position] = await exchange(client, requests[position])
            latencies_ms[position] = (time.perf_counter() - started) * 1e3

    gc.disable()
    try:
        clock = HostClock()
        await asyncio.gather(*(worker(client) for client in clients))
        publishes = await publisher.drain() if publisher is not None else []
        elapsed_s, client_cpu_s, steal_share = clock.stop()
    finally:
        gc.enable()
    _charge_failures(responses, latencies_ms)
    return PhaseResult(
        requests, responses, latencies_ms, elapsed_s, client_cpu_s, steal_share,
        publishes=publishes,
    )


async def open_phase(
    clients: Sequence[Any],
    requests: List[Dict[str, Any]],
    rate: float,
    *,
    publisher: Optional[Publisher] = None,
    publish_every: int = 0,
) -> PhaseResult:
    """Requests leave on a fixed schedule, round-robin over the connections."""
    count = len(requests)
    responses: List[Dict[str, Any]] = [{}] * count
    latencies_ms = [0.0] * count
    lateness_ms = [0.0] * count
    interval = 1.0 / rate

    async def fire(position: int, due: float) -> None:
        lateness_ms[position] = (time.perf_counter() - due) * 1e3
        responses[position] = await exchange(
            clients[position % len(clients)], requests[position]
        )
        latencies_ms[position] = (time.perf_counter() - due) * 1e3

    gc.disable()
    try:
        clock = HostClock()
        tasks = []
        for position in range(count):
            due = clock.started + position * interval
            # The loop's timers round up to a millisecond, more than some
            # answers take: sleep short of the due time, then yield (which
            # also lets started sends progress) until it has come.
            await asyncio.sleep(max(0.0, due - time.perf_counter() - TIMER_SLACK_S))
            while time.perf_counter() < due:
                await asyncio.sleep(0.0)
            if publisher is not None and _publish_due(position, publish_every):
                publisher.trigger()
            tasks.append(asyncio.create_task(fire(position, due)))
        await asyncio.gather(*tasks)
        publishes = await publisher.drain() if publisher is not None else []
        elapsed_s, client_cpu_s, steal_share = clock.stop()
    finally:
        gc.enable()
    _charge_failures(responses, latencies_ms)
    return PhaseResult(
        requests, responses, latencies_ms, elapsed_s, client_cpu_s, steal_share,
        lateness_ms=lateness_ms, publishes=publishes,
    )


# ----------------------------------------------------------------------
# Set-up: spawn -> ready file -> connections open -> warm-up finished
# ----------------------------------------------------------------------
@dataclass
class Rig:
    """One set-up: the server, the connections to it and the publisher."""

    server: ServerProcess
    clients: List[Any]
    publisher: Publisher
    setup_s: float
    steal_share: float
    warm_exchanges: List[Tuple[dict, dict]]

    async def close(self) -> None:
        try:
            await close_clients(self.clients)
        finally:
            self.server.stop()


async def set_up(
    plan: Plan, components: np.ndarray, node_ids: Sequence[str], *, max_seconds: float
) -> Rig:
    """Spawn the plan's server, connect, publish the base delta if any, warm up."""
    workload = plan.workload
    server = ServerProcess(workload.transport, max_seconds=max_seconds)
    clock = HostClock()
    try:
        server.start()
        clients = await connect_clients(server)
        publisher = Publisher(clients[0], node_ids, DeltaStream(components, plan.seed))
        if workload.publishes:
            # Before the reads, so the warm cache belongs to the version
            # the first lap starts on.
            await publisher.publish(base=True)
        warmup = await closed_phase(clients, requests_for(workload, plan.warmup))
    except BaseException:
        server.stop()
        raise
    setup_s, _, steal_share = clock.stop()
    return Rig(server, clients, publisher, setup_s, steal_share, warmup.exchanges)
