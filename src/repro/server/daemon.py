"""The asyncio coordinate-serving daemon.

The serving logic is split in two layers:

* :class:`RequestEngine` -- the transport-agnostic half: bounded
  admission, thread-pool query execution, the chaos control plane and
  every wire operation's handler.  ``await engine.process(request)``
  turns one protocol request object into one response object, no socket
  involved.  The multi-tenant HTTP gateway (:mod:`repro.gateway`) runs
  one engine per tenant, which is what makes its responses byte-identical
  to the TCP daemon's: they are produced by the very same code.
* :class:`CoordinateServer` -- the TCP shell: it owns the listening
  socket, per-connection pipelining and backpressure, and delegates all
  request processing to its engine.

:class:`CoordinateServer` wraps a
:class:`~repro.server.sharding.ShardedCoordinateStore` with the
length-prefixed JSON protocol (:mod:`repro.server.protocol`) over TCP:

* **Pipelining with ordered responses** -- a connection may have many
  requests in flight; responses are written strictly in arrival order
  (ids are echoed as well, so clients can use either discipline).
* **Per-connection backpressure** -- each connection has a bounded
  in-flight window; once it fills, the daemon simply stops *reading*
  that socket, pushing back through TCP flow control instead of
  buffering without bound.
* **Bounded admission** -- a global in-flight limit sheds load
  explicitly: past it, requests are answered immediately with an
  ``overloaded`` error (and counted) rather than queued into memory.
  With ``retry_after_ms`` configured, the overloaded error carries that
  value as a retry-after hint which
  :meth:`~repro.server.client.AsyncCoordinateClient.request_with_retry`
  honors in place of its exponential backoff schedule.
* **Non-blocking serving** -- a cache hit is answered on the event loop
  (:meth:`~repro.server.sharding.ShardedCoordinateStore.serve_cached`
  takes one short lock and does no index work), so the common case of a
  read-mostly service never pays a thread hop.  Misses, publishes and
  snapshot dumps run on a small thread pool, so a long scatter-gather at
  50k nodes never stalls the loop's frame reading, and NumPy-backed
  shard kernels can overlap.
* **Zero-downtime ingest** -- the store's publish methods are plain
  thread-safe calls; a simulation thread streams epochs straight into
  the serving store (``run_batch_simulation(publish_store=...)``) while
  the loop keeps serving, and remote writers can use the wire
  ``publish`` op (full, or incremental deltas from protocol version 2;
  see :mod:`repro.server.protocol`).  Rollover is one atomic reference
  swap, so no request ever observes a half-published generation.

The daemon can run inside an existing event loop (:meth:`start` /
:meth:`wait_stopped`) or own a background loop thread
(:meth:`run_in_thread`), which is how the load harness, the
``queries-live`` scenario workload and the tests drive it.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.chaos.injector import ChaosInjector
from repro.chaos.schedule import FaultSchedule
from repro.obs.registry import TelemetryRegistry
from repro.obs.tracing import TraceRecorder, make_span
from repro.server.protocol import (
    HEADER,
    OPS,
    PROTOCOL_VERSION,
    QUERY_OPS,
    ProtocolError,
    decode_frame,
    encode_frame,
    frame_length,
    request_to_publish,
    request_to_query,
    request_version,
)
from repro.server.sharding import ServeResult, ShardedCoordinateStore
from repro.service.planner import QueryError

__all__ = ["CoordinateServer", "RequestEngine", "ServerThread"]


class RequestEngine:
    """Transport-agnostic request processing for one sharded store.

    Everything between "a protocol request object arrived" and "here is
    its response object" lives here: the atomic admission decision, the
    deterministic chaos schedule hooks, query execution, and the per-op
    handlers.  An admitted query probes the result cache on the event
    loop and is answered there on a hit; misses, publishes and snapshot
    dumps go to the thread pool.  Both paths build the same envelope.
    The TCP daemon and the HTTP gateway are both thin shells over
    :meth:`process`, so their answers for the same store state are
    byte-identical by construction.
    """

    def __init__(
        self,
        store: ShardedCoordinateStore,
        *,
        admission_limit: int = 1024,
        executor_workers: Optional[int] = None,
        registry: Optional[TelemetryRegistry] = None,
        retry_after_ms: Optional[float] = None,
        admission_stats_extra: Optional[Callable[[], Dict[str, Any]]] = None,
        thread_name_prefix: str = "coordserve",
    ) -> None:
        if admission_limit < 1:
            raise ValueError("admission_limit must be >= 1")
        if retry_after_ms is not None and retry_after_ms <= 0.0:
            raise ValueError("retry_after_ms must be positive")
        self.store = store
        self.admission_limit = admission_limit
        #: Optional hint attached to overloaded errors; clients honoring
        #: it back off for the server-chosen interval instead of their
        #: own exponential schedule.
        self.retry_after_ms = retry_after_ms
        #: The engine adopts the store's registry by default, so one
        #: ``metrics`` op renders store + engine instruments together.
        self.registry = registry if registry is not None else store.registry
        #: Extra fields the transport merges into the ``stats`` op's
        #: admission section (the TCP daemon adds connection counters).
        self._admission_stats_extra = admission_stats_extra
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers or max(2, store.shards),
            thread_name_prefix=thread_name_prefix,
        )
        #: The admission decision stays an atomic check-and-increment
        #: under this lock; the registry instruments mirror the counts.
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self._max_in_flight_seen = 0
        self._c_admitted = self.registry.counter(
            "daemon_admitted_total", "Requests admitted past the limiter."
        )
        self._c_rejected = self.registry.counter(
            "daemon_rejected_overload_total", "Requests shed by admission control."
        )
        self._g_in_flight = self.registry.gauge(
            "daemon_in_flight", "Requests currently admitted and executing."
        )
        self._g_in_flight_max = self.registry.gauge(
            "daemon_in_flight_max", "High-water mark of admitted requests."
        )

    def shutdown(self, wait: bool = True) -> None:
        """Shut the executor down (idempotent)."""
        self._executor.shutdown(wait=wait)

    def _count_error(self, op: Any) -> None:
        """Per-op error accounting (satellite: the stats op reports these)."""
        label = op if isinstance(op, str) and op in OPS else "invalid"
        self.registry.counter(
            "daemon_errors_total", "Error responses by requested op.", op=label
        ).inc()

    def error_stats(self) -> Dict[str, Any]:
        """The ``errors`` section of the stats payload: per-op counts.

        ``by_op`` holds only ops that actually failed (requests whose op
        was missing or unknown count under ``"invalid"``); ``total`` sums
        them, so the old single global view is still one key away.
        """
        by_op: Dict[str, int] = {}
        for op in (*OPS, "invalid"):
            count = self.registry.counter("daemon_errors_total", op=op).value
            if count:
                by_op[op] = count
        return {"by_op": by_op, "total": sum(by_op.values())}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        with self._stats_lock:
            if self._in_flight >= self.admission_limit:
                admitted = False
            else:
                admitted = True
                self._in_flight += 1
                if self._in_flight > self._max_in_flight_seen:
                    self._max_in_flight_seen = self._in_flight
                in_flight = self._in_flight
        if not admitted:
            self._c_rejected.inc()
            return False
        self._c_admitted.inc()
        self._g_in_flight.set(in_flight)
        self._g_in_flight_max.update_max(in_flight)
        return True

    def _release(self) -> None:
        with self._stats_lock:
            self._in_flight -= 1
            in_flight = self._in_flight
        self._g_in_flight.set(in_flight)

    def inject_admission_load(self, amount: int) -> None:
        """Occupy ``amount`` admission slots (the admission-burst fault)."""
        if amount <= 0:
            return
        with self._stats_lock:
            self._in_flight += amount
            if self._in_flight > self._max_in_flight_seen:
                self._max_in_flight_seen = self._in_flight
            in_flight = self._in_flight
        self._g_in_flight.set(in_flight)
        self._g_in_flight_max.update_max(in_flight)

    def release_admission_load(self, amount: int) -> None:
        """Release slots taken by :meth:`inject_admission_load`."""
        if amount <= 0:
            return
        with self._stats_lock:
            self._in_flight = max(0, self._in_flight - amount)
            in_flight = self._in_flight
        self._g_in_flight.set(in_flight)

    def admission_stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            in_flight = self._in_flight
            max_in_flight = self._max_in_flight_seen
        stats = {
            "limit": self.admission_limit,
            "in_flight": in_flight,
            "max_in_flight": max_in_flight,
            "admitted": self._c_admitted.value,
            "rejected_overload": self._c_rejected.value,
        }
        if self._admission_stats_extra is not None:
            stats.update(self._admission_stats_extra())
        return stats

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    async def process(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request; never raises (the response carries errors).

        The catch-all matters for correlation: an id-matching client only
        resolves a pending request when its id comes back, so even an
        unexpected failure (e.g. the executor shut down by a concurrent
        ``shutdown`` op) must echo the request's id.
        """
        request_id = request.get("id")
        op = request.get("op")
        # Per-request tracing is explicitly propagated (not contextvars:
        # those do not follow values into run_in_executor threads).
        trace = TraceRecorder() if request.get("trace") else None
        span_op = op if isinstance(op, str) and op in OPS else "invalid"
        try:
            with make_span(self.registry, "daemon.request", trace, {"op": span_op}):
                response = await self._process_admitted(request, request_id, trace)
        except Exception as exc:
            response = {
                "id": request_id,
                "ok": False,
                "error": f"internal error: {exc}",
            }
        if not response.get("ok"):
            self._count_error(op)
        if trace is not None:
            response["trace"] = trace.as_payload()
        return response

    async def _process_admitted(
        self,
        request: Dict[str, Any],
        request_id: Any,
        trace: Optional[TraceRecorder] = None,
    ) -> Dict[str, Any]:
        op = request.get("op")
        # Chaos is control plane: it bypasses admission entirely so an
        # active admission-burst fault can always be reported and
        # cleared over the wire (it would otherwise shed the very
        # request that ends it).
        if op == "chaos":
            return self._serve_chaos(request, request_id)
        chaos = getattr(self.store, "chaos", None)
        if chaos is not None and op in QUERY_OPS:
            # Advance the deterministic fault schedule *before* the
            # admission decision: requests shed by an injected burst
            # must still tick the counter or the burst never clears.
            decision = chaos.on_query(op)
            if decision.admission_acquire:
                self.inject_admission_load(decision.admission_acquire)
            if decision.admission_release:
                self.release_admission_load(decision.admission_release)
        with make_span(self.registry, "daemon.admission", trace, {}):
            admitted = self._admit()
        if not admitted:
            events = getattr(self.store, "events", None)
            if events is not None:
                events.emit(
                    "admission_shed",
                    op=str(request.get("op")),
                    limit=self.admission_limit,
                )
            response = {
                "id": request_id,
                "ok": False,
                "error": (
                    f"overloaded: admission limit of {self.admission_limit} "
                    "in-flight requests reached"
                ),
                "overloaded": True,
            }
            if self.retry_after_ms is not None:
                response["retry_after_ms"] = self.retry_after_ms
            return response
        try:
            try:
                query = request_to_query(request)
            except (ProtocolError, QueryError) as exc:
                return {"id": request_id, "ok": False, "error": str(exc)}
            if query is not None:
                hit = self.store.serve_cached(query, trace=trace)
                if hit is not None:
                    return self._query_response(request_id, hit)
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    self._executor, self._serve_query, request_id, query, trace
                )
            if op == "ping":
                return {"id": request_id, "ok": True, "payload": {"pong": True}}
            if op == "hello":
                return {
                    "id": request_id,
                    "ok": True,
                    "payload": {
                        "protocol_version": PROTOCOL_VERSION,
                        "ops": list(OPS),
                    },
                }
            if op == "publish":
                try:
                    mode, parsed = request_to_publish(request)
                except (ProtocolError, QueryError) as exc:
                    return {"id": request_id, "ok": False, "error": str(exc)}
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    self._executor, self._serve_publish, request_id, mode, parsed
                )
            if op == "version":
                generation = self.store.generation()
                return {
                    "id": request_id,
                    "ok": True,
                    "payload": {
                        "version": generation.version,
                        "nodes": len(generation),
                        "source": generation.source,
                    },
                    "version": generation.version,
                }
            if op == "stats":
                payload = self.store.stats()
                payload["admission"] = self.admission_stats()
                payload["errors"] = self.error_stats()
                return {"id": request_id, "ok": True, "payload": payload}
            if op == "metrics":
                return {
                    "id": request_id,
                    "ok": True,
                    "payload": {
                        "content_type": "text/plain; version=0.0.4",
                        "text": self.registry.render_prometheus(),
                    },
                }
            if op == "health":
                sections = request.get("sections")
                if sections is not None and (
                    not isinstance(sections, (list, tuple))
                    or not all(isinstance(name, str) for name in sections)
                ):
                    return {
                        "id": request_id,
                        "ok": False,
                        "error": "health 'sections' must be a list of section names",
                    }
                try:
                    with make_span(self.registry, "daemon.health", trace, {}):
                        payload = self.store.health(sections)
                except ValueError as exc:
                    return {"id": request_id, "ok": False, "error": str(exc)}
                return {
                    "id": request_id,
                    "ok": True,
                    "payload": payload,
                    "version": self.store.version,
                }
            if op == "events":
                limit = request.get("limit")
                if limit is not None and (
                    isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
                ):
                    return {
                        "id": request_id,
                        "ok": False,
                        "error": "events 'limit' must be a non-negative integer",
                    }
                events = self.store.events
                return {
                    "id": request_id,
                    "ok": True,
                    "payload": {
                        "events": events.tail(limit),
                        "stats": events.stats(),
                    },
                }
            if op == "nodes":
                generation = self.store.generation()
                return {
                    "id": request_id,
                    "ok": True,
                    "payload": {"node_ids": list(generation.node_order)},
                    "version": generation.version,
                }
            if op == "snapshot":
                loop = asyncio.get_running_loop()
                generation = self.store.generation()
                payload = await loop.run_in_executor(
                    self._executor, generation.snapshot.to_dict
                )
                return {
                    "id": request_id,
                    "ok": True,
                    "payload": payload,
                    "version": generation.version,
                }
            if op == "shutdown":
                return {"id": request_id, "ok": True, "payload": {"stopping": True}}
            return {  # pragma: no cover - request_to_query already validated op
                "id": request_id,
                "ok": False,
                "error": f"unhandled op {op!r}",
            }
        finally:
            self._release()

    def _serve_chaos(self, request: Dict[str, Any], request_id: Any) -> Dict[str, Any]:
        """The chaos control plane: install / report / clear a schedule.

        Gated on protocol version 3 exactly like delta publish is gated
        on version 2, so fault injection cannot be triggered by accident
        from an old client.
        """
        try:
            version = request_version(request)
        except ProtocolError as exc:
            return {"id": request_id, "ok": False, "error": str(exc)}
        if version < 3:
            return {
                "id": request_id,
                "ok": False,
                "error": (
                    "chaos op requires protocol version 3; "
                    "declare 'version': 3 (negotiate via the hello op)"
                ),
            }
        injector = getattr(self.store, "chaos", None)
        if request.get("report"):
            return {
                "id": request_id,
                "ok": True,
                "payload": {
                    "installed": injector is not None,
                    "report": injector.report() if injector is not None else None,
                },
            }
        if request.get("clear"):
            released = 0
            if injector is not None:
                released = injector.finish_serve_faults()
                if released:
                    self.release_admission_load(released)
                self.store.chaos = None
            return {
                "id": request_id,
                "ok": True,
                "payload": {
                    "cleared": injector is not None,
                    "released": released,
                },
            }
        spec = request.get("spec")
        if not isinstance(spec, str) or not spec:
            return {
                "id": request_id,
                "ok": False,
                "error": (
                    "chaos request needs a non-empty 'spec' string "
                    "(or 'report'/'clear': true)"
                ),
            }
        seed = request.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            return {"id": request_id, "ok": False, "error": "chaos 'seed' must be an integer"}
        if injector is not None:
            return {
                "id": request_id,
                "ok": False,
                "error": "a chaos schedule is already installed; clear it first",
            }
        try:
            schedule = FaultSchedule.parse(spec, seed=seed)
            installed = ChaosInjector(schedule, self.store)
        except ValueError as exc:
            return {"id": request_id, "ok": False, "error": str(exc)}
        self.store.chaos = installed
        return {
            "id": request_id,
            "ok": True,
            "payload": {"installed": True, "faults": len(schedule.events)},
        }

    def _serve_publish(self, request_id: Any, mode: str, parsed) -> Dict[str, Any]:
        """Executed on the thread pool: publish an epoch into the store.

        The store's publish methods are plain thread-safe calls
        (serialised by its ingest lock), so wire publishes, a streaming
        simulation thread and in-process callers can all interleave.
        """
        try:
            if mode == "delta":
                generation = self.store.publish_delta(parsed)
                changed = parsed.changed_count
            else:
                node_ids, components, heights, source = parsed
                generation = self.store.publish_epoch(
                    node_ids, components, heights, source=source
                )
                changed = len(node_ids)
        except (ValueError, TypeError) as exc:
            return {"id": request_id, "ok": False, "error": str(exc)}
        return {
            "id": request_id,
            "ok": True,
            "payload": {
                "version": generation.version,
                "nodes": len(generation),
                "mode": mode,
                "changed": changed,
            },
            "version": generation.version,
        }

    def _serve_query(
        self, request_id: Any, query, trace: Optional[TraceRecorder] = None
    ) -> Dict[str, Any]:
        """Executed on the thread pool: pin a generation, serve, respond."""
        try:
            result = self.store.serve(query, trace=trace)
        except QueryError as exc:
            events = getattr(self.store, "events", None)
            if events is not None:
                events.emit("shard_error", query_kind=query.kind, error=str(exc))
            return {"id": request_id, "ok": False, "error": str(exc)}
        return self._query_response(request_id, result)

    @staticmethod
    def _query_response(request_id: Any, result: ServeResult) -> Dict[str, Any]:
        """The wire envelope of one served query, hit or miss alike."""
        response = {
            "id": request_id,
            "ok": True,
            "payload": result.payload,
            "version": result.version,
            "cached": result.cached,
        }
        if result.partial:
            # Degraded contract: still ok, but the client is told exactly
            # which shards' candidates are missing from the answer.
            response["partial"] = True
            response["missing_shards"] = sorted(result.missing_shards)
        return response


class CoordinateServer:
    """Serve a sharded coordinate store over the wire protocol (TCP)."""

    def __init__(
        self,
        store: ShardedCoordinateStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight_per_connection: int = 32,
        admission_limit: int = 1024,
        executor_workers: Optional[int] = None,
        registry: Optional[TelemetryRegistry] = None,
        trace_spans: bool = False,
        retry_after_ms: Optional[float] = None,
    ) -> None:
        if max_in_flight_per_connection < 1:
            raise ValueError("max_in_flight_per_connection must be >= 1")
        self.store = store
        self.host = host
        self.port = port
        self.max_in_flight_per_connection = max_in_flight_per_connection
        #: The daemon adopts the store's registry by default, so one
        #: ``metrics`` op renders store + daemon instruments together.
        self.registry = registry if registry is not None else store.registry
        if trace_spans:
            self.registry.enable_spans(True)
        self.engine = RequestEngine(
            store,
            admission_limit=admission_limit,
            executor_workers=executor_workers,
            registry=self.registry,
            retry_after_ms=retry_after_ms,
            admission_stats_extra=self._connection_stats,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._c_connections = self.registry.counter(
            "daemon_connections_total", "Client connections accepted."
        )
        self._g_connections_open = self.registry.gauge(
            "daemon_connections_open", "Currently open client connections."
        )

    def _connection_stats(self) -> Dict[str, Any]:
        """The TCP-transport fields of the admission stats section."""
        return {
            "per_connection_window": self.max_in_flight_per_connection,
            "connections_total": self._c_connections.value,
            "connections_open": int(self._g_connections_open.value),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid once started."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    async def start(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    def stop(self) -> None:
        """Request shutdown (safe from any thread; idempotent)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # the loop already stopped (e.g. a wire 'shutdown' op)

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op), then shut down."""
        assert self._stop_event is not None and self._server is not None
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()
        self.engine.shutdown(wait=True)

    def run_in_thread(self) -> "ServerThread":
        """Run the daemon on its own background event-loop thread."""
        return ServerThread(self)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_connections.inc()
        self._g_connections_open.inc()
        window = asyncio.Semaphore(self.max_in_flight_per_connection)
        responses: "asyncio.Queue[Optional[asyncio.Task]]" = asyncio.Queue()
        writer_task = asyncio.create_task(
            self._write_responses(responses, writer, window)
        )
        shutdown_requested = False
        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER.size)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                length = frame_length(header)
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    # The peer closed mid-frame: nothing to answer, but
                    # the cut frame is counted like a corrupt one.
                    self.engine._count_error(None)
                    break
                request = decode_frame(body)
                # Backpressure: once this connection's window is full we
                # stop reading its socket until a response drains.
                await window.acquire()
                task = asyncio.create_task(self.engine.process(request))
                await responses.put(task)
                if request.get("op") == "shutdown":
                    shutdown_requested = True
                    break
        except ProtocolError as exc:
            # A corrupt frame poisons the stream; report once and drop.
            self.engine._count_error(None)
            await window.acquire()
            failed: asyncio.Future = asyncio.get_running_loop().create_future()
            failed.set_result({"id": None, "ok": False, "error": str(exc)})
            await responses.put(failed)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with this connection open: end the handler
            # quietly, as the gateway does.  A connection task that ends
            # cancelled makes Python 3.11's stream callback log an error.
            pass
        finally:
            await responses.put(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass  # the shutdown cancelled the writer too
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._g_connections_open.dec()
            if shutdown_requested:
                self.stop()

    async def _write_responses(
        self,
        responses: "asyncio.Queue[Optional[asyncio.Task]]",
        writer: asyncio.StreamWriter,
        window: asyncio.Semaphore,
    ) -> None:
        """Drain completed responses to the socket, strictly in order."""
        while True:
            pending = await responses.get()
            if pending is None:
                return
            try:
                response = await pending
            except Exception as exc:  # defensive: a handler bug, not a client error
                response = {"id": None, "ok": False, "error": f"internal error: {exc}"}
            try:
                writer.write(encode_frame(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
            finally:
                window.release()


class ServerThread:
    """A daemon running on its own event-loop thread (context manager).

    The owning thread starts the loop, runs the server until
    :meth:`stop`, then tears everything down.  The serving *store* stays
    directly usable from any other thread -- publishing epochs does not
    go through the loop at all.

    Duck-typed over ``server``: anything exposing ``start()`` /
    ``wait_stopped()`` / ``stop()`` with the daemon's semantics works,
    which is how the HTTP gateway reuses this thread harness.
    """

    def __init__(self, server) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self, timeout_s: float = 10.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="coordinate-daemon", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("coordinate daemon failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"coordinate daemon failed to start: {self._startup_error}"
            )
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.address = await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self.server.wait_stopped()

        asyncio.run(main())

    def stop(self, timeout_s: float = 10.0) -> None:
        self.server.stop()
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():  # pragma: no cover - watchdog only
                raise RuntimeError("coordinate daemon did not stop in time")
            self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
