"""The asyncio HTTP gateway server: routes, auth, quotas, telemetry.

Routes
------

========================== ====== ==============================================
``GET /healthz``           none   gateway liveness: ``{"ok": true, ...}``
``GET /metrics``           none   the gateway-level registry (Prometheus text)
``POST /v1/{t}/query``     key    one wire request object (query and admin ops);
                                  the response body is byte-identical to the TCP
                                  daemon's frame body for the same snapshot
``POST /v1/{t}/publish``   key    a wire ``publish`` request (full or delta)
``POST /v1/{t}/chaos``     key    the chaos control plane
``GET /v1/{t}/health``     key    coordinate health; ``?sections=a,b`` restricts
``GET /v1/{t}/metrics``    key    the tenant's own registry (Prometheus text)
``GET /v1/{t}/events``     key    structured event log; ``?limit=N``
========================== ====== ==============================================

Authentication is ``Authorization: Bearer <key>`` or ``X-API-Key:
<key>``; a missing or unknown key is 401, a valid key presented against
another tenant's path is 403 (both counted under
``gateway_auth_failures_total``).  The wire ``shutdown`` op is rejected
on every route: tenants must not be able to stop the shared process.

Semantics mirror the TCP daemon: an application-level failure (unknown
node, malformed query) is still HTTP 200 with the engine's exact
``"ok": false`` envelope -- HTTP status codes describe the *transport
and policy* layer (auth, quota, routing, parse errors), not query
outcomes, so the two transports' response bodies stay byte-identical.

Quota shedding happens before the tenant's engine ever sees the request:
a drained token bucket answers 429 with a deterministic ``Retry-After``
header and an ``overloaded`` JSON envelope carrying ``retry_after_ms``,
the same hint shape the daemon's admission control emits, so
:meth:`~repro.server.client.AsyncCoordinateClient.request_with_retry`
handles both identically.  Only the POST data plane (query / publish /
chaos) consumes quota; GET observability routes never do, so operators
can always see a tenant that is being shed.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional, Tuple

from repro.gateway.config import GatewayConfig
from repro.gateway.http import HttpError, HttpRequest, read_request, render_response
from repro.gateway.tenants import Tenant, TenantRegistry
from repro.obs.registry import TelemetryRegistry
from repro.server.daemon import CLOSE_ERRORS, ServerThread, close_connection
from repro.server.protocol import OPS, QUERY_OPS, ProtocolError, decode_frame, encode_body

__all__ = ["GatewayServer"]

_PROM_TYPE = "text/plain; version=0.0.4"

#: Ops a tenant may send through ``POST /v1/{t}/query``.  ``publish`` and
#: ``chaos`` have their own routes; ``shutdown`` is never available.
_QUERY_ROUTE_OPS = frozenset(OPS) - {"publish", "chaos", "shutdown"}


def _error_body(message: str, request_id: Any = None, **extra: Any) -> bytes:
    """An engine-shaped error envelope as a response body."""
    payload: Dict[str, Any] = {"id": request_id, "ok": False, "error": message}
    payload.update(extra)
    return encode_body(payload)


class _Reply(Exception):
    """Internal: unwind request handling with a finished response."""

    def __init__(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        super().__init__(status)
        self.status = status
        self.body = body
        self.content_type = content_type
        self.extra_headers = extra_headers


class GatewayServer:
    """One process serving every configured tenant over HTTP/1.1.

    Lifecycle mirrors :class:`~repro.server.daemon.CoordinateServer`
    (``start`` / ``wait_stopped`` / ``stop`` / ``address``), so
    :class:`~repro.server.daemon.ServerThread` runs either unchanged.
    """

    def __init__(
        self,
        config: GatewayConfig,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        registry: Optional[TelemetryRegistry] = None,
    ) -> None:
        self.config = config
        self.host = host if host is not None else config.host
        self.port = port if port is not None else config.port
        self.tenants = TenantRegistry(config)
        #: The gateway-level registry: cross-tenant edge telemetry only
        #: (requests, sheds, auth failures, per-route latency).  Tenant
        #: serving telemetry lives in each tenant's own registry.
        self.registry = registry if registry is not None else TelemetryRegistry()
        self._g_connections_open = self.registry.gauge(
            "gateway_connections_open", "Currently open client connections."
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._concurrent = asyncio.Semaphore(config.max_concurrent)

    # ------------------------------------------------------------------
    # Lifecycle (CoordinateServer-compatible)
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("gateway is not started")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def start(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    def stop(self) -> None:
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass

    async def wait_stopped(self) -> None:
        assert self._stop_event is not None and self._server is not None
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()
        self.tenants.shutdown()

    def run_in_thread(self) -> ServerThread:
        return ServerThread(self)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._g_connections_open.inc()
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    # A parse failure poisons the stream: answer, close.
                    self._count("malformed")
                    writer.write(
                        render_response(
                            exc.status,
                            _error_body(exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                async with self._concurrent:
                    started = time.perf_counter()
                    reply = await self._dispatch(request)
                writer.write(
                    render_response(
                        reply.status,
                        reply.body,
                        content_type=reply.content_type,
                        extra_headers=reply.extra_headers,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                self._observe_latency(request, (time.perf_counter() - started) * 1e3)
                if not request.keep_alive:
                    return
        except asyncio.IncompleteReadError:
            pass
        except CLOSE_ERRORS:
            pass  # the peer went away, or a stop cancelled this handler
        finally:
            await close_connection(writer, self._g_connections_open)

    def _count(self, route: str) -> None:
        self.registry.counter(
            "gateway_requests_total", "HTTP requests by route.", route=route
        ).inc()

    def _observe_latency(self, request: HttpRequest, elapsed_ms: float) -> None:
        route = self._route_label(request.path)
        self.registry.histogram(
            "gateway_request_ms", "Gateway request latency by route.", route=route
        ).observe(elapsed_ms)

    @staticmethod
    def _route_label(path: str) -> str:
        """A bounded-cardinality route label (tenant names elided)."""
        if path == "/healthz":
            return "healthz"
        if path == "/metrics":
            return "metrics"
        parts = [part for part in path.split("/") if part]
        if len(parts) == 3 and parts[0] == "v1":
            return f"v1/{parts[2]}"
        return "unknown"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> _Reply:
        try:
            return await self._route(request)
        except _Reply as reply:
            return reply
        except Exception as exc:  # defensive: a handler bug, not a client error
            return _Reply(500, _error_body(f"internal error: {exc}"))

    async def _route(self, request: HttpRequest) -> _Reply:
        path = request.path
        if path == "/healthz":
            self._count("healthz")
            self._require_method(request, "GET")
            return _Reply(
                200,
                encode_body(
                    {
                        "ok": True,
                        "tenants": len(self.tenants.tenants),
                        "gateway": "repro",
                    }
                ),
            )
        if path == "/metrics":
            self._count("metrics")
            self._require_method(request, "GET")
            return _Reply(
                200,
                self.registry.render_prometheus().encode(),
                content_type=_PROM_TYPE,
            )

        parts = [part for part in path.split("/") if part]
        if len(parts) != 3 or parts[0] != "v1":
            self._count("unknown")
            return _Reply(404, _error_body(f"unknown route {path!r}"))
        _, tenant_name, resource = parts
        self._count(f"v1/{resource}")
        tenant = self._authenticate(request, tenant_name)

        if resource == "query":
            self._require_method(request, "POST")
            wire = self._parse_wire_body(request)
            op = wire.get("op")
            if op not in _QUERY_ROUTE_OPS:
                if op == "publish" or op == "chaos":
                    message = f"op {op!r} must use POST /v1/{tenant_name}/{op}"
                elif op == "shutdown":
                    message = "shutdown is not available through the gateway"
                else:
                    message = f"unknown op {op!r}"
                return _Reply(200, _error_body(message, wire.get("id")))
            self._enforce_quota(tenant, wire, op)
            return await self._engine_reply(tenant, wire)
        if resource == "publish":
            self._require_method(request, "POST")
            wire = self._parse_wire_body(request)
            if wire.get("op") != "publish":
                return _Reply(
                    200,
                    _error_body(
                        "the publish route expects a wire 'publish' request",
                        wire.get("id"),
                    ),
                )
            self._enforce_quota(tenant, wire, "publish")
            return await self._engine_reply(tenant, wire)
        if resource == "chaos":
            self._require_method(request, "POST")
            wire = self._parse_wire_body(request)
            if wire.get("op") != "chaos":
                return _Reply(
                    200,
                    _error_body(
                        "the chaos route expects a wire 'chaos' request",
                        wire.get("id"),
                    ),
                )
            self._enforce_quota(tenant, wire, "chaos")
            return await self._engine_reply(tenant, wire)
        if resource == "health":
            self._require_method(request, "GET")
            wire = {"id": None, "op": "health"}
            sections = request.query_params().get("sections")
            if sections:
                wire["sections"] = [
                    name.strip() for name in sections.split(",") if name.strip()
                ]
            return await self._engine_reply(tenant, wire)
        if resource == "metrics":
            self._require_method(request, "GET")
            return _Reply(
                200,
                tenant.registry.render_prometheus().encode(),
                content_type=_PROM_TYPE,
            )
        if resource == "events":
            self._require_method(request, "GET")
            wire = {"id": None, "op": "events"}
            limit = request.query_params().get("limit")
            if limit is not None:
                if not limit.isdigit():
                    return _Reply(400, _error_body(f"malformed limit {limit!r}"))
                wire["limit"] = int(limit)
            return await self._engine_reply(tenant, wire)
        return _Reply(404, _error_body(f"unknown route {path!r}"))

    # ------------------------------------------------------------------
    # Policy layers
    # ------------------------------------------------------------------
    def _require_method(self, request: HttpRequest, method: str) -> None:
        if request.method != method:
            raise _Reply(
                405,
                _error_body(f"{request.path} requires {method}"),
                extra_headers=(("Allow", method),),
            )

    def _authenticate(self, request: HttpRequest, tenant_name: str) -> Tenant:
        """The authenticated tenant for this path, or a 401/403 reply."""
        presented = request.headers.get("x-api-key")
        if presented is None:
            authorization = request.headers.get("authorization", "")
            scheme, _, credential = authorization.partition(" ")
            if scheme.lower() == "bearer" and credential:
                presented = credential.strip()
        if not presented:
            self._count_auth_failure("missing_key")
            raise _Reply(
                401,
                _error_body("missing API key (Authorization: Bearer or X-API-Key)"),
                extra_headers=(("WWW-Authenticate", 'Bearer realm="repro-gateway"'),),
            )
        tenant = self.tenants.authenticate(presented)
        if tenant is None:
            self._count_auth_failure("unknown_key")
            raise _Reply(
                401,
                _error_body("unknown API key"),
                extra_headers=(("WWW-Authenticate", 'Bearer realm="repro-gateway"'),),
            )
        if tenant.name != tenant_name:
            # A real key used against another tenant's namespace: the
            # caller is authenticated but not authorized -- and learns
            # nothing about whether the target tenant exists.
            self._count_auth_failure("wrong_tenant")
            raise _Reply(
                403,
                _error_body(f"API key is not authorized for tenant {tenant_name!r}"),
            )
        return tenant

    def _count_auth_failure(self, reason: str) -> None:
        self.registry.counter(
            "gateway_auth_failures_total",
            "Rejected requests by auth failure reason.",
            reason=reason,
        ).inc()

    def _parse_wire_body(self, request: HttpRequest) -> Dict[str, Any]:
        try:
            return decode_frame(request.body)
        except ProtocolError as exc:
            raise _Reply(400, _error_body(str(exc))) from None

    def _enforce_quota(self, tenant: Tenant, wire: Dict[str, Any], op: str) -> None:
        """Spend one token, or unwind with the deterministic 429."""
        bucket = tenant.bucket
        if bucket is None:
            return
        granted, deficit = bucket.try_acquire()
        if granted:
            return
        retry_after_ms = bucket.retry_after_ms(deficit)
        self.registry.counter(
            "gateway_shed_total", "Requests shed by tenant quota.", tenant=tenant.name
        ).inc()
        tenant.registry.counter(
            "gateway_quota_shed_total", "Requests shed by this tenant's quota."
        ).inc()
        tenant.store.events.emit(
            "quota_shed", op=str(op), retry_after_ms=retry_after_ms
        )
        raise _Reply(
            429,
            _error_body(
                f"quota exceeded for tenant {tenant.name!r}",
                wire.get("id"),
                overloaded=True,
                retry_after_ms=retry_after_ms,
            ),
            extra_headers=(
                ("Retry-After", str(bucket.retry_after_seconds(retry_after_ms))),
            ),
        )

    async def _engine_reply(self, tenant: Tenant, wire: Dict[str, Any]) -> _Reply:
        """Run one wire request through the tenant's engine.

        The body is :func:`~repro.server.protocol.encode_body` of the
        engine's response object -- exactly the bytes the TCP daemon
        would put after the frame header.
        """
        response = await tenant.engine.process(wire)
        return _Reply(200, encode_body(response))
