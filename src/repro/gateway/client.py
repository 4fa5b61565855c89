"""An async HTTP client for the gateway with the TCP client's surface.

:class:`GatewayClient` exposes the request surface of
:class:`~repro.server.client.AsyncCoordinateClient` -- ``request``,
``op``, ``query``, ``chaos``, ``close`` -- over one keep-alive HTTP/1.1
connection, so everything written against the TCP client (the load
harness, oracle verification, chaos injection, the CLI) drives the
gateway unchanged via :func:`repro.server.load.run_load_async`'s
``connect`` factory.

Wire request objects are routed by op: ``publish`` to ``POST
/v1/{tenant}/publish``, ``chaos`` to ``POST /v1/{tenant}/chaos``,
everything else to ``POST /v1/{tenant}/query``.  HTTP-layer rejections
(401, 403, 429, ...) surface as the JSON error envelope the gateway put
in the response body -- a 429 parses to an ``overloaded`` envelope with
``retry_after_ms``, exactly like a daemon admission shed, so
``request_with_retry``-style callers treat both transports identically.

HTTP/1.1 without pipelining is one request at a time per connection; an
internal lock serialises concurrent callers.  Concurrency across
requests comes from multiple connections (``repro load --connections``),
matching how real HTTP clients pool.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Dict, Optional, Tuple

from repro.server.client import AsyncCoordinateClient  # noqa: F401  (surface doc)
from repro.server.errors import RequestTimeout, TransportError
from repro.server.protocol import encode_body, query_to_request
from repro.service.planner import Query

__all__ = ["GatewayClient", "parse_base_url"]

_MAX_RESPONSE_HEADER = 64 * 1024


def parse_base_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` from an ``http://host:port`` base URL."""
    if not url.startswith("http://"):
        raise ValueError(f"gateway URL must start with http:// (got {url!r})")
    netloc = url[len("http://") :].split("/", 1)[0]
    host, sep, port_text = netloc.rpartition(":")
    if not sep or not port_text.isdigit():
        raise ValueError(f"gateway URL needs an explicit port (got {url!r})")
    if not host:
        raise ValueError(f"gateway URL needs a host (got {url!r})")
    return host, int(port_text)


class GatewayClient:
    """One keep-alive HTTP connection to a gateway, bound to a tenant."""

    def __init__(self, host: str, port: int, tenant: str, api_key: str) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.api_key = api_key
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._closed = False

    @classmethod
    async def connect(
        cls, base_url: str, tenant: str, api_key: str
    ) -> "GatewayClient":
        host, port = parse_base_url(base_url)
        client = cls(host, port, tenant, api_key)
        await client._ensure_connection()
        return client

    async def _ensure_connection(self) -> None:
        if self._reader is None or self._writer is None:
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            except OSError as exc:
                raise TransportError(f"cannot connect to gateway: {exc}") from exc

    def _drop_connection(self) -> None:
        """Abandon the connection (a timed-out response would desync it)."""
        if self._writer is not None:
            self._writer.close()
        self._reader = None
        self._writer = None

    # ------------------------------------------------------------------
    # The AsyncCoordinateClient surface
    # ------------------------------------------------------------------
    async def request(
        self, request: Dict[str, Any], *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send one wire request object; return the response object.

        The client assigns its own correlation id, like the TCP client.
        ``timeout`` bounds the exchange; expiry raises
        :class:`RequestTimeout` and drops the connection (a late HTTP
        response cannot be correlated away, so the next request
        reconnects).
        """
        payload = dict(request)
        payload["id"] = next(self._ids)
        status, body = await self.request_raw(payload, timeout=timeout)
        try:
            response = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(
                f"gateway returned a non-JSON body (HTTP {status})"
            ) from exc
        if not isinstance(response, dict):
            raise TransportError(f"gateway returned a non-object body (HTTP {status})")
        return response

    async def request_raw(
        self, payload: Dict[str, Any], *, timeout: Optional[float] = None
    ) -> Tuple[int, bytes]:
        """``(status, raw body bytes)`` for one already-id'd wire request.

        The byte-identity tests compare these raw bytes against TCP
        frame bodies directly.
        """
        if self._closed:
            raise TransportError("client is closed")
        op = payload.get("op")
        if op == "publish":
            path = f"/v1/{self.tenant}/publish"
        elif op == "chaos":
            path = f"/v1/{self.tenant}/chaos"
        else:
            path = f"/v1/{self.tenant}/query"
        body = encode_body(payload)
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Authorization: Bearer {self.api_key}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("ascii")
        async with self._lock:
            await self._ensure_connection()
            assert self._reader is not None and self._writer is not None
            try:
                self._writer.write(head + body)
                await self._writer.drain()
                if timeout is None:
                    return await self._read_response()
                try:
                    return await asyncio.wait_for(self._read_response(), timeout)
                except asyncio.TimeoutError:
                    self._drop_connection()
                    raise RequestTimeout(
                        f"gateway request ({payload.get('op')}) timed out "
                        f"after {timeout}s"
                    ) from None
            except (ConnectionResetError, BrokenPipeError, OSError) as exc:
                self._drop_connection()
                raise TransportError(f"connection lost: {exc}") from exc
            except asyncio.IncompleteReadError as exc:
                self._drop_connection()
                raise TransportError("gateway closed the connection") from exc

    async def _read_response(self) -> Tuple[int, bytes]:
        assert self._reader is not None
        status_line = await self._reader.readuntil(b"\r\n")
        parts = status_line.decode("ascii", "replace").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            self._drop_connection()
            raise TransportError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        content_length: Optional[int] = None
        keep_alive = True
        header_bytes = 0
        while True:
            line = await self._reader.readuntil(b"\r\n")
            header_bytes += len(line)
            if header_bytes > _MAX_RESPONSE_HEADER:
                self._drop_connection()
                raise TransportError("response header block too large")
            if line == b"\r\n":
                break
            name, _, value = line.decode("ascii", "replace").partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length" and value.isdigit():
                content_length = int(value)
            elif name == "connection" and value.lower() == "close":
                keep_alive = False
        if content_length is None:
            self._drop_connection()
            raise TransportError("gateway response is missing Content-Length")
        body = await self._reader.readexactly(content_length)
        if not keep_alive:
            self._drop_connection()
        return status, body

    async def query(
        self, query: Query, *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return await self.request(query_to_request(query, None), timeout=timeout)

    async def op(self, op: str, **fields: Any) -> Dict[str, Any]:
        return await self.request({"op": op, **fields})

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
