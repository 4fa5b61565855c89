"""Asyncio client for the coordinate daemon.

:class:`AsyncCoordinateClient` speaks the length-prefixed JSON protocol
with pipelining: many requests may be outstanding on one connection, and
a background reader task resolves them by correlation id (the daemon also
guarantees in-order responses, but id matching keeps the client correct
for any compliant server).  The client assigns its own monotonically
increasing ids; callers never manage them.

**Failure typing.** Every transport failure raises a
:class:`~repro.server.errors.TransportError` (a ``ConnectionError``
subclass, so legacy handlers keep working) with the underlying socket or
protocol exception preserved as its ``__cause__``; a per-request
``timeout`` raises :class:`~repro.server.errors.RequestTimeout` while
leaving the connection usable -- the late response, if it ever arrives,
is dropped by correlation id.  :meth:`close` is idempotent and safe to
call concurrently with in-flight requests: the first caller tears the
connection down (failing every pending future with a typed error) and
every other caller simply awaits that teardown.

**Backoff.** :func:`backoff_delay_ms` is the client's deterministic
retry schedule -- capped exponential growth with seeded equal-jitter --
and :meth:`request_with_retry` applies it to timeouts and overloaded
responses, raising :class:`~repro.server.errors.ServerOverloaded` once
the budget is exhausted.  An overloaded response may carry a
server-supplied ``retry_after_ms`` hint; when it does, the next delay is
:func:`retry_after_delay_ms` -- at least the hinted interval, plus the
same seeded jitter discipline -- instead of the exponential schedule, so
the server's own estimate of when capacity returns wins over the
client's blind guess while retries stay byte-deterministic per seed.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
from typing import Any, Dict, Optional, Tuple

from repro.server.errors import RequestTimeout, ServerOverloaded, TransportError
from repro.server.protocol import (
    HEADER,
    ProtocolError,
    decode_frame,
    encode_frame,
    frame_length,
    query_to_request,
)
from repro.service.planner import Query

__all__ = [
    "AsyncCoordinateClient",
    "backoff_delay_ms",
    "request_once",
    "retry_after_delay_ms",
]


def _rows(components) -> list:
    """JSON-safe nested lists for a coordinate-row array or sequence."""
    return [[float(value) for value in row] for row in components]


def backoff_delay_ms(
    attempt: int,
    *,
    base_ms: float = 10.0,
    cap_ms: float = 500.0,
    seed: int = 0,
) -> float:
    """Retry delay for ``attempt`` (0-based): capped exponential, seeded jitter.

    The bound doubles per attempt up to ``cap_ms``; the returned delay is
    equal-jitter over ``[bound/2, bound)`` with the jitter fraction a pure
    blake2b hash of ``(seed, attempt)`` -- deterministic for a seeded
    client, decorrelated across seeds, and never synchronised into a
    retry stampede the way un-jittered exponential backoff is.
    """
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    if base_ms <= 0.0 or cap_ms < base_ms:
        raise ValueError("need 0 < base_ms <= cap_ms")
    bound = min(cap_ms, base_ms * (2.0**attempt))
    digest = hashlib.blake2b(
        f"backoff:{seed}:{attempt}".encode(), digest_size=8
    ).digest()
    fraction = int.from_bytes(digest, "big") / 2.0**64
    return bound * (0.5 + 0.5 * fraction)


def retry_after_delay_ms(hint_ms: float, attempt: int, *, seed: int = 0) -> float:
    """Retry delay honoring a server ``retry_after_ms`` hint.

    ``Retry-After`` semantics are "wait at least this long", so the delay
    is the hint plus up to 50% seeded jitter *above* it (never below --
    jittering under the hint would land the retry back inside the window
    the server said was saturated).  The jitter fraction is a pure
    blake2b hash of ``(seed, attempt)``, matching
    :func:`backoff_delay_ms`'s determinism discipline.
    """
    if hint_ms < 0.0:
        raise ValueError("hint_ms must be >= 0")
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    digest = hashlib.blake2b(
        f"retry-after:{seed}:{attempt}".encode(), digest_size=8
    ).digest()
    fraction = int.from_bytes(digest, "big") / 2.0**64
    return hint_ms * (1.0 + 0.5 * fraction)


class AsyncCoordinateClient:
    """One pipelined protocol connection to a coordinate daemon."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: Dict[Any, asyncio.Future] = {}
        self._closed = False
        self._close_started = False
        self._close_done = asyncio.Event()
        self._reader_task = asyncio.create_task(self._read_responses())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncCoordinateClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_responses(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(HEADER.size)
                body = await self._reader.readexactly(frame_length(header))
                response = decode_frame(body)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
            ProtocolError,
        ) as exc:
            self._fail_pending(exc)
        except asyncio.CancelledError:
            self._fail_pending(TransportError("client is closed"))
            raise

    def _fail_pending(self, exc: BaseException) -> None:
        """Fail every in-flight request with a typed, cause-preserving error."""
        self._closed = True
        if isinstance(exc, TransportError):
            error = exc
        else:
            error = TransportError(f"connection lost: {exc}")
            error.__cause__ = exc
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def request(
        self, request: Dict[str, Any], *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send one request object and await its response.

        The client overwrites ``id`` with its own correlation value.
        With ``timeout`` (seconds) the wait is bounded: expiry raises
        :class:`RequestTimeout` and abandons the correlation id, so a
        late response is silently discarded and the connection stays
        usable for subsequent requests.
        """
        if self._closed:
            raise TransportError("client is closed")
        request_id = next(self._ids)
        payload = dict(request)
        payload["id"] = request_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(encode_frame(payload))
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise TransportError(f"connection lost: {exc}") from exc
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise RequestTimeout(
                f"request {request_id} ({payload.get('op')}) timed out "
                f"after {timeout}s"
            ) from None

    async def request_with_retry(
        self,
        request: Dict[str, Any],
        *,
        retries: int = 3,
        timeout: Optional[float] = None,
        seed: int = 0,
        base_ms: float = 10.0,
        cap_ms: float = 500.0,
        sleep=asyncio.sleep,
    ) -> Dict[str, Any]:
        """``request()`` with deterministic capped-exponential backoff.

        Retries the transient failure modes -- :class:`RequestTimeout`
        and overloaded (admission-shed) responses -- up to ``retries``
        times, sleeping :func:`backoff_delay_ms` between attempts.  When
        an overloaded response carries a ``retry_after_ms`` hint, the
        next sleep is :func:`retry_after_delay_ms` over that hint instead
        (still seeded-jitter deterministic); a malformed hint is ignored
        and the exponential schedule applies.  Once the budget is
        exhausted the last timeout re-raises, or a
        :class:`ServerOverloaded` is raised for a still-shedding daemon.
        A :class:`TransportError` is never retried: this client owns a
        single connection, so a lost connection cannot heal here.
        """
        if retries < 0:
            raise ValueError("retries must be >= 0")
        last: Optional[BaseException] = None
        hint_ms: Optional[float] = None
        for attempt in range(retries + 1):
            if attempt:
                if hint_ms is not None:
                    delay_ms = retry_after_delay_ms(hint_ms, attempt - 1, seed=seed)
                else:
                    delay_ms = backoff_delay_ms(
                        attempt - 1, base_ms=base_ms, cap_ms=cap_ms, seed=seed
                    )
                await sleep(delay_ms / 1e3)
            hint_ms = None
            try:
                response = await self.request(request, timeout=timeout)
            except RequestTimeout as exc:
                last = exc
                continue
            if response.get("overloaded"):
                overloaded = ServerOverloaded(
                    response.get("error") or "server overloaded"
                )
                last = overloaded
                hint = response.get("retry_after_ms")
                if (
                    not isinstance(hint, bool)
                    and isinstance(hint, (int, float))
                    and hint >= 0
                ):
                    hint_ms = float(hint)
                continue
            return response
        assert last is not None
        raise last

    async def query(
        self, query: Query, *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send one service-layer query and await its wire response."""
        return await self.request(query_to_request(query, None), timeout=timeout)

    async def op(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one non-query operation (``version``, ``stats``, ``chaos``, ...)."""
        return await self.request({"op": op, **fields})

    async def publish_full(
        self, node_ids, components, heights=None, *, source: str = ""
    ) -> Dict[str, Any]:
        """Publish a whole-population epoch over the wire."""
        request: Dict[str, Any] = {
            "op": "publish",
            "nodes": [str(node_id) for node_id in node_ids],
            "components": _rows(components),
            "source": source,
        }
        if heights is not None:
            request["heights"] = [float(height) for height in heights]
        return await self.request(request)

    async def publish_delta(
        self,
        node_ids,
        components,
        heights=None,
        *,
        removed_ids=(),
        source: str = "",
        epoch: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Publish only the changed rows (the delta form of ``publish``)."""
        request: Dict[str, Any] = {
            "op": "publish",
            "delta": True,
            "nodes": [str(node_id) for node_id in node_ids],
            "components": _rows(components),
            "removed": [str(node_id) for node_id in removed_ids],
            "source": source,
        }
        if heights is not None:
            request["heights"] = [float(height) for height in heights]
        if epoch is not None:
            request["epoch"] = epoch
        return await self.request(request)

    async def close(self) -> None:
        """Tear the connection down; idempotent and concurrency-safe.

        The first caller performs the teardown (cancelling the reader
        fails every pending request with a typed :class:`TransportError`);
        concurrent and repeated callers await the same completion event,
        so double-close from a ``finally`` plus a context-manager exit is
        harmless.
        """
        if self._close_started:
            await self._close_done.wait()
            return
        self._close_started = True
        self._closed = True
        try:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        finally:
            self._close_done.set()

    async def __aenter__(self) -> "AsyncCoordinateClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def request_once(
    address: Tuple[str, int], request: Dict[str, Any]
) -> Dict[str, Any]:
    """Connect, send one request, return its response, disconnect."""
    client = await AsyncCoordinateClient.connect(*address)
    try:
        return await client.request(request)
    finally:
        await client.close()
