"""The daemon's wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON.  Requests and responses are JSON objects:

Request::

    {"id": 7, "op": "knn", "target": "node000012", "k": 3}

Response::

    {"id": 7, "ok": true, "payload": {...}, "version": 42, "cached": false}
    {"id": 7, "ok": false, "error": "unknown node 'node000099'"}

``id`` is an opaque client-chosen correlation value echoed back verbatim;
the daemon answers each connection's requests in arrival order, so clients
may also rely on ordering alone.  ``version`` is the snapshot version the
whole answer was served from -- every element of a payload is consistent
with exactly that one published generation, across all shards.

Query payloads are built by the one executor,
:func:`repro.service.planner.answer_query` -- the function an in-process
one-shard store calls too -- so keys, floats and ordering are the
single-store oracle's by construction, and a replayed workload checksums
against it byte for byte.

Operations
----------

========== ==========================================================
``knn``       ``target``, ``k`` -> ``answer_query`` knn payload
``nearest``   ``target`` -> the knn payload with one neighbor
``range``     ``target``, ``radius_ms`` -> ``answer_query`` range payload
``distance``  ``a``, ``b`` -> ``answer_query`` pairwise payload
``centroid``  ``members`` (list, may be empty) -> ``answer_query``
                 centroid payload
``version``   -> ``{"version": int, "nodes": int, "source": str}``
``stats``     -> serving/ingest/admission/error counters (JSON-safe);
                 per-kind ``p50_us``/``p99_us`` are histogram read-outs
``metrics``   -> ``{"content_type": str, "text": str}`` -- the server's
                 telemetry registry rendered in Prometheus text format
``health``    -> coordinate-health sections (relative error, drift,
                 neighbor churn, staleness); optional ``sections`` list
                 restricts the payload, an unknown name is an error
``events``    -> ``{"events": [...], "stats": {...}}`` -- the structured
                 event log tail; optional integer ``limit``
``nodes``     -> ``{"node_ids": [...], "version": int}``
``snapshot``  -> the full snapshot dict (``ArraySnapshot.to_dict``)
``ping``      -> ``{"pong": true}``
``hello``     -> ``{"protocol_version": int, "ops": [...]}``
``publish``   -> ``nodes``, ``components``, optional ``heights``/
                 ``source`` publish a full epoch; with ``"delta": true``
                 only the changed rows travel, plus optional
                 ``removed``/``epoch`` -> ``{"version", "nodes", "mode",
                 "changed"}``.  The rows must keep
                 :func:`~repro.service.publish.check_rows`'s contract;
                 a refusal is ``ok: false`` naming the first bad id
``chaos``     -> fault-injection control plane:
                 ``spec``/``seed`` install a deterministic
                 :class:`~repro.chaos.schedule.FaultSchedule`,
                 ``"report": true`` fetches the chaos report,
                 ``"clear": true`` force-clears active faults.  Handled
                 *before* admission so an active admission burst can
                 always be cleared
``shutdown``  -> ``{"stopping": true}`` and the daemon begins shutdown
========== ==========================================================

While a shard is killed by fault injection, scatter-query responses are
*degraded*: still ``"ok": true`` but with ``"partial": true`` and a
``"missing_shards"`` list naming the shards whose candidates are absent.
The payload is byte-identical to the full scatter minus those shards
(checked by :func:`repro.chaos.oracle.verify_chaos_responses`).

Any request may additionally set ``"trace": true``; the response then
carries a ``trace`` list of per-stage ``{"stage", ..., "ms"}`` entries
(admission, cache probe, index scan, payload shaping) for that one request.

Protocol version
----------------

There is one protocol version, :data:`PROTOCOL_VERSION`, which ``hello``
reports.  Every client of the protocol lives in this repository and
speaks it, so the server does not read a request's ``"version"`` field:
a request that carries one (older delta-publish and chaos clients send
``2`` or ``3``) is answered byte-identically to the same request without
it.

The module is deliberately dependency-light (no asyncio imports) so both
the asyncio daemon and synchronous tools can share it.

The HTTP gateway (:mod:`repro.gateway`) reuses this module's request and
response *objects* verbatim over HTTP/JSON; :func:`encode_body` is the
shared serializer that makes a gateway response body byte-identical to
the body of the equivalent TCP frame.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.service.planner import Query, QueryError
from repro.service.publish import EpochDelta, check_rows

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_body",
    "encode_frame",
    "decode_frame",
    "frame_length",
    "HEADER",
    "request_to_query",
    "request_to_publish",
    "query_to_request",
    "OPS",
    "QUERY_OPS",
]

#: Frame header: 4-byte big-endian unsigned payload length.
HEADER = struct.Struct(">I")

#: Upper bound on a single frame's JSON body.  Large enough for a full
#: 100k-node snapshot dump, small enough to fail fast on a corrupt or
#: hostile length prefix.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: The protocol revision this module speaks, reported by ``hello``.
PROTOCOL_VERSION = 3

#: Recognised operations.
OPS = (
    "knn",
    "nearest",
    "range",
    "distance",
    "centroid",
    "version",
    "stats",
    "metrics",
    "health",
    "events",
    "nodes",
    "snapshot",
    "ping",
    "hello",
    "publish",
    "chaos",
    "shutdown",
)

#: The subset of :data:`OPS` that are store queries -- the requests that
#: advance a chaos schedule's deterministic request counter.
QUERY_OPS = ("knn", "nearest", "range", "distance", "centroid")


class ProtocolError(ValueError):
    """A malformed frame or request (the connection should be dropped)."""


def encode_body(payload: Mapping[str, Any]) -> bytes:
    """The canonical compact-JSON serialization of one request/response.

    This is exactly the body of a wire frame without its length prefix.
    The HTTP gateway sends these bytes as its response bodies, which is
    what makes them byte-identical to the TCP path.
    """
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return body


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One wire frame: header + compact JSON body."""
    body = encode_body(payload)
    return HEADER.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """Decode and validate the 4-byte length prefix."""
    if len(header) != HEADER.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


def decode_frame(body: bytes) -> Dict[str, Any]:
    """Parse a frame body into a request/response object.

    The one request decoder of both transports (the gateway parses its
    HTTP bodies here too), so a body is refused on both or on neither,
    with the same message.  That includes an ``id`` no answer could
    echo: ``json.loads`` reads ``NaN`` and ``Infinity`` literals, but
    :func:`encode_body` cannot write them.  A non-finite number anywhere
    else is left to the op's own validation.
    """
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("body must be a JSON object")
    echoed = payload.get("id")
    if not isinstance(echoed, (str, int, type(None))):
        try:
            json.dumps(echoed, allow_nan=False)
        except ValueError as exc:
            raise ProtocolError(f"body has an 'id' no answer can echo: {exc}") from None
    return payload


# ----------------------------------------------------------------------
# Request <-> Query translation
# ----------------------------------------------------------------------
def request_to_query(request: Mapping[str, Any]) -> Optional[Query]:
    """The service-layer :class:`Query` for a query-op request.

    Returns ``None`` for non-query operations (``version``, ``stats``,
    ...).  Raises :class:`~repro.service.planner.QueryError` on invalid
    parameters and :class:`ProtocolError` on an unknown/missing ``op`` --
    the caller turns both into error responses.
    """
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; known: {list(OPS)}"
        )
    if op == "knn":
        return Query.knn(_require_str(request, "target"), k=_require_int(request, "k", 3))
    if op == "nearest":
        return Query.nearest(_require_str(request, "target"))
    if op == "range":
        return Query.range(
            _require_str(request, "target"), _require_float(request, "radius_ms")
        )
    if op == "distance":
        return Query.pairwise(_require_str(request, "a"), _require_str(request, "b"))
    if op == "centroid":
        members = request.get("members", [])
        if not isinstance(members, (list, tuple)) or not all(
            isinstance(member, str) for member in members
        ):
            raise QueryError("centroid 'members' must be a list of node ids")
        return Query.centroid(tuple(members))
    return None


def request_to_publish(request: Mapping[str, Any]):
    """Parse a ``publish`` request into its mode and payload.

    Returns ``("full", (node_ids, components, heights, source))`` for a
    whole-population publish or ``("delta", EpochDelta)`` for the
    incremental form.  Both read their rows through
    :func:`~repro.service.publish.check_rows`, before the store is
    touched.  Raises :class:`~repro.service.planner.QueryError` on invalid
    fields, which the daemon turns into an error response.
    """
    delta = bool(request.get("delta", False))
    node_ids, rows = request.get("nodes", []), request.get("components", [])
    heights, removed = request.get("heights"), request.get("removed", [])
    fields = (node_ids, rows, () if heights is None else heights, removed)
    if not all(isinstance(field, (list, tuple)) for field in fields):
        raise QueryError("publish 'nodes', 'components', 'heights' and 'removed' must be lists")
    source = request.get("source", "")
    if not isinstance(source, str):
        raise QueryError("publish 'source' must be a string")
    epoch = request.get("epoch")
    if not delta:
        for key in ("removed", "epoch"):
            if request.get(key) is not None:
                raise QueryError(
                    f"publish {key!r} is only valid on a delta publish "
                    "('delta': true)"
                )
    elif epoch is not None and (isinstance(epoch, bool) or not isinstance(epoch, int)):
        raise QueryError("publish 'epoch' must be an integer")
    try:
        if not delta:
            return "full", (*check_rows(node_ids, rows, heights), source)
        return "delta", EpochDelta(
            node_ids, rows, heights, removed_ids=tuple(removed), source=source, epoch=epoch
        )
    except ValueError as exc:
        raise QueryError(str(exc)) from None


def query_to_request(query: Query, request_id: Any) -> Dict[str, Any]:
    """The wire request answering ``query`` (the load generator's side)."""
    if query.kind == "knn":
        return {"id": request_id, "op": "knn", "target": query.target, "k": query.k}
    if query.kind == "nearest":
        return {"id": request_id, "op": "nearest", "target": query.target}
    if query.kind == "range":
        return {
            "id": request_id,
            "op": "range",
            "target": query.target,
            "radius_ms": query.radius_ms,
        }
    if query.kind == "pairwise":
        return {"id": request_id, "op": "distance", "a": query.pair[0], "b": query.pair[1]}
    if query.kind == "centroid":
        return {"id": request_id, "op": "centroid", "members": list(query.members)}
    raise ProtocolError(f"query kind {query.kind!r} has no wire form")


def _require_str(request: Mapping[str, Any], key: str) -> str:
    value = request.get(key)
    if not isinstance(value, str) or not value:
        raise QueryError(f"request needs a non-empty string {key!r}")
    return value


def _require_int(request: Mapping[str, Any], key: str, default: int) -> int:
    value = request.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f"request field {key!r} must be an integer")
    return value


def _require_float(request: Mapping[str, Any], key: str) -> float:
    value = request.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"request needs a numeric {key!r}")
    return float(value)


def split_frames(buffer: bytes) -> Tuple[Tuple[Dict[str, Any], ...], bytes]:
    """Split complete frames off ``buffer``; returns (frames, remainder).

    A convenience for synchronous consumers (tests, simple tools); the
    asyncio paths read frames incrementally instead.
    """
    frames = []
    offset = 0
    while len(buffer) - offset >= HEADER.size:
        length = frame_length(buffer[offset : offset + HEADER.size])
        if len(buffer) - offset - HEADER.size < length:
            break
        start = offset + HEADER.size
        frames.append(decode_frame(buffer[start : start + length]))
        offset = start + length
    return tuple(frames), buffer[offset:]
