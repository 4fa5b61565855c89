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
``snapshot``  -> the full snapshot dict (``CoordinateSnapshot.to_dict``)
``ping``      -> ``{"pong": true}``
``hello``     -> ``{"protocol_version": int, "ops": [...]}`` -- protocol
                 negotiation; see *Protocol versions* below
``publish``   -> ``nodes``, ``components``, optional ``heights``/
                 ``source`` publish a full epoch; with ``"delta": true``
                 (protocol version >= 2) only the changed rows travel,
                 plus optional ``removed``/``epoch`` -> ``{"version",
                 "nodes", "mode", "changed"}``
``chaos``     -> fault-injection control plane (protocol version >= 3):
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
(admission, cache probe, per-shard scatter, merge) for that one request.

Protocol versions
-----------------

Requests may carry an integer ``"version"`` field naming the protocol
revision they speak; a request without one speaks version 1, the
original versionless protocol, and is answered byte-identically to how
it always was.  ``hello`` returns the server's
:data:`PROTOCOL_VERSION` so a client can negotiate up front.  Version 2
adds the delta form of ``publish`` -- a version-1 (or versionless)
``publish`` can only be a full epoch, and a ``"delta": true`` request
that does not declare version >= 2 is rejected, so an old server or a
mixed fleet never misinterprets a delta as a tiny full population.
Version 3 adds the ``chaos`` op; a ``chaos`` request that does not
declare version >= 3 is rejected the same way, so fault injection can
never be triggered by accident from an old client.

The full hello-negotiation matrix -- what a client that declared each
version may send, and what the server answers when a request overreaches
the declared revision:

=================  =========  =========  =========
capability         v1 (none)  v2         v3
=================  =========  =========  =========
queries + admin    yes        yes        yes
full ``publish``   yes        yes        yes
delta ``publish``  rejected   yes        yes
``chaos`` op       rejected   rejected   yes
=================  =========  =========  =========

"rejected" is an ordinary ``ok: false`` error response naming the
required version (never a dropped connection), so a mixed-version fleet
degrades loudly instead of misbehaving: the client learns the server's
ceiling from ``hello`` and the server refuses anything above the
client's declared floor.

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

import numpy as np

from repro.service.planner import Query, QueryError
from repro.service.publish import EpochDelta

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
    "request_version",
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

#: The protocol revision this module speaks.  Version 1 is the original
#: versionless protocol; version 2 adds the delta form of ``publish``;
#: version 3 adds the ``chaos`` fault-injection op.
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
    """Parse a frame body into a request/response object."""
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
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


def request_version(request: Mapping[str, Any]) -> int:
    """The protocol version a request declares (1 when absent).

    Raises :class:`ProtocolError` for a malformed or unsupported value;
    a newer-than-ours version is rejected rather than guessed at.
    """
    version = request.get("version", 1)
    if isinstance(version, bool) or not isinstance(version, int):
        raise ProtocolError("request 'version' must be an integer protocol version")
    if version < 1:
        raise ProtocolError(f"protocol version {version} is not valid (minimum 1)")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} is newer than this server's "
            f"{PROTOCOL_VERSION}; negotiate via the hello op"
        )
    return version


def request_to_publish(request: Mapping[str, Any]):
    """Parse a ``publish`` request into its mode and payload.

    Returns ``("full", (node_ids, components, heights, source))`` for a
    whole-population publish (the only form before protocol version 2)
    or ``("delta", EpochDelta)`` for the incremental form.  Raises
    :class:`~repro.service.planner.QueryError` on invalid fields and
    :class:`ProtocolError` on version violations -- the daemon turns
    both into error responses.
    """
    version = request_version(request)
    delta = bool(request.get("delta", False))
    if delta and version < 2:
        raise ProtocolError(
            "delta publish requires protocol version 2; "
            "declare 'version': 2 (negotiate via the hello op)"
        )
    node_ids = request.get("nodes", [])
    if not isinstance(node_ids, (list, tuple)) or not all(
        isinstance(node_id, str) and node_id for node_id in node_ids
    ):
        raise QueryError("publish 'nodes' must be a list of non-empty node ids")
    node_ids = list(node_ids)
    rows = request.get("components", [])
    if not isinstance(rows, (list, tuple)):
        raise QueryError("publish 'components' must be a list of coordinate rows")
    try:
        components = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError):
        raise QueryError("publish 'components' rows must be numeric") from None
    if components.size == 0:
        components = components.reshape(0, 1)
    if components.ndim != 2 or components.shape[0] != len(node_ids):
        raise QueryError(
            "publish 'components' must hold one equal-length numeric row "
            "per entry of 'nodes'"
        )
    heights_field = request.get("heights")
    if heights_field is None:
        heights = None
    else:
        if not isinstance(heights_field, (list, tuple)):
            raise QueryError("publish 'heights' must be a list of numbers")
        try:
            heights = np.asarray(heights_field, dtype=np.float64)
        except (TypeError, ValueError):
            raise QueryError("publish 'heights' must be a list of numbers") from None
        if heights.shape != (len(node_ids),):
            raise QueryError("publish 'heights' must match 'nodes' in length")
    source = request.get("source", "")
    if not isinstance(source, str):
        raise QueryError("publish 'source' must be a string")
    if not delta:
        for key in ("removed", "epoch"):
            if request.get(key) is not None:
                raise QueryError(
                    f"publish {key!r} is only valid on a delta publish "
                    "('delta': true, protocol version >= 2)"
                )
        return "full", (node_ids, components, heights, source)
    removed = request.get("removed", [])
    if not isinstance(removed, (list, tuple)) or not all(
        isinstance(node_id, str) and node_id for node_id in removed
    ):
        raise QueryError("publish 'removed' must be a list of non-empty node ids")
    epoch = request.get("epoch")
    if epoch is not None and (isinstance(epoch, bool) or not isinstance(epoch, int)):
        raise QueryError("publish 'epoch' must be an integer")
    try:
        payload = EpochDelta(
            node_ids,
            components,
            heights,
            removed_ids=tuple(removed),
            source=source,
            epoch=epoch,
        )
    except ValueError as exc:
        raise QueryError(f"invalid delta publish: {exc}") from None
    return "delta", payload


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
