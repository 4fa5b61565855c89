"""The multi-tenant HTTP gateway in front of per-tenant coordinate spaces.

The daemon (:mod:`repro.server`) serves *one* coordinate space over a
bespoke TCP protocol.  This package is the production edge the paper's
"millions of users" framing calls for: one process fronting many fully
isolated tenant spaces over plain HTTP/1.1 -- stdlib only, with the
request parser hand-rolled in the same spirit as
:mod:`repro.server.protocol`.

* :mod:`repro.gateway.config` -- the validated JSON config: API keys,
  per-tenant store shape, quotas, data sources.
* :mod:`repro.gateway.tenants` -- one
  :class:`~repro.server.sharding.ShardedCoordinateStore` +
  :class:`~repro.server.daemon.RequestEngine` + token bucket + telemetry
  registry per tenant, behind constant-time API-key authentication.
* :mod:`repro.gateway.ratelimit` -- deterministic count-driven token
  buckets (no wall clock, like the chaos schedules).
* :mod:`repro.gateway.http` -- the minimal HTTP/1.1 request parser and
  response writer.
* :mod:`repro.gateway.app` -- the asyncio server and its routes.
* :mod:`repro.gateway.client` -- an async HTTP client exposing the
  :class:`~repro.server.client.AsyncCoordinateClient` request surface,
  so the load harness and oracle verification drive the gateway
  unchanged.

``repro gateway --config gateway.json`` (see :mod:`repro.server.cli`)
boots the gateway on the command line.

Responses on the query path are byte-identical to the TCP daemon's frame
bodies for the same snapshot: both transports call the same
:class:`~repro.server.daemon.RequestEngine` and serialize with the same
:func:`~repro.server.protocol.encode_body`.
"""

from repro.gateway.config import GatewayConfig, GatewayConfigError, load_gateway_config
from repro.gateway.tenants import Tenant, TenantRegistry

__all__ = [
    "GatewayConfig",
    "GatewayConfigError",
    "Tenant",
    "TenantRegistry",
    "load_gateway_config",
]
