"""Per-tenant runtime state and constant-time API-key authentication.

Each tenant is a fully isolated serving stack: its own
:class:`~repro.server.sharding.ShardedCoordinateStore` (which owns its
own telemetry registry, event log, health tracker and result cache), its
own :class:`~repro.server.daemon.RequestEngine` with an independent
admission limit, and its own deterministic token bucket.  Nothing is
shared between tenants except the process and the event loop -- tenant
A's publishes, cache entries, health snapshots, chaos schedules and
metrics are invisible to tenant B by construction, and the isolation
tests pin it.

Authentication compares the presented key against *every* tenant's key
with :func:`hmac.compare_digest` and no early exit, so the comparison
cost is independent of whether (and where) the key matches -- a timing
probe learns nothing about key prefixes or tenant ordering.
"""

from __future__ import annotations

import hmac
from typing import Dict, Optional

from repro.gateway.config import GatewayConfig, TenantSpec
from repro.gateway.ratelimit import TokenBucket
from repro.server.daemon import RequestEngine
from repro.server.sharding import ShardedCoordinateStore

__all__ = ["Tenant", "TenantRegistry", "build_store"]


def build_store(spec: TenantSpec) -> ShardedCoordinateStore:
    """One tenant's store, populated from its configured data source."""
    return ShardedCoordinateStore.from_source(
        spec.data,
        shards=spec.shards,
        index_kind=spec.index,
        history=spec.history,
        cache_entries=spec.cache_entries,
    )


class Tenant:
    """One tenant's isolated serving stack."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.store = build_store(spec)
        #: The store's registry doubles as the tenant registry: store,
        #: engine and gateway route instruments for this tenant all land
        #: in it, and ``GET /v1/{tenant}/metrics`` renders exactly it.
        self.registry = self.store.registry
        self.engine = RequestEngine(
            self.store,
            admission_limit=spec.admission_limit,
            thread_name_prefix=f"gw-{spec.name}",
        )
        self.bucket = TokenBucket(spec.quota) if spec.quota is not None else None

    def shutdown(self) -> None:
        self.engine.shutdown(wait=True)


class TenantRegistry:
    """All tenants of one gateway process, keyed by name and by API key."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.tenants: Dict[str, Tenant] = {
            spec.name: Tenant(spec) for spec in config.tenants
        }
        #: (api_key, tenant) pairs in config order; authentication scans
        #: all of them unconditionally (see :meth:`authenticate`).
        self._keys = [
            (spec.api_key.encode(), self.tenants[spec.name])
            for spec in config.tenants
        ]

    def get(self, name: str) -> Optional[Tenant]:
        return self.tenants.get(name)

    def authenticate(self, presented: str) -> Optional[Tenant]:
        """The tenant owning ``presented``, via constant-time comparison.

        Every configured key is compared (no early exit), each with
        :func:`hmac.compare_digest`, so timing does not depend on which
        key -- if any -- matched.  Keys are unique by config validation,
        so at most one comparison succeeds.
        """
        encoded = presented.encode()
        matched: Optional[Tenant] = None
        for key, tenant in self._keys:
            if hmac.compare_digest(key, encoded):
                matched = tenant
        return matched

    def shutdown(self) -> None:
        for tenant in self.tenants.values():
            tenant.shutdown()
