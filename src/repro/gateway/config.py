"""The gateway's JSON configuration: tenants, API keys, quotas, data.

A config file maps API keys to isolated tenant coordinate spaces::

    {
      "gateway": {"admission_limit": 256},
      "tenants": [
        {
          "name": "acme",
          "api_key": "acme-key-1",
          "shards": 2,
          "index": "vptree",
          "quota": {"capacity": 64, "refill_amount": 8, "refill_every": 8},
          "data": {"synthetic": 200, "seed": 7}
        },
        {
          "name": "globex",
          "api_key": "globex-key-1",
          "data": {"snapshot": "globex.json"}
        }
      ]
    }

Every field except ``name`` and ``api_key`` has a default.  ``data`` may
be a synthetic universe (``{"synthetic": N, "seed": S}``), a saved
snapshot (``{"snapshot": "path"}``), a registered scenario
(``{"scenario": "name"}``), or absent entirely -- an absent source means
the tenant starts with the empty generation and is populated over the
wire ``publish`` route, the per-tenant
:class:`~repro.service.publish.EpochPublisher` generation stream.

``quota`` configures the deterministic token bucket
(:mod:`repro.gateway.ratelimit`); ``null`` disables rate limiting for
that tenant.  ``ms_per_request`` converts a shed request's bucket
deficit into the ``Retry-After`` hint.

Validation is strict and total: any malformed field raises
:exc:`GatewayConfigError` with a one-line message naming the offending
tenant and field, which the CLI reports as ``error: ...`` with exit
code 2 -- the same contract as every other ``repro`` command.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.service.index import INDEX_KINDS

__all__ = [
    "GatewayConfig",
    "GatewayConfigError",
    "TenantQuota",
    "TenantSpec",
    "load_gateway_config",
]

#: Characters allowed in a tenant name (it is a URL path segment).
_NAME_CHARS = frozenset(string.ascii_lowercase + string.digits + "-_")

#: The mutually exclusive tenant data sources.
_DATA_SOURCES = ("synthetic", "snapshot", "scenario")


class GatewayConfigError(ValueError):
    """A malformed gateway config (reported as one line, exit code 2)."""


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """A tenant's deterministic token-bucket rate limit.

    Count-driven, like the chaos fault schedules: ``refill_amount``
    tokens return after every ``refill_every`` *observed* requests (shed
    ones included), never on a wall clock, so quota behaviour in tests
    and replays is a pure function of the request stream.
    """

    capacity: int = 64
    refill_amount: int = 8
    refill_every: int = 8
    #: Milliseconds of estimated serving time per queued request; a shed
    #: request's Retry-After hint is ``deficit * ms_per_request``.
    ms_per_request: float = 10.0


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """One tenant's validated configuration."""

    name: str
    api_key: str
    shards: int = 2
    index: str = "vptree"
    history: int = 4
    cache_entries: int = 8192
    admission_limit: int = 256
    quota: Optional[TenantQuota] = TenantQuota()
    #: The initial population: ("synthetic", (n, seed)), ("snapshot",
    #: path), ("scenario", name), or None for an empty space.
    data: Optional[Tuple[str, Any]] = None


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """The whole validated gateway configuration."""

    tenants: Tuple[TenantSpec, ...]
    host: str = "127.0.0.1"
    port: int = 0
    #: Upper bound on concurrently processed requests across all tenants
    #: (each tenant additionally has its own engine admission limit).
    max_concurrent: int = 1024

    def tenant(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise KeyError(name)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GatewayConfigError(message)


def _int_field(
    mapping: Mapping[str, Any], key: str, default: int, minimum: int, where: str
) -> int:
    value = mapping.get(key, default)
    _require(
        not isinstance(value, bool) and isinstance(value, int),
        f"{where}: '{key}' must be an integer",
    )
    _require(value >= minimum, f"{where}: '{key}' must be >= {minimum}")
    return value


def _parse_quota(raw: Any, where: str) -> Optional[TenantQuota]:
    if raw is None:
        return None
    _require(isinstance(raw, dict), f"{where}: 'quota' must be an object or null")
    unknown = set(raw) - {"capacity", "refill_amount", "refill_every", "ms_per_request"}
    _require(not unknown, f"{where}: unknown quota field(s) {sorted(unknown)}")
    capacity = _int_field(raw, "capacity", 64, 1, where)
    refill_amount = _int_field(raw, "refill_amount", 8, 1, where)
    refill_every = _int_field(raw, "refill_every", 8, 1, where)
    ms_per_request = raw.get("ms_per_request", 10.0)
    _require(
        not isinstance(ms_per_request, bool)
        and isinstance(ms_per_request, (int, float))
        and float(ms_per_request) > 0.0,
        f"{where}: 'ms_per_request' must be a positive number",
    )
    return TenantQuota(
        capacity=capacity,
        refill_amount=refill_amount,
        refill_every=refill_every,
        ms_per_request=float(ms_per_request),
    )


def _parse_data(raw: Any, where: str) -> Optional[Tuple[str, Any]]:
    if raw is None:
        return None
    _require(isinstance(raw, dict), f"{where}: 'data' must be an object or null")
    sources = [key for key in _DATA_SOURCES if key in raw]
    _require(
        len(sources) == 1,
        f"{where}: 'data' needs exactly one of {list(_DATA_SOURCES)}",
    )
    unknown = set(raw) - set(_DATA_SOURCES) - {"seed"}
    _require(not unknown, f"{where}: unknown data field(s) {sorted(unknown)}")
    source = sources[0]
    if source == "synthetic":
        n = raw["synthetic"]
        _require(
            not isinstance(n, bool) and isinstance(n, int) and n >= 2,
            f"{where}: 'synthetic' must be an integer >= 2",
        )
        seed = _int_field(raw, "seed", 7, 0, where)
        return ("synthetic", (n, seed))
    _require(
        "seed" not in raw, f"{where}: 'seed' only applies to synthetic data"
    )
    value = raw[source]
    _require(
        isinstance(value, str) and bool(value),
        f"{where}: '{source}' must be a non-empty string",
    )
    return (source, value)


def _parse_tenant(raw: Any, position: int, defaults: Mapping[str, Any]) -> TenantSpec:
    where = f"tenants[{position}]"
    _require(isinstance(raw, dict), f"{where}: each tenant must be an object")
    known = {
        "name",
        "api_key",
        "shards",
        "index",
        "history",
        "cache_entries",
        "admission_limit",
        "quota",
        "data",
    }
    unknown = set(raw) - known
    _require(not unknown, f"{where}: unknown field(s) {sorted(unknown)}")

    name = raw.get("name")
    _require(
        isinstance(name, str) and bool(name),
        f"{where}: 'name' must be a non-empty string",
    )
    _require(
        set(name) <= _NAME_CHARS,
        f"{where}: name {name!r} may only use lowercase letters, digits, '-', '_'",
    )
    where = f"tenant {name!r}"

    api_key = raw.get("api_key")
    _require(
        isinstance(api_key, str) and len(api_key) >= 8,
        f"{where}: 'api_key' must be a string of at least 8 characters",
    )

    index = raw.get("index", defaults.get("index", "vptree"))
    _require(
        index in INDEX_KINDS,
        f"{where}: unknown index {index!r}; known: {list(INDEX_KINDS)}",
    )

    merged = {**defaults, **raw}
    quota_raw = raw["quota"] if "quota" in raw else defaults.get("quota")
    return TenantSpec(
        name=name,
        api_key=api_key,
        shards=_int_field(merged, "shards", 2, 1, where),
        index=index,
        history=_int_field(merged, "history", 4, 1, where),
        cache_entries=_int_field(merged, "cache_entries", 8192, 1, where),
        admission_limit=_int_field(merged, "admission_limit", 256, 1, where),
        quota=_parse_quota(quota_raw, where) if "quota" in merged else TenantQuota(),
        data=_parse_data(raw.get("data"), where),
    )


def parse_gateway_config(raw: Any) -> GatewayConfig:
    """Validate a parsed JSON document into a :class:`GatewayConfig`."""
    _require(isinstance(raw, dict), "config root must be a JSON object")
    unknown = set(raw) - {"gateway", "tenants"}
    _require(not unknown, f"unknown top-level field(s) {sorted(unknown)}")

    gateway_raw = raw.get("gateway", {})
    _require(isinstance(gateway_raw, dict), "'gateway' must be an object")
    gateway_known = {
        "host",
        "port",
        "max_concurrent",
        # Per-tenant defaults, overridable per tenant:
        "shards",
        "index",
        "history",
        "cache_entries",
        "admission_limit",
        "quota",
    }
    unknown = set(gateway_raw) - gateway_known
    _require(not unknown, f"gateway: unknown field(s) {sorted(unknown)}")
    host = gateway_raw.get("host", "127.0.0.1")
    _require(isinstance(host, str) and bool(host), "gateway: 'host' must be a string")
    port = _int_field(gateway_raw, "port", 0, 0, "gateway")
    _require(port <= 65535, "gateway: 'port' must be <= 65535")
    max_concurrent = _int_field(gateway_raw, "max_concurrent", 1024, 1, "gateway")
    defaults = {
        key: gateway_raw[key]
        for key in ("shards", "index", "history", "cache_entries", "admission_limit", "quota")
        if key in gateway_raw
    }

    tenants_raw = raw.get("tenants")
    _require(
        isinstance(tenants_raw, list) and bool(tenants_raw),
        "'tenants' must be a non-empty list",
    )
    tenants = tuple(
        _parse_tenant(entry, position, defaults)
        for position, entry in enumerate(tenants_raw)
    )

    names = [spec.name for spec in tenants]
    _require(
        len(set(names)) == len(names),
        f"tenant names must be unique; duplicates: "
        f"{sorted({n for n in names if names.count(n) > 1})}",
    )
    keys = [spec.api_key for spec in tenants]
    _require(
        len(set(keys)) == len(keys),
        "api keys must be globally unique across tenants",
    )
    return GatewayConfig(
        tenants=tenants, host=host, port=port, max_concurrent=max_concurrent
    )


def load_gateway_config(path: Path) -> GatewayConfig:
    """Load and validate a gateway config file.

    Raises :exc:`GatewayConfigError` with a one-line message for every
    failure mode -- unreadable file, invalid JSON, schema violations --
    so the CLI's error contract (``error: ...``, exit 2) holds uniformly.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GatewayConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GatewayConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_gateway_config(raw)
