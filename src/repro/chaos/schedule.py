"""Deterministic fault schedules for the live serving path.

A :class:`FaultSchedule` is a seed-stamped, sorted tuple of
:class:`FaultEvent` records.  Nothing here reads the wall clock: serving
faults fire and clear on the daemon's *request count* and publish faults
on its *publish count*, so the same schedule replayed against the same
workload produces byte-identical fault timing, chaos reports, and event
logs -- the property the recovery-SLO gates in :mod:`repro.chaos.slo`
depend on.

Fault kinds
-----------

``shard-kill``
    The shard's rows drop out of the answering index at request ``at``;
    queries are served *degraded* (``"partial": true`` plus the
    missing-shard list) from an index over the healthy shards' rows.
    After ``duration`` requests the store installs the last generation's
    full index and re-admits the shard.  Requires ``shard``.
``shard-slow``
    Gray failure: every scatter query pays an extra ``delay_ms`` of
    service time while the fault is active.  Requires ``shard`` (the
    nominally slow shard, recorded for the report) and ``delay_ms``.
``publish-stall``
    The next publishes inside the window sleep ``delay_ms`` before
    installing, stretching generation age.  Requires ``delay_ms``;
    ``at``/``duration`` count *publishes*, not requests.
``publish-drop``
    Publishes inside the window vanish without installing a generation.
    ``at``/``duration`` count publishes.
``admission-burst``
    ``amount`` synthetic in-flight requests occupy the daemon's admission
    limit for the window, shedding real load.  Requires ``amount``.

Spec grammar
------------

``kind@at+duration[:key=value...]``, comma-separated::

    shard-kill@40+60:shard=1,publish-drop@4+1
    shard-slow@40+60:shard=0:delay_ms=2
    admission-burst@30+40:amount=4096

Parsing is strict: unknown kinds, missing or extraneous parameters, and
malformed numbers raise ``ValueError`` naming the offending token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "PUBLISH_FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
]

#: Every fault kind the injector understands.
FAULT_KINDS = (
    "shard-kill",
    "shard-slow",
    "publish-stall",
    "publish-drop",
    "admission-burst",
)

#: Kinds whose ``at``/``duration`` count serving requests.
SERVE_FAULT_KINDS = ("shard-kill", "shard-slow", "admission-burst")

#: Kinds whose ``at``/``duration`` count store publishes.
PUBLISH_FAULT_KINDS = ("publish-stall", "publish-drop")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire at count ``at``, clear at ``at + duration``."""

    kind: str
    at: int
    duration: int
    shard: Optional[int] = None
    delay_ms: Optional[float] = None
    amount: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {list(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError(f"{self.kind}: at must be >= 0, got {self.at}")
        if self.duration < 1:
            raise ValueError(
                f"{self.kind}: duration must be >= 1, got {self.duration}"
            )
        needs_shard = self.kind in ("shard-kill", "shard-slow")
        needs_delay = self.kind in ("shard-slow", "publish-stall")
        needs_amount = self.kind == "admission-burst"
        if needs_shard:
            if self.shard is None or self.shard < 0:
                raise ValueError(f"{self.kind}: requires shard >= 0")
        elif self.shard is not None:
            raise ValueError(f"{self.kind}: does not take a shard parameter")
        if needs_delay:
            if self.delay_ms is None or self.delay_ms <= 0.0:
                raise ValueError(f"{self.kind}: requires delay_ms > 0")
        elif self.delay_ms is not None:
            raise ValueError(f"{self.kind}: does not take a delay_ms parameter")
        if needs_amount:
            if self.amount is None or self.amount < 1:
                raise ValueError(f"{self.kind}: requires amount >= 1")
        elif self.amount is not None:
            raise ValueError(f"{self.kind}: does not take an amount parameter")

    @property
    def clear_at(self) -> int:
        return self.at + self.duration

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "kind": self.kind,
            "at": self.at,
            "duration": self.duration,
        }
        if self.shard is not None:
            record["shard"] = self.shard
        if self.delay_ms is not None:
            record["delay_ms"] = self.delay_ms
        if self.amount is not None:
            record["amount"] = self.amount
        return record


def _sorted_events(events) -> Tuple[FaultEvent, ...]:
    return tuple(
        sorted(events, key=lambda event: (event.at, event.kind, event.duration))
    )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, seed-stamped set of fault events."""

    events: Tuple[FaultEvent, ...]
    seed: int = 0
    spec: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", _sorted_events(self.events))

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultSchedule":
        """Parse a comma-separated ``kind@at+duration[:key=value...]`` spec."""
        spec = spec.strip()
        if not spec:
            raise ValueError("empty chaos spec")
        events = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                raise ValueError(f"empty fault token in chaos spec {spec!r}")
            events.append(_parse_event(token))
        return cls(events=tuple(events), seed=seed, spec=spec)

    def serve_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in SERVE_FAULT_KINDS)

    def publish_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in PUBLISH_FAULT_KINDS)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "spec": self.spec,
            "events": [event.as_dict() for event in self.events],
        }


_INT_PARAMS = ("shard", "amount")
_FLOAT_PARAMS = ("delay_ms",)


def _parse_event(token: str) -> FaultEvent:
    head, *param_tokens = token.split(":")
    if "@" not in head:
        raise ValueError(f"fault {token!r}: expected kind@at+duration")
    kind, _, window = head.partition("@")
    if "+" not in window:
        raise ValueError(f"fault {token!r}: expected kind@at+duration")
    at_text, _, duration_text = window.partition("+")
    try:
        at = int(at_text)
        duration = int(duration_text)
    except ValueError:
        raise ValueError(
            f"fault {token!r}: at and duration must be integers"
        ) from None
    params: Dict[str, Any] = {}
    for param in param_tokens:
        if "=" not in param:
            raise ValueError(f"fault {token!r}: expected key=value, got {param!r}")
        key, _, value = param.partition("=")
        if key in params:
            raise ValueError(f"fault {token!r}: duplicate parameter {key!r}")
        if key in _INT_PARAMS:
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"fault {token!r}: {key} must be an integer, got {value!r}"
                ) from None
        elif key in _FLOAT_PARAMS:
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(
                    f"fault {token!r}: {key} must be a number, got {value!r}"
                ) from None
        else:
            raise ValueError(
                f"fault {token!r}: unknown parameter {key!r}; "
                f"known: {sorted(_INT_PARAMS + _FLOAT_PARAMS)}"
            )
    try:
        return FaultEvent(kind=kind, at=at, duration=duration, **params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"fault {token!r}: {exc}") from None
