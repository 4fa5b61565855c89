"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures *everything* that defines one evaluation
condition from the paper -- and any condition beyond the paper -- as plain
data:

* the network universe (topology size, heavy-tail noise, route shifts,
  drift) via :class:`NetworkSpec`;
* the coordinate subsystem (a named preset, or an explicit filter +
  heuristic configuration);
* the execution mode: trace-driven ``replay`` (Sections III-V) or the full
  discrete-event protocol ``simulate`` (Section VI), optionally under a
  :class:`ChurnSpec` churn process;
* the workload evaluated on top of the coordinates
  (:class:`WorkloadSpec`): raw ping metrics, per-region drift tracking, or
  application-level kNN / operator-placement queries;
* duration, measurement window and the seed policy.

Specs are immutable, fully serialisable (``to_dict`` / ``from_dict``), and
content-addressable (:meth:`ScenarioSpec.spec_hash`), which is what lets
the engine cache shard results and fan grids out across worker processes.
Validation happens eagerly in ``__post_init__`` and reports *all* problems
at once with the scenario name attached, so a bad sweep fails with a
readable message instead of a deep traceback from the simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.config import FilterConfig, HeuristicConfig, NodeConfig
from repro.latency.linkmodel import HeavyTailParameters
from repro.latency.planetlab import DatasetParameters
from repro.netsim.churn import ChurnConfig

__all__ = [
    "ScenarioError",
    "NetworkSpec",
    "ChurnSpec",
    "WorkloadSpec",
    "ScenarioSpec",
    "SEED_POLICIES",
    "SIMULATION_BACKENDS",
    "WORKLOAD_KINDS",
]


class ScenarioError(ValueError):
    """A scenario specification failed validation.

    The message lists every problem found, prefixed with the scenario name,
    e.g. ``scenario 'planetlab-churn-30pct': duration_s must be positive;
    churn.churning_fraction must be within [0, 1]``.
    """


#: Recognised seed policies for grid expansion.
SEED_POLICIES = ("fixed", "per_cell")

#: Recognised simulation backends.  ``scalar`` is the existing per-node
#: path (discrete-event simulation, or trace replay in replay mode);
#: ``vectorized`` runs the NumPy synchronous-round batch engine
#: (:mod:`repro.netsim.batch`) and requires ``mode='simulate'``.
SIMULATION_BACKENDS = ("scalar", "vectorized")

#: Recognised workload kinds and the parameters each accepts (with defaults).
WORKLOAD_KINDS: Dict[str, Dict[str, Any]] = {
    # Raw ping-level metrics only (the collector's system snapshot).
    "pings": {},
    # Per-region coordinate drift tracking (the Figure 7 methodology).
    "drift": {"snapshot_interval_s": 60.0},
    # Application-level k-nearest-neighbor queries over final coordinates.
    "knn": {"k": 3, "queries": 64},
    # Application-level operator placement over final coordinates.
    "placement": {"operators": 16, "endpoints": 3},
    # Coordinate query service: a deterministic query mix served from a
    # snapshot of the final coordinates through a one-shard store.
    "queries": {
        "count": 256,
        "mix": "mixed",
        "k": 3,
        "radius_ms": 50.0,
        "index": "vptree",
        "cache_entries": 1024,
        "batch_size": 64,
    },
    # Live coordinate serving: the simulation streams epochs into a
    # running sharded daemon (zero-downtime rollover) while a closed-loop
    # client issues queries over the wire; after the final epoch a
    # measured workload is replayed and checksummed against the
    # single-store linear oracle.  Requires the vectorized backend (the
    # array-native publish path is what streams epochs).
    "queries-live": {
        "count": 256,
        "live_count": 64,
        "mix": "mixed",
        "k": 3,
        "radius_ms": 50.0,
        "index": "vptree",
        "shards": 2,
        "publish_every_ticks": 8,
        "concurrency": 4,
        "cache_entries": 1024,
        # Optional deterministic fault schedule injected into the live
        # daemon: comma-separated ``kind@at+duration[:key=value...]``
        # (see repro.chaos.schedule); empty string disables chaos.
        "chaos": "",
    },
}


def _check(errors: List[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


@dataclass(frozen=True, slots=True)
class NetworkSpec:
    """Topology size and latency-model statistics of the network universe."""

    #: Number of participating hosts.
    nodes: int = 24
    #: Fraction of links whose baseline shifts during the run (route changes).
    shifting_fraction: float = 0.10
    #: Range of multipliers applied at a baseline shift.
    shift_multiplier_range: Tuple[float, float] = (0.7, 1.6)
    #: Slow drift applied to shifting links, as a fraction per hour.
    drift_fraction_per_hour: float = 0.02
    #: Noiseless links (the static latency-matrix idealisation).
    noiseless: bool = False
    #: Overrides for :class:`~repro.latency.linkmodel.HeavyTailParameters`
    #: fields (e.g. ``{"outlier_probability": 0.01}``).
    heavy_tail: Mapping[str, Any] = field(default_factory=dict)

    def validate(self) -> List[str]:
        errors: List[str] = []
        _check(errors, self.nodes >= 2, f"network.nodes must be >= 2, got {self.nodes}")
        _check(
            errors,
            0.0 <= self.shifting_fraction <= 1.0,
            "network.shifting_fraction must be within [0, 1]",
        )
        low, high = self.shift_multiplier_range
        _check(
            errors,
            low > 0.0 and high >= low,
            "network.shift_multiplier_range must be a positive, ordered pair",
        )
        _check(
            errors,
            self.drift_fraction_per_hour >= 0.0,
            "network.drift_fraction_per_hour must be non-negative",
        )
        try:
            HeavyTailParameters.from_mapping(self.heavy_tail)
        except ValueError as exc:
            errors.append(f"network.heavy_tail: {exc}")
        return errors

    def to_parameters(self) -> DatasetParameters:
        """Materialise into the dataset-layer parameter object."""
        heavy = HeavyTailParameters.from_mapping(self.heavy_tail)
        return DatasetParameters(
            heavy_tail=heavy,
            shifting_fraction=self.shifting_fraction,
            shift_multiplier_range=tuple(self.shift_multiplier_range),
            drift_fraction_per_hour=self.drift_fraction_per_hour,
            noiseless=self.noiseless,
        )


@dataclass(frozen=True, slots=True)
class ChurnSpec:
    """Churn process parameters (nodes entering and leaving)."""

    churning_fraction: float = 0.3
    mean_session_s: float = 600.0
    mean_downtime_s: float = 120.0

    def validate(self) -> List[str]:
        errors: List[str] = []
        _check(
            errors,
            0.0 <= self.churning_fraction <= 1.0,
            "churn.churning_fraction must be within [0, 1]",
        )
        _check(errors, self.mean_session_s > 0.0, "churn.mean_session_s must be positive")
        _check(errors, self.mean_downtime_s > 0.0, "churn.mean_downtime_s must be positive")
        return errors

    def to_config(self) -> ChurnConfig:
        return ChurnConfig(
            churning_fraction=self.churning_fraction,
            mean_session_s=self.mean_session_s,
            mean_downtime_s=self.mean_downtime_s,
        )


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """What is evaluated on top of the coordinate run."""

    kind: str = "pings"
    params: Mapping[str, Any] = field(default_factory=dict)

    def validate(self) -> List[str]:
        errors: List[str] = []
        if self.kind not in WORKLOAD_KINDS:
            errors.append(
                f"workload.kind must be one of {sorted(WORKLOAD_KINDS)}, got {self.kind!r}"
            )
            return errors
        known = WORKLOAD_KINDS[self.kind]
        unknown = sorted(set(self.params) - set(known))
        _check(
            errors,
            not unknown,
            f"workload {self.kind!r} has unknown parameters {unknown}; "
            f"known: {sorted(known)}",
        )
        if self.kind in ("queries", "queries-live") and not unknown:
            # Imported lazily: the scenario layer must not eagerly load the
            # service subsystem (kernel and CLI keep that import one-way
            # and on-demand) just for two membership checks.
            from repro.service.index import INDEX_KINDS
            from repro.service.workload import QUERY_MIXES

            mix = self.params.get("mix", known["mix"])
            _check(
                errors,
                mix in QUERY_MIXES,
                f"workload.mix must be one of {sorted(QUERY_MIXES)}, got {mix!r}",
            )
            index = self.params.get("index", known["index"])
            _check(
                errors,
                index in INDEX_KINDS,
                f"workload.index must be one of {list(INDEX_KINDS)}, got {index!r}",
            )
        if self.kind == "queries-live" and not unknown:
            shards = self.params.get("shards", known["shards"])
            _check(
                errors,
                isinstance(shards, int) and shards >= 1,
                f"workload.shards must be a positive integer, got {shards!r}",
            )
            cadence = self.params.get(
                "publish_every_ticks", known["publish_every_ticks"]
            )
            _check(
                errors,
                isinstance(cadence, int) and cadence >= 1,
                "workload.publish_every_ticks must be a positive integer, "
                f"got {cadence!r}",
            )
            chaos = self.params.get("chaos", known["chaos"])
            if not isinstance(chaos, str):
                errors.append(
                    f"workload.chaos must be a schedule string, got {chaos!r}"
                )
            elif chaos:
                # Lazy for the same reason as the index/mix checks above.
                from repro.chaos.schedule import FaultSchedule

                try:
                    FaultSchedule.parse(chaos)
                except ValueError as exc:
                    errors.append(f"workload.chaos: {exc}")
        return errors

    def param(self, name: str) -> Any:
        """Parameter value with the workload-kind default applied."""
        return self.params.get(name, WORKLOAD_KINDS[self.kind][name])


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One fully specified evaluation condition."""

    #: Identifier; grid expansion appends ``[axis=value,...]`` suffixes.
    name: str
    description: str = ""
    #: ``replay`` (trace-driven) or ``simulate`` (discrete-event protocol).
    mode: str = "replay"
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: Named :class:`~repro.core.config.NodeConfig` preset; mutually
    #: resolvable with the explicit filter/heuristic fields below.
    preset: Optional[str] = "mp_energy"
    #: Explicit filter configuration (overrides the preset's filter).
    filter_kind: Optional[str] = None
    filter_params: Mapping[str, Any] = field(default_factory=dict)
    #: Explicit heuristic configuration (overrides the preset's heuristic).
    heuristic_kind: Optional[str] = None
    heuristic_params: Mapping[str, Any] = field(default_factory=dict)
    #: Run Vivaldi in the height-augmented coordinate space (Dabek et al.):
    #: predicted RTT becomes ``||x_i - x_j|| + h_i + h_j``.  Applies on top
    #: of whatever preset / explicit configuration is selected.
    use_height: bool = False
    #: Simulated duration in seconds.
    duration_s: float = 1200.0
    #: Metrics are reported from this time on (default: half the duration).
    measurement_start_s: Optional[float] = None
    #: Replay mode: seconds between successive pings from one node.
    ping_interval_s: float = 2.0
    #: Replay mode: neighbor-set size (None = full mesh over time).
    neighbors_per_node: Optional[int] = None
    #: Simulate mode: sampling-protocol interval (None = protocol default).
    sampling_interval_s: Optional[float] = None
    #: Simulate mode: probability that a ping is lost.
    loss_probability: float = 0.01
    #: Simulate mode: bootstrap neighbor count per host.
    bootstrap_neighbors: int = 4
    #: Optional churn process (simulate mode only).
    churn: Optional[ChurnSpec] = None
    #: Execution backend: ``scalar`` (the default per-node path) or
    #: ``vectorized`` (the NumPy synchronous-round batch engine; simulate
    #: mode only, and the coordinate configuration must be within the
    #: vectorized surface -- see :mod:`repro.core.vectorized`).
    backend: str = "scalar"
    #: When True (vectorized backend only), the kernel also runs the
    #: scalar tick oracle on the same universe and fails the run unless
    #: metrics, per-node distributions and final coordinates are
    #: byte-identical.  Meant for small pinned specs that guard the
    #: backend's equivalence in CI.
    strict_equivalence: bool = False
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: Base random seed for the whole universe.
    seed: int = 0
    #: ``fixed``: every grid cell keeps this seed (same universe, different
    #: configuration -- the paper's side-by-side methodology).  ``per_cell``:
    #: each cell derives a distinct seed from the base seed and its name.
    seed_policy: str = "fixed"

    def __post_init__(self) -> None:
        errors: List[str] = []
        _check(errors, bool(self.name), "name must be non-empty")
        _check(
            errors,
            self.mode in ("replay", "simulate"),
            f"mode must be 'replay' or 'simulate', got {self.mode!r}",
        )
        errors.extend(self.network.validate())
        _check(errors, self.duration_s > 0.0, "duration_s must be positive")
        if self.measurement_start_s is not None:
            _check(
                errors,
                0.0 <= self.measurement_start_s < self.duration_s,
                "measurement_start_s must lie within [0, duration_s)",
            )
        _check(errors, self.ping_interval_s > 0.0, "ping_interval_s must be positive")
        if self.neighbors_per_node is not None:
            _check(
                errors, self.neighbors_per_node >= 1, "neighbors_per_node must be >= 1"
            )
        if self.sampling_interval_s is not None:
            _check(
                errors, self.sampling_interval_s > 0.0, "sampling_interval_s must be positive"
            )
        _check(
            errors,
            0.0 <= self.loss_probability < 1.0,
            "loss_probability must be within [0, 1)",
        )
        _check(errors, self.bootstrap_neighbors >= 1, "bootstrap_neighbors must be >= 1")
        _check(
            errors,
            self.backend in SIMULATION_BACKENDS,
            f"backend must be one of {SIMULATION_BACKENDS}, got {self.backend!r}",
        )
        if self.backend == "vectorized" and self.mode != "simulate":
            errors.append("backend 'vectorized' requires mode='simulate'")
        if self.strict_equivalence and self.backend != "vectorized":
            errors.append("strict_equivalence requires backend='vectorized'")
        if self.preset is None and (self.filter_kind is None or self.heuristic_kind is None):
            errors.append(
                "either a preset or both filter_kind and heuristic_kind must be given"
            )
        else:
            # Build the coordinate configuration once so bad preset names
            # and bad filter/heuristic parameters (e.g. from a sweep axis)
            # fail here with the scenario name attached, not mid-run.
            try:
                config = self.node_config()
                config.filter.build()
                config.heuristic.build()
            except (TypeError, ValueError) as exc:
                errors.append(f"coordinate configuration invalid: {exc}")
            else:
                if self.backend == "vectorized":
                    # Imported lazily, mirroring the service-layer checks:
                    # the spec layer must not eagerly pull in the batch
                    # engine for a membership test.
                    from repro.core.vectorized import unsupported_reasons

                    for reason in unsupported_reasons(config):
                        errors.append(
                            f"backend 'vectorized': {reason}; set "
                            "backend='scalar' to run this configuration "
                            "on the per-node path"
                        )
        if self.churn is not None:
            if self.mode != "simulate":
                errors.append("churn requires mode='simulate' (replay has a fixed trace)")
            errors.extend(self.churn.validate())
        errors.extend(self.workload.validate())
        if self.workload.kind == "drift" and self.mode != "replay":
            errors.append("the drift workload requires mode='replay'")
        if self.workload.kind == "queries-live" and self.backend != "vectorized":
            errors.append(
                "the queries-live workload requires backend='vectorized' "
                "(epochs stream through the batch engine's publish path)"
            )
        _check(
            errors,
            self.seed_policy in SEED_POLICIES,
            f"seed_policy must be one of {SEED_POLICIES}, got {self.seed_policy!r}",
        )
        if errors:
            raise ScenarioError(f"scenario {self.name!r}: " + "; ".join(errors))

    # ------------------------------------------------------------------
    # Configuration resolution
    # ------------------------------------------------------------------
    def node_config(self) -> NodeConfig:
        """The coordinate-subsystem configuration this scenario runs with."""
        if self.preset is not None:
            config = NodeConfig.preset(self.preset)
        else:
            config = NodeConfig()
        if self.filter_kind is not None:
            config = replace(
                config, filter=FilterConfig(self.filter_kind, dict(self.filter_params))
            )
        if self.heuristic_kind is not None:
            config = replace(
                config,
                heuristic=HeuristicConfig(self.heuristic_kind, dict(self.heuristic_params)),
            )
        if self.use_height:
            config = replace(
                config, vivaldi=replace(config.vivaldi, use_height=True)
            )
        return config

    def resolved(self) -> "ScenarioSpec":
        """An equivalent spec with the preset expanded into explicit fields.

        Grid sweeps over filter/heuristic parameters need a concrete base to
        override, so they resolve the preset first.
        """
        config = self.node_config()
        return replace(
            self,
            preset=None,
            filter_kind=config.filter.kind,
            filter_params=dict(config.filter.params),
            heuristic_kind=config.heuristic.kind,
            heuristic_params=dict(config.heuristic.params),
        )

    def resolved_measurement_start_s(self) -> float:
        if self.measurement_start_s is not None:
            return self.measurement_start_s
        return self.duration_s / 2.0

    # ------------------------------------------------------------------
    # Serialisation and hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-data representation (JSON-safe, ``from_dict`` invertible)."""
        payload = asdict(self)
        payload["network"]["heavy_tail"] = dict(self.network.heavy_tail)
        payload["filter_params"] = dict(self.filter_params)
        payload["heuristic_params"] = dict(self.heuristic_params)
        payload["workload"]["params"] = dict(self.workload.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        data = dict(payload)
        name = data.get("name", "<unnamed>")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"scenario {name!r}: unknown fields {unknown}; known: {sorted(known)}"
            )
        if "network" in data and isinstance(data["network"], Mapping):
            network = dict(data["network"])
            if "shift_multiplier_range" in network:
                network["shift_multiplier_range"] = tuple(network["shift_multiplier_range"])
            data["network"] = NetworkSpec(**network)
        if data.get("churn") is not None and isinstance(data["churn"], Mapping):
            data["churn"] = ChurnSpec(**data["churn"])
        if "workload" in data and isinstance(data["workload"], Mapping):
            data["workload"] = WorkloadSpec(**data["workload"])
        return cls(**data)

    def spec_hash(self) -> str:
        """Content hash over everything that affects the run's outcome.

        The identity fields (``name``, ``description``) and the ``seed`` are
        excluded: renaming a scenario must not invalidate cached results,
        and the engine's cache key is the (spec hash, seed) *pair*.
        """
        payload = self.to_dict()
        for excluded in ("name", "description", "seed"):
            payload.pop(excluded, None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()

    def derive_cell_seed(self, cell_label: str) -> int:
        """Deterministic per-cell seed under the ``per_cell`` seed policy."""
        key = f"{self.seed}:{cell_label}".encode()
        return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big")
