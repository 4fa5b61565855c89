"""Built-in scenario library: the paper's conditions as declarative specs.

Each entry replaces a bespoke ``fig*`` experiment path with data.  The
equivalence tests in ``tests/test_scenarios.py`` pin the ported scenarios
to their legacy experiment modules: same universe, same configuration,
same numbers.
"""

from __future__ import annotations

from repro.scenarios.registry import scenario
from repro.scenarios.spec import ChurnSpec, NetworkSpec, ScenarioSpec, WorkloadSpec

__all__ = ["FIG13_PRESETS"]

#: The four side-by-side deployment configurations of Figure 13.
FIG13_PRESETS = {
    "raw": "Raw No Filter",
    "raw_energy": "Energy+No Filter",
    "mp": "Raw MP Filter",
    "mp_energy": "Energy+MP Filter",
}


@scenario("fig07-drift")
def _fig07_drift() -> ScenarioSpec:
    """Figure 7: per-region coordinate drift over a changing network."""
    return ScenarioSpec(
        name="fig07-drift",
        description="Coordinates drift consistently as routes shift (Figure 7)",
        mode="replay",
        network=NetworkSpec(nodes=24, shifting_fraction=0.5, drift_fraction_per_hour=0.10),
        preset="mp",
        duration_s=3600.0,
        ping_interval_s=2.0,
        workload=WorkloadSpec(kind="drift", params={"snapshot_interval_s": 60.0}),
        seed=0,
    )


def _fig13_factory(preset: str, label: str):
    def factory() -> ScenarioSpec:
        return ScenarioSpec(
            name=f"fig13-deployment-{preset.replace('_', '-')}",
            description=f"Figure 13 deployment comparison: {label}",
            mode="simulate",
            network=NetworkSpec(nodes=30),
            preset=preset,
            duration_s=3600.0,
            seed=0,
        )

    return factory


for _preset, _label in FIG13_PRESETS.items():
    scenario(f"fig13-deployment-{_preset.replace('_', '-')}")(_fig13_factory(_preset, _label))


def _churn_ablation_factory(warmup: int):
    def factory() -> ScenarioSpec:
        return ScenarioSpec(
            name=f"churn-ablation-warmup{warmup}",
            description=(
                "Protocol simulation under 30% churn with the MP filter's "
                f"warm-up delay set to {warmup} sample(s)"
            ),
            mode="simulate",
            network=NetworkSpec(nodes=20),
            preset=None,
            filter_kind="mp",
            filter_params={"history": 4, "percentile": 25.0, "warmup": warmup},
            heuristic_kind="energy",
            heuristic_params={"threshold": 8.0, "window_size": 32},
            duration_s=1800.0,
            churn=ChurnSpec(churning_fraction=0.3, mean_session_s=400.0, mean_downtime_s=120.0),
            seed=12,
        )

    return factory


for _warmup in (1, 2):
    scenario(f"churn-ablation-warmup{_warmup}")(_churn_ablation_factory(_warmup))


@scenario("planetlab-churn-30pct")
def _planetlab_churn() -> ScenarioSpec:
    """The deployed configuration under 30% node churn."""
    return ScenarioSpec(
        name="planetlab-churn-30pct",
        description="Deployed Energy+MP configuration with 30% of nodes churning",
        mode="simulate",
        network=NetworkSpec(nodes=30),
        preset="mp_energy",
        duration_s=3600.0,
        churn=ChurnSpec(churning_fraction=0.3),
        seed=0,
    )


@scenario("mesh-replay")
def _mesh_replay() -> ScenarioSpec:
    """A plain full-mesh replay sized for engine benchmarking.

    ``bench_engine_scaling.py`` sweeps this scenario's filter parameters
    into a >=500-node grid; it is also a convenient neutral base for ad-hoc
    sweeps (``repro scenarios sweep mesh-replay --set nodes=...``).
    """
    return ScenarioSpec(
        name="mesh-replay",
        description="Full-mesh trace replay with the MP filter (benchmark base)",
        mode="replay",
        network=NetworkSpec(nodes=64),
        preset="mp",
        duration_s=600.0,
        ping_interval_s=2.0,
        seed=0,
    )


@scenario("knn-overlay")
def _knn_overlay() -> ScenarioSpec:
    """Application-level workload: k-nearest-neighbor queries."""
    return ScenarioSpec(
        name="knn-overlay",
        description="kNN queries over application-level coordinates after a replay",
        mode="replay",
        network=NetworkSpec(nodes=24),
        preset="mp_energy",
        duration_s=1200.0,
        workload=WorkloadSpec(kind="knn", params={"k": 3, "queries": 64}),
        seed=0,
    )


@scenario("query-service-mixed")
def _query_service_mixed() -> ScenarioSpec:
    """The coordinate query service under a blended read workload.

    Runs a replay to convergence, snapshots the application coordinates
    into the service layer, and serves a deterministic Zipf-skewed mix of
    knn / nearest / range / pairwise / centroid queries through a
    one-shard store's batch path on the vp-tree index, with the linear
    oracle run side-by-side for an agreement check.
    """
    return ScenarioSpec(
        name="query-service-mixed",
        description="Snapshot + vp-tree query service serving a mixed read workload",
        mode="replay",
        network=NetworkSpec(nodes=64),
        preset="mp_energy",
        duration_s=900.0,
        workload=WorkloadSpec(
            kind="queries",
            params={"count": 512, "mix": "mixed", "k": 3, "index": "vptree"},
        ),
        seed=0,
    )


@scenario("query-service-knn")
def _query_service_knn() -> ScenarioSpec:
    """The query service under pure k-nearest-neighbor load (vp-tree index)."""
    return ScenarioSpec(
        name="query-service-knn",
        description="Snapshot + vp-tree-index query service serving pure kNN load",
        mode="replay",
        network=NetworkSpec(nodes=64),
        preset="mp_energy",
        duration_s=900.0,
        workload=WorkloadSpec(
            kind="queries",
            params={"count": 512, "mix": "knn", "k": 5, "index": "vptree"},
        ),
        seed=0,
    )


@scenario("fig07-vectorized")
def _fig07_vectorized() -> ScenarioSpec:
    """The Figure 7 network universe on the vectorized batch engine.

    Same shifting-link / drifting universe as ``fig07-drift``, but run
    through the synchronous-round NumPy backend at ~10x the node count the
    scalar replay uses -- the drift workload itself needs replay hooks, so
    this entry reports the ping-level stability metrics instead.
    """
    return ScenarioSpec(
        name="fig07-vectorized",
        description="Shifting/drifting universe on the vectorized batch backend",
        mode="simulate",
        network=NetworkSpec(nodes=256, shifting_fraction=0.5, drift_fraction_per_hour=0.10),
        preset="mp",
        duration_s=1800.0,
        backend="vectorized",
        seed=0,
    )


@scenario("churn-vectorized")
def _churn_vectorized() -> ScenarioSpec:
    """The deployed Energy+MP configuration under churn, vectorized."""
    return ScenarioSpec(
        name="churn-vectorized",
        description="Energy+MP under 30% churn on the vectorized batch backend",
        mode="simulate",
        network=NetworkSpec(nodes=256),
        preset="mp_energy",
        duration_s=1800.0,
        churn=ChurnSpec(churning_fraction=0.3, mean_session_s=400.0, mean_downtime_s=120.0),
        backend="vectorized",
        seed=0,
    )


@scenario("stress-10k-vectorized")
def _stress_10k_vectorized() -> ScenarioSpec:
    """A 10,000-node stress run, only feasible on the vectorized backend.

    The scalar write path needs minutes per tick at this scale; the batch
    engine finishes the whole run in seconds.  Kept short so it stays a
    practical smoke test for very large populations.
    """
    return ScenarioSpec(
        name="stress-10k-vectorized",
        description="10k-node synchronous-round stress run (vectorized only)",
        mode="simulate",
        network=NetworkSpec(nodes=10_000),
        preset="mp",
        duration_s=300.0,
        backend="vectorized",
        seed=0,
    )


@scenario("fig07-relative-vectorized")
def _fig07_relative_vectorized() -> ScenarioSpec:
    """The full paper configuration on the batch engine: RELATIVE + height.

    The fig07 shifting/drifting universe with the MP filter, the RELATIVE
    application-update heuristic and height-augmented coordinates -- the
    exact pipeline the paper's headline figures run -- executed on the
    vectorized backend, which previously rejected both RELATIVE and
    heights at spec validation time.
    """
    return ScenarioSpec(
        name="fig07-relative-vectorized",
        description="Paper RELATIVE + height pipeline on the vectorized batch backend",
        mode="simulate",
        network=NetworkSpec(nodes=256, shifting_fraction=0.5, drift_fraction_per_hour=0.10),
        preset="mp_relative",
        use_height=True,
        duration_s=1800.0,
        backend="vectorized",
        seed=0,
    )


@scenario("vectorized-strict-relative")
def _vectorized_strict_relative() -> ScenarioSpec:
    """Strict-equivalence guard for the RELATIVE + height vectorization.

    Long enough (96 ticks) for the two change-detection windows to become
    ready and the locale-scaled trigger to fire, so the nearest-neighbor
    scan and centroid paths are actually exercised against the oracle.
    """
    return ScenarioSpec(
        name="vectorized-strict-relative",
        description="Byte-identical RELATIVE + height equivalence guard",
        mode="simulate",
        network=NetworkSpec(nodes=12),
        preset="mp_relative",
        use_height=True,
        duration_s=480.0,
        backend="vectorized",
        strict_equivalence=True,
        seed=7,
    )


@scenario("query-service-dense")
def _query_service_dense() -> ScenarioSpec:
    """The array-native pipeline end to end: sim -> snapshot -> queries.

    A vectorized simulation publishes its final coordinates through the
    zero-copy array ingest, the ``dense`` index adopts the snapshot
    arrays, and a one-shard store answers the batch through the grouped
    NumPy path -- with the object-based linear oracle run side-by-side
    for the agreement check.
    """
    return ScenarioSpec(
        name="query-service-dense",
        description="Zero-copy snapshot + dense batched queries after a vectorized run",
        mode="simulate",
        network=NetworkSpec(nodes=512),
        preset="mp",
        duration_s=600.0,
        backend="vectorized",
        workload=WorkloadSpec(
            kind="queries",
            params={"count": 512, "mix": "mixed", "k": 5, "index": "dense"},
        ),
        seed=0,
    )


@scenario("queries-live-mixed")
def _queries_live_mixed() -> ScenarioSpec:
    """Live serving end to end: sim -> streaming ingest -> daemon -> load.

    A vectorized simulation streams coordinate epochs straight into a
    running sharded daemon (zero-downtime rollover) while a closed-loop
    client keeps querying over the wire; each live response is audited
    against the generation it claims to be served from.  After the final
    epoch a measured workload replays over the wire and is checksummed
    against the single-store linear oracle.
    """
    return ScenarioSpec(
        name="queries-live-mixed",
        description="Sharded daemon serving a mixed workload while epochs stream in",
        mode="simulate",
        network=NetworkSpec(nodes=128),
        preset="mp",
        duration_s=600.0,
        backend="vectorized",
        workload=WorkloadSpec(
            kind="queries-live",
            params={
                "count": 384,
                "live_count": 96,
                "mix": "mixed",
                "k": 3,
                "index": "vptree",
                "shards": 2,
                "publish_every_ticks": 8,
            },
        ),
        seed=0,
    )


def _chaos_live_spec(name: str, description: str, chaos: str) -> ScenarioSpec:
    """A small queries-live universe with a deterministic fault schedule.

    All four chaos scenarios share one shape: 64 nodes on 2 shards, a
    single-worker live stream of 160 queries (faults fire on request
    counts, so ``concurrency=1`` keeps the shed/degrade pattern -- and
    with it every chaos metric -- byte-identical across runs), and a
    measured leg against the healthy store after the faults clear.
    """
    return ScenarioSpec(
        name=name,
        description=description,
        mode="simulate",
        network=NetworkSpec(nodes=64),
        preset="mp",
        duration_s=600.0,
        backend="vectorized",
        workload=WorkloadSpec(
            kind="queries-live",
            params={
                "count": 256,
                "live_count": 160,
                "mix": "mixed",
                "k": 3,
                "index": "vptree",
                "shards": 2,
                "publish_every_ticks": 8,
                "concurrency": 1,
                "chaos": chaos,
            },
        ),
        seed=0,
    )


@scenario("chaos-shard-kill")
def _chaos_shard_kill() -> ScenarioSpec:
    """Kill a shard mid-stream, serve degraded, restart, re-converge.

    Requests 40..99 of the live stream see shard 1 down: scatter queries
    are answered from the healthy subset and flagged ``partial`` with the
    missing-shard list; the torn-read audit checks them against the same
    healthy subset.  At request 100 the shard restarts (store rebuild
    from the last generation) and the stream must return to full
    answers with no torn reads.
    """
    return _chaos_live_spec(
        "chaos-shard-kill",
        "Shard kill + restart under live load; degraded partial serving",
        "shard-kill@40+60:shard=1",
    )


@scenario("chaos-gray-slow")
def _chaos_gray_slow() -> ScenarioSpec:
    """Gray failure: one shard answers, but slowly, for a request window.

    Requests 40..99 pay a 2 ms injected service delay on shard 0 --
    responses stay correct and complete (no degradation), so the audit
    and oracle agreement must be unaffected; only wall-clock latency
    moves, and that rides in the profile channel.
    """
    return _chaos_live_spec(
        "chaos-gray-slow",
        "Slow-shard gray failure: injected delay, answers stay exact",
        "shard-slow@40+60:shard=0:delay_ms=2",
    )


@scenario("chaos-publish-stall")
def _chaos_publish_stall() -> ScenarioSpec:
    """Publish-path faults: one epoch stalled, one dropped entirely.

    The second publish is delayed by 10 ms (generation age grows, then
    recovers) and the fourth vanishes before reaching the store.  Serving
    must never observe a torn generation: every response still matches a
    re-serve against the generation of its claimed version.
    """
    return _chaos_live_spec(
        "chaos-publish-stall",
        "Stalled and dropped epoch publishes under live serving",
        "publish-stall@2+1:delay_ms=10,publish-drop@4+1",
    )


@scenario("chaos-admission-burst")
def _chaos_admission_burst() -> ScenarioSpec:
    """Synthetic admission spike: the daemon sheds, then recovers.

    Requests 30..69 run with the admission gate saturated by injected
    load (the harness admission limit), so live queries in the window are
    shed with the overloaded error.  The SLO gate bounds the counted
    error window to the fault window and requires clean serving after
    the burst releases.
    """
    return _chaos_live_spec(
        "chaos-admission-burst",
        "Admission-control burst: bounded shed window, clean recovery",
        "admission-burst@30+40:amount=4096",
    )


@scenario("vectorized-strict-small")
def _vectorized_strict_small() -> ScenarioSpec:
    """Pinned strict-equivalence guard: vectorized must match the oracle.

    Small enough to run in CI on every push; the kernel executes both
    batch backends on the same universe and fails unless metrics,
    per-node distributions and final coordinates are byte-identical.
    """
    return ScenarioSpec(
        name="vectorized-strict-small",
        description="Byte-identical vectorized-vs-scalar equivalence guard",
        mode="simulate",
        network=NetworkSpec(nodes=12),
        preset="mp",
        duration_s=240.0,
        backend="vectorized",
        strict_equivalence=True,
        seed=7,
    )


@scenario("placement-overlay")
def _placement_overlay() -> ScenarioSpec:
    """Application-level workload: stream-operator placement."""
    return ScenarioSpec(
        name="placement-overlay",
        description="Operator placement over application-level coordinates after a replay",
        mode="replay",
        network=NetworkSpec(nodes=24),
        preset="mp_energy",
        duration_s=1200.0,
        workload=WorkloadSpec(kind="placement", params={"operators": 16, "endpoints": 3}),
        seed=0,
    )
