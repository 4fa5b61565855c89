"""The ``queries-live`` workload harness: sim -> ingest -> serve, one spec.

:class:`LiveServingHarness` wires a running simulation into a running
daemon and drives query load against it, in three overlapping phases:

1. **Stream** -- the harness's sharded store is handed to
   :func:`~repro.netsim.batch.run_batch_simulation` as its
   ``publish_store``; every epoch the simulation publishes becomes a new
   serving generation under the live daemon, with zero serving downtime.
2. **Live load** -- from the moment the first epoch lands, a background
   closed-loop driver replays a fixed query stream over the wire.  Every
   response is audited for *internal consistency*: the payload must equal
   a re-serve of the same query against the retained generation of the
   version the response claims -- the torn-read detector.
3. **Measure** -- once the simulation (and its final publish) completes,
   a deterministic measured workload replays against the final
   generation and is checksummed against the in-process single-store
   linear oracle.

Scenario results must be byte-identical across worker counts, so
everything entering the scenario metrics is deterministic: fixed query
counts, ok/consistency *rates* (1.0 unless something is wrong), epoch
counts and the oracle-agreement bit.  Wall-clock figures (qps, p99) go
into the kernel's ``--profile`` channel only, exactly like the
vectorized backend's tick timings.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.chaos.injector import ChaosInjector
from repro.chaos.schedule import FaultSchedule
from repro.chaos.slo import SLOThresholds, evaluate as evaluate_slo
from repro.server.daemon import CoordinateServer, ServerThread
from repro.server.load import LoadReport, run_load
from repro.server.sharding import ShardedCoordinateStore
from repro.service.planner import QueryError, QueryPlanner
from repro.service.publish import EpochDelta
from repro.service.snapshot import SnapshotStore
from repro.service.workload import generate_queries, run_workload

__all__ = ["LiveServingHarness"]


class LiveServingHarness:
    """Owns the daemon, the live driver, and the measured-leg comparison."""

    def __init__(
        self,
        *,
        shards: int,
        index_kind: str,
        publish_every_ticks: int,
        live_count: int,
        measured_count: int,
        mix: str,
        k: int,
        radius_ms: float,
        concurrency: int,
        cache_entries: int,
        seed: int,
        source: str = "queries-live",
        chaos_spec: str = "",
    ) -> None:
        self.publish_every_ticks = publish_every_ticks
        self.live_count = live_count
        self.measured_count = measured_count
        self.mix = mix
        self.k = k
        self.radius_ms = radius_ms
        self.concurrency = concurrency
        self.seed = seed
        self.source = source
        #: Every published generation is retained so the live audit can
        #: re-serve any response's claimed version; sized generously --
        #: a live scenario publishes tens of epochs, not millions.
        self.store = ShardedCoordinateStore(
            shards,
            index_kind=index_kind,
            history=1_000_000,
            cache_entries=cache_entries,
            health_seed=seed,
        )
        self.server = CoordinateServer(self.store, admission_limit=4096)
        #: Optional deterministic fault schedule: faults fire on request
        #: and publish *counts*, so the chaos metrics below stay
        #: byte-identical across runs and worker counts.
        self.chaos: Optional[ChaosInjector] = None
        if chaos_spec:
            schedule = FaultSchedule.parse(chaos_spec, seed=seed)
            self.chaos = ChaosInjector(schedule, self.store)
            self.store.chaos = self.chaos
        #: The server-side telemetry registry (store + daemon instruments;
        #: the daemon adopts the store's).  Client-side load telemetry
        #: lives in each leg's LoadReport instead, so daemon-observed and
        #: client-observed latency never mix in one instrument.
        self.registry = self.server.registry
        self._server_thread: Optional[ServerThread] = None
        self._driver: Optional[threading.Thread] = None
        self._driver_report: Optional[LoadReport] = None
        self._driver_error: Optional[BaseException] = None
        #: Set on harness exit so a driver still waiting for the first
        #: epoch (the simulation failed before publishing) stops promptly
        #: instead of spinning until its join times out.
        self._closing = threading.Event()
        self._live_consistent = 0
        self._live_audited = 0
        self._live_degraded = 0

    # ------------------------------------------------------------------
    # Lifecycle around the simulation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LiveServingHarness":
        self._server_thread = self.server.run_in_thread()
        self._server_thread.start()
        self._driver = threading.Thread(
            target=self._drive_live_load, name="live-load-driver", daemon=True
        )
        self._driver.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._closing.set()
        if self._driver is not None:
            self._driver.join(timeout=120.0)
        if self._server_thread is not None:
            self._server_thread.stop()
            self._server_thread = None

    def publish_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``run_batch_simulation``'s streaming path.

        The harness hands *itself* over as the ``publish_store``: it
        implements :class:`~repro.service.publish.EpochPublisher` by
        delegating to its sharded store, so the simulation can stream
        full or delta epochs without knowing the serving topology.
        """
        return {
            "publish_store": self,
            "publish_every_ticks": self.publish_every_ticks,
        }

    # ------------------------------------------------------------------
    # EpochPublisher: the harness is the simulation's publish target
    # ------------------------------------------------------------------
    def publish_epoch(
        self, node_ids, components, heights=None, *, source: str = ""
    ):
        """Publish a complete population epoch into the serving store."""
        return self.store.publish_epoch(node_ids, components, heights, source=source)

    def publish_delta(self, delta: EpochDelta):
        """Apply an incremental epoch on top of the serving generation."""
        return self.store.publish_delta(delta)

    # ------------------------------------------------------------------
    # Phase 2: the live closed-loop driver (background thread)
    # ------------------------------------------------------------------
    def _drive_live_load(self) -> None:
        try:
            import time

            # Wait for the first epoch: the node population exists from
            # version 1 on and is static thereafter.  Bail out if the
            # harness starts closing first (the simulation died before
            # publishing anything).
            while self.store.version < 1:
                if self._closing.wait(0.005):
                    return
            node_ids = self.store.generation().node_order
            queries = generate_queries(
                node_ids,
                self.live_count,
                mix=self.mix,
                seed=self.seed + 1,  # distinct stream from the measured leg
                k=self.k,
                radius_ms=self.radius_ms,
            )
            assert self._server_thread is not None and self._server_thread.address
            report = run_load(
                self._server_thread.address,
                queries,
                mode="closed",
                concurrency=self.concurrency,
            )
            self._driver_report = report
            # Torn-read audit: every response must match a re-serve of
            # its query against the generation of its claimed version.
            # Degraded (partial) responses are audited on the healthy
            # subset they declared via ``missing_shards``.
            for query, response in zip(queries, report.responses):
                if not response.get("ok"):
                    continue
                self._live_audited += 1
                missing = frozenset(response.get("missing_shards") or ())
                if response.get("partial"):
                    self._live_degraded += 1
                generation = self.store.at(int(response["version"]))
                try:
                    expected = generation.answer(query, exclude_shards=missing)
                except QueryError:
                    continue  # counted as inconsistent
                if expected == response.get("payload"):
                    self._live_consistent += 1
        except BaseException as exc:  # surfaced by finish(), not swallowed
            self._driver_error = exc

    # ------------------------------------------------------------------
    # Phase 3: the measured leg and the oracle comparison
    # ------------------------------------------------------------------
    def finish(
        self, profile: Optional[Dict[str, float]] = None
    ) -> Tuple[Dict[str, Optional[float]], Dict[str, Any]]:
        """Join the live driver, measure, compare, and summarise.

        Returns ``(metrics, workload_payload)`` in the kernel's shapes;
        both contain only deterministic values.  Must be called while the
        harness context is still open (the daemon is needed for the
        measured leg); the simulation must already have completed so the
        final generation is published.
        """
        assert self._driver is not None
        self._driver.join(timeout=300.0)
        if self._driver.is_alive():
            raise RuntimeError("live load driver did not finish")
        if self._driver_error is not None:
            raise RuntimeError(
                f"live load driver failed: {self._driver_error}"
            ) from self._driver_error

        if self.chaos is not None:
            # Force-clear any serve fault still open at the end of the
            # live stream so the measured leg runs against a healthy
            # store (and return any injected admission slots).
            released = self.chaos.finish_serve_faults()
            if released:
                self.server.engine.release_admission_load(released)

        generation = self.store.generation()
        if len(generation) < 2:
            raise RuntimeError("queries-live needs at least two published nodes")
        queries = generate_queries(
            generation.node_order,
            self.measured_count,
            mix=self.mix,
            seed=self.seed,
            k=self.k,
            radius_ms=self.radius_ms,
        )
        assert self._server_thread is not None and self._server_thread.address
        measured = run_load(
            self._server_thread.address,
            queries,
            mode="closed",
            concurrency=self.concurrency,
        )

        # The single-store linear oracle over the same final snapshot;
        # timer pinned so its behaviour is a pure function of the inputs
        # (mirrors the in-kernel queries workload).
        oracle_store = SnapshotStore.from_snapshot(
            generation.snapshot, index_kind="linear"
        )
        oracle = run_workload(
            QueryPlanner(oracle_store, timer=lambda: 0.0),
            queries,
            timer=lambda: 0.0,
        )
        agreement = float(measured.checksum == oracle.checksum)

        live = self._driver_report
        live_issued = live.query_count if live is not None else 0
        metrics: Dict[str, Optional[float]] = {
            "live_query_count": float(live_issued),
            "live_ok_rate": (
                float(live.ok / live.query_count)
                if live is not None and live.query_count
                else None
            ),
            "live_consistency": (
                float(self._live_consistent / self._live_audited)
                if self._live_audited
                else None
            ),
            "epochs_published": float(self.store.stats()["ingest"]["versions_published"]),
            "query_count": float(measured.query_count),
            "query_error_count": float(measured.errors),
            "query_oracle_agreement": agreement,
        }
        # Store-side coordinate health over the streamed epochs: every
        # value is a pure function of the (deterministic) publish stream
        # -- no wall clock -- so it belongs in the scenario metrics, not
        # the profile.  Self-referenced: relative error here measures
        # movement away from the first published geometry, i.e. how much
        # the embedding was still converging while serving.
        metrics.update(self.store.health_tracker.metrics_summary(prefix="store_health_"))
        chaos_report: Optional[Dict[str, Any]] = None
        if self.chaos is not None:
            # Chaos metrics are pure functions of the (count-driven)
            # fault schedule and the fixed live query stream, so they are
            # deterministic and belong in the scenario metrics.  Wall-
            # clock latencies stay out: the SLO evaluation here runs with
            # latencies_ms=None, making p99 recovery vacuous by design.
            chaos_report = self.chaos.report()
            live_responses = live.responses if live is not None else ()
            error_positions = [
                position
                for position, response in enumerate(live_responses)
                if not response.get("ok")
            ]
            torn_reads = self._live_audited - self._live_consistent
            slo = evaluate_slo(
                thresholds=SLOThresholds(),
                fault_windows=[
                    (event.at, event.clear_at)
                    for event in self.chaos.schedule.serve_events()
                ],
                error_positions=error_positions,
                total_requests=live_issued,
                latencies_ms=None,
                torn_reads=torn_reads,
                generation_recovered=not self.store.down_shards,
            )
            faults = chaos_report["faults"]
            metrics.update(
                {
                    "chaos_faults_fired": float(
                        sum(1 for fault in faults if fault["fired"])
                    ),
                    "chaos_faults_cleared": float(
                        sum(1 for fault in faults if fault["cleared"])
                    ),
                    "chaos_degraded_responses": float(self._live_degraded),
                    "chaos_dropped_publishes": float(
                        chaos_report["dropped_publishes"]
                    ),
                    "chaos_stalled_publishes": float(
                        chaos_report["stalled_publishes"]
                    ),
                    "chaos_error_count": float(len(error_positions)),
                    "chaos_torn_reads": float(torn_reads),
                    "chaos_slo_passed": float(slo["passed"]),
                }
            )
        if profile is not None:
            profile["live_serve_qps"] = round(
                live.queries_per_s if live is not None else 0.0, 3
            )
            profile["measured_serve_qps"] = round(measured.queries_per_s, 3)
            profile["measured_serve_s"] = round(measured.elapsed_s, 6)
            for kind, summary in measured.kinds.items():
                profile[f"measured_{kind}_p99_ms"] = summary["p99_ms"]
            for kind, summary in measured.telemetry.get("kinds", {}).items():
                profile[f"measured_{kind}_p999_ms"] = summary["p999_ms"]
        if profile is not None and live is not None:
            # Which versions the live stream happened to hit is timing-
            # dependent, so it rides with the wall-clock profile, never
            # the (deterministic) scenario result.
            profile["live_versions_observed"] = float(len(live.versions))
        payload: Dict[str, Any] = {
            "serving": "daemon",
            "shards": self.store.shards,
            "index_kind": self.store.index_kind,
            "checksum": measured.checksum,
            "oracle_checksum": oracle.checksum,
            "store_health": self.store.health_tracker.summary(),
        }
        if chaos_report is not None:
            payload["chaos"] = chaos_report
        return metrics, payload

    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The server-side registry rendered as Prometheus text."""
        return self.registry.render_prometheus()

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server_thread is not None and self._server_thread.address
        return self._server_thread.address
