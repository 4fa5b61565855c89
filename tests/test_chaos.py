"""Tests for deterministic fault injection (:mod:`repro.chaos`).

The load-bearing guarantees:

* fault schedules are parsed strictly, sorted deterministically, and
  fire on request/publish *counts* -- never the wall clock;
* killing a shard degrades scatter queries to flagged partial responses
  byte-identical to the healthy-subset oracle, and restarting rebuilds
  the shard so answers return to the full-merge bytes;
* publish-path faults (stall/drop) never tear a generation: every
  response still matches a re-serve against its claimed version;
* the admission-burst fault sheds exactly the scheduled request window
  and releases its slots afterwards;
* the chaos wire op is version-gated, and same seed + schedule produce
  a byte-identical chaos report and event log across daemon runs;
* the client's typed transport errors (timeout / transport / overload)
  surface instead of hanging, with deterministic capped backoff.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.chaos import (
    FAULT_KINDS,
    PUBLISH_FAULT_KINDS,
    SERVE_FAULT_KINDS,
    ChaosInjector,
    FaultEvent,
    FaultSchedule,
    SLOThresholds,
    evaluate,
    verify_chaos_responses,
)
from repro.server.client import (
    AsyncCoordinateClient,
    backoff_delay_ms,
    retry_after_delay_ms,
)
from repro.server.daemon import CoordinateServer
from repro.server.errors import RequestTimeout, ServerOverloaded, TransportError
from repro.server.load import run_load, synthetic_arrays, synthetic_coordinates
from repro.server.sharding import ShardedCoordinateStore
from repro.service.planner import Query
from repro.service.workload import generate_queries


def serve_in_thread(store, **kwargs):
    return CoordinateServer(store, **kwargs).run_in_thread()


def make_store(nodes=32, *, shards=2, seed=3, **kwargs):
    return ShardedCoordinateStore.from_coordinates(
        synthetic_coordinates(nodes, seed=seed), shards=shards, **kwargs
    )


def probe_query(nodes=32, *, seed=3) -> Query:
    """A scatter query over a node that definitely exists in the universe."""
    return Query.nearest(sorted(synthetic_coordinates(nodes, seed=seed))[0])


# ----------------------------------------------------------------------
# Schedule parsing
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_parse_sorts_and_stamps(self):
        schedule = FaultSchedule.parse(
            "shard-kill@40+60:shard=1,publish-drop@4+1", seed=9
        )
        assert schedule.seed == 9
        assert schedule.spec == "shard-kill@40+60:shard=1,publish-drop@4+1"
        assert [event.kind for event in schedule.events] == [
            "publish-drop",
            "shard-kill",
        ]
        kill = schedule.events[1]
        assert (kill.at, kill.duration, kill.shard) == (40, 60, 1)
        assert kill.clear_at == 100
        assert schedule.serve_events() == (kill,)
        assert schedule.publish_events() == (schedule.events[0],)

    def test_kind_partitions_cover_all_kinds(self):
        assert set(SERVE_FAULT_KINDS) | set(PUBLISH_FAULT_KINDS) == set(FAULT_KINDS)
        assert not set(SERVE_FAULT_KINDS) & set(PUBLISH_FAULT_KINDS)

    def test_as_dict_is_json_safe(self):
        schedule = FaultSchedule.parse("shard-slow@5+10:shard=0:delay_ms=2.5", seed=3)
        payload = schedule.as_dict()
        assert payload["seed"] == 3
        assert payload["events"][0]["kind"] == "shard-slow"
        assert payload["events"][0]["delay_ms"] == 2.5
        json.dumps(payload)

    @pytest.mark.parametrize(
        ("spec", "match"),
        [
            ("", "empty"),
            ("warp@1+1", "unknown fault kind"),
            ("shard-kill@1+1", "requires shard"),
            ("shard-kill@-1+1:shard=0", "at must be"),
            ("shard-kill@1+0:shard=0", "duration must be"),
            ("shard-kill@1+1:shard=0:delay_ms=2", "does not take a delay_ms"),
            ("shard-slow@1+1:shard=0", "delay_ms"),
            ("publish-stall@1+1", "delay_ms"),
            ("publish-drop@1+1:amount=2", "does not take an amount"),
            ("admission-burst@1+1", "amount"),
            ("admission-burst@1+1:amount=zero", "amount must be an integer"),
            ("shard-kill@1:shard=0", r"kind@at\+duration"),
            ("shard-kill@x+1:shard=0", "must be integers"),
            ("shard-kill@1+1:shard", "key=value"),
            ("shard-kill@1+1:shard=0:shard=0", "duplicate parameter"),
            ("shard-kill@1+1:color=red", "unknown parameter"),
            ("shard-kill@1+1:shard=0,,", "empty fault token"),
        ],
    )
    def test_rejects_bad_specs_naming_the_token(self, spec, match):
        with pytest.raises(ValueError, match=match):
            FaultSchedule.parse(spec)

    def test_event_validation_direct(self):
        with pytest.raises(ValueError, match="requires shard"):
            FaultEvent(kind="shard-kill", at=0, duration=1)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="quake", at=0, duration=1)


# ----------------------------------------------------------------------
# Deterministic backoff and typed retry
# ----------------------------------------------------------------------
class TestBackoff:
    def test_backoff_is_deterministic_capped_and_seed_decorrelated(self):
        first = [backoff_delay_ms(attempt, seed=0) for attempt in range(10)]
        again = [backoff_delay_ms(attempt, seed=0) for attempt in range(10)]
        assert first == again
        assert all(0.0 < delay <= 500.0 for delay in first)
        assert first[0] <= 10.0  # attempt 0 stays inside the base bound
        assert first != [backoff_delay_ms(a, seed=1) for a in range(10)]

    def test_backoff_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay_ms(-1)
        with pytest.raises(ValueError, match="base_ms"):
            backoff_delay_ms(0, base_ms=0.0)

    def test_retry_exhaustion_raises_server_overloaded(self):
        store = make_store(8, shards=1)
        target = probe_query(8).target
        server = CoordinateServer(store, admission_limit=4)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                server.engine.inject_admission_load(4)  # saturate: every query sheds
                delays = []

                async def fake_sleep(seconds):
                    delays.append(seconds)

                with pytest.raises(ServerOverloaded):
                    await client.request_with_retry(
                        {"op": "nearest", "target": target},
                        retries=2,
                        seed=5,
                        sleep=fake_sleep,
                    )
                server.engine.release_admission_load(4)
                recovered = await client.request_with_retry(
                    {"op": "nearest", "target": target}, retries=1
                )
                return delays, recovered

        with server.run_in_thread() as handle:
            delays, recovered = asyncio.run(scenario(handle.address))
        assert delays == [
            backoff_delay_ms(attempt, seed=5) / 1e3 for attempt in range(2)
        ]
        assert recovered["ok"]

    def test_retry_after_delay_is_deterministic_and_never_below_the_hint(self):
        first = [retry_after_delay_ms(40.0, attempt, seed=2) for attempt in range(8)]
        again = [retry_after_delay_ms(40.0, attempt, seed=2) for attempt in range(8)]
        assert first == again
        # "Wait at least this long": jitter lands at or above the hint,
        # never under it, and stays within the 50% equal-jitter band.
        assert all(40.0 <= delay < 60.0 for delay in first)
        assert first != [retry_after_delay_ms(40.0, a, seed=3) for a in range(8)]
        with pytest.raises(ValueError, match="hint_ms"):
            retry_after_delay_ms(-1.0, 0)
        with pytest.raises(ValueError, match="attempt"):
            retry_after_delay_ms(1.0, -1)

    def test_retry_honors_the_server_retry_after_hint(self):
        store = make_store(8, shards=1)
        target = probe_query(8).target
        server = CoordinateServer(store, admission_limit=4, retry_after_ms=25.0)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                server.engine.inject_admission_load(4)
                delays = []

                async def fake_sleep(seconds):
                    delays.append(seconds)

                with pytest.raises(ServerOverloaded):
                    await client.request_with_retry(
                        {"op": "nearest", "target": target},
                        retries=2,
                        seed=5,
                        sleep=fake_sleep,
                    )
                server.engine.release_admission_load(4)
                return delays

        with server.run_in_thread() as handle:
            delays = asyncio.run(scenario(handle.address))
        # Every shed response carried the 25ms hint, so every sleep used
        # the hint schedule instead of the exponential one -- and never
        # retried before the server said capacity might return.
        assert delays == [
            retry_after_delay_ms(25.0, attempt, seed=5) / 1e3 for attempt in range(2)
        ]
        assert all(delay >= 0.025 for delay in delays)

    def test_malformed_hint_falls_back_to_exponential_backoff(self):
        class CannedClient:
            """Replays canned responses through the real retry loop."""

            request_with_retry = AsyncCoordinateClient.request_with_retry

            def __init__(self, responses):
                self._responses = iter(responses)

            async def request(self, request, *, timeout=None):
                return next(self._responses)

        async def drive(responses, retries):
            delays = []

            async def fake_sleep(seconds):
                delays.append(seconds)

            client = CannedClient(responses)
            response = await client.request_with_retry(
                {"op": "ping"}, retries=retries, seed=7, sleep=fake_sleep
            )
            return delays, response

        # Malformed hints (a string, a bool, a negative) are ignored.
        delays, response = asyncio.run(
            drive(
                [
                    {"overloaded": True, "error": "x", "retry_after_ms": "soon"},
                    {"overloaded": True, "error": "x", "retry_after_ms": True},
                    {"overloaded": True, "error": "x", "retry_after_ms": -5},
                    {"ok": True},
                ],
                retries=3,
            )
        )
        assert response == {"ok": True}
        assert delays == [
            backoff_delay_ms(attempt, seed=7) / 1e3 for attempt in range(3)
        ]
        # A well-formed hint switches that retry to the hint schedule,
        # and a hintless shed right after falls back to exponential.
        delays, response = asyncio.run(
            drive(
                [
                    {"overloaded": True, "error": "x", "retry_after_ms": 80},
                    {"overloaded": True, "error": "x"},
                    {"ok": True},
                ],
                retries=2,
            )
        )
        assert response == {"ok": True}
        assert delays == [
            retry_after_delay_ms(80.0, 0, seed=7) / 1e3,
            backoff_delay_ms(1, seed=7) / 1e3,
        ]


# ----------------------------------------------------------------------
# The injector against a real store (in-process)
# ----------------------------------------------------------------------
class TestInjector:
    def test_shard_out_of_range_rejected(self):
        store = make_store()
        schedule = FaultSchedule.parse("shard-kill@0+1:shard=7")
        with pytest.raises(ValueError, match="out of range for a 2-shard store"):
            ChaosInjector(schedule, store)

    def test_kill_fires_and_clears_on_request_counts(self):
        store = make_store()
        injector = ChaosInjector(FaultSchedule.parse("shard-kill@2+3:shard=1"), store)
        for _ in range(2):  # counts 0, 1: before the window
            injector.on_query("knn")
            assert store.down_shards == frozenset()
        injector.on_query("knn")  # count 2: fires
        assert store.down_shards == {1}
        injector.on_query("knn")
        injector.on_query("knn")
        assert store.down_shards == {1}
        injector.on_query("knn")  # count 5 >= clear_at: restores
        assert store.down_shards == frozenset()
        report = injector.report()
        assert report["requests_seen"] == 6
        (fault,) = report["faults"]
        assert fault["fired_at"] == 2 and fault["cleared_at"] == 5
        assert not fault["forced_clear"]

    def test_slow_fault_injects_and_removes_delay(self):
        store = make_store()
        injector = ChaosInjector(
            FaultSchedule.parse("shard-slow@1+2:shard=0:delay_ms=4"), store
        )
        assert injector.serve_delay_ms() == 0.0
        injector.on_query("knn")  # count 0
        injector.on_query("knn")  # count 1: fires
        assert injector.serve_delay_ms() == 4.0
        injector.on_query("knn")  # count 2: still inside
        injector.on_query("knn")  # count 3: clears
        assert injector.serve_delay_ms() == 0.0

    def test_admission_burst_decision_lifecycle(self):
        store = make_store()
        injector = ChaosInjector(
            FaultSchedule.parse("admission-burst@1+2:amount=16"), store
        )
        first = injector.on_query("knn")
        assert (first.admission_acquire, first.admission_release) == (0, 0)
        fired = injector.on_query("knn")
        assert (fired.admission_acquire, fired.admission_release) == (16, 0)
        held = injector.on_query("knn")
        assert (held.admission_acquire, held.admission_release) == (0, 0)
        cleared = injector.on_query("knn")
        assert (cleared.admission_acquire, cleared.admission_release) == (0, 16)
        assert injector.report()["admission_injected"] == 16

    def test_finish_serve_faults_forces_clear_and_returns_slots(self):
        store = make_store()
        injector = ChaosInjector(
            FaultSchedule.parse(
                "shard-kill@0+100:shard=1,admission-burst@0+100:amount=8"
            ),
            store,
        )
        injector.on_query("knn")  # both fire
        assert store.down_shards == {1}
        released = injector.finish_serve_faults()
        assert released == 8
        assert store.down_shards == frozenset()
        report = injector.report()
        assert all(fault["forced_clear"] for fault in report["faults"])
        assert injector.finish_serve_faults() == 0  # idempotent

    def test_publish_drop_and_stall_actions(self):
        store = make_store()
        injector = ChaosInjector(
            FaultSchedule.parse("publish-stall@1+1:delay_ms=0.1,publish-drop@2+1"),
            store,
        )
        assert injector.on_publish() == ("ok", 0.0)
        assert injector.on_publish() == ("stall", 0.1)
        assert injector.on_publish() == ("drop", 0.0)
        assert injector.on_publish() == ("ok", 0.0)
        report = injector.report()
        assert report["publishes_seen"] == 4
        assert report["dropped_publishes"] == 1
        assert report["stalled_publishes"] == 1


# ----------------------------------------------------------------------
# Degraded serving: kill -> partial -> restart, byte-checked
# ----------------------------------------------------------------------
class TestDegradedServing:
    @pytest.fixture()
    def population(self):
        coords = synthetic_coordinates(48, seed=5)
        queries = generate_queries(list(coords), 80, mix="mixed", seed=2, k=4)
        return coords, queries

    def test_kill_serves_partial_then_restart_restores_bytes(self, population):
        coords, queries = population
        store = ShardedCoordinateStore.from_coordinates(
            coords, shards=3, index_kind="vptree"
        )
        scatter = next(q for q in queries if q.kind == "knn")
        before = store.serve(scatter)
        assert not before.partial and before.missing_shards == ()

        store.kill_shard(1)
        degraded = store.serve(scatter)
        assert degraded.partial and degraded.missing_shards == (1,)
        assert degraded.version == before.version  # same pinned generation
        mirror = ShardedCoordinateStore.from_snapshot(
            store.generation().snapshot, shards=3, index_kind="linear"
        )
        expected = mirror.generation().answer(scatter, exclude_shards=frozenset({1}))
        assert degraded.payload == expected

        store.restart_shard(1)
        after = store.serve(scatter)
        assert not after.partial
        assert after.payload == before.payload

    def test_pairwise_unaffected_by_down_shard(self, population):
        coords, _ = population
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        ids = sorted(coords)
        store.kill_shard(0)
        result = store.serve(Query.pairwise(ids[0], ids[1]))
        assert not result.partial and result.missing_shards == ()

    def test_all_shards_down_serves_empty_partial(self, population):
        coords, _ = population
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        store.kill_shard(0)
        store.kill_shard(1)
        result = store.serve(Query.knn(sorted(coords)[0], k=3))
        assert result.partial and result.missing_shards == (0, 1)
        assert result.payload["neighbors"] == []

    def test_degraded_responses_bypass_the_cache(self, population):
        coords, _ = population
        store = ShardedCoordinateStore.from_coordinates(
            coords, shards=2, cache_entries=64
        )
        query = Query.knn(sorted(coords)[0], k=3)
        healthy = store.serve(query)  # populates the cache
        store.kill_shard(1)
        degraded = store.serve(query)
        assert degraded.partial  # not the cached full answer
        repeat = store.serve(query)
        assert repeat.partial and not repeat.cached  # and never cached itself
        store.restart_shard(1)
        after = store.serve(query)
        assert not after.partial and after.cached  # old cache entry intact
        assert after.payload == healthy.payload

    def test_kill_restart_validation_idempotence_and_events(self, population):
        coords, _ = population
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        with pytest.raises(ValueError, match="out of range"):
            store.kill_shard(9)
        with pytest.raises(ValueError, match="out of range"):
            store.restart_shard(-1)
        store.kill_shard(1)
        store.kill_shard(1)  # idempotent
        assert store.stats()["shards"]["down"] == [1]
        store.restart_shard(1)
        store.restart_shard(1)  # idempotent
        assert store.stats()["shards"]["down"] == []
        kinds = [event["kind"] for event in store.events.tail()]
        assert kinds.count("shard_killed") == 1
        assert kinds.count("shard_restarted") == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_torn_read_audit_under_kill_restart_cycles(self, seed):
        """Hypothesis-style: seeded random streams, one invariant.

        Across repeated kill/restart cycles interleaved with queries,
        every answer must be byte-identical to a re-serve against the
        same generation on the same healthy subset -- no torn reads.
        """
        coords = synthetic_coordinates(40, seed=seed)
        store = ShardedCoordinateStore.from_coordinates(
            coords, shards=2, index_kind="vptree"
        )
        queries = generate_queries(list(coords), 60, mix="mixed", seed=seed)
        torn = 0
        for position, query in enumerate(queries):
            if position % 20 == 10:
                store.kill_shard(position // 20 % 2)
            if position % 20 == 15:
                store.restart_shard(position // 20 % 2)
            result = store.serve(query)
            expected = store.at(result.version).answer(
                query, exclude_shards=frozenset(result.missing_shards)
            )
            if expected != result.payload:
                torn += 1
        assert torn == 0


# ----------------------------------------------------------------------
# Publish-path faults through the store gate
# ----------------------------------------------------------------------
class TestPublishFaults:
    def test_drop_leaves_version_and_stall_still_installs(self):
        node_ids, components, heights = synthetic_arrays(24)
        store = ShardedCoordinateStore(2, index_kind="linear", history=8)
        store.publish_epoch(node_ids, components, heights, source="base")
        injector = ChaosInjector(
            FaultSchedule.parse("publish-drop@0+1,publish-stall@1+1:delay_ms=1"),
            store,
        )
        store.chaos = injector
        dropped = store.publish_epoch(
            node_ids, components + 1.0, heights, source="dropped"
        )
        assert dropped.version == 1  # publish 0 vanished; generation unchanged
        assert store.version == 1
        stalled = store.publish_epoch(
            node_ids, components + 2.0, heights, source="stalled"
        )
        assert stalled.version == 2  # publish 1 landed after the stall
        assert stalled.source == "stalled"
        store.chaos = None
        kinds = [event["kind"] for event in store.events.tail()]
        assert "publish_dropped" in kinds and "publish_stalled" in kinds
        report = injector.report()
        assert report["dropped_publishes"] == 1
        assert report["stalled_publishes"] == 1


# ----------------------------------------------------------------------
# SLO evaluation
# ----------------------------------------------------------------------
class TestSLO:
    def test_clean_run_passes_everything(self):
        result = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[(40, 100)],
            error_positions=[],
            total_requests=400,
            latencies_ms=[1.0] * 400,
            torn_reads=0,
            generation_recovered=True,
        )
        assert result["passed"]
        assert set(result["checks"]) == {
            "bounded_error_window",
            "no_torn_reads",
            "p99_recovery",
            "generation_recovered",
        }

    def test_errors_outside_fault_plus_recovery_window_fail(self):
        result = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[(40, 100)],
            error_positions=[350],  # beyond 100 + recovery window 200
            total_requests=400,
        )
        assert not result["checks"]["bounded_error_window"]["passed"]

    def test_error_count_above_bound_fails(self):
        result = evaluate(
            thresholds=SLOThresholds(max_error_window=3),
            fault_windows=[(0, 10)],
            error_positions=[1, 2, 3, 4],
            total_requests=50,
        )
        assert not result["checks"]["bounded_error_window"]["passed"]

    def test_no_fault_windows_means_zero_errors_allowed(self):
        clean = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[],
            error_positions=[],
            total_requests=10,
        )
        dirty = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[],
            error_positions=[4],
            total_requests=10,
        )
        assert clean["checks"]["bounded_error_window"]["passed"]
        assert not dirty["checks"]["bounded_error_window"]["passed"]

    def test_torn_reads_fail_and_none_is_not_audited(self):
        torn = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[(0, 5)],
            error_positions=[],
            total_requests=10,
            torn_reads=1,
        )
        assert not torn["passed"]
        unaudited = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[(0, 5)],
            error_positions=[],
            total_requests=10,
            torn_reads=None,
        )
        assert unaudited["checks"]["no_torn_reads"]["passed"]
        assert unaudited["checks"]["no_torn_reads"]["detail"] == "not audited"

    def test_p99_recovery_breaks_under_tight_amplification(self):
        latencies = [1.0] * 100 + [None] * 50 + [1.2] * 250
        loose = evaluate(
            thresholds=SLOThresholds(p99_amplification=1.5),
            fault_windows=[(100, 150)],
            error_positions=list(range(100, 150)),
            total_requests=400,
            latencies_ms=latencies,
        )
        assert loose["checks"]["p99_recovery"]["passed"]
        tight = evaluate(
            thresholds=SLOThresholds(p99_amplification=1.0001),
            fault_windows=[(100, 150)],
            error_positions=list(range(100, 150)),
            total_requests=400,
            latencies_ms=latencies,
        )
        assert not tight["checks"]["p99_recovery"]["passed"]
        assert not tight["passed"]

    def test_p99_with_too_few_samples_is_vacuous(self):
        result = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[(5, 10)],
            error_positions=[],
            total_requests=20,
            latencies_ms=[1.0] * 20,
        )
        assert result["checks"]["p99_recovery"]["passed"]
        assert "vacuous" in result["checks"]["p99_recovery"]["detail"]

    def test_no_latencies_skips_timing_only(self):
        result = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[(0, 5)],
            error_positions=[],
            total_requests=10,
            latencies_ms=None,
        )
        assert result["checks"]["p99_recovery"]["passed"]
        assert "not evaluated" in result["checks"]["p99_recovery"]["detail"]

    def test_generation_recovery_check(self):
        stuck = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[],
            error_positions=[],
            total_requests=10,
            generation_recovered=False,
        )
        assert not stuck["checks"]["generation_recovered"]["passed"]

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="p99_amplification"):
            SLOThresholds(p99_amplification=0.0)
        with pytest.raises(ValueError, match="max_error_window"):
            SLOThresholds(max_error_window=-1)
        with pytest.raises(ValueError, match="recovery_window_requests"):
            SLOThresholds(recovery_window_requests=0)


# ----------------------------------------------------------------------
# The chaos wire op and end-to-end daemon behaviour
# ----------------------------------------------------------------------
class TestChaosWire:
    def test_install_report_clear_roundtrip(self):
        store = make_store(48)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                installed = await client.op("chaos", spec="shard-kill@5+10:shard=1", seed=4)
                duplicate = await client.op("chaos", spec="shard-kill@5+10:shard=1")
                report = await client.op("chaos", report=True)
                cleared = await client.op("chaos", clear=True)
                empty = await client.op("chaos", report=True)
                return installed, duplicate, report, cleared, empty

        with serve_in_thread(store) as handle:
            installed, duplicate, report, cleared, empty = asyncio.run(
                scenario(handle.address)
            )
        assert installed["ok"]
        assert installed["payload"] == {"installed": True, "faults": 1}
        assert not duplicate["ok"] and "already installed" in duplicate["error"]
        assert report["ok"] and report["payload"]["installed"]
        assert report["payload"]["report"]["seed"] == 4
        assert cleared["ok"] and cleared["payload"]["cleared"]
        assert empty["ok"] and empty["payload"]["report"] is None

    def test_chaos_op_is_validated(self):
        store = make_store(48)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                bad_spec = await client.op("chaos", spec="warp@1+1")
                bad_seed = await client.op("chaos", spec="shard-kill@0+1:shard=0", seed=True)
                no_spec = await client.op("chaos")
                return bad_spec, bad_seed, no_spec

        with serve_in_thread(store) as handle:
            bad_spec, bad_seed, no_spec = asyncio.run(scenario(handle.address))
        assert not bad_spec["ok"] and "unknown fault kind" in bad_spec["error"]
        assert not bad_seed["ok"] and "seed" in bad_seed["error"]
        assert not no_spec["ok"] and "spec" in no_spec["error"]
        assert store.chaos is None  # nothing leaked onto the store

    def test_shard_kill_under_wire_load_no_torn_reads(self):
        coords = synthetic_coordinates(64, seed=9)
        store = ShardedCoordinateStore.from_coordinates(
            coords, shards=2, index_kind="vptree"
        )
        queries = generate_queries(list(coords), 160, mix="mixed", seed=1, k=3)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                await client.op("chaos", spec="shard-kill@40+60:shard=1", seed=0)
            report = await asyncio.to_thread(
                run_load, address, queries, mode="closed", concurrency=1
            )
            async with await AsyncCoordinateClient.connect(*address) as client:
                chaos = await client.op("chaos", report=True)
                await client.op("chaos", clear=True)
            return report, chaos["payload"]["report"]

        with serve_in_thread(store) as handle:
            report, chaos = asyncio.run(scenario(handle.address))

        assert report.errors == 0
        assert report.degraded > 0
        assert chaos["degraded_responses"] == report.degraded
        (fault,) = chaos["faults"]
        assert fault["fired"] and fault["cleared"] and not fault["forced_clear"]
        verdict = verify_chaos_responses(
            store.generation().snapshot, queries, report.responses, shards=2
        )
        assert verdict["checked"] == len(queries)
        assert verdict["mismatches"] == []
        assert verdict["partial_checked"] == report.degraded
        assert verdict["partial_matches"] == report.degraded

    def test_admission_burst_sheds_exact_window_over_wire(self):
        coords = synthetic_coordinates(32, seed=3)
        store = ShardedCoordinateStore.from_coordinates(coords, shards=2)
        queries = generate_queries(list(coords), 60, mix="mixed", seed=0)

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                await client.op("chaos", spec="admission-burst@10+20:amount=4", seed=0)
            report = await asyncio.to_thread(
                run_load, address, queries, mode="closed", concurrency=1
            )
            async with await AsyncCoordinateClient.connect(*address) as client:
                await client.op("chaos", clear=True)
            return report

        with serve_in_thread(store, admission_limit=4) as handle:
            report = asyncio.run(scenario(handle.address))

        failed = [
            position
            for position, response in enumerate(report.responses)
            if not response.get("ok")
        ]
        assert failed == list(range(10, 30))
        assert report.error_kinds == {"overloaded": 20}
        assert report.overloaded == 20
        slo = evaluate(
            thresholds=SLOThresholds(),
            fault_windows=[(10, 30)],
            error_positions=failed,
            total_requests=report.query_count,
        )
        assert slo["passed"]

    def test_chaos_report_and_events_byte_identical_across_runs(self):
        def one_run():
            coords = synthetic_coordinates(48, seed=6)
            store = ShardedCoordinateStore.from_coordinates(
                coords, shards=2, index_kind="vptree"
            )
            queries = generate_queries(list(coords), 120, mix="mixed", seed=4)

            async def scenario(address):
                async with await AsyncCoordinateClient.connect(*address) as client:
                    await client.op(
                        "chaos",
                        spec=(
                            "shard-kill@30+40:shard=0,"
                            "admission-burst@80+10:amount=4"
                        ),
                        seed=11,
                    )
                report = await asyncio.to_thread(
                    run_load,
                    address,
                    queries,
                    mode="closed",
                    concurrency=1,
                    connections=1,
                    deterministic_timing=True,
                )
                async with await AsyncCoordinateClient.connect(*address) as client:
                    chaos = await client.op("chaos", report=True)
                    events = await client.op("events")
                    await client.op("chaos", clear=True)
                return report, chaos, events

            with serve_in_thread(store, admission_limit=4) as handle:
                report, chaos, events = asyncio.run(scenario(handle.address))
            chaos_bytes = json.dumps(chaos["payload"]["report"], sort_keys=True)
            event_bytes = "\n".join(
                json.dumps(event, sort_keys=True)
                for event in events["payload"]["events"]
            )
            return report, chaos_bytes, event_bytes

        first_report, first_chaos, first_events = one_run()
        second_report, second_chaos, second_events = one_run()
        assert first_chaos == second_chaos
        assert first_events == second_events
        assert first_report.checksum == second_report.checksum
        assert first_report.error_kinds == second_report.error_kinds


# ----------------------------------------------------------------------
# Client survival kit: typed errors, timeouts, idempotent close
# ----------------------------------------------------------------------
class TestClientSurvival:
    def slow_store(self, delay_ms=200.0):
        """A store whose scatter queries all pay an injected gray delay."""
        store = make_store(24, seed=2)
        injector = ChaosInjector(
            FaultSchedule.parse(f"shard-slow@0+1000000:shard=0:delay_ms={delay_ms}"),
            store,
        )
        injector.on_query("knn")  # fire the window immediately
        store.chaos = injector
        return store, injector

    def test_error_types_nest_under_connection_error(self):
        assert issubclass(RequestTimeout, TransportError)
        assert issubclass(ServerOverloaded, TransportError)
        assert issubclass(TransportError, ConnectionError)

    def test_request_timeout_is_typed_and_connection_survives(self):
        store, injector = self.slow_store(delay_ms=400.0)
        target = probe_query(24, seed=2).target

        async def scenario(address):
            async with await AsyncCoordinateClient.connect(*address) as client:
                with pytest.raises(RequestTimeout, match="timed out after"):
                    await client.request(
                        {"op": "nearest", "target": target}, timeout=0.05
                    )
                injector.finish_serve_faults()
                store.chaos = None
                # Same connection, after the gray failure ends: usable.
                return await client.request(
                    {"op": "nearest", "target": target}, timeout=10.0
                )

        with serve_in_thread(store) as handle:
            response = asyncio.run(scenario(handle.address))
        assert response["ok"]

    def test_close_is_idempotent_and_safe_with_in_flight(self):
        store, injector = self.slow_store(delay_ms=100.0)
        target = probe_query(24, seed=2).target

        async def scenario(address):
            client = await AsyncCoordinateClient.connect(*address)
            pending = [
                asyncio.ensure_future(
                    client.request({"op": "nearest", "target": target})
                )
                for _ in range(4)
            ]
            await asyncio.sleep(0.02)
            # Concurrent closes: both must return, never deadlock.
            await asyncio.gather(client.close(), client.close())
            await client.close()  # and again, after completion
            outcomes = await asyncio.gather(*pending, return_exceptions=True)
            late = await asyncio.gather(
                client.request({"op": "nearest", "target": target}),
                return_exceptions=True,
            )
            return outcomes, late

        with serve_in_thread(store) as handle:
            outcomes, late = asyncio.run(
                asyncio.wait_for(scenario(handle.address), timeout=30.0)
            )
        injector.finish_serve_faults()
        store.chaos = None
        for outcome in outcomes:
            # Each in-flight request either completed before the teardown
            # or failed with the typed transport error -- never hung.
            assert isinstance(outcome, (dict, TransportError)), outcome
        assert any(isinstance(outcome, TransportError) for outcome in outcomes)
        assert isinstance(late[0], TransportError)  # closed client says so

    def test_daemon_shutdown_with_full_in_flight_window(self):
        """Every pipelined request completes or fails typed -- never hangs."""
        store, injector = self.slow_store(delay_ms=50.0)
        target = probe_query(24, seed=2).target
        handle = serve_in_thread(store)
        handle.start()

        async def scenario():
            client = await AsyncCoordinateClient.connect(*handle.address)
            pending = [
                asyncio.ensure_future(
                    client.request({"op": "nearest", "target": target})
                )
                for _ in range(8)
            ]
            await asyncio.sleep(0.02)
            shutdown = asyncio.ensure_future(client.op("shutdown"))
            outcomes = await asyncio.wait_for(
                asyncio.gather(*pending, shutdown, return_exceptions=True),
                timeout=30.0,
            )
            await client.close()
            return outcomes

        try:
            outcomes = asyncio.run(scenario())
        finally:
            handle.stop()
            injector.finish_serve_faults()
            store.chaos = None
        for outcome in outcomes:
            assert isinstance(outcome, (dict, TransportError)), outcome
        answered = [o for o in outcomes if isinstance(o, dict)]
        assert answered, "daemon shut down without answering anything"


# ----------------------------------------------------------------------
# CLI validation and scenario registration
# ----------------------------------------------------------------------
class TestChaosCli:
    @pytest.mark.parametrize(
        ("argv", "needle"),
        [
            (["load", "--port", "1", "--rate", "0"], "--rate"),
            (["load", "--port", "1", "--rate", "-3"], "--rate"),
            (["load", "--port", "1", "--concurrency", "0"], "--concurrency"),
            (["load", "--port", "1", "--connections", "0"], "--connections"),
            (["load", "--port", "1", "--request-timeout", "0"], "--request-timeout"),
            (["load", "--port", "1", "--request-timeout", "-1"], "--request-timeout"),
            (["load", "--port", "1", "--chaos", "warp@1+1"], "--chaos"),
            (["load", "--port", "1", "--chaos", "shard-kill@1+1"], "--chaos"),
            (["load", "--port", "1", "--mode", "open"], "--mode open requires --rate"),
        ],
    )
    def test_invalid_flags_exit_2_naming_the_parameter(self, argv, needle, capsys):
        from repro.server.cli import main

        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err
        assert len(err.strip().splitlines()) == 1

    def test_chaos_scenarios_registered_and_valid(self):
        from repro.scenarios.registry import get_scenario, scenario_names

        names = scenario_names()
        for name in (
            "chaos-shard-kill",
            "chaos-gray-slow",
            "chaos-publish-stall",
            "chaos-admission-burst",
        ):
            assert name in names
            spec = get_scenario(name)
            assert spec.workload.kind == "queries-live"
            assert spec.workload.validate() == []
            FaultSchedule.parse(str(spec.workload.param("chaos")))

    def test_workload_spec_rejects_bad_chaos(self):
        from repro.scenarios.spec import WorkloadSpec

        bad = WorkloadSpec(kind="queries-live", params={"chaos": "warp@1+1"})
        assert any("workload.chaos" in error for error in bad.validate())
        worse = WorkloadSpec(kind="queries-live", params={"chaos": 7})
        assert any("schedule string" in error for error in worse.validate())
        good = WorkloadSpec(
            kind="queries-live", params={"chaos": "shard-kill@1+1:shard=0"}
        )
        assert good.validate() == []
