"""The serving core: sessions, sharded batching, determinism, drain."""

from __future__ import annotations

import shutil
import threading

import pytest

from repro.errors import LockContentionError, ServerOverloadError, SessionError
from repro.oms.locks import LockManager
from repro.server.engine import ServeEngine
from repro.workloads.loadgen import (
    ScenarioSpec,
    build_scenario,
    replay_engine,
)

SPEC = ScenarioSpec(teams=2, designers_per_team=3, runs_per_designer=1)


@pytest.fixture
def scenario(tmp_path):
    hybrid, plans = build_scenario(tmp_path / "env", SPEC)
    return hybrid, plans


class TestSessions:
    def test_open_session_validates_context(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(hybrid, shards=2)
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        assert session.shard_id in (0, 1)
        assert engine.session(session.session_id) is session

    def test_unknown_user_rejected(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(hybrid)
        with pytest.raises(SessionError):
            engine.open_session("mallory", plans[0].team, plans[0].library)

    def test_non_member_rejected(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(hybrid)
        other_team = plans[-1].team
        with pytest.raises(SessionError):
            engine.open_session(
                plans[0].user, other_team, plans[-1].library, plans[-1].project
            )

    def test_unassigned_team_rejected(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(hybrid)
        # team0 works project0; pointing it at team1's project must fail
        with pytest.raises(SessionError):
            engine.open_session(
                plans[0].user, plans[0].team, plans[-1].library,
                plans[-1].project,
            )

    def test_unknown_session_id(self, scenario):
        hybrid, _ = scenario
        engine = ServeEngine(hybrid)
        with pytest.raises(SessionError):
            engine.session("s99999")


class TestDeterministicReplay:
    def test_all_requests_complete_clean(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(hybrid, shards=2, max_batch=4, window_ms=500.0)
        report = replay_engine(engine, plans, SPEC)
        assert report.ok == SPEC.total_runs
        assert report.rejected == {}
        assert hybrid.audit().clean
        stats = engine.stats()
        assert stats["completed_runs"] == SPEC.total_runs
        assert stats["commits"]["coalesced_commits"] > 0

    def test_latency_measured_from_submission(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(hybrid, shards=2, max_batch=4, window_ms=500.0)
        report = replay_engine(engine, plans, SPEC)
        assert all(latency > 0 for latency in report.latencies_ms)
        tail = report.latency_percentiles()
        assert tail["p50"] <= tail["p95"] <= tail["p99"]

    def test_replay_is_reproducible(self, tmp_path):
        latencies = []
        for arm in ("a", "b"):
            root = tmp_path / arm / "env"
            hybrid, plans = build_scenario(root, SPEC)
            engine = ServeEngine(
                hybrid, shards=2, max_batch=4, window_ms=500.0
            )
            report = replay_engine(engine, plans, SPEC)
            latencies.append(sorted(report.latencies_ms))
        assert latencies[0] == latencies[1]

    def test_snapshot_identical_across_worker_counts(self, tmp_path):
        """The acceptance property: a batched/sharded run commits the
        same bytes as the same requests run sequentially (workers=1)."""
        snapshots = []
        root = tmp_path / "env"  # same path: paths are embedded in state
        for workers in (1, 4):
            hybrid, plans = build_scenario(root, SPEC)
            engine = ServeEngine(
                hybrid, shards=2, max_batch=4, window_ms=500.0,
                workers=workers,
            )
            replay_engine(engine, plans, SPEC)
            snapshots.append(hybrid.save_state().read_bytes())
            shutil.rmtree(root)
        assert snapshots[0] == snapshots[1]

    def test_makespan_is_max_over_shards_not_sum(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(hybrid, shards=2, max_batch=4, window_ms=500.0)
        replay_engine(engine, plans, SPEC)
        lanes = [s["lane_ms"] for s in engine.stats()["per_shard"]]
        assert engine.makespan_ms == pytest.approx(max(lanes))
        assert engine.makespan_ms < sum(lanes) or len([l for l in lanes if l]) == 1


class TestBackpressure:
    def test_queue_full_when_conductor_starves(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(
            hybrid, shards=1, max_batch=2, window_ms=1e9, queue_depth=4
        )
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        admitted = 0
        rejected = 0
        for index in range(8):
            try:
                engine.submit(
                    session, plan.cells[0], "schematic_entry",
                    kwargs={}, now_ms=float(index),
                )
                admitted += 1
            except ServerOverloadError as exc:
                assert exc.reason == "queue-full"
                rejected += 1
        assert admitted == 4 and rejected == 4

    def test_token_bucket_throttles_submissions(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(
            hybrid, shards=1, max_batch=100, window_ms=1e9,
            admission_rate_per_s=10.0, admission_burst=2,
        )
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        outcomes = []
        for _ in range(4):  # all at t=epoch: burst admits 2, rest throttled
            try:
                engine.submit(
                    session, plan.cells[0], "schematic_entry",
                    kwargs={}, now_ms=engine.epoch_ms,
                )
                outcomes.append("ok")
            except ServerOverloadError as exc:
                outcomes.append(exc.reason)
        assert outcomes == ["ok", "ok", "throttled", "throttled"]
        # one refill interval later a token is back
        engine.submit(
            session, plan.cells[0], "schematic_entry",
            kwargs={}, now_ms=engine.epoch_ms + 150.0,
        )


class TestDrain:
    def test_close_drains_in_flight_waves(self, scenario):
        """Shutdown with a wave in flight: the wave commits, its clients
        are answered, and only *new* work is refused."""
        from repro.server.protocol import ScriptCatalog

        hybrid, plans = scenario
        engine = ServeEngine(
            hybrid, shards=2, max_batch=100, window_ms=1e9, concurrent=True
        )
        catalog = ScriptCatalog()
        kwargs = catalog.resolve("schematic_entry", "idempotent_inverter", {})
        sessions = [
            engine.open_session(p.user, p.team, p.library, p.project)
            for p in plans
        ]
        pendings = [
            engine.submit(session, plan.cells[0], "schematic_entry", kwargs)
            for session, plan in zip(sessions, plans)
        ]
        assert not any(p.done for p in pendings)  # windows never filled
        engine.close()
        assert all(p.done and p.outcome.ok for p in pendings)
        with pytest.raises(ServerOverloadError) as excinfo:
            engine.submit(sessions[0], plans[0].cells[0], "schematic_entry", kwargs)
        assert excinfo.value.reason == "draining"
        assert hybrid.audit().clean

    def test_concurrent_mode_matches_deterministic_results(self, tmp_path):
        """Threaded shards complete the same work (not byte-compared)."""
        root = tmp_path / "env"
        hybrid, plans = build_scenario(root, SPEC)
        engine = ServeEngine(
            hybrid, shards=2, max_batch=3, window_ms=50.0, concurrent=True
        )
        report = replay_engine(engine, plans, SPEC)
        engine.close()
        assert report.ok == SPEC.total_runs
        assert hybrid.audit().clean


class TestRunLocks:
    """Every served run acquires through the database's one lock manager."""

    def test_lock_taken_before_engine_still_excludes(self, scenario):
        hybrid, plans = scenario
        key = f"cell/{plans[0].library}/{plans[0].cells[0]}"
        held = hybrid.jcf.db.locks.acquire(write=(key,))
        ServeEngine(hybrid, shards=2)
        refused = []

        def contend():
            try:
                hybrid.jcf.db.locks.acquire(write=(key,), blocking=False)
            except LockContentionError:
                refused.append(key)

        thread = threading.Thread(target=contend)
        thread.start()
        thread.join(10.0)
        held.release()
        assert not thread.is_alive()
        assert refused == [key]

    def test_threaded_replay_counts_on_the_database_manager(self, scenario):
        hybrid, plans = scenario
        manager = hybrid.jcf.db.locks
        assert type(manager) is LockManager
        before = manager.stats()["acquisitions"]
        engine = ServeEngine(
            hybrid, shards=2, max_batch=3, window_ms=50.0, concurrent=True
        )
        report = replay_engine(engine, plans, SPEC)
        engine.close()
        assert report.ok == SPEC.total_runs
        assert hybrid.jcf.db.locks is manager
        locks = engine.stats()["locks"]
        assert locks["acquisitions"] - before == SPEC.total_runs
        assert locks["contentions"] == 0
