"""The serving core: sessions, sharded batching, determinism, drain."""

from __future__ import annotations

import asyncio
import shutil
import threading
import time

import pytest

from repro.errors import LockContentionError, ServerOverloadError, SessionError
from repro.faults import CrashFault, FaultPlan, inject
from repro.oms.locks import LockManager
from repro.server.design_server import DesignServer
from repro.server.engine import ServeEngine
from repro.server.protocol import ScriptCatalog
from repro.workloads.loadgen import (
    ScenarioSpec,
    build_scenario,
    replay_engine,
    replay_socket,
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
    def test_close_drains_in_flight_waves(self, scenario, hold_runs):
        """Shutdown with a wave in flight: the wave commits, its clients
        are answered, and only *new* work is refused."""
        hybrid, plans = scenario
        engine = ServeEngine(
            hybrid, shards=2, max_batch=100, window_ms=1e9, concurrent=True
        )
        hold = hold_runs(hybrid)
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
        assert hold.entered.wait(10.0)
        # each shard's first run is held in flight; the rest wait in its
        # window behind it
        assert not any(p.done for p in pendings)
        assert sum(
            shard["window_pending"] for shard in engine.stats()["per_shard"]
        ) >= len(pendings) - 2
        hold.release()
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


class TestSelfClocking:
    """Threaded shards flush on completions, not on the window timer."""

    def test_serial_clients_never_wait_for_the_fallback(self, tmp_path):
        spec = ScenarioSpec(teams=2, designers_per_team=2, runs_per_designer=3)
        hybrid, plans = build_scenario(tmp_path / "env", spec)

        async def exercise():
            # a timer-first window would hold every run for a minute
            server = DesignServer(hybrid, shards=2, window_ms=60_000.0)
            host, port = await server.start()
            try:
                report = await asyncio.wait_for(
                    replay_socket(host, port, plans, spec, max_concurrent=1),
                    timeout=30.0,
                )
            finally:
                await server.stop()
            return report, server.engine.stats()["per_shard"]

        report, shards = asyncio.run(exercise())
        assert report.ok == spec.total_runs
        assert report.dropped_sessions == 0
        assert [shard["flushes_by_deadline"] for shard in shards] == [0, 0]
        assert sum(shard["flushes_by_clock"] for shard in shards) == (
            spec.total_runs
        )
        assert all(shard["expected_width"] == 1 for shard in shards)

    def test_closed_loop_of_eight_converges_to_eight_wide_batches(
        self, tmp_path, hold_runs
    ):
        """Eight clients that each resubmit on their answer share 8-wide
        waves; drain() keeps waiting while completions bring new runs."""
        rounds = 3
        spec = ScenarioSpec(
            teams=1, designers_per_team=8, runs_per_designer=rounds + 1
        )
        hybrid, plans = build_scenario(tmp_path / "env", spec)
        widths = []
        run_many = hybrid.run_many

        def counted(requests, **kwargs):
            widths.append(len(requests))
            return run_many(requests, **kwargs)

        hybrid.run_many = counted
        hold = hold_runs(hybrid)
        engine = ServeEngine(
            hybrid, shards=1, max_batch=16, window_ms=60_000.0,
            concurrent=True, now_fn=lambda: time.monotonic() * 1000.0,
        )
        kwargs = ScriptCatalog().resolve(
            "schematic_entry", "idempotent_inverter", {}
        )
        sessions = [
            engine.open_session(p.user, p.team, p.library, p.project)
            for p in plans
        ]
        # client 0 goes first and alone, so it stays one run ahead of its
        # peers: it sends one run more, and all finish in the same wave
        todo = {
            session.session_id: list(plan.cells[: rounds + (index == 0)])
            for index, (session, plan) in enumerate(zip(sessions, plans))
        }
        settled = []

        def send(session):
            cell = todo[session.session_id].pop(0)
            engine.submit(session, cell, "schematic_entry", kwargs)

        def answered(batch):
            # each client sends its next run as soon as it hears back
            settled.extend(batch)
            for pending in batch:
                if todo[pending.session.session_id]:
                    send(pending.session)

        engine.on_batch_complete = answered
        send(sessions[0])
        assert hold.entered.wait(10.0)
        for session in sessions[1:]:
            send(session)
        assert engine.stats()["per_shard"][0]["window_pending"] == 7
        hold.release()
        engine.drain()
        assert len(settled) == 8 * rounds + 1
        assert all(pending.outcome.ok for pending in settled)
        assert widths == [1] + [8] * rounds
        shard = engine.stats()["per_shard"][0]
        assert shard["flushes_by_deadline"] == 0
        assert shard["flushes_by_clock"] == 1 + rounds
        assert shard["expected_width"] == 8
        engine.close()
        assert hybrid.audit().clean

    def test_crashed_batch_releases_its_shard(self, scenario):
        """A batch that raises frees its shard for the next run, keeps no
        finished future, and its exception surfaces at drain."""
        hybrid, plans = scenario
        engine = ServeEngine(
            hybrid, shards=1, window_ms=60_000.0, concurrent=True,
            now_fn=lambda: time.monotonic() * 1000.0,
        )
        kwargs = ScriptCatalog().resolve(
            "schematic_entry", "idempotent_inverter", {}
        )
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        runtime = engine._runtimes[0]
        with inject(FaultPlan.crash("server.dispatch")):
            engine.submit(session, plan.cells[0], "schematic_entry", kwargs)
            deadline = time.monotonic() + 10.0
            while runtime.error is None and time.monotonic() < deadline:
                time.sleep(0.005)
        assert isinstance(runtime.error, CrashFault)
        # the crashed run never reached the wave: run its cell again
        second = engine.submit(
            session, plan.cells[0], "schematic_entry", kwargs
        )
        deadline = time.monotonic() + 10.0
        while not second.settled and time.monotonic() < deadline:
            time.sleep(0.005)
        assert second.outcome is not None and second.outcome.ok
        while runtime.in_flight() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert runtime.futures == set()
        shard = engine.stats()["per_shard"][0]
        assert shard["flushes_by_deadline"] == 0
        assert shard["flushes_by_clock"] == 2
        with pytest.raises(CrashFault):
            engine.close()
        assert runtime.error is None

    def test_crashed_batch_answers_its_runs(self, scenario):
        """A batch dying of CrashFault answers its runs with the crash and
        frees their admission slots; close() still raises it."""
        hybrid, plans = scenario
        answered = []
        engine = ServeEngine(
            hybrid, shards=1, window_ms=60_000.0, concurrent=True,
            now_fn=lambda: time.monotonic() * 1000.0,
        )
        engine.on_batch_complete = answered.extend
        kwargs = ScriptCatalog().resolve(
            "schematic_entry", "idempotent_inverter", {}
        )
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        with inject(FaultPlan.crash("server.dispatch")):
            pending = engine.submit(
                session, plan.cells[0], "schematic_entry", kwargs
            )
            deadline = time.monotonic() + 10.0
            while not pending.settled and time.monotonic() < deadline:
                time.sleep(0.005)
        # answered with the crash itself: no retry hint on a dead process
        assert pending.status == "crashed"
        assert isinstance(pending.error, CrashFault)
        assert answered == [pending]
        assert pending in engine.completed()
        runtime = engine._runtimes[0]
        assert runtime.admission.depth == 0
        with pytest.raises(CrashFault):
            engine.close()
