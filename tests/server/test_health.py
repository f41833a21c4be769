"""Shard health: circuit breakers fencing wedged shards."""

from __future__ import annotations

import pytest

from repro.errors import ShardUnavailableError
from repro.faults import FailStop, FaultPlan, inject
from repro.server.engine import ServeEngine
from repro.server.health import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.server.protocol import ScriptCatalog
from repro.workloads.loadgen import ScenarioSpec, build_scenario

SPEC = ScenarioSpec(teams=2, designers_per_team=1, runs_per_designer=4)
KWARGS = ScriptCatalog().resolve("schematic_entry", "idempotent_inverter", {})


@pytest.fixture
def scenario(tmp_path):
    return build_scenario(tmp_path / "env", SPEC)


class TestCircuitBreaker:
    def test_trips_open_at_threshold(self):
        breaker = CircuitBreaker(0, threshold=3, cooldown_ms=1_000.0)
        breaker.record_failure(10.0)
        breaker.record_failure(20.0)
        assert breaker.state == CLOSED
        breaker.record_failure(30.0)
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert breaker.open_until_ms == 1_030.0

    def test_open_refusal_carries_cooldown_hint(self):
        breaker = CircuitBreaker(2, threshold=1, cooldown_ms=1_000.0)
        breaker.record_failure(0.0)
        with pytest.raises(ShardUnavailableError) as excinfo:
            breaker.admit(400.0)
        assert excinfo.value.state == OPEN
        assert excinfo.value.shard_id == 2
        assert excinfo.value.retry_after_ms == 600.0
        assert breaker.rejected == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(0, threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state == CLOSED  # never three in a row

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(0, threshold=1, cooldown_ms=100.0)
        breaker.record_failure(0.0)
        breaker.admit(150.0)  # cooldown elapsed: the probe goes through
        assert breaker.state == HALF_OPEN
        assert breaker.probes == 1
        with pytest.raises(ShardUnavailableError) as excinfo:
            breaker.admit(160.0)  # second arrival waits for the probe
        assert excinfo.value.state == HALF_OPEN
        assert excinfo.value.retry_after_ms == 100.0

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(0, threshold=1, cooldown_ms=100.0)
        breaker.record_failure(0.0)
        breaker.admit(150.0)
        breaker.record_success(151.0)
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1
        breaker.admit(152.0)  # back to normal service

    def test_probe_failure_reopens_for_full_cooldown(self):
        breaker = CircuitBreaker(0, threshold=3, cooldown_ms=100.0)
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        breaker.admit(150.0)
        breaker.record_failure(151.0)  # a single probe failure re-trips
        assert breaker.state == OPEN
        assert breaker.open_until_ms == 251.0
        assert breaker.trips == 2


def _sessions_on_distinct_shards(engine, plans):
    """Open one session per plan; return two on different shards."""
    sessions = [
        engine.open_session(p.user, p.team, p.library, p.project)
        for p in plans
    ]
    by_shard = {}
    for session, plan in zip(sessions, plans):
        by_shard.setdefault(session.shard_id, (session, plan))
    if len(by_shard) < 2:
        pytest.skip("scenario libraries hashed onto one shard")
    (victim, victim_plan), (healthy, healthy_plan) = list(by_shard.values())[:2]
    return victim, victim_plan, healthy, healthy_plan


class TestEngineShardHealth:
    def test_unlogged_wave_is_not_retried(self, scenario):
        """A wave memory holds but the log lacks stops the engine.

        Shedding it as ``shard-unavailable`` would invite a retry on a
        process whose memory and log disagree.
        """
        hybrid, plans = scenario
        engine = ServeEngine(hybrid, shards=2, max_batch=1, window_ms=50.0)
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        library = hybrid.fmcad.library(plan.library)
        assert library.metafile.acquire("bob")  # a designer holds .meta
        t0 = engine.epoch_ms
        pending = engine.submit(
            session, plan.cells[0], "schematic_entry",
            kwargs=KWARGS, now_ms=t0,
        )
        with pytest.raises(FailStop):
            engine.pump(t0 + 100.0)
        assert pending.status != "shard-unavailable"
        assert hybrid.jcf.db.stopped is not None

    def test_wedged_shard_is_fenced_and_recovers(self, scenario):
        hybrid, plans = scenario
        engine = ServeEngine(
            hybrid, shards=2, max_batch=1, window_ms=50.0,
            breaker_threshold=2, breaker_cooldown_ms=1_000.0,
        )
        victim, victim_plan, healthy, healthy_plan = (
            _sessions_on_distinct_shards(engine, plans)
        )
        t0 = engine.epoch_ms
        # two consecutive wedged waves trip the victim shard's breaker
        with inject(FaultPlan.transient("server.dispatch", times=2)):
            for i in range(2):
                pending = engine.submit(
                    victim, victim_plan.cells[i], "schematic_entry",
                    kwargs=KWARGS, now_ms=t0 + i * 100.0,
                )
                engine.pump(t0 + (i + 1) * 100.0)
                assert pending.status == "shard-unavailable"
                assert isinstance(pending.error, ShardUnavailableError)
        stats = engine.stats()["per_shard"][victim.shard_id]
        assert stats["breaker"]["state"] == OPEN
        assert stats["breaker"]["trips"] == 1
        # while fenced, submits are refused fail-fast with a retry hint
        with pytest.raises(ShardUnavailableError) as excinfo:
            engine.submit(
                victim, victim_plan.cells[2], "schematic_entry",
                kwargs=KWARGS, now_ms=t0 + 250.0,
            )
        assert excinfo.value.retry_after_ms > 0.0
        # ...but the healthy shard keeps serving the whole time
        ok = engine.submit(
            healthy, healthy_plan.cells[0], "schematic_entry",
            kwargs=KWARGS, now_ms=t0 + 260.0,
        )
        engine.pump(t0 + 400.0)
        assert ok.outcome is not None and ok.outcome.ok
        # after the cooldown the probe goes through and heals the shard
        probe = engine.submit(
            victim, victim_plan.cells[2], "schematic_entry",
            kwargs=KWARGS, now_ms=t0 + 1_500.0,
        )
        engine.pump(t0 + 1_600.0)
        assert probe.outcome is not None and probe.outcome.ok
        stats = engine.stats()["per_shard"][victim.shard_id]
        assert stats["breaker"]["state"] == CLOSED
        assert stats["breaker"]["recoveries"] == 1
        engine.close()
        assert hybrid.audit().clean

    def test_tool_failures_do_not_trip_the_breaker(self, scenario):
        """RUN_FAILED is the design's problem, not the shard's."""
        hybrid, plans = scenario
        engine = ServeEngine(
            hybrid, shards=1, max_batch=1, window_ms=50.0,
            breaker_threshold=1,
        )
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        def broken_edit(*args, **kwargs):
            raise RuntimeError("edit script exploded")

        bad_kwargs = {"edit_fn": broken_edit}
        pending = engine.submit(
            session, plan.cells[0], "schematic_entry", kwargs=bad_kwargs,
            now_ms=engine.epoch_ms,
        )
        engine.drain()
        assert pending.outcome is not None and not pending.outcome.ok
        assert (
            engine.stats()["per_shard"][0]["breaker"]["state"] == CLOSED
        )
        engine.close()
