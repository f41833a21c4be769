"""The asyncio front end, exercised over real sockets."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.server.design_server import DesignServer
from repro.server.protocol import encode_frame
from repro.workloads.loadgen import (
    ScenarioSpec,
    build_scenario,
    replay_socket,
)

SPEC = ScenarioSpec(teams=2, designers_per_team=2, runs_per_designer=1)


@pytest.fixture
def scenario(tmp_path):
    return build_scenario(tmp_path / "env", SPEC)


class _Client:
    """Minimal line-protocol client for the tests."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()

    async def call(self, **payload):
        self.writer.write(encode_frame(payload))
        await self.writer.drain()
        return await self.read_frame()

    async def read_frame(self):
        return json.loads(await self.reader.readline())


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestDesignServer:
    def test_ping_hello_run_stats_bye(self, scenario):
        hybrid, plans = scenario
        plan = plans[0]

        async def exercise():
            server = DesignServer(
                hybrid, shards=2, max_batch=4, window_ms=10.0
            )
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    pong = await client.call(op="ping", id=1)
                    assert pong["ok"] and pong["pong"]
                    hello = await client.call(
                        op="hello", id=2, user=plan.user, team=plan.team,
                        library=plan.library, project=plan.project,
                    )
                    assert hello["ok"]
                    assert hello["session"].startswith("s")
                    answer = await client.call(
                        op="run", id=3, cell=plan.cells[0],
                        activity="schematic_entry",
                        script="idempotent_inverter",
                    )
                    assert answer["ok"], answer
                    assert answer["status"] == "ok"
                    assert answer["latency_ms"] >= 0
                    stats = await client.call(op="stats", id=4)
                    assert stats["stats"]["completed_runs"] == 1
                    audit = await client.call(op="audit", id=5)
                    assert audit["clean"] is True
                    bye = await client.call(op="bye", id=6)
                    assert bye["bye"] is True
            finally:
                await server.stop()

        run_async(exercise())

    def test_run_before_hello_is_refused(self, scenario):
        hybrid, _ = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    answer = await client.call(
                        op="run", id=1, cell="c", activity="schematic_entry",
                        script="idempotent_inverter",
                    )
                    assert answer["ok"] is False
                    assert answer["error"]["type"] == "SessionError"
            finally:
                await server.stop()

        run_async(exercise())

    def test_bad_frames_keep_connection_alive(self, scenario):
        hybrid, _ = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    client.writer.write(b"this is not json\n")
                    await client.writer.drain()
                    answer = await client.read_frame()
                    assert answer["error"]["type"] == "ProtocolError"
                    # still serviceable
                    pong = await client.call(op="ping", id=1)
                    assert pong["ok"]
            finally:
                await server.stop()

        run_async(exercise())

    def test_bad_hello_reports_session_error(self, scenario):
        hybrid, plans = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    answer = await client.call(
                        op="hello", id=1, user="mallory",
                        team=plans[0].team, library=plans[0].library,
                    )
                    assert answer["ok"] is False
                    assert answer["error"]["type"] == "SessionError"
            finally:
                await server.stop()

        run_async(exercise())

    def test_overload_rejection_over_the_wire(self, scenario, hold_runs):
        hybrid, plans = scenario
        plan = plans[0]

        async def exercise():
            # queue depth 1 and a held wave: the second concurrent run
            # must be refused as overload
            server = DesignServer(
                hybrid, shards=1, max_batch=100, window_ms=60_000.0,
                queue_depth=1,
            )
            host, port = await server.start()
            hold = hold_runs(hybrid)
            try:
                async with _Client(host, port) as client:
                    hello = await client.call(
                        op="hello", id=1, user=plan.user, team=plan.team,
                        library=plan.library, project=plan.project,
                    )
                    assert hello["ok"]
                    # first run takes the queue's one slot and is held
                    # in flight
                    client.writer.write(encode_frame({
                        "op": "run", "id": 2, "cell": plan.cells[0],
                        "activity": "schematic_entry",
                        "script": "idempotent_inverter",
                    }))
                    # second run overflows the queue and answers first
                    client.writer.write(encode_frame({
                        "op": "run", "id": 3, "cell": plan.cells[0],
                        "activity": "schematic_entry",
                        "script": "idempotent_inverter",
                    }))
                    await client.writer.drain()
                    refusal = await client.read_frame()
                    assert refusal["id"] == 3
                    assert refusal["error"]["type"] == "ServerOverloadError"
                    hold.release()
                    answer = await client.read_frame()
                    assert answer["id"] == 2
                    assert answer["ok"], answer
            finally:
                hold.release()
                await server.stop()

        run_async(exercise())

    def test_stop_drains_in_flight_windows(self, scenario, hold_runs):
        """A run parked in a window behind a busy shard is committed and
        answered during graceful shutdown, not dropped."""
        hybrid, plans = scenario
        plan = plans[0]

        async def exercise():
            server = DesignServer(
                hybrid, shards=2, max_batch=100, window_ms=60_000.0
            )
            host, port = await server.start()
            hold = hold_runs(hybrid)
            async with _Client(host, port) as client:
                hello = await client.call(
                    op="hello", id=1, user=plan.user, team=plan.team,
                    library=plan.library, project=plan.project,
                )
                assert hello["ok"]
                for request_id in (2, 3):
                    client.writer.write(encode_frame({
                        "op": "run", "id": request_id, "cell": plan.cells[0],
                        "activity": "schematic_entry",
                        "script": "idempotent_inverter",
                    }))
                await client.writer.drain()
                await asyncio.sleep(0.05)  # let the server admit both
                shard = server.engine.stats()["per_shard"][hello["shard"]]
                assert shard["window_pending"] == 1  # parked behind run 2
                stop_task = asyncio.create_task(server.stop())
                await asyncio.sleep(0.05)
                hold.release()
                answers = [await client.read_frame() for _ in range(2)]
                await stop_task
                assert sorted(answer["id"] for answer in answers) == [2, 3]
                assert all(answer["ok"] for answer in answers), answers
            assert hybrid.audit().clean

        run_async(exercise())

    def test_loadgen_socket_replay_drops_nothing(self, scenario):
        hybrid, plans = scenario

        async def exercise():
            server = DesignServer(
                hybrid, shards=2, max_batch=4, window_ms=10.0
            )
            host, port = await server.start()
            try:
                report = await replay_socket(host, port, plans, SPEC)
            finally:
                await server.stop()
            return report

        report = run_async(exercise())
        assert report.dropped_sessions == 0
        assert report.ok == SPEC.total_runs
        assert hybrid.audit().clean

    def test_stats_payload_is_json_serialisable(self, scenario):
        hybrid, _ = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=2, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    stats = await client.call(op="stats", id=1)
                    json.dumps(stats)  # full payload survives the wire
                    assert stats["stats"]["shards"] == 2
            finally:
                await server.stop()

        run_async(exercise())
