"""Hostile and unlucky clients against the asyncio front end.

Every scenario here is one a LAN will eventually produce: frames split
across TCP segments, frames torn by a dying peer, oversized or garbage
lines, clients that vanish between admission and the answer, and acks
lost on the wire.  The server must answer with typed errors or absorb
the loss — never wedge, never leak a waiter, never double-commit.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.faults import FaultPlan, inject
from repro.server.design_server import MAX_LINE_BYTES, DesignServer
from repro.server.protocol import encode_frame
from repro.workloads.loadgen import ScenarioSpec, build_scenario

SPEC = ScenarioSpec(teams=1, designers_per_team=2, runs_per_designer=2)


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


async def _hello(client, plan, **extra):
    answer = await client.call(
        op="hello", id=0, user=plan.user, team=plan.team,
        library=plan.library, project=plan.project, **extra,
    )
    assert answer["ok"], answer
    return answer


class TestMalformedFrames:
    def test_frame_split_across_segments_is_reassembled(self, scenario):
        hybrid, plans = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    frame = encode_frame({"op": "ping", "id": 1})
                    client.writer.write(frame[:7])
                    await client.writer.drain()
                    await asyncio.sleep(0.02)  # let the first segment land
                    client.writer.write(frame[7:])
                    await client.writer.drain()
                    pong = await client.read_frame()
                    assert pong["ok"] and pong["pong"]
            finally:
                await server.stop()

        run_async(exercise())

    def test_invalid_json_answers_typed_error_and_survives(self, scenario):
        hybrid, _ = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    client.writer.write(b"{this is not json\n")
                    await client.writer.drain()
                    answer = await client.read_frame()
                    assert answer["ok"] is False
                    assert answer["error"]["type"] == "ProtocolError"
                    # the connection is still serviceable
                    pong = await client.call(op="ping", id=2)
                    assert pong["ok"]
            finally:
                await server.stop()
            assert server.transport_stats()["malformed_frames"] == 1

        run_async(exercise())

    def test_oversized_frame_is_refused_but_connection_lives(self, scenario):
        hybrid, _ = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    # over the 64KB frame cap, under the 1MB line cap:
                    # decodable enough to answer, too big to accept
                    blob = json.dumps(
                        {"op": "ping", "id": 1, "junk": "x" * (100 * 1024)}
                    ).encode() + b"\n"
                    client.writer.write(blob)
                    await client.writer.drain()
                    answer = await client.read_frame()
                    assert answer["ok"] is False
                    assert answer["error"]["type"] == "ProtocolError"
                    assert "oversized" in answer["error"]["message"]
                    pong = await client.call(op="ping", id=2)
                    assert pong["ok"]
            finally:
                await server.stop()

        run_async(exercise())

    def test_line_over_transport_cap_severs_connection(self, scenario):
        hybrid, _ = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    client.writer.write(b"x" * (MAX_LINE_BYTES + 1024))
                    await client.writer.drain()
                    assert await client.reader.read() == b""  # severed
                # a slow-loris line cannot wedge the listener for others
                async with _Client(host, port) as client:
                    pong = await client.call(op="ping", id=1)
                    assert pong["ok"]
            finally:
                await server.stop()
            assert server.transport_stats()["malformed_frames"] >= 1

        run_async(exercise())

    def test_torn_final_frame_is_dropped_quietly(self, scenario):
        hybrid, _ = scenario

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    frame = encode_frame({"op": "ping", "id": 1})
                    client.writer.write(frame[:-5])  # no terminator
                    await client.writer.drain()
                # the half-frame must not have been dispatched; the
                # server keeps serving fresh connections
                async with _Client(host, port) as client:
                    pong = await client.call(op="ping", id=1)
                    assert pong["ok"]
            finally:
                await server.stop()

        run_async(exercise())


class TestVanishingClients:
    def test_disconnect_between_admit_and_answer_leaks_nothing(
        self, scenario, hold_runs
    ):
        hybrid, plans = scenario
        plan, other = plans[0], plans[1]

        async def exercise():
            # a wide fallback window and a held wave: the run is admitted
            # and parked behind the busy shard, nowhere near flushing
            server = DesignServer(
                hybrid, shards=1, max_batch=8, window_ms=60_000.0
            )
            host, port = await server.start()
            hold = hold_runs(hybrid)
            try:
                async with _Client(host, port) as busy:
                    await _hello(busy, other)
                    busy.writer.write(encode_frame({
                        "op": "run", "id": 1, "cell": other.cells[0],
                        "activity": "schematic_entry",
                        "script": "idempotent_inverter",
                    }))
                    await busy.writer.drain()
                    entered = await asyncio.get_running_loop().run_in_executor(
                        None, hold.entered.wait, 10.0
                    )
                    assert entered  # the shard is busy with that wave
                    async with _Client(host, port) as client:
                        await _hello(client, plan)
                        client.writer.write(encode_frame({
                            "op": "run", "id": 1, "cell": plan.cells[0],
                            "activity": "schematic_entry",
                            "script": "idempotent_inverter",
                        }))
                        await client.writer.drain()
                        await asyncio.sleep(0.05)
                        shard = server.engine.stats()["per_shard"][0]
                        assert shard["window_pending"] == 1
                        # admitted and parked, now vanish
                    await asyncio.sleep(0.05)
                    assert server.transport_stats()["abandoned_runs"] == 1
                    hold.release()
                    answer = await asyncio.wait_for(
                        busy.read_frame(), timeout=10.0
                    )
                    assert answer["ok"], answer
                assert server._waiters == {}
                assert server.transport_stats()["abandoned_runs"] == 1
                stats = server.engine.stats()["per_shard"][0]
                assert stats["admission"]["depth"] == 0
                # nothing of the abandoned run ever reaches the store
                audit = server.engine.hybrid.audit()
                assert audit.clean
            finally:
                hold.release()
                await server.stop()
            assert server.engine.stats()["per_shard"][0]["cancelled"] == 1

        run_async(exercise())

    def test_stop_during_open_window_still_answers(self, scenario, hold_runs):
        hybrid, plans = scenario
        plan = plans[0]

        async def exercise():
            server = DesignServer(
                hybrid, shards=1, max_batch=8, window_ms=60_000.0
            )
            host, port = await server.start()
            hold = hold_runs(hybrid)
            try:
                async with _Client(host, port) as client:
                    await _hello(client, plan)
                    for request_id, cell in enumerate(plan.cells[:2], 1):
                        client.writer.write(encode_frame({
                            "op": "run", "id": request_id, "cell": cell,
                            "activity": "schematic_entry",
                            "script": "idempotent_inverter",
                        }))
                    await client.writer.drain()
                    await asyncio.sleep(0.05)
                    shard = server.engine.stats()["per_shard"][0]
                    assert shard["window_pending"] == 1
                    # run 2 sits in the window behind the held run 1 when
                    # the operator stops the server; the drain must flush
                    # and answer it, not strand the client
                    stop_task = asyncio.ensure_future(server.stop())
                    await asyncio.sleep(0.05)
                    hold.release()
                    answers = [
                        await asyncio.wait_for(
                            client.read_frame(), timeout=10.0
                        )
                        for _ in range(2)
                    ]
                    await stop_task
                    assert sorted(a["id"] for a in answers) == [1, 2]
                    for answer in answers:
                        assert answer["ok"], answer
                        assert answer["status"] == "ok"
            finally:
                hold.release()
                if not server._stopping:
                    await server.stop()

        run_async(exercise())


class TestLostAcks:
    def test_lost_ack_retry_is_deduped_not_recommitted(self, scenario):
        hybrid, plans = scenario
        plan = plans[0]
        cell = plan.cells[0]

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                # net.write hit 1 is the hello ack; hit 2 — the run's
                # answer — is eaten by the wire
                plan_faults = FaultPlan.transient("net.write", on_hit=2)
                with inject(plan_faults):
                    async with _Client(host, port) as client:
                        hello = await _hello(client, plan)
                        session_id = hello["session"]
                        client.writer.write(encode_frame({
                            "op": "run", "id": 1, "cell": cell,
                            "activity": "schematic_entry",
                            "script": "idempotent_inverter",
                            "request_key": "commit-1",
                        }))
                        await client.writer.drain()
                        with pytest.raises(asyncio.TimeoutError):
                            await asyncio.wait_for(
                                client.read_frame(), timeout=0.5
                            )
                assert server.transport_stats()["dropped_frames"] == 1
                # the client gives up on the socket and retries the
                # same request_key on a resumed session
                async with _Client(host, port) as client:
                    await _hello(client, plan, resume=session_id)
                    answer = await client.call(
                        op="run", id=2, cell=cell,
                        activity="schematic_entry",
                        script="idempotent_inverter",
                        request_key="commit-1",
                    )
                    assert answer["ok"], answer
                    assert answer["status"] == "ok"
                    assert answer.get("deduped") is True
                library = hybrid.fmcad.library(plan.library)
                versions = library.cellview(cell, "schematic").versions
                assert len(versions) == 1  # committed exactly once
            finally:
                await server.stop()
            assert server.engine.hybrid.audit().clean

        run_async(exercise())

    def test_resume_restores_leases_across_reconnect(self, scenario):
        hybrid, plans = scenario
        plan = plans[0]

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    hello = await _hello(client, plan)
                    session_id = hello["session"]
                    lease = await client.call(
                        op="lease", id=1, cell=plan.cells[0]
                    )
                    assert lease["ok"], lease
                    assert lease["token"] == 1
                # the TCP session dies; the lease does not
                async with _Client(host, port) as client:
                    resumed = await _hello(client, plan, resume=session_id)
                    assert resumed["resumed"] is True
                    # heartbeat renews it, release drops it
                    pong = await client.call(op="ping", id=2)
                    assert pong["renewed"] == 1
                    released = await client.call(
                        op="release", id=3, cell=plan.cells[0]
                    )
                    assert released["released"] is True
                assert server.engine.leases.live_leases() == []
            finally:
                await server.stop()

        run_async(exercise())

    def test_resume_refuses_wrong_user(self, scenario):
        hybrid, plans = scenario
        owner, thief = plans[0], plans[1]

        async def exercise():
            server = DesignServer(hybrid, shards=1, window_ms=5.0)
            host, port = await server.start()
            try:
                async with _Client(host, port) as client:
                    hello = await _hello(client, owner)
                    session_id = hello["session"]
                async with _Client(host, port) as client:
                    answer = await client.call(
                        op="hello", id=1, user=thief.user, team=thief.team,
                        library=thief.library, project=thief.project,
                        resume=session_id,
                    )
                    assert answer["ok"] is False
                    assert answer["error"]["type"] == "SessionError"
            finally:
                await server.stop()

        run_async(exercise())
