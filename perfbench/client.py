"""Closed-loop protocol client: one process, at most two connections.

A :class:`Connection` pipelines requests over one socket: each request
carries a fresh ``id`` and a reader task hands every answer to the
caller awaiting that id, so a connection can keep several runs in flight
while every caller still waits for its own reply (a closed loop).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from typing import Any, Dict, List, Optional, Tuple

#: seconds to wait for any one answer before declaring the run lost
ACK_TIMEOUT_S = 60.0


@dataclasses.dataclass
class RunRecord:
    """One ``run`` request and what became of it."""

    cell: str
    activity: str
    latency_ms: float
    ok: bool
    status: str
    error: str = ""


class Connection:
    """One socket; requests may be in flight concurrently."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._waiting: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._pump: Optional[asyncio.Task] = None

    async def open(self, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self._pump = asyncio.create_task(self._read_answers())

    async def _read_answers(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                answer = json.loads(line)
                future = self._waiting.pop(answer.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(answer)
        finally:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self._waiting.clear()

    async def call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = future
        self._writer.write(
            (json.dumps({**payload, "id": request_id}) + "\n").encode()
        )
        await self._writer.drain()
        return await asyncio.wait_for(future, ACK_TIMEOUT_S)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass


class Tally:
    """Every op a workload attempts, and the ones refused or failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}

    def count(self, ok: bool, error: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[error] = self.errors.get(error, 0) + 1


def _error_type(answer: Dict[str, Any]) -> str:
    error = answer.get("error") or {}
    return str(error.get("type", answer.get("status", "unknown")))


async def open_session(
    conn: Connection, port: int, session: Dict[str, Any], tally: Tally
) -> Tuple[float, bool]:
    """connect + ``hello``; returns (milliseconds to its ack, ok)."""
    started = time.perf_counter()
    await conn.open(port)
    answer = await conn.call({
        "op": "hello",
        "user": session["user"],
        "team": session["team"],
        "library": session["library"],
        "project": session["project"],
    })
    elapsed = (time.perf_counter() - started) * 1000.0
    ok = bool(answer.get("ok"))
    tally.count(ok, _error_type(answer))
    return elapsed, ok


async def bye(conn: Connection, tally: Tally) -> None:
    answer = await conn.call({"op": "bye"})
    tally.count(bool(answer.get("ok")), _error_type(answer))
    await conn.close()


async def send_runs(
    conn: Connection,
    runs: List[List[Any]],
    in_flight: int,
    tally: Tally,
) -> List[RunRecord]:
    """Send *runs* keeping *in_flight* outstanding; each lane waits for
    its answer before taking the next run (with one lane, in order)."""
    queue = list(reversed(runs))
    records: List[RunRecord] = []

    async def lane() -> None:
        while queue:
            cell, activity, script, params = queue.pop()
            started = time.perf_counter()
            answer = await conn.call({
                "op": "run",
                "cell": cell,
                "activity": activity,
                "script": script,
                "params": params,
            })
            latency = (time.perf_counter() - started) * 1000.0
            ok = bool(answer.get("ok"))
            error = "" if ok else _error_type(answer)
            tally.count(ok, error)
            records.append(RunRecord(
                cell=cell, activity=activity, latency_ms=latency, ok=ok,
                status=str(answer.get("status", "")), error=error,
            ))

    await asyncio.gather(*(lane() for _ in range(in_flight)))
    return records
