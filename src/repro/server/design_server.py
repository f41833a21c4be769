"""Asyncio streams front end: ``DesignServer`` (``repro serve``).

One event loop accepts designer connections and speaks the
line-delimited JSON protocol; the blocking work — `run_many` waves —
happens on the engine's per-shard executor threads, so the loop only
parses frames, admits requests and resolves waiters.  Batch windows are
self-clocked by the engine: a submit to an idle shard, or a finishing
batch, flushes a window as soon as it holds the shard's expected width
(see :mod:`repro.server.coalescer`).  A periodic task on the wall clock
serves only the fallback: it flushes an *idle* shard's short window once
it has waited ``window_ms`` for runs that never came.

The front end is built for hostile networks:

* malformed, oversized (up to the transport cap) and torn frames are
  answered with typed errors — the connection survives everything except
  an unrecoverable line past the transport cap;
* a client that vanishes mid-request has its not-yet-started runs
  cancelled and its waiters torn down (no leaks), while its session —
  leases and idempotency window included — survives for a reconnect
  (``hello`` with ``resume``);
* the ``net.accept`` / ``net.read`` / ``net.write`` / ``net.frame``
  fault points let the chaos harness inject connection refusals, torn
  reads, lost acks and corrupted frames deterministically.

Shutdown is a drain, not a guillotine: :meth:`stop` closes admission
(new runs are refused with ``ServerOverloadError(reason="draining")``),
flushes every partial window, waits for in-flight waves to commit and
answers their clients before connections close.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import (
    ProtocolError,
    ReproError,
    SessionError,
)
from repro.faults import FaultError, corruption_point, fault_point
from repro.server.engine import PendingRun, ServeEngine, SessionContext
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ScriptCatalog,
    decode_line,
    encode_frame,
    error_frame,
)

#: hard transport cap on one line; beyond this the stream cannot be
#: resynchronised and the connection is severed (protocol-level frames
#: are limited far lower — see ``protocol.MAX_FRAME_BYTES``)
MAX_LINE_BYTES = 1024 * 1024


def _wall_ms() -> float:
    return time.monotonic() * 1000.0


class DesignServer:
    """Serves one :class:`~repro.core.coupling.HybridFramework`."""

    def __init__(
        self,
        hybrid,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 2,
        max_batch: int = 16,
        window_ms: float = 25.0,
        queue_depth: int = 256,
        admission_rate_per_s: Optional[float] = None,
        workers: int = 4,
        seed: int = 0,
        lease_ttl_ms: float = 30_000.0,
        breaker_threshold: int = 3,
        breaker_cooldown_ms: float = 5_000.0,
        dedupe_window: int = 64,
    ) -> None:
        self.hybrid = hybrid
        self.host = host
        self.port = port
        self.window_ms = window_ms
        self.engine = ServeEngine(
            hybrid,
            shards=shards,
            max_batch=max_batch,
            window_ms=window_ms,
            queue_depth=queue_depth,
            admission_rate_per_s=admission_rate_per_s,
            workers=workers,
            seed=seed,
            concurrent=True,
            now_fn=_wall_ms,
            lease_ttl_ms=lease_ttl_ms,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_ms=breaker_cooldown_ms,
            dedupe_window=dedupe_window,
        )
        self.catalog = ScriptCatalog()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flusher: Optional[asyncio.Task] = None
        #: ticket -> waiting futures; a list because a deduped retry on
        #: the same (or a resumed) connection awaits the same pending
        self._waiters: Dict[int, List[asyncio.Future]] = {}
        self._connections: Set[asyncio.StreamWriter] = set()
        self._stopping = False
        #: transport-level chaos accounting
        self.refused_accepts = 0
        self.torn_reads = 0
        self.dropped_frames = 0
        self.malformed_frames = 0
        self.abandoned_runs = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._loop = asyncio.get_running_loop()
        self.engine.on_batch_complete = self._batch_completed
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._flusher = asyncio.create_task(self._flush_windows())
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish and answer in-flight."""
        self._stopping = True
        if self._flusher is not None:
            self._flusher.cancel()
        # engine.close() blocks on in-flight waves — keep the loop alive
        # so their completion callbacks can resolve waiting clients
        assert self._loop is not None
        await self._loop.run_in_executor(None, self.engine.close)
        leftover = [
            future
            for futures in self._waiters.values()
            for future in futures
        ]
        if leftover:  # pragma: no cover - drain answered everything
            await asyncio.gather(*leftover, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()

    # -- background flusher ------------------------------------------------

    async def _flush_windows(self) -> None:
        """Fallback: flush idle shards' windows held past ``window_ms``."""
        interval_s = max(self.window_ms / 2.0, 1.0) / 1000.0
        while True:
            await asyncio.sleep(interval_s)
            self.engine.pump(_wall_ms())

    def _batch_completed(self, batch) -> None:
        """Engine callback (executor thread): wake the waiting handlers."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._resolve_batch, batch)

    def _resolve_batch(self, batch) -> None:
        for pending in batch:
            for future in self._waiters.pop(pending.ticket, []):
                if not future.done():
                    future.set_result(pending)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            fault_point("net.accept")
        except FaultError:
            # the accept "failed": the TCP connection existed for an
            # instant and died before the handler spoke a single frame
            self.refused_accepts += 1
            writer.close()
            return
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        session: Optional[SessionContext] = None
        run_tasks: Set[asyncio.Task] = set()
        #: this connection's in-flight (pending, future) pairs, torn down
        #: on abandonment so a vanished client leaks nothing
        conn_pendings: Dict[int, Tuple[PendingRun, asyncio.Future]] = {}
        graceful = False

        async def send(payload: Dict[str, Any]) -> None:
            try:
                fault_point("net.write")
            except FaultError:
                # the response frame was "lost on the wire" — the client
                # sees silence and must retry (idempotently)
                self.dropped_frames += 1
                return
            async with write_lock:
                writer.write(encode_frame(payload))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # past the transport cap the stream cannot be
                    # resynchronised; sever the connection
                    self.malformed_frames += 1
                    break
                if not line:
                    break
                try:
                    fault_point("net.read")
                except FaultError:
                    self.torn_reads += 1
                    break
                if not line.endswith(b"\n") and reader.at_eof():
                    # torn frame: the client died mid-write
                    self.torn_reads += 1
                    break
                line = corruption_point("net.frame", line)
                try:
                    request = decode_line(line)
                except ProtocolError as exc:
                    self.malformed_frames += 1
                    await send(error_frame(None, exc))
                    continue
                op = request["op"]
                request_id = request.get("id")
                try:
                    if op == "ping":
                        payload = {"id": request_id, "ok": True, "pong": True}
                        if session is not None:
                            # the heartbeat doubles as the lease renewal
                            payload["renewed"] = self.engine.touch_session(
                                session
                            )
                        await send(payload)
                    elif op == "hello":
                        session = self._hello(request)
                        await send(
                            {
                                "id": request_id,
                                "ok": True,
                                "session": session.session_id,
                                "shard": session.shard_id,
                                "protocol": PROTOCOL_VERSION,
                                "resumed": bool(request.get("resume")),
                            }
                        )
                    elif op == "run":
                        task = asyncio.create_task(
                            self._run(
                                send,
                                request_id,
                                session,
                                request,
                                conn_pendings,
                            )
                        )
                        run_tasks.add(task)
                        task.add_done_callback(run_tasks.discard)
                    elif op == "lease":
                        await send(
                            self._lease(request_id, session, request)
                        )
                    elif op == "release":
                        await send(
                            self._release(request_id, session, request)
                        )
                    elif op == "stats":
                        stats = self.engine.stats()
                        stats["transport"] = self.transport_stats()
                        await send(
                            {"id": request_id, "ok": True, "stats": stats}
                        )
                    elif op == "audit":
                        report = await asyncio.get_running_loop().run_in_executor(
                            None, self.hybrid.audit
                        )
                        await send(
                            {
                                "id": request_id,
                                "ok": True,
                                "clean": report.clean,
                                "findings": len(report.findings),
                            }
                        )
                    elif op == "bye":
                        if run_tasks:
                            await asyncio.gather(
                                *run_tasks, return_exceptions=True
                            )
                        if session is not None:
                            self.engine.end_session(session)
                        graceful = True
                        await send({"id": request_id, "ok": True, "bye": True})
                        break
                except ReproError as exc:
                    await send(error_frame(request_id, exc))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if not graceful:
                # the client vanished: withdraw its not-yet-started runs
                # and drop its waiters, but keep the session — leases and
                # the dedupe window must survive for a resume
                self._abandon(conn_pendings)
            if run_tasks:
                await asyncio.gather(*run_tasks, return_exceptions=True)
            self._connections.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass

    def _abandon(
        self,
        conn_pendings: Dict[int, Tuple[PendingRun, asyncio.Future]],
    ) -> None:
        for pending, future in list(conn_pendings.values()):
            waiters = self._waiters.get(pending.ticket)
            if waiters is not None and future in waiters:
                waiters.remove(future)
                if not waiters:
                    del self._waiters[pending.ticket]
            if not future.done():
                future.cancel()
            if pending.ticket not in self._waiters:
                # nobody else is waiting: withdraw it if still queued
                if self.engine.cancel(pending):
                    self.abandoned_runs += 1
        conn_pendings.clear()

    def _hello(self, request: Dict[str, Any]) -> SessionContext:
        resume = request.get("resume")
        if resume:
            session = self.engine.session(str(resume))
            user = request.get("user")
            if user and session.user != user:
                raise SessionError(
                    f"session {resume!r} belongs to {session.user!r}, "
                    f"not {user!r}"
                )
            return session
        for field in ("user", "team", "library"):
            if not request.get(field):
                raise ProtocolError(f"hello is missing {field!r}")
        return self.engine.open_session(
            user=request["user"],
            team=request["team"],
            library_name=request["library"],
            project_name=request.get("project"),
        )

    def _lease(
        self,
        request_id: Any,
        session: Optional[SessionContext],
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        if session is None:
            raise SessionError("lease before hello: no session context")
        cell = request.get("cell")
        if not cell:
            raise ProtocolError("lease request names no cell")
        lease = self.engine.acquire_lease(session, str(cell))
        return {
            "id": request_id,
            "ok": True,
            "key": lease.key,
            "token": lease.token,
            "expires_ms": lease.expires_ms,
        }

    def _release(
        self,
        request_id: Any,
        session: Optional[SessionContext],
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        if session is None:
            raise SessionError("release before hello: no session context")
        cell = request.get("cell")
        if not cell:
            raise ProtocolError("release request names no cell")
        released = self.engine.release_lease(session, str(cell))
        return {"id": request_id, "ok": True, "released": released}

    def _pending_payload(
        self, request_id: Any, pending: PendingRun, deduped: bool
    ) -> Dict[str, Any]:
        """The response frame for a settled pending (ran or refused)."""
        if pending.error is not None:
            payload = error_frame(request_id, pending.error)
            payload["status"] = pending.status
            payload["shard"] = pending.shard_id
        else:
            payload = {
                "id": request_id,
                "ok": pending.outcome is not None and pending.outcome.ok,
                "status": pending.status,
                "shard": pending.shard_id,
                "latency_ms": round(pending.latency_ms, 3),
            }
            if (
                pending.outcome is not None
                and pending.outcome.error is not None
            ):
                payload["error"] = {
                    "type": type(pending.outcome.error).__name__,
                    "message": str(pending.outcome.error),
                }
        if deduped:
            payload["deduped"] = True
        return payload

    async def _run(
        self,
        send,
        request_id: Any,
        session: Optional[SessionContext],
        request: Dict[str, Any],
        conn_pendings: Dict[int, Tuple[PendingRun, asyncio.Future]],
    ) -> None:
        """Admit one run, await its batch's commit, answer the client."""
        try:
            if session is None:
                raise SessionError("run before hello: no session context")
            cell = request.get("cell")
            if not cell:
                raise ProtocolError("run request names no cell")
            activity = request.get("activity", "")
            kwargs = self.catalog.resolve(
                activity, request.get("script"), request.get("params")
            )
            reads = tuple(
                (str(lib), str(c)) for lib, c in request.get("reads", [])
            )
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is not None:
                deadline_ms = float(deadline_ms)
            request_key = request.get("request_key")
            loop = asyncio.get_running_loop()
            pending = self.engine.submit(
                session,
                cell,
                activity,
                kwargs=kwargs,
                reads=reads,
                deadline_ms=deadline_ms,
                request_key=request_key,
            )
            deduped = pending.dedupe_count > 0
            if pending.settled:
                # a deduped retry of an already-answered run (or an
                # instant refusal): no wave to wait for
                await send(self._pending_payload(request_id, pending, deduped))
                return
            future: asyncio.Future = loop.create_future()
            self._waiters.setdefault(pending.ticket, []).append(future)
            conn_pendings[id(future)] = (pending, future)
            try:
                done: PendingRun = await future
            finally:
                conn_pendings.pop(id(future), None)
            await send(self._pending_payload(request_id, done, deduped))
        except asyncio.CancelledError:
            # the connection was abandoned while we waited; nobody is
            # left to answer
            return
        except ReproError as exc:
            await send(error_frame(request_id, exc))

    def transport_stats(self) -> Dict[str, int]:
        return {
            "refused_accepts": self.refused_accepts,
            "torn_reads": self.torn_reads,
            "dropped_frames": self.dropped_frames,
            "malformed_frames": self.malformed_frames,
            "abandoned_runs": self.abandoned_runs,
        }
