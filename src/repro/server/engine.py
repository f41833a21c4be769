"""The transport-free serving core: sessions, shards, batches, waves.

:class:`ServeEngine` is everything the design server does *except*
sockets: it validates session context against JCF resources, routes each
run request to a shard by its library, applies admission control,
coalesces admitted requests into windows and executes each flushed
window as one ``run_many`` wave under that shard's commit-group scope.

Two execution modes:

* **deterministic conductor** (``concurrent=False``, the default) —
  flushed batches queue up and :meth:`pump` executes them on the calling
  thread in ascending shard order.  Simulated time still overlaps the
  shards (each shard owns a clock lane; the engine makespan is the
  *maximum* lane end, not the sum), and the whole replay is
  reproducible: same arrivals, same seed → same batches, same waves,
  byte-identical OMS snapshot at any worker count.
* **threaded** (``concurrent=True``) — each shard owns a single-thread
  executor and flushed batches run concurrently across shards (batches
  on one shard stay serial).  Windows are self-clocked
  (:mod:`repro.server.coalescer`): an idle shard flushes as soon as its
  window holds the shard's expected width, and a finishing batch
  releases its shard before its clients are answered, so the runs that
  queued behind it go out without waiting on a timer.  This is the mode
  the asyncio front end uses; wall-clock speedup is real but byte-level
  replay identity is not promised (execution interleaving chooses oid
  allocation order).

The engine is deliberately ignorant of transports and of scripts: the
protocol layer resolves named scripts into activity kwargs before
submitting here.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.scheduler import RUN_CRASHED, RunOutcome, RunRequest
from repro.errors import (
    DeadlineExceededError,
    LeaseFencedError,
    LeaseHeldError,
    SessionError,
    ShardUnavailableError,
)
from repro.faults import CrashFault, fault_point
from repro.server.admission import AdmissionController, TokenBucket
from repro.server.coalescer import ShardBatcher
from repro.server.health import CircuitBreaker
from repro.server.leases import Lease, LeaseTable, lease_key
from repro.server.shards import ShardMap
from repro.workloads.metrics import percentiles


@dataclasses.dataclass
class SessionContext:
    """One designer session's resolved, validated working context."""

    session_id: str
    user: str
    team: str
    project: Any        # JCFProject
    library: Any        # fmcad Library
    library_name: str
    shard_id: int
    requests_submitted: int = 0
    #: bounded request_key -> PendingRun window for idempotent retries
    dedupe: "OrderedDict[str, PendingRun]" = dataclasses.field(
        default_factory=OrderedDict
    )
    dedupe_hits: int = 0


@dataclasses.dataclass
class PendingRun:
    """One admitted run request travelling through a shard's pipeline."""

    ticket: int
    session: SessionContext
    request: RunRequest
    submit_ms: float
    shard_id: int
    status: str = "queued"
    outcome: Optional[RunOutcome] = None
    completed_ms: float = 0.0
    latency_ms: float = 0.0
    #: absolute admission-timeline instant after which the run is shed
    deadline_ms: Optional[float] = None
    #: client-supplied idempotency key (dedupe window lives on the session)
    request_key: Optional[str] = None
    #: fencing token of the session's lease on the target cell, if leased
    fence_token: Optional[int] = None
    #: typed refusal (deadline/fence/shard) when the run never executed
    error: Optional[Exception] = None
    cancelled: bool = False
    #: times a retry was answered from this pending instead of re-running
    dedupe_count: int = 0

    @property
    def done(self) -> bool:
        return self.outcome is not None

    @property
    def settled(self) -> bool:
        """True once the pending can never execute again: it ran, it was
        refused with a typed error, or the client cancelled it."""
        return (
            self.outcome is not None
            or self.error is not None
            or self.cancelled
        )


class _ShardRuntime:
    """Everything one shard owns: lane, admission, batcher, work queue."""

    def __init__(
        self,
        shard_id: int,
        lane,
        admission: AdmissionController,
        batcher: ShardBatcher,
        breaker: CircuitBreaker,
    ) -> None:
        self.shard_id = shard_id
        self.lane = lane
        self.admission = admission
        self.batcher = batcher
        self.breaker = breaker
        #: flushed-but-unexecuted batches (deterministic mode)
        self.ready: List[Tuple[List[PendingRun], float]] = []
        #: in-flight executor futures (threaded mode); a finished
        #: future drops out, keeping only its exception if it raised
        self.futures: Set[Future] = set()
        self.error: Optional[BaseException] = None
        self._futures_mutex = threading.Lock()
        self.executor: Optional[ThreadPoolExecutor] = None
        self.batch_seq = 0
        self.batches_run = 0
        self.waves_run = 0
        self.runs_ok = 0
        self.runs_failed = 0
        self.deadline_shed = 0
        self.fenced = 0
        self.cancelled = 0

    def track(self, future: Future) -> None:
        with self._futures_mutex:
            self.futures.add(future)
        future.add_done_callback(self._untrack)

    def _untrack(self, future: Future) -> None:
        error = None if future.cancelled() else future.exception()
        with self._futures_mutex:
            self.futures.discard(future)
            if error is not None and self.error is None:
                self.error = error

    def in_flight(self) -> List[Future]:
        with self._futures_mutex:
            return [future for future in self.futures if not future.done()]


class ServeEngine:
    """Multiplexes designer sessions onto sharded ``run_many`` waves."""

    def __init__(
        self,
        hybrid,
        shards: int = 1,
        max_batch: int = 32,
        window_ms: float = 2000.0,
        queue_depth: int = 512,
        admission_rate_per_s: Optional[float] = None,
        admission_burst: Optional[int] = None,
        workers: int = 4,
        seed: int = 0,
        concurrent: bool = False,
        now_fn=None,
        lease_ttl_ms: float = 30_000.0,
        breaker_threshold: int = 3,
        breaker_cooldown_ms: float = 5_000.0,
        dedupe_window: int = 64,
    ) -> None:
        self.hybrid = hybrid
        self.clock = hybrid.clock
        self.db = hybrid.jcf.db
        self.workers = workers
        self.seed = seed
        self.concurrent = concurrent
        self.dedupe_window = dedupe_window
        #: admission/window/latency timeline.  ``None`` (the default)
        #: runs on simulated time — completion stamps come from the
        #: shard lane, so a replay's latency distribution is exactly
        #: reproducible.  The asyncio server passes a monotonic
        #: wall-clock function instead; the shard lanes keep accounting
        #: simulated cost either way.
        self.now_fn = now_fn
        #: callback invoked with each completed batch (executor thread
        #: in threaded mode) — the asyncio front end resolves waiters
        self.on_batch_complete = None
        self.shard_map = ShardMap(shards)
        #: simulated instant the serving timeline starts; every shard
        #: lane opens here so lane ends are comparable
        self.epoch_ms = self.clock.now_ms
        #: per-cell checkout leases; published on the database so
        #: CouplingRecovery and ConsistencyGuard find them the same way
        #: they find the WAL (optional attachment, getattr-probed)
        self.leases = LeaseTable(ttl_ms=lease_ttl_ms, now_fn=self._now)
        self.db.lease_table = self.leases
        # commit-time fence: the FMCAD checkin path refuses to write a
        # version for a leased cell whose armed token is no longer the
        # current grant (the zombie-session guard)
        hybrid.fmcad.checkouts.set_checkin_guard(self._checkin_fence)
        self._runtimes: List[_ShardRuntime] = []
        for shard_id in range(shards):
            bucket = None
            if admission_rate_per_s is not None:
                burst = admission_burst or max(1, int(admission_rate_per_s))
                bucket = TokenBucket(
                    admission_rate_per_s, burst, start_ms=self._now()
                )
            runtime = _ShardRuntime(
                shard_id,
                lane=self.clock.open_lane(
                    f"shard{shard_id}", start_ms=self.epoch_ms
                ),
                admission=AdmissionController(
                    shard_id, queue_depth, bucket=bucket
                ),
                batcher=ShardBatcher(
                    shard_id, max_batch, window_ms, clocked=concurrent
                ),
                breaker=CircuitBreaker(
                    shard_id, breaker_threshold, breaker_cooldown_ms
                ),
            )
            if concurrent:
                runtime.executor = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"shard{shard_id}",
                )
            self._runtimes.append(runtime)
        self._mutex = threading.Lock()
        self._sessions: Dict[str, SessionContext] = {}
        self._session_seq = 0
        self._ticket_seq = 0
        self._completed: List[PendingRun] = []
        self._closed = False

    def _now(self) -> float:
        """Current admission-timeline time (simulated unless now_fn set)."""
        if self.now_fn is not None:
            return self.now_fn()
        return self.clock.now_ms

    # -- sessions ----------------------------------------------------------

    def open_session(
        self,
        user: str,
        team: str,
        library_name: str,
        project_name: Optional[str] = None,
    ) -> SessionContext:
        """Validate and register one designer session.

        The session binds a user, a team and the library the team works
        in; every later ``run`` request executes in this context.  The
        checks mirror what the JCF desktop enforces interactively.
        """
        resources = self.hybrid.jcf.resources
        if resources.find_user(user) is None:
            raise SessionError(f"unknown user {user!r}")
        if resources.find_team(team) is None:
            raise SessionError(f"unknown team {team!r}")
        if not resources.is_member(user, team):
            raise SessionError(f"user {user!r} is not a member of {team!r}")
        library = self.hybrid.fmcad.library(library_name)
        project = self.hybrid.jcf.project(project_name or library_name)
        if not resources.team_supports_project(team, project.oid):
            raise SessionError(
                f"team {team!r} is not assigned to project {project.name!r}"
            )
        with self._mutex:
            self._session_seq += 1
            session = SessionContext(
                session_id=f"s{self._session_seq:05d}",
                user=user,
                team=team,
                project=project,
                library=library,
                library_name=library_name,
                shard_id=self.shard_map.shard_of_library(library_name),
            )
            self._sessions[session.session_id] = session
        return session

    def session(self, session_id: str) -> SessionContext:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"unknown session {session_id!r}") from None

    def touch_session(
        self, session: SessionContext, now_ms: Optional[float] = None
    ) -> int:
        """Heartbeat (``ping``): renew every lease the session holds."""
        now = self._now() if now_ms is None else now_ms
        return self.leases.renew(session.session_id, now_ms=now)

    def end_session(self, session: SessionContext) -> int:
        """Graceful ``bye``: release the session's leases."""
        return self.leases.release_session(session.session_id)

    # -- leases ------------------------------------------------------------

    def acquire_lease(
        self,
        session: SessionContext,
        cell_name: str,
        now_ms: Optional[float] = None,
        ttl_ms: Optional[float] = None,
    ) -> Lease:
        """Grant (or renew) the session's write lease on one cell."""
        now = self._now() if now_ms is None else now_ms
        return self.leases.acquire(
            session.session_id,
            session.user,
            session.library_name,
            cell_name,
            now_ms=now,
            ttl_ms=ttl_ms,
        )

    def release_lease(self, session: SessionContext, cell_name: str) -> bool:
        return self.leases.release(
            session.session_id,
            lease_key(session.library_name, cell_name),
        )

    def _checkin_fence(self, ticket, library) -> None:
        """FMCAD checkin guard: refuse commits under a superseded lease.

        Runs inside ``write_version`` for every served checkin.  Cells
        without an armed expectation (unleased work) pass untouched —
        leases are opt-in.  No clock is consulted: expiry was judged on
        the admission timeline when the batch was assembled; here only
        the token lineage matters, so a zombie whose lease was reclaimed
        (and possibly re-granted) mid-batch is still fenced.
        """
        key = lease_key(library.name, ticket.cell_name)
        expected = self.leases.expected(key)
        if expected is None:
            return
        holder = self.leases.holder(key)
        current = holder.token if holder is not None else 0
        if current != expected:
            self.leases.fenced_commits += 1
            raise LeaseFencedError(
                f"checkin of {key} fenced: batch armed token {expected} "
                f"but current grant is {current or 'none'}",
                key=key,
                token=expected,
                current=current,
            )

    # -- submission --------------------------------------------------------

    def submit(
        self,
        session: SessionContext,
        cell_name: str,
        activity: str,
        kwargs: Optional[Dict[str, Any]] = None,
        reads: Sequence[Tuple[str, str]] = (),
        now_ms: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        request_key: Optional[str] = None,
    ) -> PendingRun:
        """Admit one run request onto its session's shard.

        Raises :class:`~repro.errors.ServerOverloadError` when the shard
        refuses it (bounded queue, token bucket, draining),
        :class:`~repro.errors.ShardUnavailableError` while its circuit
        breaker is open, and :class:`~repro.errors.DeadlineExceededError`
        for an already-expired ``deadline_ms`` — in every refusal the
        request was never queued and has no ticket.  On success the
        returned :class:`PendingRun` completes when its window's wave
        executes.

        ``deadline_ms`` is a *relative* budget; the engine stamps the
        absolute expiry on the admission timeline and sheds the run (with
        a typed error, not silence) if its window flushes too late.
        ``request_key`` makes the submit idempotent per session: a retry
        carrying the same key is answered from the original pending while
        it is in flight or succeeded, so a lost ack cannot double-commit.
        """
        runtime = self._runtimes[session.shard_id]
        now = self._now() if now_ms is None else now_ms
        self.leases.reclaim_due(now)
        if request_key is not None:
            cached = session.dedupe.get(request_key)
            if cached is not None:
                if not cached.settled or (
                    cached.outcome is not None and cached.outcome.ok
                ):
                    cached.dedupe_count += 1
                    session.dedupe_hits += 1
                    return cached
                # settled but refused/failed/cancelled: the retry is a
                # genuine re-attempt — forget it and re-admit
                del session.dedupe[request_key]
        runtime.breaker.admit(now)
        if deadline_ms is not None and deadline_ms <= 0:
            raise DeadlineExceededError(
                f"deadline budget {deadline_ms!r}ms already spent at submit",
                shard_id=session.shard_id,
                retry_after_ms=0.0,
            )
        # a lease is exclusive: a non-holder (including a zombie whose
        # own lease expired) is refused while any live lease covers the
        # cell — raises LeaseHeldError with a retry hint
        self.leases.assert_writable(
            session.session_id,
            lease_key(session.library_name, cell_name),
            now_ms=now,
        )
        runtime.admission.admit(now)
        request = RunRequest(
            user=session.user,
            project=session.project,
            library=session.library,
            cell_name=cell_name,
            activity=activity,
            kwargs=dict(kwargs or {}),
            reads=tuple(reads),
        )
        with self._mutex:
            self._ticket_seq += 1
            pending = PendingRun(
                ticket=self._ticket_seq,
                session=session,
                request=request,
                submit_ms=now,
                shard_id=session.shard_id,
                deadline_ms=(
                    None if deadline_ms is None else now + deadline_ms
                ),
                request_key=request_key,
                fence_token=self.leases.token_of(
                    session.session_id, request.write_key
                ),
            )
        session.requests_submitted += 1
        if request_key is not None:
            session.dedupe[request_key] = pending
            while len(session.dedupe) > self.dedupe_window:
                session.dedupe.popitem(last=False)
        flushed = runtime.batcher.add(pending, now)
        if flushed:
            self._dispatch(runtime, flushed, now)
        return pending

    def cancel(self, pending: PendingRun) -> bool:
        """Withdraw a not-yet-started run (client disconnected).

        Only runs still sitting in their coalescer window — in threaded
        mode, queued behind their shard's in-flight batch — can be
        cancelled; a flushed run executes regardless (its result is
        simply unobserved).  Returns True if the run was withdrawn.
        """
        runtime = self._runtimes[pending.shard_id]
        if pending.settled:
            return False
        if not runtime.batcher.remove(pending):
            return False
        pending.cancelled = True
        pending.status = "cancelled"
        runtime.admission.complete(1)
        runtime.cancelled += 1
        return True

    # -- execution ---------------------------------------------------------

    def _dispatch(
        self,
        runtime: _ShardRuntime,
        batch: List[PendingRun],
        flush_ms: float,
    ) -> None:
        if runtime.executor is not None:
            runtime.track(
                runtime.executor.submit(
                    self._run_clocked, runtime, batch, flush_ms
                )
            )
        else:
            runtime.ready.append((batch, flush_ms))

    def _run_clocked(
        self,
        runtime: _ShardRuntime,
        batch: List[PendingRun],
        flush_ms: float,
    ) -> None:
        """Executor body (threaded mode): run, release the shard, answer.

        The shard is released before the clients hear back, so a client
        that resubmits on its answer is not counted twice in the expected
        width.  A batch that raises still releases its shard, so the runs
        behind it are not parked until the idle fallback.
        """
        try:
            settled = self._execute_batch(runtime, batch, flush_ms)
        finally:
            runtime.batcher.complete(len(batch), self._now())
        self._notify(settled)

    def _notify(self, settled: List[PendingRun]) -> None:
        if self.on_batch_complete is not None and settled:
            self.on_batch_complete(list(settled))

    def _shed(
        self,
        runtime: _ShardRuntime,
        pending: PendingRun,
        status: str,
        error: Exception,
        eval_ms: float,
    ) -> None:
        """Settle one pending with a typed refusal instead of running it."""
        pending.status = status
        pending.error = error
        pending.completed_ms = eval_ms
        pending.latency_ms = eval_ms - pending.submit_ms
        runtime.runs_failed += 1

    def _execute_batch(
        self,
        runtime: _ShardRuntime,
        batch: List[PendingRun],
        flush_ms: float,
    ) -> List[PendingRun]:
        """Run one flushed window as a ``run_many`` wave on its shard.

        Before the wave starts, the batch is triaged on the admission
        timeline: cancelled runs are skipped, expired deadlines are
        answered with :class:`~repro.errors.DeadlineExceededError`, and
        leased runs whose fencing token is no longer the current grant
        are answered with :class:`~repro.errors.LeaseFencedError` — none
        of them occupy a wave slot.  The survivors execute inside the
        shard's clock lane: the wave's critical path folds into the shard
        timeline (shards overlap in simulated time) and a shard idle
        until *flush_ms* first fast-forwards to it — a batch cannot start
        before its window flushed.

        A wave that raises (or crashes any run) feeds the shard's circuit
        breaker; a clean wave heals it, and the runs of a wave that
        raised are answered with
        :class:`~repro.errors.ShardUnavailableError`.  Runs of a batch
        that dies of :class:`~repro.faults.CrashFault` (the
        ``server.dispatch`` fault point, or a wave's ``FailStop``) are
        answered with the crash itself, which carries no retry hint, and
        the crash then propagates — that *is* the crash-mid-batch
        scenario, and recovery owns what follows.
        Returns the settled runs; the caller answers their clients.
        """
        eval_ms = self.now_fn() if self.now_fn is not None else flush_ms
        self.leases.reclaim_due(eval_ms)
        shed: List[PendingRun] = []
        runnable: List[PendingRun] = []
        for pending in batch:
            if pending.cancelled:
                continue
            if (
                pending.deadline_ms is not None
                and eval_ms >= pending.deadline_ms
            ):
                self._shed(
                    runtime,
                    pending,
                    "deadline-exceeded",
                    DeadlineExceededError(
                        f"run {pending.ticket} missed its deadline by "
                        f"{eval_ms - pending.deadline_ms:.1f}ms in the "
                        f"batch window",
                        shard_id=runtime.shard_id,
                        retry_after_ms=0.0,
                    ),
                    eval_ms,
                )
                runtime.deadline_shed += 1
                shed.append(pending)
                continue
            key = pending.request.write_key
            token = self.leases.token_of(pending.session.session_id, key)
            if pending.fence_token is not None and token != pending.fence_token:
                # the lease this run was admitted under is gone (expired,
                # released, or superseded) — the zombie is fenced
                self._shed(
                    runtime,
                    pending,
                    "lease-fenced",
                    LeaseFencedError(
                        f"run {pending.ticket} holds stale fencing token "
                        f"{pending.fence_token} for {key} "
                        f"(current grant: {token or 'none'})",
                        key=key,
                        token=pending.fence_token,
                        current=token or 0,
                    ),
                    eval_ms,
                )
                runtime.fenced += 1
                shed.append(pending)
                continue
            if token is None:
                holder = self.leases.holder(key)
                if holder is not None:
                    # someone else leased the cell between submit and
                    # flush: the exclusive claim wins
                    self._shed(
                        runtime,
                        pending,
                        "lease-fenced",
                        LeaseHeldError(
                            f"{key} is leased to session "
                            f"{holder.session_id} ({holder.user})",
                            key=key,
                            holder=holder.session_id,
                            retry_after_ms=max(
                                holder.expires_ms - eval_ms, 0.0
                            ),
                        ),
                        eval_ms,
                    )
                    runtime.fenced += 1
                    shed.append(pending)
                    continue
            # may upgrade None -> token: a lease acquired after submit
            # still fences this run's commit
            pending.fence_token = token
            runnable.append(pending)
        result = None
        armed: List[str] = []
        if runnable:
            runtime.batch_seq += 1
            scope = f"shard{runtime.shard_id}"
            prefix = f"s{runtime.shard_id}b{runtime.batch_seq:04d}_"
            # commit expectations for the checkin guard: a leased key must
            # still carry its validated token at write time; an unleased
            # key (token 0) must still be unleased — acquiring a lease on
            # a cell mid-wave fences the in-flight writer either way
            to_arm: Dict[str, int] = {}
            for pending in runnable:
                to_arm.setdefault(
                    pending.request.write_key, pending.fence_token or 0
                )
            for key, expected in to_arm.items():
                self.leases.arm(key, expected)
                armed.append(key)
            end_ms = flush_ms
            try:
                with self.clock.use_lane(runtime.lane):
                    if self.now_fn is None:
                        # simulated conductor: a batch cannot start
                        # before its window flushed; fast-forward an
                        # idle shard lane
                        self.clock.advance_to(flush_ms)
                    fault_point("server.dispatch")
                    result = self.hybrid.run_many(
                        [pending.request for pending in runnable],
                        workers=self.workers,
                        seed=self.seed,
                        commit_scope=scope,
                        sandbox_prefix=prefix,
                    )
                    end_ms = self.clock.now_ms
            except CrashFault as exc:
                runtime.breaker.record_failure(eval_ms)
                # the process is as good as dead: answer its runs with the
                # crash itself (no retry hint: memory and log may disagree)
                # and free their slots, then let the crash surface
                for pending in runnable:
                    self._shed(runtime, pending, RUN_CRASHED, exc, eval_ms)
                shed.extend(runnable)
                self._settle(runtime, batch, shed)
                self._notify(shed)
                raise
            except Exception:
                # the wave never produced outcomes: the shard is wedged
                runtime.breaker.record_failure(eval_ms)
                for pending in runnable:
                    self._shed(
                        runtime,
                        pending,
                        "shard-unavailable",
                        ShardUnavailableError(
                            f"shard {runtime.shard_id} failed its wave; "
                            f"retry on a healthy window",
                            shard_id=runtime.shard_id,
                            state=runtime.breaker.state,
                            retry_after_ms=runtime.breaker.cooldown_ms,
                        ),
                        eval_ms,
                    )
                shed.extend(runnable)
                runnable = []
            finally:
                for key in armed:
                    self.leases.disarm(key)
        if result is not None:
            if self.now_fn is not None:
                # wall-clock serving: latency is measured on the same
                # timeline submissions were stamped on
                end_ms = self.now_fn()
            crashed = False
            for pending, outcome in zip(runnable, result.outcomes):
                pending.outcome = outcome
                pending.status = outcome.status
                pending.completed_ms = end_ms
                pending.latency_ms = end_ms - pending.submit_ms
                if outcome.ok:
                    runtime.runs_ok += 1
                else:
                    runtime.runs_failed += 1
                if outcome.status == RUN_CRASHED:
                    crashed = True
            runtime.batches_run += 1
            runtime.waves_run += len(result.waves)
            record_ms = self.now_fn() if self.now_fn is not None else flush_ms
            if crashed:
                runtime.breaker.record_failure(record_ms)
            else:
                runtime.breaker.record_success(record_ms)
        settled = shed + runnable if result is not None else shed
        self._settle(runtime, batch, settled)
        return settled

    def _settle(
        self,
        runtime: _ShardRuntime,
        batch: List[PendingRun],
        settled: List[PendingRun],
    ) -> None:
        """Release the batch's admission slots and record its answers."""
        runtime.admission.complete(
            sum(1 for pending in batch if not pending.cancelled)
        )
        with self._mutex:
            self._completed.extend(settled)

    def pump(self, now_ms: Optional[float] = None) -> int:
        """Flush due windows and run queued batches; returns runs executed.

        In deterministic mode this **is** the conductor: batches execute
        on the calling thread in ascending shard order, so the whole
        schedule — and therefore oid allocation and the final snapshot —
        is a pure function of arrivals and seed.  In threaded mode it
        only flushes idle shards' windows past their fallback deadline
        (completions clock everything else; executors do the running).
        """
        now = self._now() if now_ms is None else now_ms
        executed = 0
        self.leases.reclaim_due(now)
        for runtime in self._runtimes:
            due = runtime.batcher.flush_due(now)
            if due:
                self._dispatch(runtime, due, now)
        for runtime in self._runtimes:
            while runtime.ready:
                batch, flush_ms = runtime.ready.pop(0)
                self._notify(self._execute_batch(runtime, batch, flush_ms))
                executed += len(batch)
        return executed

    def drain(self, now_ms: Optional[float] = None) -> int:
        """Flush every partial window and finish all in-flight work.

        Loops until no shard has a batch in flight or a run in its
        window: a busy threaded shard flushes its window once its batch
        is done, and runs submitted while drain waits are finished too.
        Re-raises the first exception a threaded batch raised.  Folds the shard lanes back into the master clock
        afterwards, so ``clock.now_ms - epoch_ms`` on the master
        timeline reads the serving makespan (the busiest shard's end).
        """
        now = self._now() if now_ms is None else now_ms
        executed = 0
        while True:
            for runtime in self._runtimes:
                leftover = runtime.batcher.flush()
                if leftover:
                    self._dispatch(runtime, leftover, now)
            executed += self.pump(now)
            in_flight = [
                future
                for runtime in self._runtimes
                for future in runtime.in_flight()
            ]
            if not in_flight and not any(
                len(runtime.batcher) for runtime in self._runtimes
            ):
                break
            wait(in_flight)
        for runtime in self._runtimes:
            error, runtime.error = runtime.error, None
            if error is not None:
                raise error
        self.clock.advance_to(
            max(runtime.lane.now_ms for runtime in self._runtimes)
        )
        return executed

    def close(self) -> None:
        """Stop admitting, drain everything in flight, shut executors down."""
        for runtime in self._runtimes:
            runtime.admission.close()
        try:
            self.drain()
        finally:
            self._closed = True
            for runtime in self._runtimes:
                if runtime.executor is not None:
                    runtime.executor.shutdown(wait=True)

    # -- introspection -----------------------------------------------------

    @property
    def makespan_ms(self) -> float:
        """Simulated serving time so far: busiest shard lane vs. epoch."""
        return (
            max(runtime.lane.now_ms for runtime in self._runtimes)
            - self.epoch_ms
        )

    def completed(self) -> List[PendingRun]:
        with self._mutex:
            return list(self._completed)

    def latencies_ms(self) -> List[float]:
        """Submission-to-commit simulated latency of every completed run."""
        with self._mutex:
            return [pending.latency_ms for pending in self._completed]

    def stats(self) -> Dict[str, object]:
        """The ``stats`` request: queue depths, latency tail, shard detail."""
        with self._mutex:
            completed = list(self._completed)
            sessions = len(self._sessions)
        latency = percentiles([p.latency_ms for p in completed])
        per_shard = []
        for runtime in self._runtimes:
            per_shard.append(
                {
                    "admission": runtime.admission.stats(),
                    "breaker": runtime.breaker.stats(),
                    "window_pending": len(runtime.batcher),
                    "flushes_by_size": runtime.batcher.flushes_by_size,
                    "flushes_by_deadline": runtime.batcher.flushes_by_deadline,
                    "flushes_by_clock": runtime.batcher.flushes_by_clock,
                    "expected_width": runtime.batcher.expected_width,
                    "batches_run": runtime.batches_run,
                    "waves_run": runtime.waves_run,
                    "runs_ok": runtime.runs_ok,
                    "runs_failed": runtime.runs_failed,
                    "deadline_shed": runtime.deadline_shed,
                    "fenced": runtime.fenced,
                    "cancelled": runtime.cancelled,
                    "lane_ms": runtime.lane.now_ms - self.epoch_ms,
                }
            )
        with self._mutex:
            dedupe_hits = sum(
                context.dedupe_hits for context in self._sessions.values()
            )
        return {
            "shards": self.shard_map.shards,
            "sessions": sessions,
            "completed_runs": len(completed),
            "ok_runs": sum(1 for p in completed if p.outcome and p.outcome.ok),
            "makespan_ms": self.makespan_ms,
            "latency_ms": latency,
            "leases": self.leases.stats(),
            "dedupe_hits": dedupe_hits,
            "per_shard": per_shard,
            "locks": self.db.locks.stats(),
            "commits": {
                "commit_count": self.db.commit_count,
                "flush_count": self.db.flush_count,
                "coalesced_commits": self.db.coalesced_commits,
            },
        }
