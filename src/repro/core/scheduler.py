"""Dependency-aware parallel execution of coupled tool runs.

The 1995 coupling ran one tool at a time; a design team does not.  This
module schedules a *batch* of pending coupled runs — across variants,
cells and designers — onto a worker pool:

1. **Conflict/dependency graph.**  Two runs conflict when they target
   the same ``(library, cell)`` — the flow chain: schematic entry, then
   simulation, then layout of one cell must execute in batch order — or
   when one run's declared reads intersect another's writes (a
   simulation reading a subcell another run is editing).  Earlier batch
   index wins: the edge always points forward.
2. **Waves.**  Longest-path levelling of that DAG yields waves of
   mutually independent runs.  Each wave executes concurrently on a
   :class:`~concurrent.futures.ThreadPoolExecutor`; conflicting runs
   simply sit in later waves.
3. **Determinism.**  Every run's snapshot-visible work happens inside
   its two :mod:`repro.core.gates` ordered sections, executed in fixed
   turn order per wave (turn order == pool submission order, which a
   FIFO executor dequeues in order — that equality is what makes the
   turnstiles deadlock-free when workers < wave size).  Given the same
   batch and ``seed``, ``workers=1`` and ``workers=8`` produce
   byte-identical OMS snapshots; the speedup comes from overlapping the
   unordered middles (staging I/O and the tool step itself).
4. **Isolation.**  Each run gets its own staging area in the one
   staging root: its records are private (schedule-independent
   copy-on-write behaviour) and its file names start with the run's
   name (no file-name collisions, no directory of its own).  It takes
   its declared read/write keys on the database's
   :class:`~repro.oms.locks.LockManager` — non-blocking, because the
   wave construction already serialised every declared conflict; a
   contended lock means an undeclared one, and the run is *deferred*
   rather than racing it.
5. **Group-commit.**  Each wave's metadata transactions coalesce into
   one OMS flush (:meth:`~repro.oms.database.OMSDatabase.group_commit`).
   A run writes its version files inside its commit turn without
   fsyncing them and fsyncs them after leaving it, then once each
   directory that gained an entry, so the next turn does not wait for
   its disk.  The wave writes each FMCAD library it checked into once:
   after every run (fsyncs included) finished, before the group's WAL
   record.  The order is version files and their names durable, then
   one ``.meta`` per touched library, then the WAL record, then the
   ack.  A fsync or ``.meta`` flush that fails, or a refused one,
   leaves the wave committed in memory but not logged, which nothing
   can undo: the database stops
   (:meth:`~repro.oms.database.OMSDatabase.fail_stop`), no record is
   appended, nothing is acked, and the batch raises
   :class:`~repro.faults.FailStop` until a reopen and ``recover()``.
6. **Accounting.**  Each run charges its simulated cost to a private
   clock lane starting at the wave's start time; after the wave the
   master clock advances to the latest lane end.  The batch therefore
   reports *critical-path makespan*, while per-category totals still sum
   every run's resource use.

A run that raises :class:`~repro.faults.CrashFault` poisons its cell:
later runs on the same ``(library, cell)`` are *blocked* (skipped), the
files it staged stay in the staging root, unrecorded, for the audit to
list and :meth:`CouplingRecovery.recover` to reclaim, and the rest of
the batch proceeds.
"""

from __future__ import annotations

import dataclasses
import random
import time
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import gates
from repro.core.encapsulation import ToolRunResult, publish_meta
from repro.errors import EncapsulationError, LockContentionError
from repro.faults import CrashFault, fault_point
from repro.oms import durable

#: wrapper attribute on HybridFramework per schedulable activity
ACTIVITIES = ("schematic_entry", "digital_simulation", "layout_entry")

#: outcome states of one scheduled run
RUN_OK = "ok"                # wrapper returned a ToolRunResult
RUN_FAILED = "failed"        # wrapper raised an ordinary exception
RUN_CRASHED = "crashed"      # wrapper raised CrashFault (needs recovery)
RUN_DEFERRED = "deferred"    # undeclared lock conflict; never executed
RUN_BLOCKED = "blocked"      # an earlier run on the same cell crashed/deferred


@dataclasses.dataclass
class RunRequest:
    """One pending coupled run in a batch.

    ``reads`` declares extra cells this run reads beyond its own target
    — e.g. the subcells a simulation netlists through dynamic binding —
    as ``(library_name, cell_name)`` pairs.  The run's own target cell
    is always its write set.
    """

    user: str
    project: Any           # JCFProject
    library: Any           # fmcad Library
    cell_name: str
    activity: str          # one of ACTIVITIES
    kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    reads: Tuple[Tuple[str, str], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.activity not in ACTIVITIES:
            raise EncapsulationError(
                f"cannot schedule activity {self.activity!r}; "
                f"schedulable activities are {ACTIVITIES}"
            )
        if not self.label:
            self.label = (
                f"{self.activity}:{self.library.name}/{self.cell_name}"
            )

    @property
    def write_key(self) -> str:
        return f"cell/{self.library.name}/{self.cell_name}"

    @property
    def read_keys(self) -> Tuple[str, ...]:
        return tuple(
            f"cell/{lib}/{cell}" for lib, cell in self.reads
        )


@dataclasses.dataclass
class RunOutcome:
    """What happened to one request of a scheduled batch."""

    index: int
    request: RunRequest
    status: str = RUN_BLOCKED
    wave: Optional[int] = None
    result: Optional[ToolRunResult] = None
    error: Optional[BaseException] = None
    lane_ms: float = 0.0    # this run's simulated duration

    @property
    def ok(self) -> bool:
        return self.status == RUN_OK


@dataclasses.dataclass
class BatchResult:
    """Outcome of one scheduled batch."""

    outcomes: List[RunOutcome]
    waves: List[List[int]]            # executed turn order per wave
    workers: int
    seed: int
    makespan_ms: float = 0.0          # simulated critical-path time
    summed_ms: float = 0.0            # sum of every run's lane time
    wall_s: float = 0.0               # real elapsed time
    lock_stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    commit_stats: Dict[str, int] = dataclasses.field(default_factory=dict)

    def by_status(self, status: str) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def succeeded(self) -> List[RunOutcome]:
        return self.by_status(RUN_OK)


class BatchScheduler:
    """Runs batches of coupled runs for one :class:`HybridFramework`."""

    def __init__(
        self,
        hybrid,
        workers: int = 4,
        seed: int = 0,
        commit_scope: str = "",
        sandbox_prefix: str = "",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.hybrid = hybrid
        self.workers = workers
        self.seed = seed
        #: commit-group scope this batch's waves open; the design server
        #: gives each shard its own scope so shard batches may run
        #: concurrently, each coalescing its own wave of commits
        self.commit_scope = commit_scope
        #: prepended to per-run staging names so concurrent batches
        #: never collide on ``run_NNN`` file-name prefixes
        self.sandbox_prefix = sandbox_prefix
        self.clock = hybrid.clock
        self.db = hybrid.jcf.db

    # -- graph construction ----------------------------------------------------

    @staticmethod
    def dependency_edges(
        requests: Sequence[RunRequest],
    ) -> List[Tuple[int, int]]:
        """Forward edges (i -> j, i < j) between conflicting requests."""
        edges: List[Tuple[int, int]] = []
        for j, later in enumerate(requests):
            later_rw = {later.write_key, *later.read_keys}
            for i in range(j):
                earlier = requests[i]
                if (
                    earlier.write_key == later.write_key
                    or earlier.write_key in later_rw
                    or later.write_key in earlier.read_keys
                ):
                    edges.append((i, j))
        return edges

    @staticmethod
    def build_waves(
        requests: Sequence[RunRequest],
    ) -> List[List[int]]:
        """Longest-path levelling: wave k holds runs whose deepest
        dependency chain has length k.  Within a wave, batch order."""
        edges = BatchScheduler.dependency_edges(requests)
        level = [0] * len(requests)
        for i, j in edges:  # edges go strictly forward: one pass suffices
            level[j] = max(level[j], level[i] + 1)
        waves: List[List[int]] = [[] for _ in range(max(level, default=-1) + 1)]
        for index, lvl in enumerate(level):
            waves[lvl].append(index)
        return waves

    # -- execution -------------------------------------------------------------

    def run(self, requests: Sequence[RunRequest]) -> BatchResult:
        requests = list(requests)
        outcomes = [
            RunOutcome(index=i, request=r) for i, r in enumerate(requests)
        ]
        result = BatchResult(
            outcomes=outcomes, waves=[], workers=self.workers, seed=self.seed
        )
        if not requests:
            return result

        rng = random.Random(self.seed)
        start_wall = time.perf_counter()
        start_ms = self.clock.now_ms
        summed_before = sum(self.clock.elapsed_by_category().values())
        #: write keys whose earlier run crashed or was deferred — later
        #: runs on them are skipped, not raced against wreckage
        poisoned: set = set()

        with ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="coupled-run",
        ) as pool:
            for wave_number, wave in enumerate(self.build_waves(requests)):
                executable = []
                for index in wave:
                    if requests[index].write_key in poisoned:
                        outcomes[index].status = RUN_BLOCKED
                        outcomes[index].wave = wave_number
                    else:
                        executable.append(index)
                if not executable:
                    result.waves.append([])
                    continue
                # the schedule seed permutes the wave's turn order; any
                # permutation yields a valid (and reproducible) schedule
                rng.shuffle(executable)
                result.waves.append(list(executable))
                self._run_wave(pool, wave_number, executable, requests, outcomes)
                for index in executable:
                    if outcomes[index].status in (RUN_CRASHED, RUN_DEFERRED):
                        poisoned.add(requests[index].write_key)

        result.wall_s = time.perf_counter() - start_wall
        result.makespan_ms = self.clock.now_ms - start_ms
        result.summed_ms = (
            sum(self.clock.elapsed_by_category().values()) - summed_before
        )
        result.lock_stats = self.db.locks.stats()
        result.commit_stats = {
            "commit_count": self.db.commit_count,
            "flush_count": self.db.flush_count,
            "coalesced_commits": self.db.coalesced_commits,
        }
        return result

    def _run_wave(
        self,
        pool: ThreadPoolExecutor,
        wave_number: int,
        order: List[int],
        requests: Sequence[RunRequest],
        outcomes: List[RunOutcome],
    ) -> None:
        """Execute one wave concurrently; returns after the barrier."""
        wave_start = self.clock.now_ms
        open_ts = gates.Turnstile(f"wave{wave_number}.open", len(order))
        commit_ts = gates.Turnstile(f"wave{wave_number}.commit", len(order))
        lanes = []
        with self.db.group_commit(self.commit_scope):
            futures = []
            for turn, index in enumerate(order):
                lane = self.clock.open_lane(
                    f"run{index}", start_ms=wave_start
                )
                lanes.append(lane)
                gate = gates.RunGate((open_ts, commit_ts), turn)
                outcomes[index].wave = wave_number
                # submission order == turn order: the FIFO pool dequeues
                # lower turns first, so a blocked turn always has its
                # predecessor already running (no turnstile deadlock)
                futures.append(
                    pool.submit(
                        self._execute,
                        requests[index], gate, lane, outcomes[index],
                    )
                )
            wait(futures)
            try:
                for future in futures:
                    # _execute captures every run-level exception in its
                    # outcome; what escapes is a failed version-file
                    # fsync (or a scheduler bug)
                    exc = future.exception()
                    if exc is not None:
                        raise exc
                # every version file is durable; no .meta names them yet
                fault_point("wave.before_meta")
                # one .meta per library the wave changed, written by the
                # user of the library's first run in turn order
                first_run: Dict[str, RunRequest] = {}
                for index in order:
                    request = requests[index]
                    first_run.setdefault(request.library.name, request)
                for name in sorted(first_run):
                    library = first_run[name].library
                    if library.tick != library.flushed_tick:
                        publish_meta(library, first_run[name].user)
            except CrashFault:
                raise
            except Exception as exc:
                # the runs committed in memory and cannot be undone, yet
                # nothing may log or ack them: stop as if the process died
                raise self.db.fail_stop(
                    f"wave {wave_number}: not made durable ({exc})"
                ) from exc
        if lanes:
            self.clock.advance_to(max(lane.now_ms for lane in lanes))

    def _execute(
        self,
        request: RunRequest,
        gate: gates.RunGate,
        lane,
        outcome: RunOutcome,
    ) -> RunOutcome:
        """Worker body for one run (runs on a pool thread)."""
        sandbox_name = f"{self.sandbox_prefix}run_{outcome.index:03d}"
        try:
            acquisition = self.db.locks.acquire(
                read=request.read_keys,
                write=(request.write_key,),
                blocking=False,
            )
        except LockContentionError as exc:
            # an undeclared conflict slipped past the wave construction;
            # refusing to race it keeps the committed state serialisable
            outcome.status = RUN_DEFERRED
            outcome.error = exc
            gate.abandon()
            return outcome
        try:
            with self.db.commit_scope(self.commit_scope), \
                    gates.install(gate), self.clock.use_lane(lane), \
                    durable.deferred_fsyncs() as written, \
                    self.hybrid.jcf.staging_sandbox(sandbox_name) as sandbox:
                try:
                    wrapper = getattr(self.hybrid, request.activity)
                    outcome.result = wrapper.run(
                        request.user,
                        request.project,
                        request.library,
                        request.cell_name,
                        **request.kwargs,
                    )
                    outcome.status = RUN_OK
                except CrashFault as exc:
                    outcome.status = RUN_CRASHED
                    outcome.error = exc
                except Exception as exc:
                    outcome.status = RUN_FAILED
                    outcome.error = exc
        finally:
            # any turn the run never reached must still pass, or the
            # rest of the wave waits forever behind it
            gate.abandon()
            acquisition.release()
        outcome.lane_ms = lane.elapsed_ms
        # out of the commit turn: the version files it wrote unsynced,
        # and their directory entries, must be durable before the wave
        # writes the .meta naming them (a crashed run's may stay named)
        written.fsync()
        if outcome.status != RUN_CRASHED:
            # a live run removes what it staged; a crashed one leaves its
            # files on disk for the audit to flag and recover() to reclaim
            sandbox.clear()
        return outcome
