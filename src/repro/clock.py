"""Simulated wall clock and cost model.

The 1995 evaluation ran on Sun workstations against a remote OMS database;
absolute timings are irreproducible.  What *is* reproducible is the cost
structure the paper describes in Section 3.6:

* metadata operations go through the JCF desktop and are cheap and
  size-independent;
* design-data operations copy files to and from the OMS database via the
  UNIX file system — **even for read-only access** — so their cost grows
  with design size and dominates for large designs.

``SimClock`` makes that structure explicit and deterministic.  Every
subsystem charges abstract cost units (milliseconds of simulated time)
through a shared clock, and the benchmarks report simulated latencies that
depend only on the workload, never on the host machine.  pytest-benchmark
separately measures real wall time of the in-memory code paths.

Concurrency (the parallel coupled-run scheduler) adds *lanes*: a lane is
a private simulated timeline for one concurrent run.  While a thread has
a lane bound (:meth:`SimClock.use_lane`), its charges advance the lane
instead of the master clock; category totals still accumulate globally,
so ``elapsed_by_category`` reports **summed resource time** while
``now_ms`` — after the scheduler folds lane ends back with
:meth:`SimClock.advance_to` — reports **critical-path makespan**.  Lane
starts are pinned by the scheduler to the wave start, so lane-relative
timestamps depend only on the workload, never on thread interleaving.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
from collections import Counter
from typing import Dict, List, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Charging rates (simulated milliseconds) for framework operations.

    The default rates are scaled from the qualitative statements of the
    paper: metadata operations are "sufficiently high" performance (fast,
    flat); copies charge per byte; UI interactions charge per dialog.
    """

    metadata_op_ms: float = 5.0
    #: per-byte cost of copying design data between OMS and the UNIX file
    #: system (the Section 2.1 staging path).
    copy_byte_ms: float = 0.0005
    #: fixed overhead per staged file (open/close, directory update).
    copy_file_ms: float = 20.0
    #: a native FMCAD library access does not cross the OMS boundary; it
    #: still touches the file system, but far more cheaply.
    native_byte_ms: float = 0.0001
    native_file_ms: float = 5.0
    #: one user-interface interaction (menu pick, dialog, form submit).
    ui_interaction_ms: float = 1500.0
    #: switching between distinct user interfaces (JCF desktop <-> FMCAD
    #: tool windows) — the Section 3.4 drawback.
    ui_context_switch_ms: float = 4000.0
    tool_startup_ms: float = 2500.0
    lock_wait_poll_ms: float = 1000.0
    #: base backoff before retrying a transient fault; doubles per attempt.
    retry_backoff_ms: float = 250.0
    #: durable flush of one OMS commit.  Zero by default so single-run
    #: workloads keep their historical cost profile; the scheduler's
    #: group-commit benchmark sets it non-zero to show that a wave of N
    #: runs pays this once, not N times.
    commit_flush_ms: float = 0.0


class Lane:
    """A private simulated timeline for one concurrent run.

    Created via :meth:`SimClock.open_lane`; bound to a thread with
    :meth:`SimClock.use_lane`.  All charges made while bound advance the
    lane's ``now_ms`` instead of the master clock.
    """

    __slots__ = ("name", "start_ms", "_now_ms")

    def __init__(self, name: str, start_ms: float) -> None:
        self.name = name
        self.start_ms = start_ms
        self._now_ms = start_ms

    @property
    def now_ms(self) -> float:
        return self._now_ms

    @property
    def elapsed_ms(self) -> float:
        """Simulated time this lane has consumed since it opened."""
        return self._now_ms - self.start_ms


class _LaneBinding(threading.local):
    def __init__(self) -> None:
        self.stack: List[Lane] = []


class DeadlineTimers:
    """Deterministic expiry timers on caller-supplied timestamps.

    A min-heap of ``(due_ms, key)`` entries driven entirely by the
    caller's clock — simulated time in the deterministic engine and the
    lease unit tests, wall time in the asyncio server — so a timer lane
    never needs a wall-clock sleep to fire.  Re-scheduling a key
    replaces its deadline (stale heap entries are dropped lazily), and
    :meth:`pop_due` returns every key whose deadline has passed, in
    deadline order.  Thread-safe: the serving engine schedules from
    shard executor threads and pops from the pump.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._heap: List[Tuple[float, int, str]] = []
        self._due: Dict[str, float] = {}
        self._seq = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._due)

    def schedule(self, key: str, due_ms: float) -> None:
        """Arm (or re-arm) *key* to fire at *due_ms*."""
        with self._mutex:
            self._seq += 1
            self._due[key] = due_ms
            heapq.heappush(self._heap, (due_ms, self._seq, key))

    def cancel(self, key: str) -> bool:
        """Disarm *key*; returns whether it was armed."""
        with self._mutex:
            return self._due.pop(key, None) is not None

    def next_due_ms(self) -> Optional[float]:
        """Earliest armed deadline, or ``None`` when nothing is armed."""
        with self._mutex:
            self._drop_stale()
            return self._heap[0][0] if self._heap else None

    def pop_due(self, now_ms: float) -> List[str]:
        """Fire every timer with ``due_ms <= now_ms``, in deadline order."""
        fired: List[str] = []
        with self._mutex:
            while self._heap:
                due_ms, _, key = self._heap[0]
                if self._due.get(key) != due_ms:
                    heapq.heappop(self._heap)  # cancelled or re-armed
                    continue
                if due_ms > now_ms:
                    break
                heapq.heappop(self._heap)
                del self._due[key]
                fired.append(key)
        return fired

    def _drop_stale(self) -> None:
        while self._heap and self._due.get(self._heap[0][2]) != self._heap[0][0]:
            heapq.heappop(self._heap)


class SimClock:
    """Deterministic simulated clock with itemised cost accounting.

    Charges accumulate into a running simulated time.  Each charge is also
    tallied by category so experiments can break latency down into
    metadata / copy / UI / tool components, which is exactly the split
    Section 3.6 discusses.

    Thread-safe: charging is serialised by an internal lock, and a thread
    that has a :class:`Lane` bound charges its lane rather than the master
    clock (see the module docstring for the makespan accounting model).
    """

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self._now_ms: float = 0.0
        self._by_category: Counter = Counter()
        self._lock = threading.RLock()
        self._binding = _LaneBinding()

    # -- reading the clock -------------------------------------------------

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds.

        When the calling thread has a lane bound this is the *lane* time —
        so timestamps taken inside a scheduled run are deterministic
        per-run values, independent of what other workers are doing.
        """
        lane = self.current_lane()
        if lane is not None:
            return lane.now_ms
        return self._now_ms

    def elapsed_by_category(self) -> Dict[str, float]:
        """Total charged milliseconds per category (summed across lanes)."""
        with self._lock:
            return dict(self._by_category)

    # -- lanes -------------------------------------------------------------

    def open_lane(self, name: str, start_ms: Optional[float] = None) -> Lane:
        """Create a lane starting at *start_ms* (default: current now).

        The scheduler passes an explicit wave-start time so every lane of
        a wave starts at the same deterministic instant.  The default is
        lane-aware: a lane opened while the calling thread is itself bound
        to a lane (nested scheduling — e.g. a shard lane driving a batch)
        starts at the *enclosing lane's* current time, not the master's.
        """
        if start_ms is None:
            start = self.now_ms
        else:
            start = start_ms
        return Lane(name, start)

    def use_lane(self, lane: Lane) -> "_LaneContext":
        """Context manager binding *lane* to the calling thread."""
        return _LaneContext(self, lane)

    def current_lane(self) -> Optional[Lane]:
        """The lane bound to the calling thread, if any."""
        stack = self._binding.stack
        return stack[-1] if stack else None

    def advance_to(self, timestamp_ms: float) -> float:
        """Fold a lane end back into the current timeline (makespan merge).

        Moves the calling thread's timeline forward to *timestamp_ms* if
        it is ahead; never moves it backwards.  "Current timeline" is the
        lane bound to the calling thread when there is one, the master
        clock otherwise — so a batch driven from inside a lane (a shard
        executor, a flow step) folds its makespan into *its own* lane and
        leaves the master clock alone until that lane is itself folded.
        Without this, consecutive ``run_many`` batches driven from a lane
        would leak their wave accounting into the master clock while the
        caller's lane never advanced, reporting a zero makespan.

        No category is charged — the resource time was already accounted
        when the lane charged it.
        """
        lane = self.current_lane()
        with self._lock:
            if lane is not None:
                if timestamp_ms > lane._now_ms:
                    lane._now_ms = timestamp_ms
                return lane._now_ms
            if timestamp_ms > self._now_ms:
                self._now_ms = timestamp_ms
            return self._now_ms

    # -- charging ----------------------------------------------------------

    def charge(self, category: str, milliseconds: float) -> float:
        """Advance the clock by *milliseconds*, tagged with *category*.

        Returns the new simulated time (lane time when a lane is bound).
        Negative charges are rejected so a buggy cost computation can
        never run time backwards.
        """
        if milliseconds < 0:
            raise ValueError(f"negative charge: {milliseconds!r} ms for {category!r}")
        lane = self.current_lane()
        with self._lock:
            if lane is not None:
                lane._now_ms += milliseconds
                timestamp = lane._now_ms
            else:
                self._now_ms += milliseconds
                timestamp = self._now_ms
            self._by_category[category] += milliseconds
            return timestamp

    def charge_metadata_op(self, count: int = 1) -> float:
        """Charge *count* JCF-desktop metadata operations."""
        return self.charge("metadata", self.cost_model.metadata_op_ms * count)

    def charge_copy(self, num_bytes: int, files: int = 1) -> float:
        """Charge an OMS <-> file-system staging copy of *num_bytes*."""
        cost = (
            self.cost_model.copy_byte_ms * num_bytes
            + self.cost_model.copy_file_ms * files
        )
        return self.charge("copy", cost)

    def charge_native_io(self, num_bytes: int, files: int = 1) -> float:
        """Charge a native FMCAD library access (no OMS boundary)."""
        cost = (
            self.cost_model.native_byte_ms * num_bytes
            + self.cost_model.native_file_ms * files
        )
        return self.charge("native_io", cost)

    def charge_ui(self, interactions: int = 1) -> float:
        """Charge designer interactions with one user interface."""
        return self.charge("ui", self.cost_model.ui_interaction_ms * interactions)

    def charge_ui_context_switch(self, switches: int = 1) -> float:
        """Charge switches between the JCF and FMCAD user interfaces."""
        return self.charge(
            "ui_switch", self.cost_model.ui_context_switch_ms * switches
        )

    def charge_tool_startup(self) -> float:
        """Charge one FMCAD tool start."""
        return self.charge("tool", self.cost_model.tool_startup_ms)

    def charge_lock_wait(self, polls: int = 1) -> float:
        """Charge waiting on a lock (checkout or reservation)."""
        return self.charge("lock_wait", self.cost_model.lock_wait_poll_ms * polls)

    def charge_retry_backoff(self, attempt: int = 0) -> float:
        """Charge the bounded-exponential backoff before retry *attempt*+1."""
        return self.charge(
            "retry_backoff", self.cost_model.retry_backoff_ms * (2 ** attempt)
        )

    def charge_commit_flush(self, commits: int = 1) -> float:
        """Charge the durable flush of *commits* OMS commits.

        Group-commit coalesces a wave's worth of commits into one flush;
        with the default cost model this is free (``commit_flush_ms=0``).
        """
        return self.charge(
            "commit_flush", self.cost_model.commit_flush_ms * commits
        )

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero the clock and all accounting."""
        with self._lock:
            self._now_ms = 0.0
            self._by_category.clear()


class _LaneContext:
    """Binds a lane to the current thread for the duration of a block."""

    def __init__(self, clock: SimClock, lane: Lane) -> None:
        self._clock = clock
        self._lane = lane

    def __enter__(self) -> Lane:
        self._clock._binding.stack.append(self._lane)
        return self._lane

    def __exit__(self, *exc_info: object) -> None:
        stack = self._clock._binding.stack
        if not stack or stack[-1] is not self._lane:
            raise RuntimeError("lane binding stack corrupted")
        stack.pop()
