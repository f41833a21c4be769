"""Batch coalescing: self-clocked, size- and deadline-bounded windows.

One coupled run through ``run_many`` pays conflict-graph construction,
wave levelling, a worker pool and a group commit; amortising that over a
*window* of requests is where serving throughput comes from.  A
:class:`ShardBatcher` accumulates admitted requests for one shard and
decides when the window flushes.  It has two policies:

* **timer windows** (``clocked=False``, the deterministic conductor) —
  flush on **size** (the window reached ``max_batch``) or on
  **deadline** (its *oldest* request has waited ``window_ms``).  An
  open-loop replay has no completions to clock on, so its batches stay a
  pure function of arrival times.
* **self-clocked windows** (``clocked=True``, the threaded engine) — the
  shard keeps at most one window-flushed batch in flight.  Requests that
  arrive while it runs wait in the window; when it finishes, the shard's
  *expected width* becomes the runs outstanding at that instant (the
  finished batch plus everything queued behind it), and an idle shard
  flushes as soon as its window holds that many.  The window a
  completion leaves is short by the finished runs; the submits that
  bring them back flush it.  A closed loop of N clients therefore
  converges to N-wide batches without waiting on a timer, and a lone
  client is served at once (the width starts at 1).  ``max_batch``
  still flushes at once.  ``window_ms`` only bounds how long an *idle*
  shard holds a short window (a client that never came back); that
  fallback flush resets the expected width to what it flushed, and
  never fires while a batch is in flight — a deadline flush into a busy
  shard would split its waves.

The batcher is transport- and time-agnostic: callers pass ``now_ms``
(simulated time in the deterministic engine, loop time in the asyncio
server), report completions through :meth:`complete` and drive flushes
themselves, so the policy is testable without a clock or an event loop.
Every flush decision and the in-flight mark it implies happen under one
mutex, so a submit racing a completion cannot lose the wakeup.
"""

from __future__ import annotations

import threading
from typing import Generic, List, Optional, TypeVar

T = TypeVar("T")


class ShardBatcher(Generic[T]):
    """Accumulates one shard's admitted requests into flushable windows."""

    def __init__(
        self,
        shard_id: int,
        max_batch: int,
        window_ms: float,
        clocked: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch!r}")
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0: {window_ms!r}")
        self.shard_id = shard_id
        self.max_batch = max_batch
        self.window_ms = window_ms
        self.clocked = clocked
        self._mutex = threading.Lock()
        self._pending: List[T] = []
        self._deadline_ms: Optional[float] = None
        #: flushed batches (and their runs) not yet reported complete
        self._in_flight = 0
        self._in_flight_runs = 0
        #: runs the next window waits for before an idle shard flushes it
        self.expected_width = 1
        self.flushes_by_size = 0
        self.flushes_by_deadline = 0
        self.flushes_by_clock = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def deadline_ms(self) -> Optional[float]:
        """When the current window must flush, or ``None`` if empty."""
        return self._deadline_ms

    @property
    def in_flight(self) -> int:
        """Flushed batches not yet reported complete (clocked mode)."""
        return self._in_flight

    def add(self, item: T, now_ms: float) -> Optional[List[T]]:
        """Queue *item*; returns the window if this add flushed it."""
        with self._mutex:
            if not self._pending:
                self._deadline_ms = now_ms + self.window_ms
            self._pending.append(item)
            if len(self._pending) >= self.max_batch:
                self.flushes_by_size += 1
                return self._take()
            if (
                self.clocked
                and not self._in_flight
                and len(self._pending) >= self.expected_width
            ):
                self.flushes_by_clock += 1
                return self._take()
            return None

    def complete(self, runs: int, now_ms: float) -> None:
        """Report a flushed batch of *runs* (>= 1) finished (clocked mode).

        Sets the expected width to the runs outstanding now — the batch
        plus every run queued behind it.  The window left behind is short
        of that width by at least the finished runs, whose clients are
        expected back, so a completion never flushes by itself; the
        submits that refill the window do.  An idle shard keeping a
        short window starts its fallback hold now: time spent queued
        behind a busy shard does not count against ``window_ms``.
        """
        with self._mutex:
            self._in_flight -= 1
            self._in_flight_runs -= runs
            outstanding = runs + self._in_flight_runs + len(self._pending)
            self.expected_width = min(outstanding, self.max_batch)
            if self._pending and not self._in_flight:
                self._deadline_ms = now_ms + self.window_ms

    def due(self, now_ms: float) -> bool:
        """True when the open window's fallback deadline would flush it."""
        with self._mutex:
            return self._due(now_ms)

    def flush_due(self, now_ms: float) -> Optional[List[T]]:
        """Flush the window if its deadline has passed.

        In clocked mode only an idle shard flushes this way, and the
        expected width drops to what the fallback flushed.
        """
        with self._mutex:
            if not self._due(now_ms):
                return None
            self.flushes_by_deadline += 1
            if self.clocked:
                self.expected_width = len(self._pending)
            return self._take()

    def flush(self) -> List[T]:
        """Flush whatever is pending (drain/shutdown).

        In clocked mode a busy shard keeps its window: the caller waits
        for the batch in flight and flushes again, so a drain does not
        split a wave either.
        """
        with self._mutex:
            if self.clocked and self._in_flight:
                return []
            return self._take()

    def remove(self, item: T) -> bool:
        """Pull *item* out of the open window (client gone before flush).

        Identity comparison, not equality: the engine cancels a specific
        pending run object.  An emptied window drops its deadline so the
        fallback does not dispatch a zero-length batch.
        """
        with self._mutex:
            for index, queued in enumerate(self._pending):
                if queued is item:
                    del self._pending[index]
                    if not self._pending:
                        self._deadline_ms = None
                    return True
            return False

    def _due(self, now_ms: float) -> bool:
        if self._deadline_ms is None or now_ms < self._deadline_ms:
            return False
        return not (self.clocked and self._in_flight)

    def _take(self) -> List[T]:
        taken = self._pending
        self._pending = []
        self._deadline_ms = None
        if self.clocked and taken:
            self._in_flight += 1
            self._in_flight_runs += len(taken)
        return taken
