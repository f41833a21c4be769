"""Deterministic phase ordering for concurrently scheduled runs.

The parallel scheduler promises a snapshot **bit-identical** to the
sequential execution of the same batch.  Everything snapshot-visible
that a coupled run produces — oid allocation order, link insertion,
attribute timestamps — happens in two narrow windows of the run
protocol: the *open* section (start activity, open the tool session)
and the *commit* section (harvest transaction, cross-tags, finish
activity).  The long middle — staging file I/O and
the tool step itself — allocates nothing snapshot-visible.

A :class:`Turnstile` is a condition-variable counter that admits run 0,
then run 1, ... of one wave.  Each scheduled run gets a :class:`RunGate`
holding the wave's two turnstiles (open, commit) and the run's fixed
turn index.  The tool wrapper brackets its open and commit sections in
``with gate.ordered():`` — the first call consumes the open turnstile,
the second the commit turnstile.  Since every wave executes those
sections in the same turn order no matter how many workers race the
middles, the snapshot cannot observe the parallelism.

Outside the scheduler nothing is installed and :func:`current_gate`
returns the shared :class:`NullGate`, whose ``ordered()`` is a no-op —
single runs behave exactly as they always did.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, List, Optional, Sequence


class Turnstile:
    """Admits turn 0, then 1, ... — one holder inside at a time."""

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size
        self._cond = threading.Condition()
        self._next = 0

    @contextlib.contextmanager
    def turn(self, index: int) -> Iterator[None]:
        """Hold the turnstile for turn *index*; blocks until it comes up.

        The turn is passed on (the counter advances) even when the body
        raises — a crashed run must never wedge the runs behind it.
        """
        if not 0 <= index < self.size:
            raise ValueError(
                f"turnstile {self.name}: turn {index} out of range "
                f"[0, {self.size})"
            )
        with self._cond:
            self._cond.wait_for(lambda: self._next == index)
        try:
            yield
        finally:
            with self._cond:
                self._next += 1
                self._cond.notify_all()

    @property
    def position(self) -> int:
        with self._cond:
            return self._next


class NullGate:
    """The no-scheduler gate: ordering sections run immediately."""

    @contextlib.contextmanager
    def ordered(self) -> Iterator[None]:
        yield

    def abandon(self) -> None:
        pass


class RunGate:
    """One scheduled run's pass through its wave's ordered sections.

    Consumes the wave turnstiles in sequence: the first
    ``with gate.ordered():`` block takes this run's turn on the first
    turnstile, the second block on the second, and so on.  Extra calls
    beyond the configured turnstiles degrade to no-ops, so a code path
    with more ordering sections than the scheduler anticipated still
    runs (it just isn't cross-run ordered there).
    """

    def __init__(self, turnstiles: Sequence[Turnstile], index: int) -> None:
        self._turnstiles: List[Turnstile] = list(turnstiles)
        self.index = index
        self._consumed = 0

    @contextlib.contextmanager
    def ordered(self) -> Iterator[None]:
        if self._consumed >= len(self._turnstiles):
            yield
            return
        turnstile = self._turnstiles[self._consumed]
        self._consumed += 1
        with turnstile.turn(self.index):
            yield

    def abandon(self) -> None:
        """Take and immediately pass every remaining turn.

        Called by the scheduler when a run ends (normally or by fault):
        any turnstile the run never reached must still see its turn go
        by, or every later run in the wave would wait forever.
        """
        while self._consumed < len(self._turnstiles):
            turnstile = self._turnstiles[self._consumed]
            self._consumed += 1
            with turnstile.turn(self.index):
                pass


_NULL_GATE = NullGate()
_current = threading.local()


def current_gate():
    """The gate bound to the calling thread (NullGate when unscheduled)."""
    return getattr(_current, "gate", None) or _NULL_GATE


@contextlib.contextmanager
def install(gate: RunGate) -> Iterator[RunGate]:
    """Bind *gate* to the calling thread for the duration of the block."""
    previous: Optional[RunGate] = getattr(_current, "gate", None)
    _current.gate = gate
    try:
        yield gate
    finally:
        _current.gate = previous
