"""Read/write lock manager for concurrent access to OMS-managed state.

The parallel coupled-run scheduler (:mod:`repro.core.scheduler`) executes
several tool runs at once.  Structural integrity of the shared stores is
guaranteed by their own internal mutexes (``OMSDatabase``, ``BlobStore``,
``StagingArea`` each serialise their primitive operations); what those
mutexes cannot give is *run-level isolation* — two runs interleaving
checkout/checkin on the same cellview would still corrupt each other's
logical view.  ``LockManager`` provides that layer: named read/write
locks at whatever granularity the caller chooses (per design object, per
relation, per cell).

Deadlock freedom by construction: :meth:`LockManager.acquire` takes every
requested key in one call and locks them in the global numeric-aware
order of :func:`repro.ids.sort_key`.  Since every holder acquires in the
same total order, no cycle of waiters can form.  Lock *upgrades* (read →
write by the same thread) are refused with
:class:`~repro.errors.LockContentionError` instead of deadlocking.

The scheduler acquires with ``blocking=False``: its conflict graph should
already have serialised conflicting runs into different waves, so a
contended lock means the graph missed an edge — the run is requeued, not
blocked, because blocking inside a wave could deadlock against the
wave's deterministic commit ordering.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import LockContentionError
from repro.ids import sort_key


class RWLock:
    """One named lock: many concurrent readers or one writer.

    Not reentrant across modes: a thread that holds the lock (either
    mode) and asks for it again in a conflicting mode gets a
    :class:`LockContentionError` rather than a deadlock.  Re-acquiring
    read while holding read is permitted (counted).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._cond = threading.Condition()
        #: thread ident -> read hold count
        self._readers: Dict[int, int] = {}
        self._writer: Optional[int] = None

    # -- acquisition -------------------------------------------------------

    def acquire_read(
        self, blocking: bool = True, timeout: Optional[float] = None
    ) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                raise LockContentionError(
                    f"{self.name}: cannot take read lock while holding write"
                )
            if me in self._readers:  # reentrant read: just count
                self._readers[me] += 1
                return
            if not self._wait(lambda: self._writer is None, blocking, timeout):
                raise LockContentionError(
                    f"{self.name}: read lock unavailable (writer active)"
                )
            self._readers[me] = 1

    def acquire_write(
        self, blocking: bool = True, timeout: Optional[float] = None
    ) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                raise LockContentionError(
                    f"{self.name}: lock upgrade/reentrant write refused"
                )
            free = lambda: self._writer is None and not self._readers
            if not self._wait(free, blocking, timeout):
                raise LockContentionError(
                    f"{self.name}: write lock unavailable"
                )
            self._writer = me

    def _wait(self, predicate, blocking: bool, timeout: Optional[float]) -> bool:
        """Wait (under the condition) until *predicate*; False on failure."""
        if predicate():
            return True
        if not blocking:
            return False
        return self._cond.wait_for(predicate, timeout=timeout)

    # -- release -----------------------------------------------------------

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            count = self._readers.get(me)
            if count is None:
                raise LockContentionError(
                    f"{self.name}: releasing a read lock not held"
                )
            if count > 1:
                self._readers[me] = count - 1
            else:
                del self._readers[me]
                self._cond.notify_all()

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise LockContentionError(
                    f"{self.name}: releasing a write lock not held"
                )
            self._writer = None
            self._cond.notify_all()

    # -- introspection -----------------------------------------------------

    def holders(self) -> Tuple[Optional[int], List[int]]:
        """(writer thread ident or None, list of reader idents)."""
        with self._cond:
            return self._writer, sorted(self._readers)


class DigestLockTable:
    """The blob read path's reader/writer lock.

    The blob store's internal mutex makes each primitive atomic, but it
    also *serialises* them — N readers reconstructing N payloads would
    queue behind one lock.  This table holds one :class:`RWLock` per
    store instead: readers of any digest hold it together, while
    repair/quarantine takes it exclusively and is therefore mutually
    exclusive with every in-flight read — a reader can never observe a
    half-repaired entry or cache bytes that were just quarantined.

    Lock-ordering discipline for users: this lock is always acquired
    OUTSIDE the store mutex, never while holding it.
    """

    def __init__(self) -> None:
        self._lock = RWLock("blob-digests")

    @contextmanager
    def reading(self, digest: str) -> Iterator[RWLock]:
        """Shared hold covering a read of *digest*."""
        self._lock.acquire_read()
        try:
            yield self._lock
        finally:
            self._lock.release_read()

    @contextmanager
    def writing(self, digest: str) -> Iterator[RWLock]:
        """Exclusive hold for repair/quarantine of *digest*."""
        self._lock.acquire_write()
        try:
            yield self._lock
        finally:
            self._lock.release_write()


class Acquisition:
    """A granted set of locks; release with :meth:`release` or ``with``."""

    def __init__(self, manager: "LockManager", granted: List[Tuple[str, str]]):
        self._manager = manager
        #: (key, mode) pairs in acquisition (global sort) order
        self._granted = granted
        self._released = False

    @property
    def keys(self) -> List[Tuple[str, str]]:
        return list(self._granted)

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._manager._release_all(self._granted)

    def __enter__(self) -> "Acquisition":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class LockManager:
    """Named read/write locks acquired in global ``sort_key`` order."""

    def __init__(self) -> None:
        self._locks: Dict[str, RWLock] = {}
        self._mutex = threading.Lock()
        #: blocking acquisitions that had to wait + non-blocking refusals
        self.contentions = 0
        #: total acquire() calls that were granted
        self.acquisitions = 0

    def lock_for(self, key: str) -> RWLock:
        """The (lazily created) lock guarding *key*."""
        with self._mutex:
            lock = self._locks.get(key)
            if lock is None:
                lock = RWLock(key)
                self._locks[key] = lock
            return lock

    def acquire(
        self,
        read: Iterable[str] = (),
        write: Iterable[str] = (),
        blocking: bool = True,
        timeout: Optional[float] = None,
    ) -> Acquisition:
        """Atomically acquire every requested key; write supersedes read.

        Keys are locked in global :func:`sort_key` order regardless of
        the order given, which makes concurrent acquirers deadlock-free.
        On failure (non-blocking refusal or timeout) every lock already
        taken is released before :class:`LockContentionError` propagates.
        """
        write_keys = set(write)
        modes: Dict[str, str] = {key: "read" for key in read}
        modes.update({key: "write" for key in write_keys})
        ordered = sorted(modes, key=sort_key)
        granted: List[Tuple[str, str]] = []
        try:
            for key in ordered:
                mode = modes[key]
                lock = self.lock_for(key)
                if mode == "write":
                    lock.acquire_write(blocking=blocking, timeout=timeout)
                else:
                    lock.acquire_read(blocking=blocking, timeout=timeout)
                granted.append((key, mode))
        except LockContentionError:
            with self._mutex:
                self.contentions += 1
            self._release_all(granted)
            raise
        with self._mutex:
            self.acquisitions += 1
        return Acquisition(self, granted)

    @contextmanager
    def acquiring(
        self,
        read: Iterable[str] = (),
        write: Iterable[str] = (),
        blocking: bool = True,
        timeout: Optional[float] = None,
    ) -> Iterator[Acquisition]:
        """``with``-style :meth:`acquire`."""
        acquisition = self.acquire(
            read=read, write=write, blocking=blocking, timeout=timeout
        )
        try:
            yield acquisition
        finally:
            acquisition.release()

    # -- internals ---------------------------------------------------------

    def _release_all(self, granted: Sequence[Tuple[str, str]]) -> None:
        """Release in reverse acquisition order (strict LIFO discipline)."""
        for key, mode in reversed(granted):
            lock = self.lock_for(key)
            if mode == "write":
                lock.release_write()
            else:
                lock.release_read()

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "locks": len(self._locks),
                "acquisitions": self.acquisitions,
                "contentions": self.contentions,
            }
