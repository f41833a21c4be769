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
import zlib
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
    """Striped per-digest read/write locks for the blob read path.

    The blob store's internal mutex makes each primitive atomic, but it
    also *serialises* them — N readers reconstructing N different
    payloads queue behind one lock.  This table hands each digest a
    (striped) :class:`RWLock`: readers of any digest proceed together,
    while repair/quarantine of a digest takes its write lock and is
    therefore mutually exclusive with every in-flight read of that
    digest — a reader can never observe a half-repaired entry or cache
    bytes that were just quarantined.

    Stripes bound memory: digests hash onto a fixed array of locks, so
    two digests may share a stripe (spurious contention, never a
    correctness issue).  Lock-ordering discipline for users: a stripe
    lock is always acquired OUTSIDE the store mutex, never while
    holding it.
    """

    DEFAULT_STRIPES = 64

    def __init__(self, stripes: int = DEFAULT_STRIPES) -> None:
        if stripes < 1:
            raise ValueError(f"need at least one stripe: {stripes!r}")
        self._stripes: Tuple[RWLock, ...] = tuple(
            RWLock(f"digest-stripe-{index}") for index in range(stripes)
        )

    def stripe_for(self, digest: str) -> RWLock:
        index = zlib.crc32(digest.encode("ascii")) % len(self._stripes)
        return self._stripes[index]

    @contextmanager
    def reading(self, digest: str) -> Iterator[RWLock]:
        """Shared hold on *digest* for the duration of the block."""
        lock = self.stripe_for(digest)
        lock.acquire_read()
        try:
            yield lock
        finally:
            lock.release_read()

    @contextmanager
    def writing(self, digest: str) -> Iterator[RWLock]:
        """Exclusive hold on *digest* (repair/quarantine/invalidate)."""
        lock = self.stripe_for(digest)
        lock.acquire_write()
        try:
            yield lock
        finally:
            lock.release_write()

    def __len__(self) -> int:
        return len(self._stripes)


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


class CompositeAcquisition:
    """Locks granted across several shard managers; strict LIFO release."""

    def __init__(self, parts: List[Acquisition]) -> None:
        #: per-shard acquisitions in ascending shard order
        self._parts = parts
        self._released = False

    @property
    def keys(self) -> List[Tuple[str, str]]:
        return [pair for part in self._parts for pair in part.keys]

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        for part in reversed(self._parts):
            part.release()

    def __enter__(self) -> "CompositeAcquisition":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class ShardedLockManager:
    """Routes each lock key to an independent per-shard :class:`LockManager`.

    The design-server seam: with one global ``LockManager`` every team's
    acquisitions serialise through one bookkeeping mutex and one lock
    namespace.  A ``ShardedLockManager`` gives each shard (assigned by a
    caller-provided ``shard_of(key)`` function — in practice the server's
    consistent-hash map over library names) its own manager, so teams on
    different shards never touch each other's lock tables.

    Deadlock freedom is preserved by a two-level total order: shards are
    acquired in ascending shard id (the "ordered two-shard path" for the
    rare cross-shard request), and keys within a shard in the usual
    :func:`repro.ids.sort_key` order.  Every acquirer uses the same
    order, so no cycle of waiters can form even across shards.

    The facade keeps :class:`LockManager`'s interface (``acquire``,
    ``acquiring``, ``lock_for``, ``stats``) so ``OMSDatabase.locks`` can
    be swapped without touching the scheduler.
    """

    def __init__(
        self,
        shard_of: Callable[[str], int],
        shards: int,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard: {shards!r}")
        self.shard_of = shard_of
        self._managers: Tuple[LockManager, ...] = tuple(
            LockManager() for _ in range(shards)
        )

    @property
    def shard_count(self) -> int:
        return len(self._managers)

    def manager(self, shard_id: int) -> LockManager:
        """The underlying per-shard manager (tests, stats drill-down)."""
        return self._managers[shard_id]

    def _route(self, key: str) -> int:
        shard = self.shard_of(key)
        if not 0 <= shard < len(self._managers):
            raise ValueError(
                f"shard_of({key!r}) = {shard!r} outside 0..{len(self._managers) - 1}"
            )
        return shard

    def lock_for(self, key: str) -> RWLock:
        return self._managers[self._route(key)].lock_for(key)

    def acquire(
        self,
        read: Iterable[str] = (),
        write: Iterable[str] = (),
        blocking: bool = True,
        timeout: Optional[float] = None,
    ) -> CompositeAcquisition:
        """Acquire keys shard by shard in ascending shard id.

        Within each shard the per-shard manager applies its own
        ``sort_key`` order.  On refusal, shards already granted are
        released in reverse before the error propagates — exactly the
        all-or-nothing contract of :meth:`LockManager.acquire`.
        """
        write_keys = set(write)
        modes: Dict[str, str] = {key: "read" for key in read}
        modes.update({key: "write" for key in write_keys})
        by_shard: Dict[int, Dict[str, List[str]]] = {}
        for key, mode in modes.items():
            bucket = by_shard.setdefault(
                self._route(key), {"read": [], "write": []}
            )
            bucket[mode].append(key)
        parts: List[Acquisition] = []
        try:
            for shard_id in sorted(by_shard):
                bucket = by_shard[shard_id]
                parts.append(
                    self._managers[shard_id].acquire(
                        read=bucket["read"],
                        write=bucket["write"],
                        blocking=blocking,
                        timeout=timeout,
                    )
                )
        except LockContentionError:
            for part in reversed(parts):
                part.release()
            raise
        return CompositeAcquisition(parts)

    @contextmanager
    def acquiring(
        self,
        read: Iterable[str] = (),
        write: Iterable[str] = (),
        blocking: bool = True,
        timeout: Optional[float] = None,
    ) -> Iterator[CompositeAcquisition]:
        """``with``-style :meth:`acquire`."""
        acquisition = self.acquire(
            read=read, write=write, blocking=blocking, timeout=timeout
        )
        try:
            yield acquisition
        finally:
            acquisition.release()

    def stats(self) -> Dict[str, object]:
        """Aggregate totals plus a per-shard breakdown under ``"shards"``."""
        per_shard = {
            shard_id: manager.stats()
            for shard_id, manager in enumerate(self._managers)
        }
        totals = {
            "locks": sum(s["locks"] for s in per_shard.values()),
            "acquisitions": sum(s["acquisitions"] for s in per_shard.values()),
            "contentions": sum(s["contentions"] for s in per_shard.values()),
        }
        totals["shards"] = per_shard
        return totals
