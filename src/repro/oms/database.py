"""The OMS database: object storage, links, transactions, closed interface."""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.clock import SimClock
from repro.errors import (
    ClosedInterfaceError,
    OMSError,
    RelationshipError,
    SchemaError,
    TransactionError,
    UnknownObjectError,
    WALSyncError,
)
from repro.faults import CrashFault, FailStop
from repro.ids import IdAllocator, sort_key
from repro.oms.blobs import BlobStat, BlobStore, PayloadHandle
from repro.oms.links import LinkStore
from repro.oms.locks import LockManager
from repro.oms.objects import OMSObject
from repro.oms.schema import RelationshipDef, Schema
from repro.oms.transactions import GroupCommit, Transaction


class DirectAccess:
    """Procedural access to stored payloads, bypassing file staging.

    JCF 3.0 does **not** offer this ("Direct access to the internal
    structure of the stored data by an appropriate interface is not
    possible", Section 2.1); the paper's future work (Section 3.3)
    envisages exactly such a procedural interface.  It exists here purely
    as the ablation arm of the Section 3.6 performance experiment and is
    only reachable when the database was built with
    ``enable_procedural_interface=True``.
    """

    def __init__(self, database: "OMSDatabase") -> None:
        self._database = database

    def read_payload(self, oid: str) -> Optional[bytes]:
        """Read a design-data payload in place — no copy, metadata cost only."""
        obj = self._database.get(oid)
        self._database.clock.charge_metadata_op()
        return obj.payload

    def write_payload(self, oid: str, payload: bytes) -> None:
        """Write a design-data payload in place."""
        self._database.set_payload(oid, payload)
        self._database.clock.charge_metadata_op()


def _synchronized(method):
    """Serialise one public store operation on the database mutex.

    Primitive reads and writes become atomic with respect to each other;
    the mutex is reentrant, so journalled undos (which call mutating
    primitives back during an abort) and predicate callbacks that issue
    further queries are safe.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._mutex:
            return method(self, *args, **kwargs)

    return wrapper


class OMSDatabase:
    """Schema-checked object store with links, transactions and staging.

    All mutating primitives journal their inverses into the active
    transaction (if any), so a JCF desktop operation that fails midway
    rolls back atomically.

    Thread-safety is layered: the internal reentrant mutex makes every
    primitive operation atomic (no torn index updates), per-thread
    transactions keep undo journals private to their worker, and the
    :class:`~repro.oms.locks.LockManager` in :attr:`locks` gives the
    scheduler run-level isolation on top.
    """

    def __init__(
        self,
        schema: Schema,
        clock: Optional[SimClock] = None,
        allocator: Optional[IdAllocator] = None,
        enable_procedural_interface: bool = False,
        policy: Optional[Dict[str, bool]] = None,
    ) -> None:
        self.schema = schema
        self.clock = clock or SimClock()
        self._allocator = allocator or IdAllocator()
        self._objects: Dict[str, OMSObject] = {}
        #: per-type extents (type name -> {oid: object}) in id order, and
        #: the name index ((type name, name) -> {oid: object}) of every
        #: entity with a ``str`` name attribute; like the link store they
        #: are mutated ONLY via _insert_object/_remove_object/_set_value
        self._extents: Dict[str, Dict[str, OMSObject]] = {}
        self._names: Dict[Tuple[str, str], Dict[str, OMSObject]] = {}
        #: types whose extent took an out-of-order insert (an undone
        #: delete, a WAL replay of interleaved transactions); re-sorted
        #: by the next ordered walk
        self._unsorted: Set[str] = set()
        #: type name -> whether it is name-indexed (see _name_indexed)
        self._named_types: Dict[str, bool] = {}
        #: content-addressed payload table; every stored payload is
        #: interned here, so identical design data is held exactly once
        self._blobs = BlobStore()
        #: adjacency-indexed link store; mutated ONLY via _link_add/_link_remove
        self._link_index = LinkStore()
        #: per-thread active transaction — under the parallel scheduler
        #: every worker runs its own undo journal
        self._txn_local = threading.local()
        #: serialises every structural read/write of the shared stores;
        #: reentrant because journalled undos call mutating primitives
        #: back while an abort holds the lock
        self._mutex = threading.RLock()
        #: run-level read/write isolation for the scheduler (coarser than
        #: the mutex: held across a whole coupled run, not one primitive)
        self.locks = LockManager()
        #: open group-commit batches by scope.  Scope ``""`` is the
        #: classic whole-database group; the design server opens one
        #: scope per shard so concurrent shard waves coalesce their own
        #: commits without seeing each other's groups.
        self._commit_groups: Dict[str, GroupCommit] = {}
        #: per-thread commit-scope binding (see :meth:`commit_scope`)
        self._scope_local = threading.local()
        #: durable-flush accounting for the group-commit experiment
        self.commit_count = 0
        self.flush_count = 0
        self.coalesced_commits = 0
        self._procedural_interface_enabled = enable_procedural_interface
        #: framework policy switches consulted by the typed wrappers
        #: (e.g. the cross-project-sharing future-work extension)
        self.policy: Dict[str, bool] = dict(policy or {})
        #: attached write-ahead log (see oms/wal.py); when set, every
        #: committed change set appends one durable record
        self.wal = None
        #: why the database stopped (see :meth:`fail_stop`), or None
        self.stopped: Optional[str] = None
        #: monotone counter bumped by every structural mutation (and by
        #: transaction commit/abort, since undo closures bypass the
        #: public mutators) — the QueryEngine memo's validity token
        self.mutation_epoch = 0
        #: shared materialization cache, if attached (read-path PR)
        self._read_cache = None

    # -- read path -------------------------------------------------------------

    @property
    def read_cache(self):
        """The attached :class:`MaterializationCache`, or ``None``."""
        return self._read_cache

    def attach_read_cache(self, cache) -> None:
        """Serve verified payload reads from (and into) *cache*.

        The cache is digest-keyed, so it is shared safely with every
        other consumer addressing bytes by the same content address
        (FMCAD libraries, the coupled-run harvest).
        """
        self._read_cache = cache
        self._blobs.attach_cache(cache)

    def _bump_epoch(self) -> None:
        self.mutation_epoch += 1

    # -- write-ahead log -------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Log every committed change set to *wal* from now on.

        Attach only after recovery/restore: replayed primitives must not
        be logged again (the replay path runs against an unattached
        database).
        """
        self.wal = wal

    def fail_stop(self, reason: str) -> FailStop:
        """Stop for good: memory holds commits the log will never have.

        Called when committed changes can neither be logged nor undone —
        a scheduler wave whose version files, ``.meta`` or group record
        cannot be made durable — and when a WAL record was written but
        its fsync failed, so the log may hold a commit memory would
        otherwise abort.  From now on
        every transaction, commit group, WAL append and checkpoint
        raises :class:`~repro.faults.FailStop`, so no later commit can
        build on the unlogged ones and no checkpoint can make them
        durable.  Only a reopen (which replays the log) clears it.
        Returns the exception for the caller to raise.
        """
        with self._mutex:
            if self.stopped is None:
                self.stopped = reason
        return FailStop(
            f"database stopped: {self.stopped}; reopen and recover"
        )

    def refuse_if_stopped(self) -> None:
        """Raise :class:`~repro.faults.FailStop` once :meth:`fail_stop` ran."""
        if self.stopped is not None:
            raise self.fail_stop(self.stopped)

    def _wal_log(self, op: Dict[str, Any], undo: Callable[[], None]) -> None:
        """Journal one successful primitive mutation and log it.

        Inside a transaction *undo* joins the per-thread undo journal and
        the op is buffered beside it, landing as one record at commit.
        An auto-committed primitive pays its own record; when the WAL
        refuses it before the record is written, *undo* rolls it back,
        as an aborted transaction would be.  Undo closures call private
        primitives, so rollbacks never reach here.
        """
        txn = self._active_txn
        if txn is not None:
            txn.record_undo(undo)
            if self.wal is not None:
                txn.record_wal(op)
            return
        if self.wal is None:
            return
        try:
            self._wal_commit([op])
        except WALSyncError as exc:
            raise self.fail_stop(f"auto-commit: {exc}") from exc
        except BaseException:
            undo()
            self._bump_epoch()
            raise

    def _wal_commit(self, ops: List[Dict[str, Any]]) -> None:
        """Append one committed change set, honouring group commit."""
        if self.wal is None or not ops:
            return
        self.refuse_if_stopped()
        with self._mutex:
            group = self._current_group()
            if group is not None and not group.closed:
                group.buffer_wal(ops)
                return
        self.wal.commit(ops)

    # -- transactions ---------------------------------------------------------

    @property
    def _active_txn(self) -> Optional[Transaction]:
        return getattr(self._txn_local, "txn", None)

    @_active_txn.setter
    def _active_txn(self, txn: Optional[Transaction]) -> None:
        self._txn_local.txn = txn

    @property
    def in_transaction(self) -> bool:
        """True while a transaction block is active **on this thread**.

        Durability-sensitive writers (the coupling intent journal) check
        this: an intent written inside somebody's transaction would
        vanish on abort, defeating its purpose.
        """
        return self._active_txn is not None

    @contextlib.contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Run a block atomically; rolls back all mutations on exception.

        Transactions are per-thread: concurrent workers each journal
        into their own transaction, while the primitive mutations they
        make are serialised by the store mutex.
        """
        if self._active_txn is not None:
            # Nested blocks join the outer transaction: the outermost
            # commit/abort decides the fate of everything.
            yield self._active_txn
            return
        self.refuse_if_stopped()
        txn = Transaction(self._allocator.allocate("txn"))
        self._active_txn = txn
        try:
            yield txn
            # write-ahead: the change set is logged (or buffered into the
            # open commit group) before the commit is final, so a refused
            # append aborts the transaction like a raising block would —
            # an aborted block's buffered ops never touch the log
            self._wal_commit(txn.wal_ops)
        except WALSyncError as exc:
            # the record is in the log, maybe durable: memory keeps the
            # commit a reopen may replay, and nothing builds on it
            self._active_txn = None
            txn.commit()
            with self._mutex:
                self._bump_epoch()
            raise self.fail_stop(f"transaction: {exc}") from exc
        except BaseException:
            self._active_txn = None
            # roll back under the mutex: the undo closures mutate the
            # shared stores directly — and bypass the public mutators,
            # so the abort itself must advance the mutation epoch
            with self._mutex:
                txn.abort()
                self._bump_epoch()
            raise
        else:
            self._active_txn = None
            txn.commit()
            with self._mutex:
                self._bump_epoch()
            self._note_top_level_commit()

    def _note_top_level_commit(self) -> None:
        """Account the durable flush of one committed top-level txn.

        Inside an open :meth:`group_commit` batch the flush is deferred
        to the group; otherwise it is charged immediately.  With the
        default cost model (``commit_flush_ms=0``) the charge is free
        either way — only the counters move.
        """
        with self._mutex:
            self.commit_count += 1
            group = self._current_group()
            if group is not None:
                group.note_commit()
                return
            self.flush_count += 1
        self.clock.charge_commit_flush()

    def _current_scope(self) -> str:
        return getattr(self._scope_local, "scope", "")

    def _current_group(self) -> Optional[GroupCommit]:
        """The open commit group for the calling thread's scope, if any.

        Callers must hold :attr:`_mutex` (every call site does).
        """
        return self._commit_groups.get(self._current_scope())

    @contextlib.contextmanager
    def commit_scope(self, scope: str) -> Iterator[None]:
        """Bind the calling thread to commit-group *scope* for a block.

        Worker threads executing a shard's wave bind to that shard's
        scope so their transaction commits register with (and buffer WAL
        into) *their* wave's group, not another shard's.  Scopes nest in
        the obvious stack-like way per thread.
        """
        previous = self._current_scope()
        self._scope_local.scope = scope
        try:
            yield
        finally:
            self._scope_local.scope = previous

    @contextlib.contextmanager
    def group_commit(self, scope: str = "") -> Iterator[GroupCommit]:
        """Coalesce all top-level commits in this block into one flush.

        The scheduler opens one group per wave; every run's metadata
        transaction then registers with the group instead of flushing
        individually, and the group pays a single durable flush when it
        closes.  Groups do not nest *within a scope*; independent scopes
        (one per design-server shard) may hold concurrent open groups.
        A commit joins the group of its thread's bound scope (see
        :meth:`commit_scope`); the thread opening the group is bound for
        the duration of the block.

        The group's one WAL record is appended when the block ends, also
        when it raises an ordinary exception: commits that already
        happened stay committed.  A block that dies of
        :class:`~repro.faults.CrashFault` appends nothing — a dead
        process logs nothing, and its side effects outside OMS (a wave's
        ``.meta``) may never have landed.  An append that fails leaves
        the group's commits in memory only, with no way to undo them, so
        it stops the database (:meth:`fail_stop`).
        """
        self.refuse_if_stopped()
        with self._mutex:
            if scope in self._commit_groups:
                raise TransactionError(
                    "group_commit: a commit group is already open"
                    + (f" in scope {scope!r}" if scope else "")
                )
            group = GroupCommit(self._allocator.allocate("commitgroup"))
            self._commit_groups[scope] = group
        crashed = False
        try:
            with self.commit_scope(scope):
                yield group
        except CrashFault:
            crashed = True
            raise
        finally:
            with self._mutex:
                del self._commit_groups[scope]
                commits = group.close()
                pending_wal = group.drain_wal()
                if commits:
                    self.flush_count += 1
                    self.coalesced_commits += commits - 1
            if commits:
                self.clock.charge_commit_flush()
            if pending_wal and self.wal is not None and not crashed:
                # the whole wave's change sets land as one record — one
                # append, one fsync, mirroring the single durable flush
                self.refuse_if_stopped()
                try:
                    self.wal.commit(pending_wal)
                except CrashFault:
                    raise
                except Exception as exc:
                    raise self.fail_stop(
                        f"commit group {group.group_id} not logged: {exc}"
                    ) from exc

    def _journal(self, undo: Callable[[], None]) -> None:
        if self._active_txn is not None:
            self._active_txn.record_undo(undo)

    # -- object lifecycle -------------------------------------------------------

    @_synchronized
    def create(
        self,
        type_name: str,
        values: Optional[Dict[str, Any]] = None,
        payload: Optional[bytes] = None,
        payload_delta_base: Optional[str] = None,
    ) -> OMSObject:
        """Create and store a new object of entity type *type_name*.

        *payload_delta_base* may name the digest of an already-stored
        blob (typically the previous version of the same design object);
        the new payload is then delta-encoded against it when worthwhile.
        """
        entity = self.schema.entity(type_name)
        complete = entity.validate_values(values or {})
        oid = self._allocator.allocate(type_name)
        handle = self._intern_payload(payload, payload_delta_base)
        obj = OMSObject(oid, entity, complete, handle)
        self._insert_object(obj)
        self._bump_epoch()
        self.clock.charge_metadata_op()

        def undo() -> None:
            if self._objects.get(oid) is obj:
                self._remove_object(obj)
            if handle is not None:
                # the object is gone for good, so a plain decref suffices
                self._blobs.decref(handle.digest)
                obj._payload = None
            # stale references held by typed wrappers must observe the
            # rollback, exactly as they observe delete()
            obj._deleted = True

        self._wal_log({
            "op": "create",
            "oid": oid,
            "type": type_name,
            "values": complete,
            "payload": payload,
            "delta_base": payload_delta_base,
        }, undo)
        return obj

    # Every object enters or leaves the store through these primitives,
    # so the id map, the type extents and the name index cannot drift
    # apart: create/delete, their undo closures, set_attr("name"), WAL
    # replay and snapshot restore all call them.

    def _insert_object(self, obj: OMSObject) -> None:
        oid, type_name = obj.oid, obj.type_name
        self._objects[oid] = obj
        extent = self._extents.setdefault(type_name, {})
        # the allocator is monotone per kind, so live creates append in
        # id order; anything else marks the extent for a re-sort
        if extent and sort_key(oid) < sort_key(next(reversed(extent))):
            self._unsorted.add(type_name)
        extent[oid] = obj
        if self._name_indexed(type_name):
            self._names.setdefault(
                (type_name, obj._values["name"]), {}
            )[oid] = obj

    def _remove_object(self, obj: OMSObject) -> None:
        oid, type_name = obj.oid, obj.type_name
        del self._objects[oid]
        del self._extents[type_name][oid]
        if self._name_indexed(type_name):
            self._unindex_name(type_name, obj._values["name"], oid)

    def _unindex_name(self, type_name: str, name: str, oid: str) -> None:
        key = (type_name, name)
        bucket = self._names[key]
        del bucket[oid]
        if not bucket:
            del self._names[key]

    def _set_value(self, obj: OMSObject, name: str, value: Any) -> Any:
        """Set one attribute, re-keying the name index; returns the old value."""
        previous = obj._set(name, value)
        type_name = obj.type_name
        if (
            name == "name"
            and self._name_indexed(type_name)
            and self._objects.get(obj.oid) is obj
        ):
            self._unindex_name(type_name, previous, obj.oid)
            self._names.setdefault((type_name, value), {})[obj.oid] = obj
        return previous

    def _name_indexed(self, type_name: str) -> bool:
        """True when *type_name* has a ``str`` ``name`` attribute."""
        indexed = self._named_types.get(type_name)
        if indexed is None:
            indexed = self._named_types[type_name] = any(
                attr.name == "name" and attr.type_name == "str"
                for attr in self.schema.entity(type_name).attributes
            )
        return indexed

    def get(self, oid: str) -> OMSObject:
        """Return the live object with id *oid*."""
        obj = self._objects.get(oid)
        if obj is None or obj.deleted:
            raise UnknownObjectError(f"no such object: {oid!r}")
        return obj

    def exists(self, oid: str) -> bool:
        obj = self._objects.get(oid)
        return obj is not None and not obj.deleted

    @_synchronized
    def delete(self, oid: str) -> None:
        """Delete an object and all links touching it (O(degree), not O(E)).

        The object's ``deleted`` flag is set so callers holding a stale
        :class:`OMSObject` reference (typed wrappers cache them) observe
        the deletion instead of silently reading removed state.
        """
        obj = self.get(oid)
        removed_links = self._link_index.remove_touching(oid)
        self._remove_object(obj)
        obj._deleted = True
        handle = obj.payload_handle
        freed = self._drop_payload_ref(handle.digest) if handle else None
        self._bump_epoch()
        self.clock.charge_metadata_op()

        def undo() -> None:
            if handle is not None:
                if freed is not None:
                    self._blobs.intern(freed)
                else:
                    self._blobs.incref(handle.digest)
            self._insert_object(obj)
            obj._deleted = False
            for rel_name, pair in removed_links:
                self._link_add(rel_name, *pair)

        self._wal_log({"op": "delete", "oid": oid}, undo)

    @_synchronized
    def set_attr(self, oid: str, name: str, value: Any) -> None:
        """Schema-checked attribute update."""
        obj = self.get(oid)
        previous = self._set_value(obj, name, value)
        self._bump_epoch()
        self.clock.charge_metadata_op()
        self._wal_log(
            {"op": "set_attr", "oid": oid, "name": name, "value": value},
            lambda: self._set_value(obj, name, previous),
        )

    @_synchronized
    def set_payload(
        self,
        oid: str,
        payload: Optional[bytes],
        payload_delta_base: Optional[str] = None,
    ) -> None:
        """Replace an object's design-data payload (journalled).

        The bytes are interned into the content-addressed blob store:
        writing a payload some other object already holds costs a
        refcount bump, not a second copy.
        """
        obj = self.get(oid)
        previous = obj.payload_handle
        handle = self._intern_payload(payload, payload_delta_base)
        obj._payload = handle
        freed = (
            self._drop_payload_ref(previous.digest)
            if previous is not None
            else None
        )
        self._bump_epoch()

        def undo() -> None:
            # restore the previous reference BEFORE dropping the new one:
            # when both are the same blob, the reverse order would free
            # the entry and then incref a digest that no longer exists
            if previous is not None:
                if freed is not None:
                    # the last reference was dropped; re-intern the exact
                    # bytes so the digest (and `previous` handle) is valid
                    # again
                    self._blobs.intern(freed)
                else:
                    self._blobs.incref(previous.digest)
            if handle is not None:
                self._blobs.decref(handle.digest)
            obj._payload = previous

        self._wal_log({"op": "set_payload", "oid": oid, "payload": payload,
                       "delta_base": payload_delta_base}, undo)

    def payload_stat(self, oid: str) -> Optional[BlobStat]:
        """Digest and size of an object's payload in O(1) — no bytes read.

        Returns ``None`` when the object has no payload.  This is the
        probe the copy-on-write staging area uses to decide whether a
        staged file is already up to date.
        """
        handle = self.get(oid).payload_handle
        if handle is None:
            return None
        return self._blobs.stat(handle.digest)

    def describe_payload(self, oid: str) -> Optional[Dict[str, int]]:
        """Storage shape (full/delta, stored bytes, chain depth) of a payload."""
        handle = self.get(oid).payload_handle
        if handle is None:
            return None
        return self._blobs.describe(handle.digest)

    def blob_stats(self) -> Dict[str, int]:
        """Dedup/delta counters of the content-addressed payload store."""
        return self._blobs.stats()

    def check_blobs(self) -> None:
        """Verify every blob-store invariant (property-test hook)."""
        self._blobs.check()

    # -- storage integrity (scrubber hooks) ----------------------------------

    def scrub_payloads(self) -> Dict[str, str]:
        """Re-verify every stored payload; map digest -> damage class."""
        return self._blobs.scrub()

    def repair_payload(self, digest: str, data: bytes) -> None:
        """Overwrite a damaged blob with verified pristine bytes."""
        self._blobs.repair(digest, data)

    def quarantine_payload(self, digest: str) -> None:
        """Mark an unrepairable blob so reads raise instead of serving it."""
        self._blobs.quarantine(digest)

    def quarantined_payloads(self) -> List[str]:
        return self._blobs.quarantined_digests()

    def materialize_payload(
        self, digest: str, verify: Optional[bool] = None
    ) -> bytes:
        """Reconstruct a payload by digest (verified read by default)."""
        return self._blobs.materialize(digest, verify=verify)

    def payload_digest_of(self, oid: str) -> Optional[str]:
        """Content address of an object's payload, or ``None``."""
        handle = self.get(oid).payload_handle
        return None if handle is None else handle.digest

    def payload_digests(self) -> List[str]:
        """Every digest the blob store holds (WAL checkpoint bookkeeping)."""
        return self._blobs.digests()

    @_synchronized
    def verify_payload_refcounts(self) -> List[str]:
        """Cross-check blob refcounts against live object payloads.

        Recomputes, from scratch, how many references each digest should
        hold (one per live object's payload handle, plus delta-base
        references counted by the store itself) and reports every
        mismatch.  Must be called outside any transaction — an open undo
        journal legitimately pins extra references.
        """
        if self.in_transaction:
            raise OMSError(
                "verify_payload_refcounts: cannot audit inside a transaction"
            )
        external: Dict[str, int] = {}
        for obj in self._objects.values():
            if obj.deleted:
                continue
            handle = obj.payload_handle
            if handle is not None:
                external[handle.digest] = external.get(handle.digest, 0) + 1
        return self._blobs.reference_audit(external)

    def _intern_payload(
        self, payload: Optional[bytes], base_digest: Optional[str] = None
    ) -> Optional[PayloadHandle]:
        if payload is None:
            return None
        return PayloadHandle(self._blobs, self._blobs.intern(payload, base_digest))

    def _drop_payload_ref(self, digest: str) -> Optional[bytes]:
        """Drop one payload reference; keep the bytes only if an active
        transaction might need them back on abort."""
        if self._active_txn is not None:
            return self._blobs.release(digest)
        self._blobs.decref(digest)
        return None

    def _attach_payload(self, obj: OMSObject, payload: Optional[bytes]) -> None:
        """Intern *payload* for an object being inserted directly (snapshot
        restore) — bypasses journalling, which restore does not need."""
        obj._payload = self._intern_payload(payload)

    # -- links ---------------------------------------------------------------
    #
    # All mutations flow through _link_add/_link_remove so the forward and
    # reverse adjacency indexes can never desync — in particular every
    # transaction-undo closure calls these primitives rather than mutating
    # a captured set (the old flat-store undo lambdas did exactly that,
    # which silently breaks the moment a second index exists).

    def _link_add(self, rel_name: str, source_oid: str, target_oid: str) -> bool:
        return self._link_index.add(rel_name, source_oid, target_oid)

    def _link_remove(
        self, rel_name: str, source_oid: str, target_oid: str
    ) -> bool:
        return self._link_index.remove(rel_name, source_oid, target_oid)

    def _check_cardinality(
        self, rel: RelationshipDef, source_oid: str, target_oid: str
    ) -> None:
        # O(1): the reverse/forward indexes answer "already linked?" directly
        if rel.cardinality in ("1:1", "1:N"):
            # each target may have at most one source
            src = self._link_index.first_source(rel.name, target_oid)
            if src is not None and src != source_oid:
                raise RelationshipError(
                    f"{rel.name}: target {target_oid} already linked "
                    f"from {src} (cardinality {rel.cardinality})"
                )
        if rel.cardinality in ("1:1", "N:1"):
            # each source may have at most one target
            dst = self._link_index.first_target(rel.name, source_oid)
            if dst is not None and dst != target_oid:
                raise RelationshipError(
                    f"{rel.name}: source {source_oid} already linked "
                    f"to {dst} (cardinality {rel.cardinality})"
                )

    @_synchronized
    def link(self, rel_name: str, source_oid: str, target_oid: str) -> None:
        """Create a typed, cardinality-checked link between two objects."""
        rel = self.schema.relationship(rel_name)
        source = self.get(source_oid)
        target = self.get(target_oid)
        if source.type_name != rel.source_type:
            raise RelationshipError(
                f"{rel_name}: source must be {rel.source_type!r}, "
                f"got {source.type_name!r}"
            )
        if target.type_name != rel.target_type:
            raise RelationshipError(
                f"{rel_name}: target must be {rel.target_type!r}, "
                f"got {target.type_name!r}"
            )
        self._check_cardinality(rel, source_oid, target_oid)
        if not self._link_add(rel_name, source_oid, target_oid):
            return  # idempotent
        self._bump_epoch()
        self.clock.charge_metadata_op()
        self._wal_log(
            {"op": "link", "rel": rel_name, "source": source_oid,
             "target": target_oid},
            lambda: self._link_remove(rel_name, source_oid, target_oid),
        )

    @_synchronized
    def unlink(self, rel_name: str, source_oid: str, target_oid: str) -> None:
        """Remove a link; raises if it does not exist."""
        self.schema.relationship(rel_name)
        if not self._link_remove(rel_name, source_oid, target_oid):
            raise RelationshipError(
                f"{rel_name}: no link {source_oid} -> {target_oid}"
            )
        self._bump_epoch()
        self.clock.charge_metadata_op()
        self._wal_log(
            {"op": "unlink", "rel": rel_name, "source": source_oid,
             "target": target_oid},
            lambda: self._link_add(rel_name, source_oid, target_oid),
        )

    @_synchronized
    def linked(self, rel_name: str, source_oid: str, target_oid: str) -> bool:
        self.schema.relationship(rel_name)
        return self._link_index.contains(rel_name, source_oid, target_oid)

    @_synchronized
    def targets(self, rel_name: str, source_oid: str) -> List[OMSObject]:
        """Objects reachable from *source_oid* over *rel_name* (stable order)."""
        self.schema.relationship(rel_name)
        return [
            self.get(oid)
            for oid in self._link_index.targets_of(rel_name, source_oid)
        ]

    @_synchronized
    def sources(self, rel_name: str, target_oid: str) -> List[OMSObject]:
        """Objects linking to *target_oid* over *rel_name* (stable order)."""
        self.schema.relationship(rel_name)
        return [
            self.get(oid)
            for oid in self._link_index.sources_of(rel_name, target_oid)
        ]

    @_synchronized
    def target_oids(self, rel_name: str, source_oid: str) -> List[str]:
        """Like :meth:`targets` but returns bare oids — no object fetch."""
        self.schema.relationship(rel_name)
        return self._link_index.targets_of(rel_name, source_oid)

    @_synchronized
    def source_oids(self, rel_name: str, target_oid: str) -> List[str]:
        """Like :meth:`sources` but returns bare oids — no object fetch."""
        self.schema.relationship(rel_name)
        return self._link_index.sources_of(rel_name, target_oid)

    @_synchronized
    def out_degree(self, rel_name: str, source_oid: str) -> int:
        """Number of targets of *source_oid* over *rel_name*, O(1)."""
        self.schema.relationship(rel_name)
        return self._link_index.out_degree(rel_name, source_oid)

    @_synchronized
    def in_degree(self, rel_name: str, target_oid: str) -> int:
        """Number of sources of *target_oid* over *rel_name*, O(1)."""
        self.schema.relationship(rel_name)
        return self._link_index.in_degree(rel_name, target_oid)

    @_synchronized
    def neighbors(
        self,
        rel_name: str,
        oids: Sequence[str],
        direction: str = "out",
    ) -> Dict[str, List[OMSObject]]:
        """Batch single-hop expansion over one relation.

        One schema check for the whole batch, one O(degree) index probe
        per oid — the API the JCF services use instead of issuing
        ``targets()``/``sources()`` calls in a loop.  ``direction`` is
        ``"out"`` (follow links forward) or ``"in"`` (backwards).  Only
        oids with at least one neighbor appear in the result.
        """
        self.schema.relationship(rel_name)
        if direction == "out":
            probe = self._link_index.targets_of
        elif direction == "in":
            probe = self._link_index.sources_of
        else:
            raise ValueError(f"direction must be 'out' or 'in': {direction!r}")
        expanded: Dict[str, List[OMSObject]] = {}
        for oid in oids:
            found = probe(rel_name, oid)
            if found:
                expanded[oid] = [self.get(n) for n in found]
        return expanded

    @_synchronized
    def link_pairs(self, rel_name: str) -> Set[Tuple[str, str]]:
        """A copy of the relation's ``(source, target)`` pair set."""
        self.schema.relationship(rel_name)
        return self._link_index.pairs(rel_name)

    @_synchronized
    def relation_names(self) -> List[str]:
        """Relations holding at least one link, sorted by name."""
        return self._link_index.relation_names()

    # -- queries ----------------------------------------------------------------

    @_synchronized
    def select(
        self,
        type_name: str,
        predicate: Optional[Callable[[OMSObject], bool]] = None,
    ) -> List[OMSObject]:
        """All live objects of *type_name*, optionally filtered, id-ordered.

        Walks only that type's extent: O(extent), not O(database).
        """
        self.schema.entity(type_name)  # raises on unknown type
        extent = self._extents.get(type_name, {})
        if type_name in self._unsorted:
            ordered = sorted(extent.items(), key=lambda kv: sort_key(kv[0]))
            extent.clear()
            extent.update(ordered)
            self._unsorted.discard(type_name)
        # a copy, so a predicate that mutates the store cannot upset the walk
        objects = list(extent.values())
        if predicate is None:
            return objects
        return [obj for obj in objects if predicate(obj)]

    @_synchronized
    def count(self, type_name: str) -> int:
        """Number of live objects of *type_name*, O(1)."""
        self.schema.entity(type_name)  # raises on unknown type
        return len(self._extents.get(type_name, ()))

    @_synchronized
    def by_name(self, type_name: str, name: str) -> List[OMSObject]:
        """Live objects of *type_name* whose ``name`` is *name*, id-ordered.

        Answered from the name index in O(result); *type_name* must have
        a ``str`` ``name`` attribute.
        """
        if not self._name_indexed(type_name):
            raise SchemaError(
                f"entity {type_name!r} has no str 'name' attribute to index"
            )
        bucket = self._names.get((type_name, name))
        if not bucket:
            return []
        if len(bucket) == 1:  # names are usually unique: skip the sort
            return list(bucket.values())
        return [bucket[oid] for oid in sorted(bucket, key=sort_key)]

    @_synchronized
    def find_or_create(self, type_name: str, name: str) -> OMSObject:
        """The first object of *type_name* named *name*, created if absent.

        Probe and create happen under one hold of the store mutex, so
        racing callers cannot both miss and create a duplicate.
        """
        found = self.by_name(type_name, name)
        if found:
            return found[0]
        return self.create(type_name, {"name": name})

    @_synchronized
    def check_indexes(self) -> List[str]:
        """Cross-check the extents and the name index against a full scan.

        Returns a list of problems (empty when consistent) — the
        property-test hook mirroring ``LinkStore.check_integrity``.
        """
        problems: List[str] = []
        by_type: Dict[str, Dict[str, OMSObject]] = {}
        names: Dict[Tuple[str, str], Set[str]] = {}
        for oid in sorted(self._objects, key=sort_key):
            obj = self._objects[oid]
            if obj.deleted:
                problems.append(f"deleted object {oid} is stored")
            by_type.setdefault(obj.type_name, {})[oid] = obj
            if self._name_indexed(obj.type_name):
                names.setdefault(
                    (obj.type_name, obj._values["name"]), set()
                ).add(oid)
        for type_name in set(by_type) | set(self._extents):
            expected = by_type.get(type_name, {})
            extent = self._extents.get(type_name, {})
            if set(extent) != set(expected):
                problems.append(f"extent {type_name} != scan")
            elif any(extent[oid] is not expected[oid] for oid in expected):
                problems.append(f"extent {type_name} holds stale objects")
            elif (type_name not in self._unsorted
                  and list(extent) != list(expected)):
                problems.append(f"extent {type_name} is out of id order")
        indexed = {key: set(bucket) for key, bucket in self._names.items()}
        if indexed != names:
            problems.append("name index != scan")
        elif any(
            obj is not self._objects[oid]
            for bucket in self._names.values()
            for oid, obj in bucket.items()
        ):
            problems.append("name index holds stale objects")
        return problems

    # -- closed interface (Section 2.1 / Section 3.6 ablation) -------------------

    def procedural_interface(self) -> DirectAccess:
        """Return direct payload access — only in the future-work ablation.

        JCF 3.0 keeps OMS closed; calling this on a default-configured
        database raises :class:`ClosedInterfaceError`, exactly as the 1995
        encapsulation had to fall back to file staging.
        """
        if not self._procedural_interface_enabled:
            raise ClosedInterfaceError(
                "JCF 3.0 provides no procedural interface to OMS; design "
                "data must be staged through the UNIX file system "
                "(enable_procedural_interface=True simulates the paper's "
                "future-work extension)"
            )
        return DirectAccess(self)

    # -- statistics ---------------------------------------------------------------

    @_synchronized
    def stats(self) -> Dict[str, Any]:
        """Counts by entity type and total payload bytes (for experiments)."""
        payload_bytes = sum(
            obj.payload_size for obj in self._objects.values()
        )
        return {
            "objects": len(self._objects),
            "by_type": {
                type_name: len(extent)
                for type_name, extent in self._extents.items()
                if extent
            },
            "links": {
                name: self._link_index.count(name)
                for name in self._link_index.relation_names()
            },
            "payload_bytes": payload_bytes,
            "blobs": self._blobs.stats(),
        }
