"""Write-ahead log persistence for the OMS database.

The seed reproduced the paper's Section 3.6 flaw faithfully: every
``save_state()`` serialised the **entire** object graph, so durability
cost grew with the database, not with the change set.  This module is
the engineered fix (ROADMAP item 2): every committed transaction
appends one checksummed, fsync'd change record to ``wal.log``; restart
replays the log over the last good checkpoint.  Persistence cost per
commit is O(change set).

Layout (all under one WAL directory)::

    wal.log               append-only JSON-line commit records
    wal.log.prev          pre-rotation log, kept until the new
                          checkpoint re-verifies from disk
    checkpoint.json       last compacted snapshot (dump_snapshot bytes)
    checkpoint.json.prev  previous checkpoint, same retention rule
    blobs/<digest>        payload sidecars, content-addressed; written
                          once per digest between checkpoints

Record format — one JSON object per line::

    {"format": "repro-oms-wal-1", "lsn": N, "ops": [...], "sha256": H}

``H`` is the SHA-256 of the canonical serialisation of the record body
(everything but ``sha256``), so a flipped bit anywhere in the line is
detected before replay.  Payload bytes never ride inside records; an op
carries ``payload_digest`` and the bytes live in a ``blobs/`` sidecar
(written before the record that references it, and verified against its
file name on read).  Re-committing a payload the log already made
durable — the common case under delta harvest — appends a digest-only
record: zero payload bytes rewritten.

Replay is **idempotent**: ``create`` of an existing oid is a no-op,
``set_attr``/``set_payload`` overwrite, ``link`` is an idempotent add,
``unlink``/``delete`` tolerate absence.  Replaying a log twice (or
replaying a pre-checkpoint log over the checkpoint that already folded
it in, which is exactly what a crash inside the checkpoint protocol can
force) converges to the same state.  A torn final record — the expected
residue of a crash mid-append — is dropped and reported; damage
*before* the tail is at-rest corruption and raises
:class:`~repro.errors.WALIntegrityError` instead of replaying garbage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import threading
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.clock import SimClock
from repro.errors import OMSError, WALError, WALIntegrityError
from repro.faults import corruption_point, fault_point
from repro.oms import durable
from repro.oms.blobs import digest_bytes
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject
from repro.oms.schema import Schema
from repro.oms.snapshot import (
    dump_snapshot,
    restore_snapshot,
    verify_snapshot_bytes,
)

FORMAT = "repro-oms-wal-1"

LOG_NAME = "wal.log"
PREV_LOG_NAME = "wal.log.prev"
CHECKPOINT_NAME = "checkpoint.json"
PREV_CHECKPOINT_NAME = "checkpoint.json.prev"
CHECKPOINT_TMP_NAME = "checkpoint.json.tmp"
BLOB_DIR_NAME = "blobs"

#: ops that reference an object that must already exist; replay skips
#: (and counts) them when it does not — the tolerant half of idempotency
_NEEDS_OBJECT = ("set_attr", "set_payload")


@dataclasses.dataclass
class WALRecoveryInfo:
    """What :meth:`WriteAheadLog.recover` found and did."""

    #: which base state replay started from: ``"checkpoint"``,
    #: ``"previous-checkpoint"`` or ``"none"`` (empty database)
    base: str = "none"
    records_applied: int = 0
    ops_applied: int = 0
    #: ops tolerated as inapplicable (object vanished earlier in the
    #: log) — nonzero only on double replay over a delete
    ops_skipped: int = 0
    #: torn tail records dropped from the live log
    torn_records_dropped: int = 0
    #: housekeeping performed (completed truncations, dropped temps)
    cleaned: List[str] = dataclasses.field(default_factory=list)

    @property
    def fresh(self) -> bool:
        """True when nothing was recovered — a brand-new workspace."""
        return self.base == "none" and self.records_applied == 0

    def summary(self) -> str:
        return (
            f"wal-recovery: base={self.base} records={self.records_applied} "
            f"ops={self.ops_applied} skipped={self.ops_skipped} "
            f"torn-dropped={self.torn_records_dropped} "
            f"cleaned={len(self.cleaned)}"
        )


class WriteAheadLog:
    """Append-only commit log with periodic compaction.

    Attach to a database via ``db.attach_wal(wal)`` **after** recovery —
    replay must run against an unattached database or the replayed
    primitives would be logged again.
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        durability_mode: Optional[str] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.blob_dir.mkdir(exist_ok=True)
        #: per-call-site durability override (None = process default)
        self.durability_mode = durability_mode
        self._lock = threading.RLock()
        self._lsn = 0
        #: digests already durable (blob sidecar or folded checkpoint);
        #: commits referencing them skip the sidecar write entirely
        self._durable_digests: Set[str] = set()
        # -- counters (bench/stats surface) --
        self.records_appended = 0
        self.ops_appended = 0
        self.bytes_appended = 0
        self.blob_writes = 0
        self.blob_bytes_written = 0
        self.blob_dedup_hits = 0
        self.checkpoints = 0
        self._scan_existing()

    # -- paths ----------------------------------------------------------------

    @property
    def log_path(self) -> pathlib.Path:
        return self.root / LOG_NAME

    @property
    def prev_log_path(self) -> pathlib.Path:
        return self.root / PREV_LOG_NAME

    @property
    def checkpoint_path(self) -> pathlib.Path:
        return self.root / CHECKPOINT_NAME

    @property
    def prev_checkpoint_path(self) -> pathlib.Path:
        return self.root / PREV_CHECKPOINT_NAME

    @property
    def checkpoint_tmp_path(self) -> pathlib.Path:
        return self.root / CHECKPOINT_TMP_NAME

    @property
    def blob_dir(self) -> pathlib.Path:
        return self.root / BLOB_DIR_NAME

    @classmethod
    def present_at(cls, root: Union[str, pathlib.Path]) -> bool:
        """Does *root* look like a WAL directory? (reopen auto-detect)"""
        root = pathlib.Path(root)
        return any(
            (root / name).exists()
            for name in (LOG_NAME, PREV_LOG_NAME, CHECKPOINT_NAME,
                         PREV_CHECKPOINT_NAME)
        )

    def _scan_existing(self) -> None:
        """Fast-forward the lsn counter and durable-digest set on open."""
        for path in (self.prev_log_path, self.log_path):
            for record, _, _ in self._iter_lines(path):
                if record is not None:
                    self._lsn = max(self._lsn, int(record.get("lsn", 0)))
        for entry in self.blob_dir.iterdir():
            if entry.is_file():
                self._durable_digests.add(entry.name)

    # -- record encoding ------------------------------------------------------

    @staticmethod
    def _record_digest(body: Dict[str, Any]) -> str:
        canonical = {k: v for k, v in body.items() if k != "sha256"}
        return hashlib.sha256(
            json.dumps(canonical, sort_keys=True).encode("utf-8")
        ).hexdigest()

    @classmethod
    def _decode_line(cls, line: bytes) -> Optional[Dict[str, Any]]:
        """Parse and verify one record line; ``None`` when damaged."""
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or record.get("format") != FORMAT:
            return None
        recorded = record.get("sha256")
        if recorded is None or cls._record_digest(record) != recorded:
            return None
        if not isinstance(record.get("ops"), list):
            return None
        return record

    def _iter_lines(
        self, path: pathlib.Path
    ) -> List[Tuple[Optional[Dict[str, Any]], int, bytes]]:
        """``(decoded_or_None, byte_offset, raw_line)`` per non-empty line."""
        if not path.exists():
            return []
        raw = path.read_bytes()
        out: List[Tuple[Optional[Dict[str, Any]], int, bytes]] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                line, end = raw[offset:], len(raw)
            else:
                line, end = raw[offset:newline], newline + 1
            if line.strip():
                out.append((self._decode_line(line), offset, line))
            offset = end
        return out

    def _scan_log(
        self, path: pathlib.Path, location: str
    ) -> Tuple[List[Dict[str, Any]], Optional[int], int]:
        """Read a log, separating good records from a torn tail.

        Returns ``(records, torn_offset, torn_count)``.  Damage followed
        by *more* well-formed records cannot be a torn append — that is
        at-rest corruption and raises :class:`WALIntegrityError`.
        """
        records: List[Dict[str, Any]] = []
        torn_offset: Optional[int] = None
        torn_count = 0
        for decoded, offset, _ in self._iter_lines(path):
            if decoded is None:
                if torn_offset is None:
                    torn_offset = offset
                torn_count += 1
            elif torn_offset is not None:
                raise WALIntegrityError(
                    f"{location}: damaged record at byte {torn_offset} is "
                    f"followed by well-formed records — at-rest corruption, "
                    f"not a torn append",
                    location=location,
                    classification="bit-rot",
                )
            else:
                records.append(decoded)
        return records, torn_offset, torn_count

    # -- appending ------------------------------------------------------------

    def _ensure_blob(self, data: bytes) -> str:
        """Make payload bytes durable in a sidecar; returns the digest.

        Digest-addressed and written at most once per digest between
        checkpoints — the second commit of identical bytes is free.
        """
        digest = digest_bytes(data)
        if digest in self._durable_digests:
            self.blob_dedup_hits += 1
            return digest
        durable.atomic_replace(
            self.blob_dir / digest, data, mode=self.durability_mode
        )
        self._durable_digests.add(digest)
        self.blob_writes += 1
        self.blob_bytes_written += len(data)
        return digest

    def _encode_ops(self, ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Strip payload bytes out of ops into sidecars."""
        encoded = []
        for op in ops:
            if "payload" in op:
                op = dict(op)
                payload = op.pop("payload")
                if payload is None:
                    op["payload_digest"] = None
                    op["payload_size"] = 0
                else:
                    op["payload_digest"] = self._ensure_blob(payload)
                    op["payload_size"] = len(payload)
            encoded.append(op)
        return encoded

    def commit(self, ops: List[Dict[str, Any]]) -> Optional[int]:
        """Append one committed change set; returns its lsn.

        The record (not the whole database) is what pays the durable
        write: cost is O(change set).  The fsync honours the WAL's
        durability mode.
        """
        if not ops:
            return None
        with self._lock:
            encoded = self._encode_ops(ops)
            self._lsn += 1
            body: Dict[str, Any] = {
                "format": FORMAT,
                "lsn": self._lsn,
                "ops": encoded,
            }
            body["sha256"] = self._record_digest(body)
            line = corruption_point(
                "wal.record",
                json.dumps(body, sort_keys=True).encode("utf-8"),
            )
            # crash here: the record is lost whole, the tail stays clean
            fault_point("wal.append")
            with open(self.log_path, "ab") as handle:
                handle.write(line + b"\n")
                handle.flush()
                durable.fsync_file_handle(handle, mode=self.durability_mode)
            self.records_appended += 1
            self.ops_appended += len(ops)
            self.bytes_appended += len(line) + 1
            return self._lsn

    # -- checkpoint / compaction ----------------------------------------------

    def checkpoint(self, database: OMSDatabase) -> pathlib.Path:
        """Compact: snapshot the database, then truncate the log.

        Crash-window protocol (each ``wal.checkpoint`` fault traversal
        marks the start of one window; recovery handles all of them):

        1. dump + verify the snapshot in memory, durably write it to a
           temp file — crash leaves old checkpoint + old log intact;
        2. demote the current checkpoint to ``.prev`` and rename the
           temp into place — crash recovers from ``.prev`` + unrotated
           log, or from the new checkpoint + (idempotently replayed)
           unrotated log;
        3. rotate ``wal.log`` to ``wal.log.prev`` — crash recovers from
           the new checkpoint; the prev log is redundant but harmless;
        4. re-read and re-verify the published checkpoint from disk,
           and only then garbage-collect ``.prev`` artifacts and blob
           sidecars.  The previous state is never destroyed before the
           new one has proven itself on disk.
        """
        with self._lock:
            fault_point("wal.checkpoint")  # window 1
            data = dump_snapshot(database)
            problem = verify_snapshot_bytes(data)
            if problem is not None:
                raise WALIntegrityError(
                    f"checkpoint aborted: fresh snapshot fails verification "
                    f"({problem})",
                    location=str(self.checkpoint_path),
                    classification=problem,
                )
            durable.write_bytes(
                self.checkpoint_tmp_path, data, mode=self.durability_mode
            )
            if self.checkpoint_path.exists():
                durable.replace(
                    self.checkpoint_path,
                    self.prev_checkpoint_path,
                    mode=self.durability_mode,
                )
            fault_point("wal.checkpoint")  # window 2
            durable.replace(
                self.checkpoint_tmp_path,
                self.checkpoint_path,
                mode=self.durability_mode,
            )
            fault_point("wal.checkpoint")  # window 3
            if self.log_path.exists():
                durable.replace(
                    self.log_path, self.prev_log_path,
                    mode=self.durability_mode,
                )
            fault_point("wal.checkpoint")  # window 4
            ondisk = self.checkpoint_path.read_bytes()
            problem = verify_snapshot_bytes(ondisk)
            if problem is not None:
                raise WALIntegrityError(
                    f"checkpoint readback failed verification ({problem}); "
                    f"previous state retained",
                    location=str(self.checkpoint_path),
                    classification=problem,
                )
            self._gc_after_checkpoint(database)
            self.checkpoints += 1
            return self.checkpoint_path

    def _gc_after_checkpoint(self, database: OMSDatabase) -> None:
        """Drop superseded artifacts once the new checkpoint verified."""
        for stale in (self.prev_log_path, self.prev_checkpoint_path):
            if stale.exists():
                stale.unlink()
        for entry in self.blob_dir.iterdir():
            if entry.is_file():
                entry.unlink()
        durable.fsync_dir(self.root, mode=self.durability_mode)
        durable.fsync_dir(self.blob_dir, mode=self.durability_mode)
        # everything the checkpoint holds is durable by definition
        self._durable_digests = set(database.payload_digests())

    # -- recovery -------------------------------------------------------------

    def recover(
        self,
        schema: Schema,
        clock: Optional[SimClock] = None,
        enable_procedural_interface: bool = False,
        policy: Optional[Dict[str, bool]] = None,
    ) -> Tuple[OMSDatabase, WALRecoveryInfo]:
        """Rebuild the database: last good checkpoint + log replay.

        Returns the recovered database and a report.  The database is
        **not** attached to this WAL yet — call ``db.attach_wal(wal)``
        after, so replayed primitives are not re-logged.
        """
        with self._lock:
            info = WALRecoveryInfo()
            if self.checkpoint_tmp_path.exists():
                # an unpublished checkpoint temp is as good as absent
                self.checkpoint_tmp_path.unlink()
                info.cleaned.append("dropped unpublished checkpoint temp")

            base_bytes = self._pick_base(info)
            if base_bytes is not None:
                database = restore_snapshot(
                    schema,
                    base_bytes,
                    clock=clock,
                    enable_procedural_interface=enable_procedural_interface,
                )
            else:
                database = OMSDatabase(
                    schema,
                    clock=clock,
                    enable_procedural_interface=enable_procedural_interface,
                    policy=policy,
                )

            logs: List[Tuple[pathlib.Path, bool]] = []
            if info.base == "previous-checkpoint" or info.base == "none":
                if self.prev_log_path.exists():
                    logs.append((self.prev_log_path, False))
            logs.append((self.log_path, True))

            all_records: List[Dict[str, Any]] = []
            for path, is_live in logs:
                records, torn_offset, torn_count = self._scan_log(
                    path, location=str(path)
                )
                if torn_offset is not None:
                    if not is_live:
                        raise WALIntegrityError(
                            f"{path}: rotated log has a damaged tail — "
                            f"at-rest corruption",
                            location=str(path),
                            classification="torn-write",
                        )
                    # drop the torn tail: the interrupted append never
                    # committed, so truncating is the repair
                    with open(path, "r+b") as handle:
                        handle.truncate(torn_offset)
                        durable.fsync_file_handle(
                            handle, mode=self.durability_mode
                        )
                    info.torn_records_dropped += torn_count
                    info.cleaned.append(
                        f"truncated torn tail of {path.name} "
                        f"({torn_count} record(s))"
                    )
                all_records.extend(records)

            self._check_lsn_order(all_records)
            applied, skipped = self.replay_into(database, all_records)
            info.records_applied = len(all_records)
            info.ops_applied = applied
            info.ops_skipped = skipped

            if all_records:
                self._lsn = max(
                    self._lsn, max(int(r["lsn"]) for r in all_records)
                )
            # a verified current checkpoint supersedes the .prev pair:
            # finish any truncation a crash interrupted
            if info.base == "checkpoint":
                for stale in (self.prev_log_path, self.prev_checkpoint_path):
                    if stale.exists():
                        stale.unlink()
                        info.cleaned.append(f"completed truncation of {stale.name}")
                durable.fsync_dir(self.root, mode=self.durability_mode)
            self._durable_digests.update(database.payload_digests())
            return database, info

    def _pick_base(self, info: WALRecoveryInfo) -> Optional[bytes]:
        """Choose the newest checkpoint that verifies, or none."""
        current = self._verified_checkpoint(self.checkpoint_path)
        if current is not None:
            info.base = "checkpoint"
            return current
        previous = self._verified_checkpoint(self.prev_checkpoint_path)
        if previous is not None:
            info.base = "previous-checkpoint"
            if self.checkpoint_path.exists():
                info.cleaned.append(
                    "current checkpoint failed verification; recovered "
                    "from previous checkpoint"
                )
            return previous
        if self.checkpoint_path.exists() or self.prev_checkpoint_path.exists():
            raise WALIntegrityError(
                "no checkpoint verifies and the log does not reach back "
                "to an empty database — refusing to silently lose state",
                location=str(self.checkpoint_path),
                classification="bit-rot",
            )
        info.base = "none"
        return None

    @staticmethod
    def _verified_checkpoint(path: pathlib.Path) -> Optional[bytes]:
        if not path.exists():
            return None
        data = path.read_bytes()
        if verify_snapshot_bytes(data) is not None:
            return None
        return data

    @staticmethod
    def _check_lsn_order(records: List[Dict[str, Any]]) -> None:
        previous = 0
        for record in records:
            lsn = int(record["lsn"])
            if lsn <= previous:
                raise WALIntegrityError(
                    f"log sequence numbers out of order ({lsn} after "
                    f"{previous}) — mixed or rewound log files",
                    location="wal",
                    classification="bit-rot",
                )
            previous = lsn

    # -- replay ---------------------------------------------------------------

    def replay_into(
        self, database: OMSDatabase, records: List[Dict[str, Any]]
    ) -> Tuple[int, int]:
        """Apply decoded records to *database*; ``(applied, skipped)``.

        Idempotent and restartable: applying the same records again
        converges to the same state (the double-replay fixpoint the
        crash matrix asserts).  The database must not have this WAL
        attached, or replayed ops would be logged again.
        """
        if getattr(database, "wal", None) is self:
            raise WALError(
                "replay_into: detach the WAL before replaying into the "
                "database (replayed ops must not be re-logged)"
            )
        cache = self._seed_payload_cache(database, records)
        applied = 0
        skipped = 0
        for record in records:
            for op in record["ops"]:
                if self._apply_op(database, op, cache):
                    applied += 1
                else:
                    skipped += 1
        return applied, skipped

    def _seed_payload_cache(
        self, database: OMSDatabase, records: List[Dict[str, Any]]
    ) -> Dict[str, bytes]:
        """Resolve every referenced payload digest up front.

        A digest may be durable only inside the checkpoint (its sidecar
        was GC'd); if a replayed ``delete`` later drops its last
        reference and a subsequent ``create`` re-interns it, the bytes
        must come from somewhere — this cache pins them for the whole
        replay.
        """
        cache: Dict[str, bytes] = {}
        for record in records:
            for op in record["ops"]:
                digest = op.get("payload_digest")
                if not digest or digest in cache:
                    continue
                data = self._resolve_payload(database, digest)
                if data is not None:
                    cache[digest] = data
        return cache

    def _resolve_payload(
        self, database: OMSDatabase, digest: str
    ) -> Optional[bytes]:
        sidecar = self.blob_dir / digest
        if sidecar.is_file():
            data = sidecar.read_bytes()
            if digest_bytes(data) != digest:
                raise WALIntegrityError(
                    f"payload sidecar {digest} fails its digest",
                    location=str(sidecar),
                    classification="bit-rot",
                )
            return data
        try:
            return database.materialize_payload(digest, verify=True)
        except OMSError:
            return None

    def _payload_for(
        self, op: Dict[str, Any], cache: Dict[str, bytes]
    ) -> Optional[bytes]:
        digest = op.get("payload_digest")
        if digest is None:
            return None
        data = cache.get(digest)
        if data is None:
            raise WALError(
                f"replay: payload {digest} referenced by op "
                f"{op.get('op')!r} is not durable anywhere (sidecar, "
                f"checkpoint, or earlier in this replay)"
            )
        return data

    def _apply_op(
        self,
        database: OMSDatabase,
        op: Dict[str, Any],
        cache: Dict[str, bytes],
    ) -> bool:
        kind = op.get("op")
        if kind == "create":
            oid = op["oid"]
            if database.exists(oid):
                return True  # idempotent re-create
            entity = database.schema.entity(op["type"])
            values = entity.validate_values({
                k: v for k, v in op.get("values", {}).items() if v is not None
            })
            obj = OMSObject(oid, entity, values)
            database._attach_payload(obj, self._payload_for(op, cache))
            database._insert_object(obj)
            database._allocator.observe(oid)
            return True
        if kind == "delete":
            oid = op["oid"]
            if not database.exists(oid):
                return True  # idempotent re-delete
            payload = database.get(oid).payload
            if payload is not None:
                # pin the bytes: a later create may re-intern this digest
                cache.setdefault(digest_bytes(payload), payload)
            database.delete(oid)
            return True
        if kind == "set_attr":
            oid = op["oid"]
            if not database.exists(oid):
                return False
            database.set_attr(oid, op["name"], op["value"])
            return True
        if kind == "set_payload":
            oid = op["oid"]
            if not database.exists(oid):
                return False
            previous = database.get(oid).payload
            if previous is not None:
                cache.setdefault(digest_bytes(previous), previous)
            database.set_payload(oid, self._payload_for(op, cache))
            return True
        if kind == "link":
            source, target = op["source"], op["target"]
            if not (database.exists(source) and database.exists(target)):
                return False
            database._link_add(op["rel"], source, target)
            return True
        if kind == "unlink":
            database._link_remove(op["rel"], op["source"], op["target"])
            return True
        raise WALError(f"replay: unknown op kind {kind!r}")

    # -- verification / repair (audit and recovery sweeps) --------------------

    def verify(self) -> List[Tuple[str, str]]:
        """Non-mutating damage sweep: ``(location, classification)`` list.

        A healthy (or freshly recovered) WAL reports nothing; a torn
        tail shows up as ``torn-tail`` until :meth:`repair` drops it.
        """
        findings: List[Tuple[str, str]] = []
        for path in (self.checkpoint_path, self.prev_checkpoint_path):
            if path.exists():
                problem = verify_snapshot_bytes(path.read_bytes())
                if problem is not None:
                    findings.append((str(path), problem))
        for path in (self.prev_log_path, self.log_path):
            try:
                _, torn_offset, _ = self._scan_log(path, location=str(path))
            except WALIntegrityError as exc:
                findings.append((str(path), exc.classification or "bit-rot"))
                continue
            if torn_offset is not None:
                findings.append((str(path), "torn-tail"))
        for entry in sorted(self.blob_dir.iterdir()):
            if entry.is_file() and digest_bytes(entry.read_bytes()) != entry.name:
                findings.append((str(entry), "bit-rot"))
        return findings

    def repair(self) -> List[str]:
        """Drop the live log's torn tail, if any; returns repair notes.

        Safe to call whenever the database is quiesced (the recovery
        sweep calls it); damage it cannot repair is left for
        :meth:`verify` / the audit to report.
        """
        notes: List[str] = []
        with self._lock:
            try:
                _, torn_offset, torn_count = self._scan_log(
                    self.log_path, location=str(self.log_path)
                )
            except WALIntegrityError:
                return notes  # not a tail problem; audit reports it
            if torn_offset is not None:
                with open(self.log_path, "r+b") as handle:
                    handle.truncate(torn_offset)
                    durable.fsync_file_handle(
                        handle, mode=self.durability_mode
                    )
                notes.append(
                    f"wal: truncated torn tail of {LOG_NAME} "
                    f"({torn_count} record(s))"
                )
        return notes

    # -- stats ----------------------------------------------------------------

    def log_size(self) -> int:
        """Current live-log size in bytes."""
        try:
            return self.log_path.stat().st_size
        except OSError:
            return 0

    def stats(self) -> Dict[str, int]:
        return {
            "lsn": self._lsn,
            "records_appended": self.records_appended,
            "ops_appended": self.ops_appended,
            "bytes_appended": self.bytes_appended,
            "blob_writes": self.blob_writes,
            "blob_bytes_written": self.blob_bytes_written,
            "blob_dedup_hits": self.blob_dedup_hits,
            "checkpoints": self.checkpoints,
            "log_size": self.log_size(),
        }
